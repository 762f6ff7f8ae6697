package logicalid

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/hypercube"
	"repro/internal/vcgrid"
)

// scheme8x8 reproduces the paper's Figure 2 configuration: an 8*8 VC
// MANET divided into four 4-dimensional logical hypercubes.
func scheme8x8(t *testing.T) *Scheme {
	t.Helper()
	g := vcgrid.New(geom.RectWH(0, 0, 2000, 2000), 250)
	s, err := New(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFigure2Decomposition(t *testing.T) {
	s := scheme8x8(t)
	w, h := s.BlockSize()
	if w != 4 || h != 4 {
		t.Fatalf("block %dx%d want 4x4", w, h)
	}
	mc, mr := s.MeshSize()
	if mc != 2 || mr != 2 || s.NumHypercubes() != 4 {
		t.Fatalf("mesh %dx%d (%d cubes) want 2x2 (4)", mc, mr, s.NumHypercubes())
	}
	// Each hypercube block contains exactly 16 VCs.
	for h := HID(0); h < 4; h++ {
		if got := len(s.BlockVCs(h)); got != 16 {
			t.Fatalf("block %d has %d VCs want 16", h, got)
		}
	}
}

// TestFigure3LabelLayout verifies the exact 16-label layout of the
// paper's Figure 3. The figure draws the block with label 0000 in the
// top-left; our rows run south-to-north, so figure row 0 is by=0 here
// with the same left-to-right columns. What matters — and what this test
// pins down — is the relative layout of the 16 labels.
func TestFigure3LabelLayout(t *testing.T) {
	s := scheme8x8(t)
	want := [4][4]string{
		{"0000", "0001", "0100", "0101"},
		{"0010", "0011", "0110", "0111"},
		{"1000", "1001", "1100", "1101"},
		{"1010", "1011", "1110", "1111"},
	}
	for row := 0; row < 4; row++ {
		for col := 0; col < 4; col++ {
			p := s.PlaceOf(vcgrid.VC{CX: col, CY: row})
			if p.HID != 0 {
				t.Fatalf("VC (%d,%d) in hypercube %d want 0", col, row, p.HID)
			}
			if got := p.HNID.Bits(4); got != want[row][col] {
				t.Errorf("label at (col=%d,row=%d) = %s want %s", col, row, got, want[row][col])
			}
		}
	}
}

// TestFigure3AdditionalLinks verifies the figure's "additional logical
// links between hypercube nodes": node 0000's hypercube neighbors are
// 0001 and 0010 (grid-adjacent) plus 0100 and 1000 (two-cell jumps).
func TestFigure3AdditionalLinks(t *testing.T) {
	s := scheme8x8(t)
	at := func(label string) vcgrid.VC {
		var l hypercube.Label
		for _, ch := range label {
			l = l<<1 | hypercube.Label(ch-'0')
		}
		return s.VCAt(0, l)
	}
	// Grid-adjacent neighbor links.
	if vcgrid.DistVCs(at("0000"), at("0001")) != 1 {
		t.Error("0000-0001 should be grid-adjacent")
	}
	if vcgrid.DistVCs(at("0000"), at("0010")) != 1 {
		t.Error("0000-0010 should be grid-adjacent")
	}
	// Additional (jump) links span two cells.
	if vcgrid.DistVCs(at("0000"), at("0100")) != 2 {
		t.Error("0000-0100 should jump two columns")
	}
	if vcgrid.DistVCs(at("0000"), at("1000")) != 2 {
		t.Error("0000-1000 should jump two rows")
	}
}

func TestPlaceRoundTrip(t *testing.T) {
	s := scheme8x8(t)
	for cy := 0; cy < 8; cy++ {
		for cx := 0; cx < 8; cx++ {
			v := vcgrid.VC{CX: cx, CY: cy}
			p := s.PlaceOf(v)
			back := s.VCAt(p.HID, p.HNID)
			if back != v {
				t.Fatalf("round trip %v -> %+v -> %v", v, p, back)
			}
			if s.CHIDToPlace(p.CHID) != p {
				t.Fatalf("CHID round trip failed for %v", v)
			}
		}
	}
}

func TestCHIDsAreUnique(t *testing.T) {
	s := scheme8x8(t)
	seen := map[CHID]bool{}
	for cy := 0; cy < 8; cy++ {
		for cx := 0; cx < 8; cx++ {
			p := s.PlaceOf(vcgrid.VC{CX: cx, CY: cy})
			if seen[p.CHID] {
				t.Fatalf("duplicate CHID %d", p.CHID)
			}
			seen[p.CHID] = true
		}
	}
}

func TestHNIDsUniqueWithinBlock(t *testing.T) {
	s := scheme8x8(t)
	for h := HID(0); h < HID(s.NumHypercubes()); h++ {
		seen := map[hypercube.Label]bool{}
		for _, v := range s.BlockVCs(h) {
			p := s.PlaceOf(v)
			if p.HID != h {
				t.Fatalf("BlockVCs(%d) returned VC of block %d", h, p.HID)
			}
			if seen[p.HNID] {
				t.Fatalf("duplicate HNID %v in block %d", p.HNID, h)
			}
			seen[p.HNID] = true
		}
	}
}

func TestPlaceAt(t *testing.T) {
	s := scheme8x8(t)
	p := s.PlaceAt(geom.Pt(10, 10)) // VC (0,0)
	if p.HID != 0 || p.HNID != 0 {
		t.Fatalf("origin place %+v", p)
	}
	p = s.PlaceAt(geom.Pt(1999, 1999)) // VC (7,7): block (1,1), local (3,3)
	if p.HID != 3 || p.HNID.Bits(4) != "1111" {
		t.Fatalf("far corner place %+v (label %s)", p, p.HNID.Bits(4))
	}
}

func TestMeshCoord(t *testing.T) {
	s := scheme8x8(t)
	for h, want := range [][2]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}} {
		if mx, my := s.MeshCoord(HID(h)); mx != want[0] || my != want[1] {
			t.Fatalf("MeshCoord(%d) = %d,%d want %v", h, mx, my, want)
		}
	}
}

func TestIsBorder(t *testing.T) {
	s := scheme8x8(t)
	cases := []struct {
		v      vcgrid.VC
		border bool
	}{
		{vcgrid.VC{CX: 0, CY: 0}, false}, // grid corner: no adjacent block
		{vcgrid.VC{CX: 3, CY: 0}, true},  // east edge of block 0, block 1 beyond
		{vcgrid.VC{CX: 4, CY: 0}, true},  // west edge of block 1
		{vcgrid.VC{CX: 1, CY: 1}, false}, // interior
		{vcgrid.VC{CX: 0, CY: 3}, true},  // north edge of block 0, block 2 beyond
		{vcgrid.VC{CX: 7, CY: 7}, false}, // grid corner
		{vcgrid.VC{CX: 3, CY: 3}, true},  // corner facing blocks 1 and 2
	}
	for _, c := range cases {
		if got := s.IsBorder(c.v); got != c.border {
			t.Errorf("IsBorder(%v)=%v want %v", c.v, got, c.border)
		}
	}
}

func TestOddDimension(t *testing.T) {
	g := vcgrid.New(geom.RectWH(0, 0, 2000, 1000), 250) // 8x4 VCs
	s, err := New(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	w, h := s.BlockSize()
	if w != 4 || h != 2 {
		t.Fatalf("3-cube block %dx%d want 4x2", w, h)
	}
	if s.NumHypercubes() != 4 {
		t.Fatalf("cubes %d want 4", s.NumHypercubes())
	}
	// Round trip still holds.
	for cy := 0; cy < 4; cy++ {
		for cx := 0; cx < 8; cx++ {
			v := vcgrid.VC{CX: cx, CY: cy}
			p := s.PlaceOf(v)
			if s.VCAt(p.HID, p.HNID) != v {
				t.Fatalf("odd-dim round trip failed at %v", v)
			}
		}
	}
}

func TestPartialEdgeBlocks(t *testing.T) {
	// A 6x6 grid with dim-4 (4x4) blocks leaves partial blocks at the
	// east and north edges: incomplete hypercubes.
	g := vcgrid.New(geom.RectWH(0, 0, 1500, 1500), 250)
	s, err := New(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumHypercubes() != 4 {
		t.Fatalf("cubes %d want 4", s.NumHypercubes())
	}
	if got := len(s.BlockVCs(0)); got != 16 {
		t.Fatalf("full block has %d VCs", got)
	}
	if got := len(s.BlockVCs(1)); got != 8 { // 2 cols x 4 rows remain
		t.Fatalf("partial block has %d VCs want 8", got)
	}
	if got := len(s.BlockVCs(3)); got != 4 { // 2x2 corner
		t.Fatalf("corner block has %d VCs want 4", got)
	}
	for _, v := range s.BlockVCs(3) {
		p := s.PlaceOf(v)
		if s.VCAt(p.HID, p.HNID) != v {
			t.Fatalf("partial block round trip failed at %v", v)
		}
	}
}

func TestBadDimension(t *testing.T) {
	g := vcgrid.New(geom.RectWH(0, 0, 1000, 1000), 250)
	if _, err := New(g, 0); err == nil {
		t.Fatal("dim 0 should error")
	}
	if _, err := New(g, hypercube.MaxDim+1); err == nil {
		t.Fatal("oversized dim should error")
	}
}

// Property check mirroring §4.1: CHID<->HNID one-to-one within a block,
// HNID->HID many-to-one, HID<->MNID one-to-one (HID serves as the MNID).
func TestIdentifierRelations(t *testing.T) {
	s := scheme8x8(t)
	labelsPerHID := map[HID]map[hypercube.Label]CHID{}
	for cy := 0; cy < 8; cy++ {
		for cx := 0; cx < 8; cx++ {
			p := s.PlaceOf(vcgrid.VC{CX: cx, CY: cy})
			m, ok := labelsPerHID[p.HID]
			if !ok {
				m = map[hypercube.Label]CHID{}
				labelsPerHID[p.HID] = m
			}
			if prev, dup := m[p.HNID]; dup {
				t.Fatalf("HNID %v maps to CHIDs %d and %d in HID %d", p.HNID, prev, p.CHID, p.HID)
			}
			m[p.HNID] = p.CHID
		}
	}
	if len(labelsPerHID) != 4 {
		t.Fatalf("HIDs %d want 4", len(labelsPerHID))
	}
	for h, m := range labelsPerHID {
		if len(m) != 16 {
			t.Fatalf("HID %d has %d labels want 16 (many-to-one HNID->HID)", h, len(m))
		}
	}
}

// TestRoundTripProperty quick-checks PlaceOf/VCAt inversion over random
// grid shapes and dimensions.
func TestRoundTripProperty(t *testing.T) {
	f := func(colsSeed, rowsSeed, dimSeed, xSeed, ySeed uint8) bool {
		cols := 2 + int(colsSeed%14)
		rows := 2 + int(rowsSeed%14)
		dim := 1 + int(dimSeed%6)
		g := vcgrid.New(geom.RectWH(0, 0, float64(cols)*100, float64(rows)*100), 100)
		s, err := New(g, dim)
		if err != nil {
			return false
		}
		v := vcgrid.VC{CX: int(xSeed) % cols, CY: int(ySeed) % rows}
		p := s.PlaceOf(v)
		return s.VCAt(p.HID, p.HNID) == v && s.CHIDToPlace(p.CHID) == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestHNIDUniquenessProperty: within any block, labels never collide.
func TestHNIDUniquenessProperty(t *testing.T) {
	f := func(dimSeed uint8) bool {
		dim := 1 + int(dimSeed%6)
		g := vcgrid.New(geom.RectWH(0, 0, 1600, 1600), 100) // 16x16
		s, err := New(g, dim)
		if err != nil {
			return false
		}
		seen := map[[2]int]bool{} // (HID, HNID)
		for cy := 0; cy < g.Rows(); cy++ {
			for cx := 0; cx < g.Cols(); cx++ {
				p := s.PlaceOf(vcgrid.VC{CX: cx, CY: cy})
				key := [2]int{int(p.HID), int(p.HNID)}
				if seen[key] {
					return false
				}
				seen[key] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestBlockVCsTable pins the constructor-built BlockVCs table against
// the enumeration it replaced (row-major over the block, invalid VCs
// skipped) for every hypercube of ragged grids, and checks that a
// caller appending to a returned slice cannot run into the next block.
func TestBlockVCsTable(t *testing.T) {
	for _, tc := range []struct {
		w, h float64
		dim  int
	}{{1500, 1500, 4}, {1750, 1250, 3}, {2250, 750, 5}, {2000, 2000, 4}} {
		g := vcgrid.New(geom.RectWH(0, 0, tc.w, tc.h), 250)
		s, err := New(g, tc.dim)
		if err != nil {
			t.Fatal(err)
		}
		bw, bh := s.BlockSize()
		want := make([][]vcgrid.VC, s.NumHypercubes())
		total := 0
		for h := range want {
			mx, my := s.MeshCoord(HID(h))
			for by := 0; by < bh; by++ {
				for bx := 0; bx < bw; bx++ {
					if v := (vcgrid.VC{CX: mx*bw + bx, CY: my*bh + by}); g.Valid(v) {
						want[h] = append(want[h], v)
					}
				}
			}
			total += len(want[h])
		}
		if total != g.Count() {
			t.Fatalf("%vx%v dim %d: reference enumerates %d VCs of %d", tc.w, tc.h, tc.dim, total, g.Count())
		}
		check := func(when string) {
			for h := range want {
				if got := s.BlockVCs(HID(h)); !slices.Equal(got, want[h]) {
					t.Fatalf("%vx%v dim %d %s: BlockVCs(%d) = %v want %v", tc.w, tc.h, tc.dim, when, h, got, want[h])
				}
			}
		}
		check("as built")
		for h := range want {
			_ = append(s.BlockVCs(HID(h)), vcgrid.VC{CX: -1, CY: -1})
		}
		check("after callers appended")
	}
}
