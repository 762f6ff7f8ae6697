// Package hypercube implements the n-dimensional hypercube geometry the
// HVDB model is built on: labels, neighbor enumeration, the e-cube
// (dimension-ordered) preferred path, and the node-disjoint
// parallel-paths construction behind the paper's high-availability
// claim. Cube is the incomplete hypercube — following Katseff's
// incomplete hypercubes, which the paper generalizes, any nodes may be
// missing — as a graph.Graph with bit-flip adjacency and the e-cube
// path; routing and multicast over it are package graph's.
//
// Everything here is pure computation over labels; mapping labels onto
// geographic Virtual Circles is package logicalid's job.
package hypercube

import (
	"fmt"
	"math/bits"

	"repro/internal/graph"
)

// Label is a hypercube node label k1...kn packed into the low n bits of
// a uint32 (k_n is bit 0). Dimensions above 20 are rejected by New, so
// uint32 is ample.
type Label uint32

// MaxDim is the largest supported dimension. The paper considers "small"
// dimensions (3..6); 20 leaves generous experimental headroom while
// keeping table sizes sane.
const MaxDim = 20

// String renders the label as an n-bit binary string given the cube
// dimension.
func (l Label) String() string { return fmt.Sprintf("%b", uint32(l)) }

// Bits renders the label with exactly dim binary digits, matching the
// paper's figures (e.g. "0101" in a 4-cube).
func (l Label) Bits(dim int) string {
	return fmt.Sprintf("%0*b", dim, uint32(l))
}

// Flip returns the label with bit i (0-based from the least significant
// end) inverted — the neighbor across dimension i.
func (l Label) Flip(i int) Label { return l ^ (1 << uint(i)) }

// Bit returns bit i of the label.
func (l Label) Bit(i int) int { return int(l>>uint(i)) & 1 }

// Cube is a possibly incomplete hypercube: a graph.Graph over the 2^n
// labels with bit-flip adjacency and the e-cube preferred path. The
// paper: "We generalize the incomplete hypercube by allowing any number
// of nodes/links to be absent due to many reasons such as mobility,
// transmission range, and failure of nodes." Routing, connectivity,
// diameter and the greedy multicast tree come from graph.Graph: Route
// takes the e-cube path when it is intact and a shortest detour
// otherwise, and MulticastTree grows the tree along e-cube paths, which
// share prefixes.
type Cube struct {
	graph.Graph[Label, dims]
}

// dims is the cube's shape: its dimension n.
type dims int

// Adjacent implements graph.Shape: the n bit-flip neighbours, lowest
// dimension first.
func (n dims) Adjacent(l Label, buf []Label) []Label {
	for i := 0; i < int(n); i++ {
		buf = append(buf, l.Flip(i))
	}
	return buf
}

// Path implements graph.Shape: the e-cube path.
func (dims) Path(src, dst Label, buf []Label) []Label {
	buf = append(buf, src)
	for cur := src; cur != dst; {
		cur = ECubeNext(cur, dst)
		buf = append(buf, cur)
	}
	return buf
}

// New returns an empty (all-absent) cube of the given dimension. It
// panics if dim is outside [1, MaxDim]; that is a configuration error.
func New(dim int) *Cube {
	if dim < 1 || dim > MaxDim {
		panic(fmt.Sprintf("hypercube: dimension %d out of range [1,%d]", dim, MaxDim))
	}
	return &Cube{graph.New[Label](1<<uint(dim), dims(dim))}
}

// Complete returns a cube with all 2^dim nodes present.
func Complete(dim int) *Cube {
	c := New(dim)
	for l := 0; l < c.Size(); l++ {
		c.Add(Label(l))
	}
	return c
}

// Dim returns the cube dimension n.
func (c *Cube) Dim() int { return int(c.Shape()) }

// Labels returns all present labels in ascending order.
func (c *Cube) Labels() []Label { return c.Members() }

// AllNeighbors returns every potential neighbor label regardless of
// presence — the logical link set of the complete cube.
func AllNeighbors(l Label, dim int) []Label {
	return dims(dim).Adjacent(l, make([]Label, 0, dim))
}

// ECubeNext returns the next hop from cur toward dst under e-cube
// (dimension-ordered, lowest dimension first) routing in a complete
// cube, or cur when cur == dst. E-cube is the deadlock-free baseline the
// MPP literature uses; the incomplete cube falls back to Route when the
// e-cube hop is absent.
func ECubeNext(cur, dst Label) Label {
	diff := uint32(cur ^ dst)
	if diff == 0 {
		return cur
	}
	i := bits.TrailingZeros32(diff)
	return cur.Flip(i)
}

// DisjointPaths returns up to n node-disjoint paths (sharing only the
// endpoints) between src and dst in the complete n-cube, the classic
// construction behind the paper's claim that "the hypercube offers n
// node disjoint paths between each pair of nodes, therefore it can
// sustain up to n-1 node failures".
//
// Construction: let D = {dimensions where src and dst differ}, |D| = h.
// For j = 0..h-1, path j corrects the dimensions of D in rotated order
// starting at the j-th — these h paths have length h and are internally
// disjoint. For each dimension d outside D, one more path of length h+2
// goes src -> src^d -> (correct D in order) -> dst^d -> dst.
func DisjointPaths(src, dst Label, dim int) [][]Label {
	if src == dst {
		return [][]Label{{src}}
	}
	var diff, same []int
	for i := 0; i < dim; i++ {
		if src.Bit(i) != dst.Bit(i) {
			diff = append(diff, i)
		} else {
			same = append(same, i)
		}
	}
	h := len(diff)
	paths := make([][]Label, 0, dim)
	for j := 0; j < h; j++ {
		path := []Label{src}
		cur := src
		for k := 0; k < h; k++ {
			cur = cur.Flip(diff[(j+k)%h])
			path = append(path, cur)
		}
		paths = append(paths, path)
	}
	for _, d := range same {
		path := []Label{src, src.Flip(d)}
		cur := src.Flip(d)
		for k := 0; k < h; k++ {
			cur = cur.Flip(diff[k])
			path = append(path, cur)
		}
		path = append(path, dst)
		paths = append(paths, path)
	}
	return paths
}

// AvailablePaths counts how many of the canonical disjoint paths between
// src and dst are fully present in the incomplete cube — the immediate
// "multiple candidate logical routes become available" quantity of the
// paper's availability argument.
func (c *Cube) AvailablePaths(src, dst Label) int {
	if !c.Has(src) || !c.Has(dst) {
		return 0
	}
	n := 0
	for _, path := range DisjointPaths(src, dst, c.Dim()) {
		ok := true
		for _, l := range path {
			if !c.Has(l) {
				ok = false
				break
			}
		}
		if ok {
			n++
		}
	}
	return n
}
