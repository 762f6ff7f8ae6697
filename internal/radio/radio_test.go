package radio

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/xrand"
)

func TestInRange(t *testing.T) {
	m := Model{Range: 100}
	if !m.InRange(100) {
		t.Error("boundary distance should be in range")
	}
	if m.InRange(100.01) {
		t.Error("beyond range should be out")
	}
	if !m.Reaches(geom.Pt(0, 0), geom.Pt(60, 80)) {
		t.Error("distance-100 points should reach")
	}
	if m.Reaches(geom.Pt(0, 0), geom.Pt(60, 81)) {
		t.Error("distance >100 should not reach")
	}
}

func TestTxDelayComposition(t *testing.T) {
	m := Model{Range: 250, Bandwidth: 1e6, ProcDelay: 0.002}
	// 1000 bytes at 1 Mb/s = 8 ms transmission; 300 m propagation = 1 us.
	got := m.TxDelay(1000, 300)
	want := 0.008 + 300.0/3e8 + 0.002
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("TxDelay=%v want %v", got, want)
	}
}

func TestTxDelayMonotoneInSizeProperty(t *testing.T) {
	m := DefaultMN
	f := func(a, b uint16, d uint8) bool {
		s1, s2 := int(a), int(b)
		if s1 > s2 {
			s1, s2 = s2, s1
		}
		return m.TxDelay(s1, float64(d)) <= m.TxDelay(s2, float64(d))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLost(t *testing.T) {
	rng := xrand.New(1)
	m := Model{LossProb: 0}
	for i := 0; i < 100; i++ {
		if m.Lost(rng) {
			t.Fatal("zero loss prob lost a packet")
		}
	}
	m.LossProb = 0.5
	losses := 0
	for i := 0; i < 10000; i++ {
		if m.Lost(rng) {
			losses++
		}
	}
	if losses < 4500 || losses > 5500 {
		t.Fatalf("loss frequency %d/10000 far from 0.5", losses)
	}
}

func TestCapacityReserveRelease(t *testing.T) {
	c := NewCapacity(1000)
	if c.Total() != 1000 || c.Free() != 1000 {
		t.Fatal("fresh capacity wrong")
	}
	if !c.Reserve(400) {
		t.Fatal("400/1000 should be admitted")
	}
	if !c.Reserve(600) {
		t.Fatal("600 more should fill exactly")
	}
	if c.Reserve(1) {
		t.Fatal("over-capacity reservation admitted")
	}
	if c.Free() != 0 {
		t.Fatalf("Free=%v want 0", c.Free())
	}
	c.Release(400)
	if c.Free() != 400 {
		t.Fatalf("Free after release=%v want 400", c.Free())
	}
	if u := c.Utilization(); math.Abs(u-0.6) > 1e-12 {
		t.Fatalf("Utilization=%v want 0.6", u)
	}
}

func TestCapacityEdgeCases(t *testing.T) {
	c := NewCapacity(100)
	if !c.Reserve(0) || !c.Reserve(-5) {
		t.Fatal("non-positive reservations are no-ops that succeed")
	}
	if c.Free() != 100 {
		t.Fatal("no-op reservations consumed capacity")
	}
	c.Release(50) // release without reserve clamps at zero
	if c.Free() != 100 {
		t.Fatalf("over-release manufactured capacity: Free=%v", c.Free())
	}
	z := NewCapacity(0)
	if z.Utilization() != 0 {
		t.Fatal("zero-capacity utilization should be 0")
	}
	neg := NewCapacity(-10)
	if neg.Total() != 0 {
		t.Fatal("negative capacity should clamp to 0")
	}
}

func TestCapacityNeverOvercommitsProperty(t *testing.T) {
	f := func(ops []int16) bool {
		c := NewCapacity(1 << 12)
		for _, op := range ops {
			if op >= 0 {
				c.Reserve(float64(op))
			} else {
				c.Release(float64(-op))
			}
			if c.Free() < 0 || c.Free() > c.Total() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDefaultModels(t *testing.T) {
	if DefaultCH.Range <= DefaultMN.Range {
		t.Error("CH radio should out-range MN radio (paper's capability assumption)")
	}
	if DefaultCH.Bandwidth <= DefaultMN.Bandwidth {
		t.Error("CH radio should have more bandwidth")
	}
}

func TestEnergyConsumed(t *testing.T) {
	e := Energy{TxPerByte: 2e-6, RxPerByte: 1e-6}
	got := e.Consumed(1000, 2000)
	want := 2e-3 + 2e-3
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Consumed=%v want %v", got, want)
	}
	if DefaultEnergy.TxPerByte <= DefaultEnergy.RxPerByte {
		t.Fatal("transmit should cost more than receive")
	}
	if DefaultEnergy.Consumed(0, 0) != 0 {
		t.Fatal("zero traffic should cost nothing")
	}
}
