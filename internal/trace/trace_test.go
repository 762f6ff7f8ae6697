package trace

import (
	"strings"
	"testing"
)

func TestNop(t *testing.T) {
	if Nop.Enabled(Multicast) {
		t.Fatal("Nop must be disabled")
	}
	Nop.Eventf(Multicast, 1, "ignored %d", 1) // must not panic
}

func TestWriterAllCategories(t *testing.T) {
	var b strings.Builder
	w := NewWriter(&b)
	for c := Category(0); c < NumCategories; c++ {
		if !w.Enabled(c) {
			t.Fatalf("category %v should be enabled by default", c)
		}
	}
	w.Eventf(Cluster, 1.5, "node %d elected", 7)
	out := b.String()
	if !strings.Contains(out, "cluster") || !strings.Contains(out, "node 7 elected") {
		t.Fatalf("unexpected output %q", out)
	}
	if w.Events() != 1 {
		t.Fatalf("Events=%d", w.Events())
	}
}

func TestWriterFiltered(t *testing.T) {
	var b strings.Builder
	w := NewWriter(&b, Routes)
	if w.Enabled(Multicast) {
		t.Fatal("multicast should be filtered out")
	}
	w.Eventf(Multicast, 0, "dropped")
	w.Eventf(Routes, 0, "kept")
	if strings.Contains(b.String(), "dropped") {
		t.Fatal("filtered event was written")
	}
	if !strings.Contains(b.String(), "kept") {
		t.Fatal("enabled event was not written")
	}
	if w.Events() != 1 {
		t.Fatalf("Events=%d want 1", w.Events())
	}
}

func TestCategoryString(t *testing.T) {
	if Radio.String() != "radio" || Membership.String() != "membership" {
		t.Fatal("category names wrong")
	}
	if got := Category(99).String(); !strings.Contains(got, "99") {
		t.Fatalf("out-of-range category string %q", got)
	}
}
