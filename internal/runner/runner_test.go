package runner

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/xrand"
)

// simulate is a stand-in for a simulation run: a deterministic function
// of the run seed alone, with enough draws to expose stream mixups.
func simulate(r Run) (uint64, error) {
	rng := xrand.New(r.Seed)
	var acc uint64
	for i := 0; i < 1000; i++ {
		acc += rng.Uint64()
	}
	return acc, nil
}

func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	const n = 64
	counts := []int{1, 4, runtime.NumCPU(), 0} // 0 = GOMAXPROCS default
	var want []uint64
	for _, workers := range counts {
		got, err := Map(Config{Workers: workers}, 7, n, simulate)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d run %d = %#x, want %#x", workers, i, got[i], want[i])
			}
		}
	}
}

func TestMapOrdering(t *testing.T) {
	got, err := Map(Config{Workers: 8}, 0, 100, func(r Run) (int, error) {
		return r.Index * r.Index, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result %d = %d, want %d", i, v, i*i)
		}
	}
}

func TestDeriveSeed(t *testing.T) {
	seen := map[uint64]int{}
	for i := 0; i < 1000; i++ {
		s := DeriveSeed(1, i)
		if j, dup := seen[s]; dup {
			t.Fatalf("indices %d and %d collide on seed %#x", j, i, s)
		}
		seen[s] = i
	}
	if DeriveSeed(1, 3) != DeriveSeed(1, 3) {
		t.Fatal("DeriveSeed is not a pure function")
	}
	if DeriveSeed(1, 3) == DeriveSeed(2, 3) {
		t.Fatal("base seed must perturb the derived seed")
	}
}

func TestMapPanicCapture(t *testing.T) {
	_, err := Map(Config{Workers: 4}, 3, 10, func(r Run) (int, error) {
		if r.Index == 5 {
			panic("boom at five")
		}
		return r.Index, nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Run.Index != 5 || pe.Run.Seed != DeriveSeed(3, 5) {
		t.Fatalf("panic run = %+v", pe.Run)
	}
	if !strings.Contains(pe.Error(), "boom at five") || len(pe.Stack) == 0 {
		t.Fatalf("panic error lost its payload: %v", pe)
	}
}

func TestMapErrorCancelsTail(t *testing.T) {
	bad := errors.New("bad run")
	var executed atomic.Int32
	_, err := Map(Config{Workers: 1}, 0, 1000, func(r Run) (int, error) {
		executed.Add(1)
		if r.Index == 2 {
			return 0, bad
		}
		return r.Index, nil
	})
	if !errors.Is(err, bad) {
		t.Fatalf("err = %v, want %v", err, bad)
	}
	// With one worker the failure at index 2 must stop dispatch almost
	// immediately (at most one more run may already be queued).
	if n := executed.Load(); n > 4 {
		t.Fatalf("executed %d runs after early failure", n)
	}
}

func TestSweep(t *testing.T) {
	points := []string{"a", "bb", "ccc"}
	got, err := Sweep(Config{Workers: 2}, 9, points, func(r Run, p string) (int, error) {
		if points[r.Index] != p {
			t.Errorf("run %d got point %q", r.Index, p)
		}
		return len(p), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != len(points[i]) {
			t.Fatalf("sweep result %d = %d", i, v)
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(Config{}, 1, 0, func(r Run) (int, error) { return 0, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("empty map: %v %v", got, err)
	}
}

func BenchmarkMapOverhead(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Map(Config{Workers: 4}, 1, 64, func(r Run) (uint64, error) {
			return r.Seed, nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}
