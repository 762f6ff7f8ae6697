package des

import (
	"testing"
	"testing/quick"
	"unsafe"
)

// TestEventRecordSize pins the event record at 48 bytes: one callback
// slot (fn), its arg and word, the fan-out link and the handle state.
// The kernel keeps one record per pending event and pools them at the
// peak pending count, so every byte here is paid at that peak — a
// second callback form would cost 16 more per record.
func TestEventRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 48 {
		t.Fatalf("event record is %d bytes, want 48", got)
	}
}

func TestEventOrdering(t *testing.T) {
	s := New()
	var order []int
	s.Schedule(3, func() { order = append(order, 3) })
	s.Schedule(1, func() { order = append(order, 1) })
	s.Schedule(2, func() { order = append(order, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v want %v", order, want)
		}
	}
}

func TestFIFOTieBreak(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(5, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of scheduling order: %v", order)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	s := New()
	var at Time
	s.Schedule(2.5, func() { at = s.Now() })
	end := s.Run()
	if at != 2.5 {
		t.Fatalf("Now inside event = %v want 2.5", at)
	}
	if end != 2.5 {
		t.Fatalf("final time %v want 2.5", end)
	}
}

func TestAfter(t *testing.T) {
	s := New()
	var times []Time
	s.Schedule(1, func() {
		s.After(0.5, func() { times = append(times, s.Now()) })
	})
	s.Run()
	if len(times) != 1 || times[0] != 1.5 {
		t.Fatalf("After fired at %v want [1.5]", times)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New()
	s.Schedule(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		s.Schedule(1, func() {})
	})
	s.Run()
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	h := s.Schedule(1, func() { fired = true })
	if !h.Cancel() {
		t.Fatal("first cancel should report true")
	}
	if h.Cancel() {
		t.Fatal("second cancel should report false")
	}
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelAfterExecutionIsNoop(t *testing.T) {
	s := New()
	h := s.Schedule(1, func() {})
	s.Run()
	if h.Cancel() {
		t.Fatal("cancelling an executed event should report false")
	}
}

func TestTicker(t *testing.T) {
	s := New()
	var fires []Time
	s.Every(1, 2, func() { fires = append(fires, s.Now()) })
	s.RunUntil(10)
	want := []Time{1, 3, 5, 7, 9}
	if len(fires) != len(want) {
		t.Fatalf("fires %v want %v", fires, want)
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("fires %v want %v", fires, want)
		}
	}
}

func TestTickerStop(t *testing.T) {
	s := New()
	count := 0
	var tk *Ticker
	tk = s.Every(1, 1, func() {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	s.RunUntil(100)
	if count != 3 {
		t.Fatalf("ticker fired %d times after Stop, want 3", count)
	}
	tk.Stop() // idempotent
}

func TestRunUntilPhases(t *testing.T) {
	s := New()
	var fires []Time
	for _, at := range []Time{1, 2, 3, 4, 5} {
		at := at
		s.Schedule(at, func() { fires = append(fires, at) })
	}
	s.RunUntil(3)
	if len(fires) != 3 {
		t.Fatalf("RunUntil(3) executed %d events want 3", len(fires))
	}
	if s.Now() != 3 {
		t.Fatalf("clock %v want 3", s.Now())
	}
	s.RunUntil(10)
	if len(fires) != 5 {
		t.Fatalf("second phase executed %d total want 5", len(fires))
	}
	if s.Now() != 10 {
		t.Fatalf("clock %v want 10", s.Now())
	}
}

func TestExecutedCount(t *testing.T) {
	s := New()
	for i := 0; i < 17; i++ {
		s.Schedule(Time(i), func() {})
	}
	s.Run()
	if s.Executed() != 17 {
		t.Fatalf("Executed=%d want 17", s.Executed())
	}
}

func TestPending(t *testing.T) {
	s := New()
	s.Schedule(1, func() {})
	s.Schedule(2, func() {})
	if s.Pending() != 2 {
		t.Fatalf("Pending=%d want 2", s.Pending())
	}
	s.Run()
	if s.Pending() != 0 {
		t.Fatalf("Pending after run=%d want 0", s.Pending())
	}
}

// Property: executing N events at arbitrary non-negative offsets always
// yields a non-decreasing clock sequence.
func TestMonotonicClockProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		s := New()
		var times []Time
		for _, o := range offsets {
			s.Schedule(Time(o), func() { times = append(times, s.Now()) })
		}
		s.Run()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			s.After(0.1, recurse)
		}
	}
	s.Schedule(0, recurse)
	s.Run()
	if depth != 100 {
		t.Fatalf("nested chain depth %d want 100", depth)
	}
}
