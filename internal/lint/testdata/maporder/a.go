// Package maporder is the golden corpus for the maporder analyzer:
// each flagged line carries a want comment; clean idioms carry none.
package maporder

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/stats"
)

// sim stands in for the DES scheduling and transmission surface.
type sim struct{}

func (s *sim) Schedule(at float64, fn func())                                    {}
func (s *sim) ScheduleCallU(at float64, fn func(any, uint64), arg any, u uint64) {}
func (s *sim) Broadcast(from int, size int) int                                  { return 0 }
func (s *sim) Unicast(from, to int, size int) bool                               { return true }
func (s *sim) ScheduleFanout(at []float64, fn func(any, uint64), arg any, u []uint64) {
}

// transmitInMapOrder is the PR 3 bug shape: each send draws from the
// sender's loss stream, so map order becomes observable.
func transmitInMapOrder(s *sim, members map[int]bool) {
	for id := range members { // want "calls Broadcast"
		s.Broadcast(id, 64)
	}
}

// scheduleInMapOrder puts events into the total order by map order.
func scheduleInMapOrder(s *sim, deadlines map[int]float64) {
	for id, at := range deadlines { // want "calls Schedule"
		s.Schedule(at, func() { _ = id })
	}
}

// fanoutInMapOrder schedules one fan-out per map entry: each batch draws
// its block of sequence numbers in map order.
func fanoutInMapOrder(s *sim, groups map[int][]float64) {
	for g, at := range groups { // want "calls ScheduleFanout"
		s.ScheduleFanout(at, nil, g, make([]uint64, len(at)))
	}
}

// collectUnsorted builds an ordered slice from unordered iteration and
// never sorts it — the PR 5 greedy-tree-destination bug shape.
func collectUnsorted(members map[int]bool) []int {
	var dests []int
	for id := range members { // want "appends to dests, which this function never sorts"
		dests = append(dests, id)
	}
	return dests
}

// collectThenSort is the sanctioned idiom: the append is recognized
// because the same function passes the slice to a sort call.
func collectThenSort(members map[int]bool) []int {
	var dests []int
	for id := range members {
		dests = append(dests, id)
	}
	sort.Ints(dests)
	return dests
}

// SortedIDs mimics the repo's network.SortedIDs accessor; calls to it
// count as establishing order.
func SortedIDs(ids []int) []int {
	sort.Ints(ids)
	return ids
}

func collectThenSortedAccessor(members map[int]bool) []int {
	var dests []int
	for id := range members {
		dests = append(dests, id)
	}
	return SortedIDs(dests)
}

// sortPoints mimics the repo's lowercase local sort helpers (baseline
// sortPoints); the sort-prefix recognition is case-insensitive.
func sortPoints(ps []int) { sort.Ints(ps) }

func collectThenLocalSort(members map[int]bool) []int {
	var ps []int
	for id := range members {
		ps = append(ps, id)
	}
	sortPoints(ps)
	return ps
}

// emitTableRows renders output in map order.
func emitTableRows(rows map[string]int) string {
	var b strings.Builder
	for name, v := range rows { // want "emits output via Fprintf"
		fmt.Fprintf(&b, "%s: %d\n", name, v)
	}
	return b.String()
}

// floatReduction: float addition is not associative, so even a sum is
// order-observable in the last ulp.
func floatReduction(loads map[int]float64) float64 {
	total := 0.0
	for _, v := range loads { // want "float reduction total"
		total += v
	}
	return total
}

// intCounters are exactly commutative: clean.
func intCounters(sizes map[int]int) int {
	total := 0
	for _, v := range sizes {
		total += v
	}
	return total
}

// perKeyAppend keeps each key's slice independent: clean.
func perKeyAppend(in map[int][]int, out map[int][]int) {
	for k, vs := range in {
		out[k] = append(out[k], vs...)
	}
}

// perIterationLocal never outlives one iteration: clean.
func perIterationLocal(in map[int][]int) int {
	n := 0
	for _, vs := range in {
		local := []int{}
		local = append(local, vs...)
		n += len(local)
	}
	return n
}

// setBuild writes map entries, which have no order: clean.
func setBuild(in map[int]bool) map[int]bool {
	out := make(map[int]bool)
	for k := range in {
		out[k] = true
	}
	return out
}

// statsAccumInMapOrder folds map values into a stats accumulator: the
// Add hides the same non-associative float sum as a bare += (and the
// retained-sample percentiles additionally observe insertion order).
func statsAccumInMapOrder(delays map[int]float64) float64 {
	var s stats.Sample
	for _, v := range delays { // want "Add on a stats accumulator"
		s.Add(v)
	}
	return s.Mean()
}

// statsAccumSortedKeys is the sanctioned shape: fold in sorted key
// order. The range is over the sorted slice, not the map: clean.
func statsAccumSortedKeys(delays map[int]float64) float64 {
	keys := make([]int, 0, len(delays))
	for k := range delays {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var s stats.Sample
	for _, k := range keys {
		s.Add(delays[k])
	}
	return s.Mean()
}
