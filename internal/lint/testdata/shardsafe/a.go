// Package shardsafe is the golden corpus for the shardsafe analyzer.
package shardsafe

// The stand-ins mirror the real shapes: Network/Router/Simulator are
// shared hubs (one instance, touched by every lane), laneState/rlane
// are the per-shard states, Lane is the shard-local network view.

type laneState struct {
	lost  uint64
	kinds map[string]uint64
}

type Lane struct {
	idx int
}

type Network struct {
	laneState
	aux     []laneState
	grain   float64
	counter uint64
}

type rlane struct {
	dropped uint64
}

type Router struct {
	Delivered int
	rl        []rlane
}

type Simulator struct{ now float64 }

type engine struct{}

func (e *engine) ScheduleLaneDirect(lane int, at float64, fn func(), arg any, u uint64)   {}
func (e *engine) LogIntent(from, to int, at float64, fn func(), arg any, u uint64)        {}
func (e *engine) ScheduleCallU(at float64, fn func(arg any, u uint64), arg any, u uint64) {}

var sharedTotal uint64

// laneAccount writes only through its lane state: clean.
func (w *Network) laneAccount(ls *laneState, kind string, n uint64) {
	ls.lost += n
	ls.kinds[kind] = ls.kinds[kind] + 1
}

// laneCounter mutates the hub through the receiver from lane context.
func (w *Network) laneCounter(ls *laneState, n uint64) {
	ls.lost += n
	w.counter += n // want "writes shared Network state through w"
}

// laneAuxPoke writes a sibling shard's state through the hub.
func (w *Network) laneAuxPoke(ls *laneState, i int) {
	w.aux[i].lost++ // want "writes shared Network state through w"
}

// laneGlobal bumps a package-level tally from lane context.
func laneGlobal(ls *laneState) {
	ls.lost++
	sharedTotal++ // want "writes package-level sharedTotal"
}

// laneRouterWrite mutates the shared router from a per-lane helper.
func (r *Router) laneRouterWrite(rl *rlane) {
	rl.dropped++
	r.Delivered++ // want "writes shared Router state through r"
}

// serialConsume is the sanctioned exemption shape: the write is
// provably serial, so a reasoned annotation covers it.
func (r *Router) serialConsume(rl *rlane) {
	rl.dropped++
	r.Delivered++ //hvdb:serialonly consume deliveries stay on the global lane, never inside a window
}

// laneViewWrite goes through a Lane parameter: the view itself is lane
// state, so writes rooted at it are sanctioned.
func viewLocal(l *Lane) {
	l.idx = 0
}

// scheduledLiteral runs on a lane: its closure must not write shared
// state either.
func scheduledLiteral(e *engine, w *Network) {
	e.ScheduleLaneDirect(1, 2.5, func() {
		w.counter++ // want "writes shared Network state through w"
	}, nil, 0)
	e.LogIntent(0, 1, 3.5, func() {
		sharedTotal = 7 // want "writes package-level sharedTotal"
	}, nil, 0)
}

// serialMutation has no lane-state parameter and is never scheduled
// onto a lane: hub writes are fine in serial context.
func serialMutation(w *Network, r *Router) {
	w.counter++
	w.grain = 0.01
	r.Delivered++
	sharedTotal = 0
}

// localWrites never leave the stack frame: clean.
func localWrites(ls *laneState, s *Simulator) float64 {
	type scratch struct{ n int }
	var sc scratch
	sc.n++
	local := map[string]int{}
	local["x"] = 1
	ls.lost++
	return s.now // reads of shared state are always fine
}

// laneSimWrite advances the shared clock from lane context.
func laneSimWrite(ls *laneState, s *Simulator, t float64) {
	s.now = t // want "writes shared Simulator state through s"
}
