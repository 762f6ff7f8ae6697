package shardsafe

// Cross-function cases for the interprocedural engine: hub writes
// buried below helper calls are reachable from lane context over the
// call graph, and the diagnostic names the path.

// bumpGrain looks serial in isolation; it is flagged because lane
// context reaches it through laneDeep → midHop, and the diagnostic
// carries that path.
func (w *Network) bumpGrain() {
	w.grain++ // want "lane-reachable helper writes shared Network state through w.*laneDeep.*midHop.*bumpGrain"
}

func (w *Network) midHop() { w.bumpGrain() }

// laneDeep is the lane root of the buried-write chain.
func (w *Network) laneDeep(ls *laneState) {
	ls.lost++
	w.midHop()
}

// guardedTally's write is covered by the serialonly annotation on its
// only lane-entry call site (in laneGuarded below): annotating the
// edge exempts everything it guards, so the write line has no want.
func (w *Network) guardedTally() {
	w.counter++
}

// laneGuarded documents that the tally call only happens on the global
// lane (the window prepare path pins it there).
func (w *Network) laneGuarded(ls *laneState, serial bool) {
	ls.lost++
	if serial {
		w.guardedTally() //hvdb:serialonly the serial flag is only set by the barrier, never inside a window
	}
}

// laneDefer schedules a *serial* callback from lane context: a
// ScheduleCallU callback runs on the serial loop after the window, so
// the callback's hub write is sanctioned (no want).
func laneDefer(ls *laneState, e *engine, w *Network) {
	ls.lost++
	e.ScheduleCallU(1.0, func(arg any, _ uint64) {
		w.counter++
	}, nil, 0)
}

// globalDeep: a package-level write two calls below a plain-function
// lane root.
func deepGlobalLeaf() {
	sharedTotal++ // want "lane-reachable helper writes package-level sharedTotal.*laneGlobalDeep.*deepGlobalMid.*deepGlobalLeaf"
}

func deepGlobalMid() { deepGlobalLeaf() }

func laneGlobalDeep(ls *laneState) {
	ls.lost++
	deepGlobalMid()
}
