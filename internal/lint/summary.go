package lint

import (
	"sort"
	"strings"
)

// summary.go turns the per-function facts of callgraph.go into the
// propagated summaries the analyzers consume:
//
//   - consume bits: a parameter is *consumed* (released or handed off)
//     either directly or transitively through the callees it is passed
//     to, iterated over the whole module to the least fixed point;
//   - lane reachability: every function reachable from a lane root
//     (without crossing a Deferred edge or descending into the des
//     kernel) carries a deterministic shortest call path back to its
//     root, which shardsafe renders into diagnostics.
//
// Both run from scratch on every Analyze: the whole phase is tens of
// milliseconds of a whole-module run of several seconds that
// type-checking dominates (DESIGN.md, "Complexity ledger"), so nothing
// is cached between runs.

// A Module holds the propagated interprocedural state for one Load.
type Module struct {
	Funcs map[FuncID]*FuncInfo

	// consumed[id][i]: parameter i of id is transitively released or
	// handed off on at least one path.
	consumed map[FuncID][]bool

	// laneVia[id]: the predecessor edge on a shortest path from a lane
	// root; laneRoot[id] is true for the roots themselves.
	laneVia  map[FuncID]laneStep
	laneRoot map[FuncID]bool
}

type laneStep struct {
	from FuncID
	site Site
}

// BuildModule extracts the facts of every package and runs
// propagation. Packages are assumed type-checked by Load.
func BuildModule(pkgs []*Package) *Module {
	m := &Module{Funcs: map[FuncID]*FuncInfo{}}
	for _, pkg := range pkgs {
		for _, fi := range extractPackage(pkg) {
			m.Funcs[fi.ID] = fi
		}
	}
	m.propagateConsume()
	m.propagateLane()
	return m
}

// --- propagation ------------------------------------------------------

// propagateConsume computes the transitive consumed bits by
// sweeping every function, in sorted id order, until a sweep changes
// nothing. Bits only ever turn on, so the sweeps climb to the least
// fixed point — the same one for any visiting order, recursion cycles
// included — after at most one sweep per bit.
func (m *Module) propagateConsume() {
	m.consumed = map[FuncID][]bool{}
	for id, fi := range m.Funcs {
		c := make([]bool, len(fi.Params))
		for i, p := range fi.Params {
			c[i] = p.Released || p.HandedOff
		}
		m.consumed[id] = c
	}
	apply := func(id FuncID) bool {
		changed := false
		fi := m.Funcs[id]
		for i, p := range fi.Params {
			for _, pass := range p.PassedTo {
				cc, ok := m.consumed[pass.Callee]
				if !ok || pass.Param >= len(cc) {
					// Unknown callee or position: conservative handoff.
					if !m.consumed[id][i] {
						m.consumed[id][i] = true
						changed = true
					}
					continue
				}
				if cc[pass.Param] && !m.consumed[id][i] {
					m.consumed[id][i] = true
					changed = true
				}
			}
		}
		return changed
	}
	ids := m.sortedIDs()
	for changed := true; changed; {
		changed = false
		for _, id := range ids {
			if apply(id) {
				changed = true
			}
		}
	}
}

// sortedIDs returns every function id in ascending order — the
// deterministic visiting order both propagations use.
func (m *Module) sortedIDs() []FuncID {
	ids := make([]FuncID, 0, len(m.Funcs))
	for id := range m.Funcs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// propagateLane runs a BFS from every lane root simultaneously,
// recording for each reached function the predecessor edge of a
// shortest path. Roots are visited in sorted order and successors in
// recorded (source) order, so the chosen path is deterministic.
// Deferred edges (serial ScheduleCall* callbacks) and the des kernel
// are not traversed.
func (m *Module) propagateLane() {
	m.laneVia = map[FuncID]laneStep{}
	m.laneRoot = map[FuncID]bool{}
	var queue []FuncID
	ids := m.sortedIDs()
	for _, id := range ids {
		if m.Funcs[id].LaneRoot {
			m.laneRoot[id] = true
			queue = append(queue, id)
		}
	}
	// Lane-entry edges (fn handed to ScheduleLaneDirect/LogIntent) make
	// their targets roots too, even when the caller is serial.
	for _, id := range ids {
		for _, c := range m.Funcs[id].Calls {
			if c.Lane && !m.laneRoot[c.Callee] {
				if _, ok := m.Funcs[c.Callee]; ok {
					m.laneRoot[c.Callee] = true
					queue = append(queue, c.Callee)
				}
			}
		}
	}
	seen := map[FuncID]bool{}
	for _, id := range queue {
		seen[id] = true
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, c := range m.Funcs[cur].Calls {
			if c.Deferred {
				continue // serial callback: leaves lane context
			}
			callee, ok := m.Funcs[c.Callee]
			if !ok || seen[c.Callee] {
				continue
			}
			if kernelPackage(callee.Pkg) {
				// Calls into the des kernel (LogIntent, the lane push
				// path) are the sanctioned mailboxes; the kernel's own
				// hub mutations are its contract, not a lane violation.
				// Kernel lane roots are still checked — they enter the
				// BFS as roots, not through this edge.
				continue
			}
			seen[c.Callee] = true
			m.laneVia[c.Callee] = laneStep{from: cur, site: c.Site}
			queue = append(queue, c.Callee)
		}
	}
}

// LaneReachable reports whether id executes in lane context.
func (m *Module) LaneReachable(id FuncID) bool {
	if m.laneRoot[id] {
		return true
	}
	_, ok := m.laneVia[id]
	return ok
}

// LanePath returns the shortest call path from a lane root to id as
// display names (root first, id last) plus the call sites along it
// (one per edge). A root returns just its own name and no sites.
func (m *Module) LanePath(id FuncID) (names []string, sites []Site) {
	for !m.laneRoot[id] {
		step, ok := m.laneVia[id]
		if !ok {
			return nil, nil
		}
		names = append([]string{m.Funcs[id].Name}, names...)
		sites = append([]Site{step.site}, sites...)
		id = step.from
	}
	names = append([]string{m.Funcs[id].Name}, names...)
	return names, sites
}

// Consumes reports whether callee id transitively releases or hands
// off its param'th parameter. Unknown ids are conservatively consuming
// (matches the old intraprocedural assumption for unresolvable calls).
func (m *Module) Consumes(id FuncID, param int) bool {
	c, ok := m.consumed[id]
	if !ok || param >= len(c) {
		return true
	}
	return c[param]
}

// Func returns the fact record for id, or nil.
func (m *Module) Func(id FuncID) *FuncInfo { return m.Funcs[id] }

// RenderPath joins a LanePath name list into the diagnostic form.
func RenderPath(names []string) string { return strings.Join(names, " → ") }
