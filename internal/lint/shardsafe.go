package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// ShardSafe guards the sharded kernel's isolation discipline: code that
// can execute inside a parallel window (a "lane function") must confine
// its writes to the per-shard lane state it was handed, to node-local
// state, or to engine mailboxes (LogIntent / ScheduleLaneDirect).
// Writing a shared hub object — the Network, a Router, the Simulator,
// the Sharded engine — or any package-level variable from lane context
// is a cross-shard data race the race detector only catches when two
// lanes happen to collide; this flags the write at its source.
//
// A lane function is one whose receiver or parameters include a
// per-shard lane-state type (*laneState, *rlane, *Lane), or a function
// literal scheduled onto a lane (an argument to ScheduleLaneDirect or
// LogIntent). Within one, the analyzer reports:
//
//   - assignments or ++/-- through a pointer to a hub type (Network,
//     Router, Simulator, Sharded, Mux);
//   - assignments or ++/-- to package-level variables.
//
// Writes through the lane-state parameter itself, through locals, and
// through node-scoped objects stay unflagged — those are the sanctioned
// channels. A flagged write that is provably reached only in serial
// context (a consume path the network pins to the global lane, say)
// carries `//hvdb:serialonly <reason>` citing the argument.
//
// Since PR 10 the check is interprocedural: a hub/global write is
// flagged when its function is *transitively reachable* from lane
// context over the module call graph (lane roots, plus closures and
// named functions handed to ScheduleLaneDirect / LogIntent), and the
// diagnostic carries the shortest call path from the lane root to the
// write. The //hvdb:serialonly annotation is honored at the write site
// itself or at any call site along that path — annotating the
// lane-entry edge exempts everything it guards. Deferred serial
// callbacks (the ScheduleCall* family) and the des kernel's own
// internals are not traversed: the former leave lane context by
// construction, the latter is the trusted runtime.
//
// Only the packages that participate in sharding are checked; the rest
// of the tree never runs inside a window.
var ShardSafe = &Analyzer{
	Name:        "shardsafe",
	SuppressKey: "serialonly",
	Doc: "lane-context code (functions taking *laneState/*rlane/*Lane, or closures " +
		"scheduled onto lanes) must not write hub objects or package-level state",
	Run: runShardSafe,
}

// shardPackages are the packages whose code can execute inside a
// parallel window (plus the golden corpus).
var shardPackages = map[string]bool{
	"repro/internal/des":      true,
	"repro/internal/network":  true,
	"repro/internal/georoute": true,

	"repro/internal/testdata/shardsafe": true,
}

// laneStateTypes are the per-shard state types whose presence in a
// signature marks a function as lane context.
var laneStateTypes = map[string]bool{
	"laneState": true, // network: per-shard memo/counter/pool state
	"rlane":     true, // georoute: per-shard router scratch
	"Lane":      true, // network.Lane: the shard-local network view
}

// hubTypes are the shared single-instance objects lane code may read
// but never write.
var hubTypes = map[string]bool{
	"Network":   true,
	"Router":    true,
	"Simulator": true,
	"Sharded":   true,
	"Mux":       true,
}

func runShardSafe(pass *Pass) {
	if !shardPackages[pass.Pkg.Path()] || pass.Module == nil {
		return
	}
	m := pass.Module
	ids := make([]FuncID, 0, len(m.Funcs))
	for id, fi := range m.Funcs {
		if fi.Pkg == pass.Pkg.Path() && len(fi.HubWrites) > 0 {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if !m.LaneReachable(id) {
			continue
		}
		names, sites := m.LanePath(id)
		for _, w := range m.Funcs[id].HubWrites {
			if len(sites) == 0 {
				// The write sits in a lane root itself: the classic
				// intraprocedural finding, reported without a path.
				pass.ReportSitef(w.Site, nil, nil, "%s", directHubWriteMessage(w))
			} else {
				pass.ReportSitef(w.Site, names, sites,
					"lane-reachable helper writes %s; cross-shard shared state must flow through the lane state or a barrier helper (annotate //hvdb:serialonly <reason> at the write or any call site on the path if it never runs inside a window)",
					w.What)
			}
		}
	}
}

// directHubWriteMessage renders the original intraprocedural wording
// for a write inside a lane function proper.
func directHubWriteMessage(w HubWrite) string {
	if strings.HasPrefix(w.What, "package-level ") {
		return fmt.Sprintf("lane context writes %s; cross-shard shared state must flow through the lane state or a barrier helper (annotate //hvdb:serialonly <reason> if this path never runs inside a window)", w.What)
	}
	return fmt.Sprintf("lane context writes %s; confine the mutation to the lane state or log an intent for the barrier (annotate //hvdb:serialonly <reason> if this path never runs inside a window)", w.What)
}

// isLaneStateType matches *T (or T) for a lane-state type name.
func isLaneStateType(t types.Type) bool { return namedTypeIn(t, laneStateTypes) }

// isHubType matches *T (or T) for a hub type name.
func isHubType(t types.Type) bool { return namedTypeIn(t, hubTypes) }

func namedTypeIn(t types.Type, names map[string]bool) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && names[n.Obj().Name()]
}

// rootIdent unwraps a selector/index/deref chain to its base
// identifier: w in w.aux[i].lost, nil for non-chains.
func rootIdent(expr ast.Expr) *ast.Ident {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		default:
			return nil
		}
	}
}

func typeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}
