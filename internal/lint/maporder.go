package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// MapOrder flags `for range` over a map whose per-element effect
// escapes the loop into an ordering-sensitive sink. Go randomizes map
// iteration order per range statement, so any such escape makes
// simulation output depend on the runtime's hash seed — the exact bug
// class behind the PR 3 transmission-scheduling and PR 5
// greedy-tree-destination regressions.
//
// Sinks (see DESIGN.md "Determinism lint" for the model):
//
//   - scheduling or transmission calls (des.Simulator.Schedule*/After*/
//     Every, network Broadcast/Unicast/Send/SendLogical): each send
//     consumes loss-stream draws and sequence numbers in loop order;
//   - appends to a slice declared outside the loop that the enclosing
//     function never sorts (the collect-then-sort idiom — sort.*,
//     slices.Sort*, network.SortedIDs, network.Children,
//     membership.MTSummaryHIDs — is recognized and exempt); per-key
//     appends (dst[k] = append(dst[k], ...)) are order-free and exempt;
//   - emitted output (fmt.Fprintf and friends, Write/WriteString):
//     table rows render in loop order;
//   - floating-point compound assignment to an outer variable: float
//     addition is not associative, so even a "commutative" sum is
//     order-observable in the last ulp;
//   - Add on an internal/stats accumulator (Sample, LogHist): it folds
//     observations into a float sum behind the method call, so it is
//     the same hidden float reduction — and for the retained-sample
//     types the order is fully observable (percentiles interpolate in
//     insertion order).
//
// Integer counters, map/set writes, and per-iteration locals are not
// sinks. Since PR 10 the check also follows the loop element one call
// deep: passing it to a module-local helper whose summary records a
// direct ordered sink (a Schedule wrapper, an emit helper, a stats
// fold) is the same escape, reported with the helper named. A
// legitimately unordered site carries `//hvdb:unordered <reason>` on
// the `for` line or the line above.
var MapOrder = &Analyzer{
	Name:        "maporder",
	SuppressKey: "unordered",
	Doc: "flag map iteration whose per-element effect escapes into an " +
		"ordering-sensitive sink (scheduling, unsorted collection, emitted " +
		"output, float reduction)",
	Run: runMapOrder,
}

// scheduleSinks are callee names that put the loop element into the
// simulation's total order: DES scheduling and packet transmission.
var scheduleSinks = map[string]bool{
	"Schedule": true, "ScheduleCallU": true,
	"ScheduleCallSeqU": true, "ScheduleFanout": true,
	"After": true, "Every": true,
	"Broadcast": true, "Unicast": true, "Send": true, "SendLogical": true,
}

// emitSinks are callee names that render output in loop order.
var emitSinks = map[string]bool{
	"Fprintf": true, "Fprintln": true, "Fprint": true,
	"Printf": true, "Println": true, "Print": true,
	"WriteString": true, "WriteByte": true, "WriteRune": true, "Write": true,
}

// sortNames are callee names (beyond the Sort*/Sorted* prefixes) that
// establish a deterministic order over their slice argument.
var sortNames = map[string]bool{
	"Slice": true, "SliceStable": true, "Stable": true,
	"Strings": true, "Ints": true, "Float64s": true,
	"SortedIDs": true, "Children": true, "MTSummaryHIDs": true,
}

func runMapOrder(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				mapOrderFunc(pass, fd.Body)
			}
		}
	}
}

// mapOrderFunc checks one function body; nested function literals
// recurse so their loops resolve collect-then-sort against the literal
// they belong to.
func mapOrderFunc(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			mapOrderFunc(pass, v.Body)
			return false
		case *ast.RangeStmt:
			if isMapType(pass, v.X) {
				checkMapRange(pass, v, body)
			}
		}
		return true
	})
}

func isMapType(pass *Pass, x ast.Expr) bool {
	t := pass.Info.TypeOf(x)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func checkMapRange(pass *Pass, rs *ast.RangeStmt, encl *ast.BlockStmt) {
	loopVars := map[types.Object]bool{}
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.Info.Defs[id]; obj != nil {
				loopVars[obj] = true
			}
		}
	}

	var sinks []string
	seen := map[string]bool{}
	addSink := func(s string) {
		if !seen[s] {
			seen[s] = true
			sinks = append(sinks, s)
		}
	}

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			name := calleeName(v)
			switch {
			case scheduleSinks[name]:
				addSink(fmt.Sprintf("calls %s, entering the event/transmission order", name))
			case emitSinks[name]:
				addSink(fmt.Sprintf("emits output via %s", name))
			case name == "Add" && isStatsAccumCall(pass, v):
				addSink("Add on a stats accumulator folds a float sum, order-sensitive in the last ulp")
			default:
				// One level through a module-local helper: if the loop
				// element flows into a callee whose summary records
				// direct ordered sinks, the effect escapes just the same.
				if pass.Module == nil || !mentionsAny(pass, v, loopVars) {
					break
				}
				callee := resolveCallee(pass.Info, v)
				if callee == nil || !moduleLocal(pass.Pkg.Path(), callee) {
					break
				}
				if fi := pass.Module.Func(funcIDOf(callee)); fi != nil {
					for _, s := range fi.Sinks {
						addSink(fmt.Sprintf("calls %s, which %s", fi.Name, s))
					}
				}
			}
		case *ast.AssignStmt:
			checkAssign(pass, v, rs, encl, loopVars, addSink)
		}
		return true
	})

	if len(sinks) > 0 {
		pass.Reportf(rs.For,
			"range over map: %s; iterate a sorted slice (network.SortedIDs) or annotate //hvdb:unordered <reason>",
			strings.Join(sinks, "; "))
	}
}

func checkAssign(pass *Pass, as *ast.AssignStmt, rs *ast.RangeStmt, encl *ast.BlockStmt, loopVars map[types.Object]bool, addSink func(string)) {
	// Floating-point reduction into an outer variable.
	switch as.Tok.String() {
	case "+=", "-=", "*=", "/=":
		if len(as.Lhs) == 1 && isFloat(pass, as.Lhs[0]) && declaredOutside(pass, as.Lhs[0], rs) {
			addSink(fmt.Sprintf("float reduction %s %s ... is order-sensitive in the last ulp",
				exprString(as.Lhs[0]), as.Tok))
		}
	}
	// Appends building an ordered slice from unordered iteration.
	for i, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || calleeName(call) != "append" || i >= len(as.Lhs) {
			continue
		}
		dst := as.Lhs[i]
		if !declaredOutside(pass, dst, rs) {
			continue // per-iteration local: order-free
		}
		if idx, ok := dst.(*ast.IndexExpr); ok && mentionsAny(pass, idx.Index, loopVars) {
			continue // dst[k] = append(dst[k], ...): per-key, order-free
		}
		if sortedInFunc(pass, encl, dst) {
			continue // collect-then-sort idiom
		}
		addSink(fmt.Sprintf("appends to %s, which this function never sorts", exprString(dst)))
	}
}

// declaredOutside reports whether the assignment destination outlives
// one loop iteration: an identifier declared before the range
// statement, or any field/index/global destination.
func declaredOutside(pass *Pass, dst ast.Expr, rs *ast.RangeStmt) bool {
	id, ok := dst.(*ast.Ident)
	if !ok {
		return true
	}
	obj := pass.Info.ObjectOf(id)
	if obj == nil {
		return false
	}
	return obj.Pos() < rs.Pos() || obj.Pos() > rs.End()
}

// sortedInFunc reports whether the enclosing function passes dst to a
// recognized sorting call anywhere (flow-insensitively): sort.*,
// slices.Sort*, or a repo sorted-accessor (SortedIDs, Children,
// MTSummaryHIDs, any Sort*/Sorted* name).
func sortedInFunc(pass *Pass, encl *ast.BlockStmt, dst ast.Expr) bool {
	want := exprString(dst)
	found := false
	ast.Inspect(encl, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found || !isSortCall(pass, call) {
			return true
		}
		for _, arg := range call.Args {
			if strings.Contains(exprString(arg), want) {
				found = true
				break
			}
		}
		return true
	})
	return found
}

func isSortCall(pass *Pass, call *ast.CallExpr) bool {
	name := calleeName(call)
	if strings.HasPrefix(name, "Sort") || strings.HasPrefix(name, "sort") {
		return true
	}
	if !sortNames[name] {
		return false
	}
	// The ambiguous bare names (Slice, Strings, ...) must come from the
	// sort or slices packages; the repo accessor names stand alone.
	switch name {
	case "SortedIDs", "Children", "MTSummaryHIDs":
		return true
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pkg, ok := pass.Info.ObjectOf(x).(*types.PkgName)
	if !ok {
		return false
	}
	switch pkg.Imported().Path() {
	case "sort", "slices":
		return true
	}
	return false
}

// isStatsAccumCall reports whether the call's receiver is a type from
// the internal/stats package — the accumulators whose Add folds a
// float sum. Matching by package rather than by type name keeps future
// accumulators (digest types, histograms) covered automatically.
func isStatsAccumCall(pass *Pass, call *ast.CallExpr) bool {
	return isStatsAccumCallInfo(pass.Info, call)
}

func isFloat(pass *Pass, e ast.Expr) bool {
	t := pass.Info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}

func mentionsAny(pass *Pass, e ast.Expr, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && objs[pass.Info.ObjectOf(id)] {
			found = true
		}
		return !found
	})
	return found
}

// calleeName extracts the called function or method name: Broadcast
// from w.Broadcast(...), append from append(...).
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// exprString renders a small expression for matching and messages.
func exprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprString(v.X) + "." + v.Sel.Name
	case *ast.IndexExpr:
		return exprString(v.X) + "[" + exprString(v.Index) + "]"
	case *ast.StarExpr:
		return "*" + exprString(v.X)
	case *ast.CallExpr:
		return exprString(v.Fun) + "(...)"
	case *ast.UnaryExpr:
		return v.Op.String() + exprString(v.X)
	case *ast.SliceExpr:
		return exprString(v.X) + "[...]"
	case *ast.BasicLit:
		return v.Value
	}
	return "?"
}
