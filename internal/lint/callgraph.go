package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// callgraph.go builds the interprocedural layer's raw material: one
// FuncInfo of facts per declared function, method, and function
// literal in the module, with resolved static call edges.
// Resolution is deliberately conservative in the direction that keeps
// diagnostics honest:
//
//   - method calls resolve only on concrete receiver types (interface
//     dispatch has no static target, so no edge — the sharded kernel's
//     handler chains all carry their lane state in concrete signatures,
//     which is what lane-root detection keys on);
//   - function literals are tracked where they matter: one containment
//     edge from the enclosing function, plus lane-entry marking when
//     the literal (or a named function value) is handed to
//     ScheduleLaneDirect / LogIntent, and deferred-argument tracking
//     through the ScheduleCall* family so a packet scheduled into a
//     callback is attributed to that callback's parameter;
//   - the des kernel itself is a traversal boundary: its scheduler and
//     mailbox internals mutate engine state by design, and the
//     discipline the analyzers enforce is about code *using* the
//     kernel, not the kernel.
//
// Facts are position-addressed with plain file:line:col (Site), the
// form diagnostics and suppression matching use, so a fact from any
// package reports through the call graph without its FileSet.

// A Site is a resolved source position.
type Site struct {
	File string
	Line int
	Col  int
}

func (s Site) valid() bool { return s.File != "" && s.Line > 0 }

func siteOf(fset *token.FileSet, pos token.Pos) Site {
	p := fset.Position(pos)
	return Site{File: p.Filename, Line: p.Line, Col: p.Column}
}

// A FuncID names a function uniquely across the module:
// "pkg/path.Func", "pkg/path.(Recv).Method", or
// "pkg/path.$file:line:col" for a function literal.
type FuncID string

// A HubWrite is one direct write to shared hub state or a
// package-level variable — the facts shardsafe combines with lane
// reachability.
type HubWrite struct {
	Site Site
	What string // rendered description of the written object
}

// A ParamPass records that a parameter flows, unmodified, into a
// callee's parameter — the edge poolpair's consume propagation walks.
type ParamPass struct {
	Callee FuncID
	Param  int
}

// A ParamFact summarizes what one function does with one parameter.
// Released and HandedOff are the direct facts; summary.go folds
// PassedTo transitively into the final releases/hands-off verdict.
type ParamFact struct {
	Name      string
	Released  bool
	HandedOff bool
	PassedTo  []ParamPass
}

// A CallFact is one resolved outgoing edge.
type CallFact struct {
	Callee FuncID
	Name   string // callee display name, for call-path rendering
	Site   Site
	// Lane marks an edge that *enters* lane context regardless of the
	// caller's own context: a function value or literal handed to
	// ScheduleLaneDirect or LogIntent executes on a lane.
	Lane bool
	// Deferred marks a function value handed to the serial ScheduleCall*
	// family: it runs later on the serial loop, so lane reachability
	// must NOT flow through this edge (the argument handoff still does,
	// via ParamPass).
	Deferred bool
}

// A FuncInfo is the complete per-function fact record.
type FuncInfo struct {
	ID   FuncID
	Name string // display name, e.g. "network.(*Network).unicastLS"
	Pkg  string // import path
	Decl Site
	// LaneRoot: the signature carries a lane-state type (laneState /
	// rlane / Lane declared in a sharded package), or the function is a
	// literal scheduled onto a lane — either way its body executes in
	// lane context.
	LaneRoot  bool
	HubWrites []HubWrite
	Sinks     []string // direct ordering-sensitive sinks (maporder's one-level follow)
	Params    []ParamFact
	Calls     []CallFact
}

// scheduleArgFuncs maps the callback-taking scheduling entry points to
// the positions of their (fn, arg) pair and whether the callback runs
// on a lane. A value handed as `arg` reaches the callback's first
// parameter; a callback handed to a lane scheduler becomes lane
// context.
var scheduleArgFuncs = map[string]struct {
	fnIdx, argIdx int
	lane          bool
}{
	"ScheduleCallU":      {1, 2, false},
	"ScheduleCallSeqU":   {2, 3, false},
	"ScheduleFanout":     {1, 2, false},
	"ScheduleLaneDirect": {2, 3, true},
	"LogIntent":          {3, 4, true},
}

// kernelPackage reports whether path is the des kernel — the trusted
// runtime the lane-reachability traversal does not descend into.
func kernelPackage(path string) bool { return strings.HasSuffix(path, "internal/des") }

// funcIDOf derives the stable id of a declared function or method.
func funcIDOf(obj *types.Func) FuncID {
	pkg := obj.Pkg()
	if pkg == nil {
		return ""
	}
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		return FuncID(pkg.Path() + ".(" + recvTypeName(sig.Recv().Type()) + ")." + obj.Name())
	}
	return FuncID(pkg.Path() + "." + obj.Name())
}

func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// displayNameOf renders the short human name used in call paths:
// "pkgname.(*Recv).Method" / "pkgname.Func".
func displayNameOf(obj *types.Func) string {
	pkg := ""
	if obj.Pkg() != nil {
		pkg = obj.Pkg().Name() + "."
	}
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		star := ""
		if _, ptr := sig.Recv().Type().(*types.Pointer); ptr {
			star = "*"
		}
		return pkg + "(" + star + recvTypeName(sig.Recv().Type()) + ")." + obj.Name()
	}
	return pkg + obj.Name()
}

// resolveCallee returns the statically known target of a call: a
// declared function, or a method resolved on a concrete receiver type.
// Interface dispatch and function-typed values return nil.
func resolveCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	return resolveFuncExpr(info, call.Fun)
}

// resolveFuncExpr resolves an expression used as a function — a callee
// or a function value passed as an argument — to its static target.
func resolveFuncExpr(info *types.Info, e ast.Expr) *types.Func {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			break
		}
		e = p.X
	}
	switch fun := e.(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			f, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil
			}
			if types.IsInterface(sel.Recv()) {
				return nil // dynamic dispatch: no static target
			}
			return f
		}
		// Package-qualified: pkg.Func.
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// moduleLocal reports whether a callee belongs to the same module as
// the package under extraction (first path segment match — "repro/..."
// for the real module, the testdata pseudo-paths for corpora).
func moduleLocal(pkgPath string, callee *types.Func) bool {
	if callee.Pkg() == nil {
		return false
	}
	seg := pkgPath
	if i := strings.IndexByte(seg, '/'); i >= 0 {
		seg = seg[:i]
	}
	cp := callee.Pkg().Path()
	return cp == seg || strings.HasPrefix(cp, seg+"/")
}

// extractPackage walks one type-checked package and produces its
// function facts. The walk mirrors the intraprocedural analyzers'
// classification rules exactly — hub/global writes (shardsafe),
// parameter release/handoff fates (poolpair), ordering-sensitive sinks
// (maporder) — but records them as facts instead of diagnostics;
// summary.go decides which become reportable once reachability and
// consume bits are propagated.
func extractPackage(pkg *Package) []*FuncInfo {
	ex := &extractor{pkg: pkg}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			fi := &FuncInfo{
				ID:       funcIDOf(obj),
				Name:     displayNameOf(obj),
				Pkg:      pkg.Types.Path(),
				Decl:     siteOf(pkg.Fset, fd.Name.Pos()),
				LaneRoot: laneSignature(pkg.Info, fd.Recv, fd.Type.Params),
			}
			ex.paramObjs(fi, fd.Type.Params)
			ex.walkBody(fi, fd.Body, paramIndexMap(pkg.Info, fd.Type.Params))
			ex.out = append(ex.out, fi)
		}
	}
	sort.Slice(ex.out, func(i, j int) bool { return ex.out[i].ID < ex.out[j].ID })
	return ex.out
}

type extractor struct {
	pkg *Package
	out []*FuncInfo
}

// paramObjs binds a function's parameter objects to their indices so
// body uses can be attributed.
func (ex *extractor) paramObjs(fi *FuncInfo, params *ast.FieldList) {
	fi.Params = nil
	if params == nil {
		return
	}
	for _, field := range params.List {
		names := field.Names
		if len(names) == 0 {
			fi.Params = append(fi.Params, ParamFact{}) // unnamed: nothing to track
			continue
		}
		for _, name := range names {
			fi.Params = append(fi.Params, ParamFact{Name: name.Name})
		}
	}
}

// paramIndexMap rebuilds the object->index mapping for a declaration's
// parameters (shared by extraction and the poolpair analyzer).
func paramIndexMap(info *types.Info, params *ast.FieldList) map[types.Object]int {
	out := map[types.Object]int{}
	if params == nil {
		return out
	}
	i := 0
	for _, field := range params.List {
		if len(field.Names) == 0 {
			i++
			continue
		}
		for _, name := range field.Names {
			if obj := info.Defs[name]; obj != nil {
				out[obj] = i
			}
			i++
		}
	}
	return out
}

// laneSignature reports whether a receiver or parameter list carries a
// lane-state type declared in a sharded package.
func laneSignature(info *types.Info, recv, params *ast.FieldList) bool {
	check := func(list *ast.FieldList) bool {
		if list == nil {
			return false
		}
		for _, field := range list.List {
			if isLaneStateType(info.TypeOf(field.Type)) {
				return true
			}
		}
		return false
	}
	return check(recv) || check(params)
}

// walkBody extracts facts from one function body. Function literals
// get their own FuncInfo plus a containment edge from the enclosing
// function; everything else lands on fi. paramIdx maps the function's
// own parameter objects to their indices in fi.Params.
func (ex *extractor) walkBody(fi *FuncInfo, body *ast.BlockStmt, paramIdx map[types.Object]int) {
	var stack []ast.Node
	// lits maps literals to the flags their scheduling context implies,
	// filled when the enclosing CallExpr is visited (pre-order, so
	// before the literal itself).
	type litFlags struct{ lane, deferred bool }
	lits := map[*ast.FuncLit]litFlags{}

	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch v := n.(type) {
		case *ast.FuncLit:
			litID := litFuncID(fi.Pkg, ex.pkg.Fset, v.Pos())
			flags := lits[v]
			li := &FuncInfo{
				ID:       litID,
				Name:     fi.Name + "$func",
				Pkg:      fi.Pkg,
				Decl:     siteOf(ex.pkg.Fset, v.Pos()),
				LaneRoot: flags.lane || laneSignature(ex.pkg.Info, nil, v.Type.Params),
			}
			ex.paramObjs(li, v.Type.Params)
			ex.walkBody(li, v.Body, paramIndexMap(ex.pkg.Info, v.Type.Params))
			ex.out = append(ex.out, li)
			fi.Calls = append(fi.Calls, CallFact{
				Callee:   litID,
				Name:     li.Name,
				Site:     siteOf(ex.pkg.Fset, v.Pos()),
				Lane:     flags.lane,
				Deferred: flags.deferred,
			})
			return false // literal body handled by the recursive walk
		case *ast.CallExpr:
			ex.call(fi, v, paramIdx, func(lit *ast.FuncLit, lane, deferred bool) {
				lits[lit] = litFlags{lane, deferred}
			})
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				ex.hubWrite(fi, lhs)
			}
			for _, rhs := range v.Rhs {
				// Storing a parameter into anything is a handoff.
				if i, ok := paramUse(ex.pkg.Info, rhs, paramIdx); ok {
					fi.Params[i].HandedOff = true
				}
			}
		case *ast.IncDecStmt:
			ex.hubWrite(fi, v.X)
		case *ast.ReturnStmt:
			for _, res := range v.Results {
				if i, ok := paramUse(ex.pkg.Info, res, paramIdx); ok {
					fi.Params[i].HandedOff = true
				}
			}
		case *ast.SendStmt:
			if i, ok := paramUse(ex.pkg.Info, v.Value, paramIdx); ok {
				fi.Params[i].HandedOff = true
			}
		case *ast.CompositeLit:
			for _, el := range v.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				if i, ok := paramUse(ex.pkg.Info, el, paramIdx); ok {
					fi.Params[i].HandedOff = true
				}
			}
		case *ast.UnaryExpr:
			if v.Op == token.AND {
				if i, ok := paramUse(ex.pkg.Info, v.X, paramIdx); ok {
					fi.Params[i].HandedOff = true
				}
			}
		}
		return true
	})
	dedupeSinks(fi)
}

// call records the facts of one call expression: the static edge, the
// parameter passes, schedule-callback tracking, and direct ordered
// sinks.
func (ex *extractor) call(fi *FuncInfo, call *ast.CallExpr, paramIdx map[types.Object]int, markLit func(*ast.FuncLit, bool, bool)) {
	info := ex.pkg.Info
	name := calleeName(call)

	// Direct ordered sinks (maporder's one-level summary).
	switch {
	case scheduleSinks[name]:
		fi.Sinks = append(fi.Sinks, fmt.Sprintf("calls %s, entering the event/transmission order", name))
	case emitSinks[name]:
		fi.Sinks = append(fi.Sinks, fmt.Sprintf("emits output via %s", name))
	case name == "Add" && isStatsAccumCallInfo(info, call):
		fi.Sinks = append(fi.Sinks, "Add on a stats accumulator folds a float sum, order-sensitive in the last ulp")
	}

	// Schedule-callback tracking: fn and arg positions.
	if sched, ok := scheduleArgFuncs[name]; ok && len(call.Args) > sched.argIdx {
		fnExpr := call.Args[sched.fnIdx]
		if lit, ok := fnExpr.(*ast.FuncLit); ok {
			markLit(lit, sched.lane, !sched.lane)
			// The containment edge created at the literal's visit carries
			// the flags; the arg handoff resolves against the literal's id
			// below via litArgPass (handled in poolpair directly — here
			// record the pass for declared-function callbacks only).
		} else if fn := resolveFuncExpr(info, fnExpr); fn != nil && moduleLocal(fi.Pkg, fn) {
			fi.Calls = append(fi.Calls, CallFact{
				Callee:   funcIDOf(fn),
				Name:     displayNameOf(fn),
				Site:     siteOf(ex.pkg.Fset, call.Pos()),
				Lane:     sched.lane,
				Deferred: !sched.lane,
			})
			if i, ok := paramUse(info, call.Args[sched.argIdx], paramIdx); ok {
				fi.Params[i].PassedTo = append(fi.Params[i].PassedTo, ParamPass{Callee: funcIDOf(fn), Param: 0})
			}
		} else {
			// Unresolvable callback: the arg handoff is conservative.
			if i, ok := paramUse(info, call.Args[sched.argIdx], paramIdx); ok {
				fi.Params[i].HandedOff = true
			}
		}
	}

	callee := resolveCallee(info, call)
	if callee != nil && moduleLocal(fi.Pkg, callee) {
		fi.Calls = append(fi.Calls, CallFact{
			Callee: funcIDOf(callee),
			Name:   displayNameOf(callee),
			Site:   siteOf(ex.pkg.Fset, call.Pos()),
		})
	}

	// Parameter passes through ordinary argument positions.
	sig, _ := info.TypeOf(call.Fun).(*types.Signature)
	for argPos, arg := range call.Args {
		i, ok := paramUse(info, arg, paramIdx)
		if !ok {
			continue
		}
		if strings.HasPrefix(name, "Release") {
			fi.Params[i].Released = true
			continue
		}
		if sched, ok := scheduleArgFuncs[name]; ok && argPos == sched.argIdx {
			continue // handled above (callback-arg pass or conservative handoff)
		}
		if callee == nil || !moduleLocal(fi.Pkg, callee) || sig == nil ||
			(sig.Variadic() && argPos >= sig.Params().Len()-1) || argPos >= sig.Params().Len() {
			// Dynamic, external, or variadic-tail: assume the callee
			// takes ownership (the old intraprocedural behavior).
			fi.Params[i].HandedOff = true
			continue
		}
		fi.Params[i].PassedTo = append(fi.Params[i].PassedTo, ParamPass{Callee: funcIDOf(callee), Param: argPos})
	}
}

// hubWrite records a write through a hub-typed root or to a
// package-level variable.
func (ex *extractor) hubWrite(fi *FuncInfo, expr ast.Expr) {
	id := rootIdent(expr)
	if id == nil {
		return
	}
	obj := ex.pkg.Info.ObjectOf(id)
	v, ok := obj.(*types.Var)
	if !ok {
		return
	}
	switch {
	case v.Pkg() != nil && v.Parent() == v.Pkg().Scope():
		fi.HubWrites = append(fi.HubWrites, HubWrite{
			Site: siteOf(ex.pkg.Fset, expr.Pos()),
			What: "package-level " + id.Name,
		})
	case expr != ast.Expr(id) && isHubType(v.Type()):
		fi.HubWrites = append(fi.HubWrites, HubWrite{
			Site: siteOf(ex.pkg.Fset, expr.Pos()),
			What: fmt.Sprintf("shared %s state through %s", typeName(v.Type()), id.Name),
		})
	}
}

// paramUse reports whether expr is (exactly) a tracked parameter
// identifier, returning its index.
func paramUse(info *types.Info, expr ast.Expr, paramIdx map[types.Object]int) (int, bool) {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return 0, false
	}
	obj := info.Uses[id]
	if obj == nil {
		return 0, false
	}
	i, ok := paramIdx[obj]
	return i, ok
}

// litFuncID is the stable id of a function literal: package path plus
// the literal's base-file position.
func litFuncID(pkgPath string, fset *token.FileSet, pos token.Pos) FuncID {
	p := fset.Position(pos)
	f := p.Filename
	if i := strings.LastIndexByte(f, '/'); i >= 0 {
		f = f[i+1:]
	}
	return FuncID(fmt.Sprintf("%s.$%s:%d:%d", pkgPath, f, p.Line, p.Column))
}

// callbackFuncID resolves the fn argument of a ScheduleCall*-family
// call to the FuncID of the callback it schedules ("" when the target
// is dynamic).
func callbackFuncID(pkgPath string, fset *token.FileSet, info *types.Info, fnExpr ast.Expr) FuncID {
	if lit, ok := fnExpr.(*ast.FuncLit); ok {
		return litFuncID(pkgPath, fset, lit.Pos())
	}
	if fn := resolveFuncExpr(info, fnExpr); fn != nil {
		return funcIDOf(fn)
	}
	return ""
}

func dedupeSinks(fi *FuncInfo) {
	if len(fi.Sinks) < 2 {
		return
	}
	seen := map[string]bool{}
	out := fi.Sinks[:0]
	for _, s := range fi.Sinks {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	fi.Sinks = out
}

// isStatsAccumCallInfo is isStatsAccumCall against a bare types.Info
// (shared between the extractor and the maporder analyzer).
func isStatsAccumCallInfo(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	t := info.TypeOf(sel.X)
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return strings.HasSuffix(named.Obj().Pkg().Path(), "internal/stats")
}
