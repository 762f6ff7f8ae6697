package hvdb

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint"
)

// testOnlyExempt names what the scan in TestNoTestOnlyCode does not
// check: whole packages by import path, single declarations by
// "pkgpath.Name" ("repro.*" is every exported name of this package,
// the public API). The value is the reason.
var testOnlyExempt = map[string]string{
	"repro.*":                      "the public API, for callers outside the module",
	"repro/internal/lint/linttest": "helpers for the lint package's golden tests",
	"repro/internal/membership.DesignateSelfPlusNeighbors": "the default of Config.Designation, an ablation knob (DESIGN.md BenchmarkAblation*)",
	"repro/internal/multicast.FaultSeedActive":             "tells the fault-seed self-tests which build they run in",
}

// TestNoTestOnlyCode fails on every function, method, var, const and
// type that nothing outside test files uses. Non-test code is the root
// module (cmd/ and examples/ included) and the benchmark module under
// bench/, whose names count as uses. A use inside the declaration
// itself (recursion) or as a method's receiver type does not count, so
// a type that only its own methods name is reported. A method is
// exempt when its type implements, by name and signature, an
// interface declared anywhere the load sees (String, Error, the arms'
// Send/Start, the mobility models). The loader type-checks each
// package's imports separately, so declarations and uses are matched by
// (package path, receiver, name), not by object identity.
//
// When the test fails, delete the code it lists (and the tests that
// exist only for it), then run it again: removing the one caller of a
// helper leaves that helper to the next run.
func TestNoTestOnlyCode(t *testing.T) {
	root, err := lint.Load(".", "./...")
	if err != nil {
		t.Fatal(err)
	}
	bench, err := lint.Load("bench", "./...")
	if err != nil {
		t.Fatal(err)
	}
	// lint.Load skips test files. bench/'s tests count as non-test code,
	// so they must not reach the module except through strings.
	benchTests, _ := filepath.Glob(filepath.Join("bench", "*_test.go"))
	for _, name := range benchTests {
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); inModule(p) {
				t.Fatalf("%s imports %s: the scan does not load bench/'s test files", name, p)
			}
		}
	}

	type decl struct {
		pkg      *lint.Package
		from, to token.Pos
	}
	decls := map[string]decl{}
	for _, p := range root {
		if _, ok := testOnlyExempt[p.ImportPath]; ok {
			continue
		}
		add := func(id *ast.Ident, node ast.Node) {
			obj := p.Info.Defs[id]
			if obj == nil || id.Name == "_" || (p.Types.Name() == "main" && id.Name == "main") || id.Name == "init" {
				return
			}
			if _, ok := testOnlyExempt[p.ImportPath+".*"]; ok && id.IsExported() {
				return
			}
			decls[objKey(obj)] = decl{p, node.Pos(), node.End()}
		}
		for _, f := range p.Files {
			for _, dd := range f.Decls {
				switch dd := dd.(type) {
				case *ast.FuncDecl:
					add(dd.Name, dd)
				case *ast.GenDecl:
					for _, s := range dd.Specs {
						switch s := s.(type) {
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(id, s)
							}
						case *ast.TypeSpec:
							add(s.Name, s)
						}
					}
				}
			}
		}
	}

	used := map[string]bool{}
	ifaces := map[string]ifaceMethods{} // keyed by method set, so each shape is checked once
	addIface := func(it *types.Interface, generic bool) {
		if it.NumMethods() > 0 {
			m := ifaceOf(it, generic)
			ifaces[fmt.Sprint(m)] = m
		}
	}
	seen := map[*types.Package]bool{}
	var addIfaces func(*types.Package)
	addIfaces = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					named, _ := tn.Type().(*types.Named)
					addIface(it, named != nil && named.TypeParams().Len() > 0)
				}
			}
		}
		for _, imp := range tp.Imports() {
			addIfaces(imp)
		}
	}
	addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface), false)
	for _, p := range append(root, bench...) {
		addIfaces(p.Types)
		for _, tv := range p.Info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok {
				addIface(it, false)
			}
		}
		receivers := map[*ast.Ident]bool{}
		for _, f := range p.Files {
			for _, dd := range f.Decls {
				if fd, ok := dd.(*ast.FuncDecl); ok && fd.Recv != nil {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							receivers[id] = true
						}
						return true
					})
				}
			}
		}
		for id, obj := range p.Info.Uses {
			if receivers[id] || obj.Pkg() == nil || !inModule(obj.Pkg().Path()) {
				continue
			}
			if _, ok := obj.(*types.Func); !ok && obj.Parent() != obj.Pkg().Scope() {
				continue // a field, a local or a label
			}
			key := objKey(obj)
			if d, ok := decls[key]; ok && d.pkg == p && d.from <= id.Pos() && id.Pos() < d.to {
				continue
			}
			used[key] = true
		}
	}

	implements := interfaceMethods(root, ifaces)
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for key, d := range decls {
		if _, ok := testOnlyExempt[key]; ok || used[key] || implements[key] {
			continue
		}
		pos := d.pkg.Fset.Position(d.from)
		rel, err := filepath.Rel(wd, pos.Filename)
		if err != nil || strings.HasPrefix(rel, "..") {
			rel = pos.Filename
		}
		dead = append(dead, rel+":"+strconv.Itoa(pos.Line)+": "+strings.TrimPrefix(key, "repro/"))
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("no non-test use: %s", d)
	}
}

func inModule(path string) bool { return path == "repro" || strings.HasPrefix(path, "repro/") }

// objKey names a package-level object or a method as
// "pkgpath.Name" or "pkgpath.Recv.Name".
func objKey(obj types.Object) string {
	if f, ok := obj.(*types.Func); ok {
		f = f.Origin()
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			rt := recv.Type()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			if n, ok := rt.(*types.Named); ok {
				return f.Pkg().Path() + "." + n.Obj().Name() + "." + f.Name()
			}
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// ifaceMethods is an interface's method set as name -> signature; a
// signature of "" (a generic interface's) matches any.
type ifaceMethods map[string]string

func ifaceOf(it *types.Interface, generic bool) ifaceMethods {
	m := ifaceMethods{}
	for i := 0; i < it.NumMethods(); i++ {
		f := it.Method(i)
		m[f.Name()] = ""
		if !generic {
			m[f.Name()] = sigString(f)
		}
	}
	return m
}

// interfaceMethods returns the keys of the methods, declared or
// promoted, through which a named type in pkgs implements one of
// ifaces by method names and signatures.
func interfaceMethods(pkgs []*lint.Package, ifaces map[string]ifaceMethods) map[string]bool {
	out := map[string]bool{}
	for _, p := range pkgs {
		for _, name := range p.Types.Scope().Names() {
			tn, ok := p.Types.Scope().Lookup(name).(*types.TypeName)
			if !ok || types.IsInterface(tn.Type()) {
				continue
			}
			ms := types.NewMethodSet(types.NewPointer(tn.Type()))
			have := map[string]*types.Func{}
			for i := 0; i < ms.Len(); i++ {
				f := ms.At(i).Obj().(*types.Func)
				have[f.Name()] = f
			}
			for _, it := range ifaces {
				all := true
				for name, sig := range it {
					if f := have[name]; f == nil || (sig != "" && sig != sigString(f)) {
						all = false
						break
					}
				}
				if all {
					for name := range it {
						out[objKey(have[name])] = true
					}
				}
			}
		}
	}
	return out
}

// sigString prints a method's parameter and result types with full
// package paths, so signatures from separately type-checked copies of
// a package compare equal.
func sigString(f *types.Func) string {
	sig := f.Type().(*types.Signature)
	q := func(p *types.Package) string { return p.Path() }
	var b strings.Builder
	for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
		for i := 0; i < tup.Len(); i++ {
			b.WriteString(types.TypeString(tup.At(i).Type(), q) + ",")
		}
		b.WriteString(";")
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}
