package hvdb

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// mdLink matches markdown link targets: [text](target).
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestDocsLinksResolve walks every markdown file in the repository and
// verifies that intra-repo link targets exist, so DESIGN.md,
// EXPERIMENTS.md, README.md and friends cannot drift into broken
// cross-references. External (scheme-prefixed) and pure-anchor links
// are out of scope.
func TestDocsLinksResolve(t *testing.T) {
	var checked int
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".md") {
			return nil
		}
		body, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(body), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") ||
				strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(path), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (%v)", path, m[1], err)
			}
			checked++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no intra-repo markdown links found; the checker is likely broken")
	}
}

// TestDocsPromisedFilesExist pins the documents that package comments
// and the README point readers at.
func TestDocsPromisedFilesExist(t *testing.T) {
	for _, name := range []string{
		"README.md", "DESIGN.md", "EXPERIMENTS.md", "PAPER.md", "ROADMAP.md",
	} {
		if _, err := os.Stat(name); err != nil {
			t.Errorf("%s is referenced by the docs but missing: %v", name, err)
		}
	}
}

// internalPkg matches a package path under internal/ in the docs.
var internalPkg = regexp.MustCompile("internal/[a-z]+")

// TestLayerMapNamesEveryPackage holds DESIGN.md's layer map ("Every
// package under internal/ is one layer") and hvdb.go's architecture list
// to the tree: each top-level internal/ directory with non-test Go code
// has a row in both, and neither names a package that is not there.
func TestLayerMapNamesEveryPackage(t *testing.T) {
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, d := range dirs {
		files, _ := filepath.Glob(filepath.Join("internal", d.Name(), "*.go"))
		for _, f := range files {
			if !strings.HasSuffix(f, "_test.go") {
				want = append(want, "internal/"+d.Name())
				break
			}
		}
	}

	var mapped []string
	for _, row := range layerMapRows(t) {
		mapped = append(mapped, row...)
	}

	facade, err := os.ReadFile("hvdb.go")
	if err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, line := range strings.Split(string(facade), "\n") {
		if rest, ok := strings.CutPrefix(line, "//\tinternal/"); ok {
			listed = append(listed, "internal/"+strings.Fields(rest)[0])
		}
	}

	for _, doc := range []struct {
		name  string
		names []string
	}{{"DESIGN.md's layer map", mapped}, {"hvdb.go's package list", listed}} {
		named := map[string]bool{}
		for _, p := range doc.names {
			named[p] = true
		}
		for _, p := range want {
			if !named[p] {
				t.Errorf("%s has no row for %s", doc.name, p)
			}
			delete(named, p)
		}
		for _, p := range doc.names {
			if named[p] {
				t.Errorf("%s names %s, which holds no Go package", doc.name, p)
			}
		}
	}
}

// layerMapRows returns the packages each row of DESIGN.md's layer map
// names, top row first.
func layerMapRows(t *testing.T) [][]string {
	t.Helper()
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	layerMap := string(design)
	if i := strings.Index(layerMap, "\n## Layer map"); i >= 0 {
		layerMap = layerMap[i+1:]
	}
	if i := strings.Index(layerMap[1:], "\n## "); i >= 0 {
		layerMap = layerMap[:i+1]
	}
	var rows [][]string
	for _, line := range strings.Split(layerMap, "\n") {
		if cells := strings.Split(line, "|"); len(cells) > 2 {
			if pkgs := internalPkg.FindAllString(cells[1], -1); len(pkgs) > 0 {
				rows = append(rows, pkgs)
			}
		}
	}
	return rows
}

// TestDocsLayerMapIsDependencyOrder holds DESIGN.md's "the simulation
// layers depend downward in this table": no non-test file of an
// internal/ package (its subdirectories included) imports a package on
// a later row of the layer map.
func TestDocsLayerMapIsDependencyOrder(t *testing.T) {
	row := map[string]int{}
	for i, pkgs := range layerMapRows(t) {
		for _, p := range pkgs {
			row[p] = i
		}
	}
	fset := token.NewFileSet()
	checked := 0
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		from := internalPkg.FindString(filepath.ToSlash(path))
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			ipath, _ := strconv.Unquote(imp.Path.Value)
			rest, ok := strings.CutPrefix(ipath, "repro/")
			if !ok {
				continue
			}
			to := internalPkg.FindString(rest)
			if to == "" || to == from {
				continue
			}
			checked++
			if row[to] > row[from] {
				t.Errorf("%s imports %s, a later row of DESIGN.md's layer map", path, ipath)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no internal imports found; the checker is likely broken")
	}
}
