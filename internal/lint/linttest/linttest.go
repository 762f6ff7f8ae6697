// Package linttest is the golden-file harness for the determinism-lint
// analyzers, in the style of golang.org/x/tools' analysistest (which
// the offline container cannot vendor): a testdata directory holds one
// package of .go files whose lines carry expectation comments, and Run
// checks the analyzers' diagnostics against them exactly.
//
// An expectation is a comment of the form
//
//	// want "substring or regexp" ["another" ...]
//
// on the line the diagnostic is reported at. Every expectation must be
// matched by a diagnostic and every diagnostic by an expectation;
// suppressed diagnostics (covered by a reasoned //hvdb:<key>
// annotation) must NOT have expectations — the point of a suppression
// is that the site is clean.
package linttest

import (
	"go/ast"
	"regexp"
	"strings"
	"testing"

	"repro/internal/lint"
)

// expectation is one parsed want comment.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)
var quotedRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// Run loads the testdata package rooted at dir under the given import
// path (use a repro/internal/... path so the analyzers treat it as a
// simulation package) and checks the analyzers' diagnostics against
// the package's want comments.
func Run(t *testing.T, importPath, dir string, analyzers ...*lint.Analyzer) {
	t.Helper()
	pkg, err := lint.LoadDir(importPath, dir)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	res := lint.Analyze([]*lint.Package{pkg}, analyzers...)

	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				wants = append(wants, parseWants(t, pkg, c)...)
			}
		}
	}

	// Wants match against the message plus the rendered call path (when
	// an interprocedural analyzer attached one), so corpus cases can
	// assert the path an engine diagnostic reports, not just its text.
	for _, d := range res.Diags {
		if !matchWant(wants, d.File, d.Line, matchText(d)) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, d := range res.Suppressed {
		if matchWant(wants, d.File, d.Line, matchText(d)) {
			t.Errorf("suppressed diagnostic has a want comment (suppressed sites are clean): %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.pattern)
		}
	}
}

func parseWants(t *testing.T, pkg *lint.Package, c *ast.Comment) []*expectation {
	m := wantRE.FindStringSubmatch(c.Text)
	if m == nil {
		return nil
	}
	pos := pkg.Fset.Position(c.Pos())
	quoted := quotedRE.FindAllStringSubmatch(m[1], -1)
	if len(quoted) == 0 {
		t.Errorf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, c.Text)
		return nil
	}
	var out []*expectation
	for _, q := range quoted {
		pat := strings.ReplaceAll(q[1], `\"`, `"`)
		re, err := regexp.Compile(pat)
		if err != nil {
			t.Errorf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
			continue
		}
		out = append(out, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
	}
	return out
}

func matchText(d lint.Diagnostic) string {
	if d.CallPath != "" {
		return d.Message + " [" + d.CallPath + "]"
	}
	return d.Message
}

func matchWant(wants []*expectation, file string, line int, msg string) bool {
	for _, w := range wants {
		if !w.matched && w.file == file && w.line == line && w.pattern.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	// A second diagnostic on a line may legitimately re-match an
	// already-consumed pattern (e.g. two analyzers, one want each);
	// fall back to any matching want on the line.
	for _, w := range wants {
		if w.file == file && w.line == line && w.pattern.MatchString(msg) {
			return true
		}
	}
	return false
}
