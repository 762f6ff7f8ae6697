package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one static check. It mirrors the golang.org/x/tools
// go/analysis shape (Name, Doc, Run over a Pass) so the suite can move
// onto the upstream framework wholesale if the dependency ever becomes
// available; until then the driver in this package is the multichecker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -json output.
	Name string
	// Doc is the one-paragraph description printed by hvdblint -help.
	Doc string
	// SuppressKey is the annotation key that exempts a flagged line:
	// a comment `//hvdb:<SuppressKey> <reason>` trailing the line or
	// alone on the line directly above it.
	SuppressKey string
	// Run reports diagnostics for one type-checked package.
	Run func(*Pass)
}

// A Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Module is the propagated interprocedural state for the whole
	// Load — call graph, consume bits, lane reachability.
	Module *Module

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.diags = append(p.diags, Diagnostic{
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportSitef records a diagnostic at a Site (interprocedural facts
// carry positions as resolved Sites, not token.Pos, so a fact from any
// package reports without its FileSet). path renders into the
// diagnostic's CallPath; sites are the call sites along it — a
// suppression annotation at any of them (the lane-entry edge, an
// intermediate hop) covers the diagnostic exactly as one at the
// reported position does.
func (p *Pass) ReportSitef(site Site, path []string, sites []Site, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		File:     site.File,
		Line:     site.Line,
		Col:      site.Col,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
		CallPath: RenderPath(path),
		altSites: sites,
	})
}

// A Diagnostic is one finding, positioned for editors (file:line:col).
type Diagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	// Suppressed reports that a matching //hvdb:<key> annotation
	// covers the line; Reason is the annotation's text.
	Suppressed bool   `json:"suppressed,omitempty"`
	Reason     string `json:"reason,omitempty"`
	// CallPath renders the interprocedural route to the flagged site
	// ("pkg.Root → pkg.helper → pkg.leaf") when an analyzer reported
	// through the call graph.
	CallPath string `json:"call_path,omitempty"`

	// altSites are the call sites along CallPath; a suppression at any
	// of them also covers this diagnostic.
	altSites []Site
}

func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
	if d.CallPath != "" {
		s += " [" + d.CallPath + "]"
	}
	return s
}

// A Result is the outcome of Analyze: Diags must be empty for the tree
// to be lint-clean; Suppressed records the annotated sites so tooling
// can audit the exemption inventory.
type Result struct {
	// Diags are the unsuppressed diagnostics, sorted by position.
	// They include annotation-policy violations (a bare //hvdb:<key>
	// with no reason), which cannot themselves be suppressed.
	Diags []Diagnostic
	// Suppressed are diagnostics covered by a reasoned annotation.
	Suppressed []Diagnostic
}

// Analyzers returns the full determinism suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{MapOrder, SeedSource, PoolPair, ShardSafe}
}

// annotationPrefix introduces a suppression comment. The key follows
// immediately (no space, mirroring //go:build), then the reason.
const annotationPrefix = "//hvdb:"

// suppression is one parsed //hvdb:<key> comment.
type suppression struct {
	key    string
	reason string
	file   string
	line   int
	pos    token.Pos
	used   bool
}

// parseSuppressions scans a file's comments for //hvdb:<key> markers.
func parseSuppressions(fset *token.FileSet, f *ast.File) []*suppression {
	var out []*suppression
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, annotationPrefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, annotationPrefix)
			// Allow linttest want-expectations to share the comment:
			// the reason ends where a `// want` clause begins.
			if i := strings.Index(rest, "// want"); i >= 0 {
				rest = rest[:i]
			}
			key, reason, _ := strings.Cut(rest, " ")
			pos := fset.Position(c.Pos())
			out = append(out, &suppression{
				key:    key,
				reason: strings.TrimSpace(reason),
				file:   pos.Filename,
				line:   pos.Line,
				pos:    c.Pos(),
			})
		}
	}
	return out
}

// Analyze runs the analyzers over the packages and resolves
// suppression annotations. Suppressions are collected module-wide
// before any analyzer runs: an interprocedural diagnostic reported in
// one package can be covered by an annotation on a call site in
// another (the lane-entry edge). A suppression at line L covers
// matching diagnostics at line L (trailing comment) and line L+1
// (comment alone above the flagged statement), at either the reported
// position or any call site on the diagnostic's path.
func Analyze(pkgs []*Package, analyzers ...*Analyzer) *Result {
	if len(analyzers) == 0 {
		analyzers = Analyzers()
	}
	res := &Result{}
	// keys are the suppression keys whose usage this run can audit (the
	// selected analyzers); allKeys is the full registry — an annotation
	// for a non-selected analyzer is legitimate, just not auditable in
	// a subset run.
	keys := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		keys[a.SuppressKey] = true
	}
	allKeys := map[string]bool{}
	for _, a := range Analyzers() {
		allKeys[a.SuppressKey] = true
	}
	var sups []*suppression
	fsetOf := map[*suppression]*token.FileSet{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, s := range parseSuppressions(pkg.Fset, f) {
				sups = append(sups, s)
				fsetOf[s] = pkg.Fset
			}
		}
	}

	module := BuildModule(pkgs)

	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Module:   module,
			}
			a.Run(pass)
			for _, d := range pass.diags {
				if s := matchSuppression(sups, a.SuppressKey, d); s != nil && s.reason != "" {
					d.Suppressed, d.Reason = true, s.reason
					s.used = true
					res.Suppressed = append(res.Suppressed, d)
					continue
				}
				res.Diags = append(res.Diags, d)
			}
		}
	}
	// Annotation policy: every annotation carries a reason, and
	// unknown keys are typos, not silent no-ops.
	for _, s := range sups {
		pos := fsetOf[s].Position(s.pos)
		switch {
		case !allKeys[s.key]:
			res.Diags = append(res.Diags, Diagnostic{
				File: pos.Filename, Line: pos.Line, Col: pos.Column,
				Analyzer: "annotation",
				Message:  fmt.Sprintf("unknown suppression key %q (known: unordered, wallclock, handoff, serialonly)", s.key),
			})
		case !keys[s.key]:
			// Belongs to an analyzer this run didn't select: usage
			// cannot be audited, so neither reason nor staleness is
			// checked here.
		case s.reason == "":
			res.Diags = append(res.Diags, Diagnostic{
				File: pos.Filename, Line: pos.Line, Col: pos.Column,
				Analyzer: "annotation",
				Message:  fmt.Sprintf("//hvdb:%s needs a reason: every exemption documents why the site is safe", s.key),
			})
		case !s.used:
			res.Diags = append(res.Diags, Diagnostic{
				File: pos.Filename, Line: pos.Line, Col: pos.Column,
				Analyzer: "annotation",
				Message:  fmt.Sprintf("//hvdb:%s suppresses nothing here; the site is clean, drop the stale annotation", s.key),
			})
		}
	}
	sortDiags(res.Diags)
	sortDiags(res.Suppressed)
	return res
}

func matchSuppression(sups []*suppression, key string, d Diagnostic) *suppression {
	covers := func(s *suppression, file string, line int) bool {
		return s.key == key && s.file == file && (s.line == line || s.line == line-1)
	}
	for _, s := range sups {
		if covers(s, d.File, d.Line) {
			return s
		}
		for _, alt := range d.altSites {
			if alt.valid() && covers(s, alt.File, alt.Line) {
				return s
			}
		}
	}
	return nil
}

func sortDiags(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
}
