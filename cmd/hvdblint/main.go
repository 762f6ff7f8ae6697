// Command hvdblint runs the repository's determinism-lint suite
// (internal/lint) over Go package patterns: the maporder, seedsource,
// and poolpair analyzers that keep unordered map iteration, ambient
// entropy, and pool leaks out of simulation state (see DESIGN.md
// "Determinism lint").
//
// Exit status: 0 clean, 1 unsuppressed diagnostics found, 2 bad usage
// (unknown flag, unknown package pattern, or load failure) — the same
// convention as hvdbsim/hvdbmap/hvdbbench.
//
// Example:
//
//	hvdblint ./...
//	hvdblint -suppressed ./internal/qos
//	hvdblint -json ./... | jq '.[].file'
//	hvdblint -analyzers shardsafe,poolpair ./...
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	var (
		jsonOut    = flag.Bool("json", false, "emit diagnostics as a JSON array for tooling")
		suppressed = flag.Bool("suppressed", false, "also list annotated (suppressed) sites with their reasons")
		analyzers  = flag.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: hvdblint [flags] [packages]\n\nAnalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(os.Stderr, "\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	selected, err := selectAnalyzers(*analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hvdblint: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "hvdblint: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := lint.Load(dir, flag.Args()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hvdblint: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	res := lint.Analyze(pkgs, selected...)

	out := res.Diags
	if *suppressed {
		out = append(out, res.Suppressed...)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if out == nil {
			out = []lint.Diagnostic{}
		}
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "hvdblint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range out {
			if d.Suppressed {
				fmt.Printf("%s [suppressed: %s]\n", d, d.Reason)
				continue
			}
			fmt.Println(d)
		}
	}
	exit := 0
	if len(res.Diags) > 0 {
		fmt.Fprintf(os.Stderr, "hvdblint: %d unsuppressed diagnostic(s) in %d package(s)\n", len(res.Diags), len(pkgs))
		exit = 1
	}
	os.Exit(exit)
}

// selectAnalyzers resolves the -analyzers CSV against the registered
// suite; an unknown name is a usage error (exit 2 + the valid names in
// usage output). An empty spec selects the full suite.
func selectAnalyzers(spec string) ([]*lint.Analyzer, error) {
	if spec == "" {
		return nil, nil
	}
	byName := map[string]*lint.Analyzer{}
	var valid []string
	for _, a := range lint.Analyzers() {
		byName[a.Name] = a
		valid = append(valid, a.Name)
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (valid: %s)", name, strings.Join(valid, ", "))
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-analyzers selected nothing (valid: %s)", strings.Join(valid, ", "))
	}
	return out, nil
}
