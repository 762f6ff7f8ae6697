package experiment

import (
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
)

// quickTableSums reads testdata/quick_tables.sum: one "id sha256" line
// per experiment, the digest of runAndRender(id, QuickOptions) as
// recorded at cac5ec2. A refactor that claims to keep behaviour leaves
// the file alone; a deliberate behaviour change replaces the lines the
// failure message names.
func quickTableSums(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile("testdata/quick_tables.sum")
	if err != nil {
		t.Fatal(err)
	}
	sums := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		id, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("testdata/quick_tables.sum: malformed line %q", line)
		}
		sums[id] = sum
	}
	return sums
}

// runAndRender executes one experiment, applies the structural smoke
// checks (tables exist, have rows, render with their ID), and returns
// every table rendered — aligned and CSV, notes included — as one
// string.
func runAndRender(t *testing.T, id string, o Options) string {
	t.Helper()
	tables, err := Run(id, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) == 0 {
		t.Fatal("no tables")
	}
	var b strings.Builder
	for _, tb := range tables {
		if len(tb.Columns) == 0 {
			t.Fatalf("table %s has no columns", tb.ID)
		}
		if len(tb.Rows) == 0 {
			t.Fatalf("table %s has no rows", tb.ID)
		}
		s := tb.String()
		if !strings.Contains(s, tb.ID) {
			t.Fatalf("table %s renders without its ID", tb.ID)
		}
		b.WriteString(s)
		b.WriteString(tb.CSV())
	}
	return b.String()
}

// TestAllExperimentsQuick smoke-runs every registered experiment at
// reduced scale and enforces the harness determinism contract in the
// same sweep: tables must be byte-identical at worker counts 1, 4, and
// NumCPU for the same seed, because each run's PRNG stream is derived
// positionally (runner.DeriveSeed) and results are collected in run
// order. The first rendering must also hash to the digest recorded in
// testdata/quick_tables.sum: the byte-identical-tables contract, held
// against the committed record instead of a manual cmp. Every traffic
// phase in these runs goes through measure, which panics on leaked
// audience entries, so the sweep also holds AudienceOpen == 0 after
// each phase on every arm. The heavier sweeps are skipped with -short.
func TestAllExperimentsQuick(t *testing.T) {
	sums := quickTableSums(t)
	heavy := map[string]bool{"c3": true, "c5": true, "c6": true, "f5": true, "stress": true}
	counts := []int{1, 4}
	if n := runtime.NumCPU(); n != 1 && n != 4 && !testing.Short() {
		counts = append(counts, n)
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			if testing.Short() && heavy[id] {
				t.Skip("heavy sweep skipped with -short")
			}
			t.Parallel() // experiments are self-contained worlds
			var want string
			for _, workers := range counts {
				o := QuickOptions()
				o.Workers = workers
				got := runAndRender(t, id, o)
				if want == "" {
					want = got
					if sum := fmt.Sprintf("%x", sha256.Sum256([]byte(got))); sum != sums[id] {
						t.Errorf("experiment %s tables hash to %s, testdata/quick_tables.sum records %q:\n%s", id, sum, sums[id], got)
					}
					continue
				}
				if got != want {
					t.Fatalf("experiment %s differs between -parallel %d and -parallel %d:\n--- workers=%d ---\n%s\n--- workers=%d ---\n%s",
						id, counts[0], workers, counts[0], want, workers, got)
				}
			}
		})
	}
}

// TestSerialRerunDeterminism guards against hidden global state: the
// same experiment run twice in one process must render identically.
func TestSerialRerunDeterminism(t *testing.T) {
	o := QuickOptions()
	o.Workers = 1
	for _, id := range []string{"c1", "c4", "f4"} {
		if runAndRender(t, id, o) != runAndRender(t, id, o) {
			t.Fatalf("experiment %s is not deterministic across reruns", id)
		}
	}
}
