package experiment

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// docTables returns every `== ID: title ==` table recorded inside a
// fenced block of EXPERIMENTS.md, keyed by table ID, exactly as written
// (a table ends at a blank line or at the fence).
func docTables(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	tables := map[string]string{}
	inFence, id := false, ""
	for _, line := range strings.Split(string(data), "\n") {
		switch {
		case strings.HasPrefix(line, "```"):
			inFence, id = !inFence, ""
		case !inFence:
		case strings.HasPrefix(line, "== "):
			id, _, _ = strings.Cut(strings.TrimPrefix(line, "== "), ":")
			if _, dup := tables[id]; dup {
				t.Fatalf("EXPERIMENTS.md records table %s twice", id)
			}
			tables[id] = line + "\n"
		case line == "":
			id = ""
		case id != "":
			tables[id] += line + "\n"
		}
	}
	return tables
}

// rendered is Table.String as a document can hold it: the renderer pads
// every cell to its column, markdown keeps no trailing blanks.
func rendered(tb *Table) string {
	lines := strings.Split(tb.String(), "\n")
	for i, line := range lines {
		lines[i] = strings.TrimRight(line, " ")
	}
	return strings.Join(lines, "\n")
}

// TestExperimentsDocIsTheBinarysOutput holds EXPERIMENTS.md to the
// code: every table it records for the experiments that run in well
// under a second at full size (f5, ten seconds, outside -short) must be
// what the experiment renders today, to the byte. A recorded table can
// then only change together with the behaviour it records. The heavy
// IDs are pinned at quick size by testdata/quick_tables.sum; companion
// tables the document describes in prose (F2b, F4b, C1b) are not
// compared.
func TestExperimentsDocIsTheBinarysOutput(t *testing.T) {
	doc := docTables(t)
	ids := []string{"f1", "f2", "f3", "f4", "c1", "c4"}
	if !testing.Short() {
		ids = append(ids, "f5")
	}
	for _, id := range ids {
		tables, err := Run(id, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		compared := 0
		for _, tb := range tables {
			want, ok := doc[tb.ID]
			if !ok {
				continue
			}
			compared++
			if got := rendered(tb); got != want {
				t.Errorf("EXPERIMENTS.md table %s is not what `hvdbbench -exp %s` prints.\n--- recorded ---\n%s--- rendered ---\n%s", tb.ID, id, want, got)
			}
		}
		if compared == 0 {
			t.Errorf("EXPERIMENTS.md records no table of experiment %s", id)
		}
	}
}

// TestScaleDocMatchesRecord holds the scale table of EXPERIMENTS.md to
// BENCH_scale.json row for row, on the columns the record carries
// (TestScaleRecordReproduces holds the record's first rows to the code).
func TestScaleDocMatchesRecord(t *testing.T) {
	buf, err := os.ReadFile("../../BENCH_scale.json")
	if err != nil {
		t.Fatal(err)
	}
	var rec ScaleRecord
	if err := json.Unmarshal(buf, &rec); err != nil {
		t.Fatalf("parsing BENCH_scale.json: %v", err)
	}
	var rows [][]string
	for _, line := range strings.Split(docTables(t)["scale"], "\n") {
		if f := strings.Fields(line); len(f) == 8 && f[0] != "mobile" {
			rows = append(rows, f)
		}
	}
	if len(rows) != len(rec.Points) {
		t.Fatalf("EXPERIMENTS.md scale table has %d rows, BENCH_scale.json %d", len(rows), len(rec.Points))
	}
	for i, p := range rec.Points {
		got := []string{rows[i][0], rows[i][1], rows[i][2], rows[i][4], rows[i][5]}
		want := []string{I(p.Nodes), I(p.TotalNodes), I(int(p.ArenaM)), U(p.Events), Pct(p.DeliveryRatio)}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("scale row %d: EXPERIMENTS.md has mobile/total/arena/events/pdr %v, BENCH_scale.json %v", i, got, want)
		}
	}
}
