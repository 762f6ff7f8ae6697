package cliflag_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// bin maps each command to its binary, built once for every test here.
var bin = map[string]string{}

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "cliflag")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, cmd := range []string{"hvdbsim", "hvdbmap", "hvdbbench", "hvdblint"} {
		bin[cmd] = filepath.Join(dir, cmd)
		if out, err := exec.Command("go", "build", "-o", bin[cmd], "repro/cmd/"+cmd).CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "building %s: %v\n%s", cmd, err, out)
			os.Exit(1)
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestBadInvocationsExitTwo pins the fail-closed contract of the three
// simulation CLIs end to end: each bad invocation must exit 2 — not 0
// after silently dropping flags, not 1 from a mid-run failure — and
// print a usage line on standard error. Each invocation runs under a
// timeout, so a command that hangs on a bad value fails the case
// instead of stalling the test binary.
func TestBadInvocationsExitTwo(t *testing.T) {
	const flagUndefined = "flag provided but not defined: "
	all := []string{"hvdbsim", "hvdbmap", "hvdbbench"}
	cases := []struct {
		name string
		args []string
		want string // the named error on stderr
		cmds []string
	}{
		// flag stops at the first positional, so the -shards 0 behind
		// the stray word is never parsed: the exit must name the word.
		{"stray positional", []string{"-seed", "2", "bogus", "-shards", "0"}, `unexpected argument "bogus"`, all},
		{"loss above one", []string{"-loss", "1.5"}, "-loss must be within [0,1]", []string{"hvdbsim"}},
		// NaN passes every un-negated range check. Before the negated
		// checks, -loss NaN ran lossless, -speed NaN never returned and
		// -speed Inf ran to exit 0.
		{"NaN loss", []string{"-loss", "NaN"}, "-loss must be within [0,1]", []string{"hvdbsim"}},
		{"NaN speed", []string{"-speed", "NaN"}, "scenario: node speeds", []string{"hvdbsim", "hvdbmap"}},
		{"infinite speed", []string{"-speed", "Inf"}, "scenario: node speeds", []string{"hvdbsim"}},
		{"zero nodes", []string{"-nodes", "0"}, "-nodes must be >= 1", []string{"hvdbsim"}}, // hvdbmap renders anchors-only maps
		{"zero shards", []string{"-shards", "0"}, "-shards must be >= 1", all},
		{"negative parallel", []string{"-parallel", "-1"}, "-parallel must be >= 0", all},
		{"zero arena", []string{"-arena", "0"}, "scenario: arena side 0 m", []string{"hvdbsim", "hvdbmap"}},
		// Oversize worlds and runs are refused before anything is
		// allocated or simulated: on the parent these died in the
		// runtime's out-of-memory trace, exited 1 from a constructor,
		// and never returned, in that order.
		{"oversize grid", []string{"-nodes", "20", "-arena", "1e7", "-cell", "10"}, "scenario: arena 1e+07 m over cell 10 m", []string{"hvdbsim"}},
		{"oversize dim", []string{"-dim", "40"}, "-dim must be <= 20", []string{"hvdbsim", "hvdbmap"}},
		{"oversize warmup", []string{"-warmup", "1e308"}, "-warmup must be <= 3600", []string{"hvdbsim", "hvdbmap"}},
		// The host-timing modes are gone (bench/ is the one recorder);
		// the flag package itself refuses them.
		{"removed perfsmoke", []string{"-perfsmoke"}, flagUndefined + "-perfsmoke", []string{"hvdbbench"}},
		{"removed scalemem", []string{"-scalemem"}, flagUndefined + "-scalemem", []string{"hvdbbench"}},
		// Drop causes are counters on hvdbsim's "packet drops" line now;
		// the string tracer and its flag are gone.
		{"removed trace", []string{"-trace", "routes"}, flagUndefined + "-trace", []string{"hvdbsim"}},
	}

	for _, tc := range cases {
		for _, cmd := range tc.cmds {
			t.Run(cmd+"/"+tc.name, func(t *testing.T) {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				var stderr bytes.Buffer
				c := exec.CommandContext(ctx, bin[cmd], tc.args...)
				c.Stderr = &stderr
				err := c.Run()
				if ctx.Err() != nil {
					t.Fatalf("%s %v: still running after 30 s", cmd, tc.args)
				}
				var exit *exec.ExitError
				if !errors.As(err, &exit) || exit.ExitCode() != 2 {
					t.Fatalf("%s %v: want exit 2, got %v\nstderr:\n%s", cmd, tc.args, err, &stderr)
				}
				if !strings.Contains(stderr.String(), "Usage of ") {
					t.Errorf("%s %v: no usage line on stderr:\n%s", cmd, tc.args, &stderr)
				}
				want := cmd + ": " + tc.want
				if strings.HasPrefix(tc.want, flagUndefined) {
					want = tc.want // package flag's own line carries no command prefix
				}
				if !strings.Contains(stderr.String(), want) {
					t.Errorf("%s %v: stderr does not name the error %q:\n%s", cmd, tc.args, tc.want, &stderr)
				}
			})
		}
	}
}

// usageFlag matches one flag of package flag's usage output.
var usageFlag = regexp.MustCompile(`(?m)^  -([A-Za-z0-9]+)`)

// TestDocumentedCommandLinesUseDefinedFlags reads every command line in
// a fenced block of README.md, DESIGN.md and EXPERIMENTS.md that runs
// one of the four commands (by name, by path or through `go run`) and
// requires each flag on it to be one the command's own -h lists: a
// removed flag cannot stay behind in the documents.
func TestDocumentedCommandLinesUseDefinedFlags(t *testing.T) {
	defined := map[string]map[string]bool{}
	for cmd, exe := range bin {
		usage, _ := exec.Command(exe, "-h").CombinedOutput() // -h exits non-zero on some commands; the text is what counts
		defined[cmd] = map[string]bool{}
		for _, m := range usageFlag.FindAllStringSubmatch(string(usage), -1) {
			defined[cmd][m[1]] = true
		}
		if len(defined[cmd]) == 0 {
			t.Fatalf("%s -h lists no flags:\n%s", cmd, usage)
		}
	}
	checked := 0
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		data, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		inFence := false
		for _, line := range strings.Split(strings.ReplaceAll(string(data), "\\\n", " "), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				inFence = !inFence
				continue
			}
			if !inFence {
				continue
			}
			line, _, _ = strings.Cut(line, "#") // trailing shell comment
			cmd := ""
			for _, tok := range strings.Fields(line) {
				switch {
				case strings.ContainsAny(tok[:1], "|>;&)"):
					cmd = "" // what follows belongs to another command
				case cmd == "" && defined[path.Base(tok)] != nil:
					cmd = path.Base(tok)
				case cmd != "" && len(tok) > 1 && tok[0] == '-' && (tok[1] < '0' || tok[1] > '9'):
					checked++
					if name, _, _ := strings.Cut(tok[1:], "="); !defined[cmd][name] {
						t.Errorf("%s: `%s`: %s defines no flag -%s", doc, strings.TrimSpace(line), cmd, name)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no documented flag found; the extractor is likely broken")
	}
}
