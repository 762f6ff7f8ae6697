package cliflag_test

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBadInvocationsExitTwo pins the fail-closed contract of the three
// simulation CLIs end to end: each bad invocation must exit 2 — not 0
// after silently dropping flags, not 1 from a mid-run failure — and
// print a usage line on standard error.
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
	}

	dir := t.TempDir()
	bin := map[string]string{}
	for _, cmd := range all {
		bin[cmd] = filepath.Join(dir, cmd)
		if out, err := exec.Command("go", "build", "-o", bin[cmd], "repro/cmd/"+cmd).CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", cmd, err, out)
		}
	}
	for _, tc := range cases {
		for _, cmd := range tc.cmds {
			t.Run(cmd+"/"+tc.name, func(t *testing.T) {
				var stderr bytes.Buffer
				c := exec.Command(bin[cmd], tc.args...)
				c.Stderr = &stderr
				err := c.Run()
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
