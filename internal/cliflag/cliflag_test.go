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
				if !strings.Contains(stderr.String(), cmd+": "+tc.want) {
					t.Errorf("%s %v: stderr does not name the error %q:\n%s", cmd, tc.args, tc.want, &stderr)
				}
			})
		}
	}
}
