// Package cliflag holds the fail-closed flag conventions hvdbsim,
// hvdbmap and hvdbbench share: a bad invocation — a stray positional
// argument, a numeric flag out of range — prints one named error and
// the usage to standard error and exits 2, before any world is built.
package cliflag

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
)

// Ceilings for the flags that scale a run's length (a world's size is
// scenario.Spec.Validate's): well past the largest values on record —
// the 1M world warms up for 150 simulated seconds, bench's data-1k
// sends 12,000 packets — and far short of a run that never returns.
const (
	MaxWarmup  = 3600    // simulated seconds
	MaxPackets = 100_000 // per group
	MaxTrials  = 10_000
)

// CLI is one command's parsed flag set; its methods report bad flag
// values in the shared form.
type CLI struct{ name string }

// Parse parses the command line of the named command, points the log
// package at the same "name: " prefix, and rejects positional
// arguments: flag stops parsing at the first one, so a stray word
// would otherwise silently drop every flag after it.
func Parse(name string) CLI {
	log.SetFlags(0)
	log.SetPrefix(name + ": ")
	flag.Parse()
	c := CLI{name}
	if flag.NArg() > 0 {
		c.Fail("unexpected argument %q", flag.Arg(0))
	}
	return c
}

// Fail prints the error and the usage, then exits 2.
func (c CLI) Fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, c.name+": "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

// Min fails unless every named int or float64 flag is at least min.
func (c CLI) Min(min float64, names ...string) {
	for _, name := range names {
		if v := value(name); v < min {
			c.Fail("-%s must be >= %g (got %g)", name, min, v)
		}
	}
}

// Max fails unless every named int or float64 flag is at most max.
func (c CLI) Max(max float64, names ...string) {
	for _, name := range names {
		// Negated so that a NaN fails closed.
		if v := value(name); !(v <= max) {
			c.Fail("-%s must be <= %g (got %g)", name, max, v)
		}
	}
}

// WarnShards notes a shard count above the CPU count. Such a run is
// still correct (results are shard-count independent), just pointless:
// extra shards add barrier overhead with no cores to run them on.
func (c CLI) WarnShards(shards int) {
	if shards > runtime.NumCPU() {
		log.Printf("warning: -shards %d exceeds the %d available CPUs", shards, runtime.NumCPU())
	}
}

// value reads a defined int or float64 flag; naming any other flag is
// a bug in the calling command.
func value(name string) float64 {
	switch v := flag.Lookup(name).Value.(flag.Getter).Get().(type) {
	case int:
		return float64(v)
	case float64:
		return v
	default:
		panic(fmt.Sprintf("cliflag: -%s is not an int or float64 flag", name))
	}
}
