// Package lint is the repository's determinism-lint suite: a small,
// dependency-free go/analysis-style framework plus four analyzers that
// make the map-order bug class — unordered map iteration leaking into
// ordered simulation state — and its sharded-kernel sibling — lane
// code writing shared hub state — compile-time errors instead of raced
// rerun findings.
//
// The repository's two real protocol bugs to date were the same bug:
// PR 3's transmission scheduling and PR 5's greedy-tree destination
// lists both ranged a Go map and let the per-element effect escape into
// something order-sensitive (a packet send draws from the sender's loss
// stream; a greedy tree depends on destination order). The standing
// contract — byte-identical tables at any worker or shard count — was
// defended only dynamically. These analyzers defend it statically.
//
// # Analyzers
//
//   - MapOrder flags `for range` over a map whose per-element effect
//     escapes the loop into an ordering-sensitive sink: a DES schedule
//     or transmission call, an append to a slice declared outside the
//     loop that is never sorted in the enclosing function, an emitted
//     table row (fmt.Fprintf and friends, strings.Builder writes), or a
//     floating-point reduction (float += is not associative, so even a
//     "commutative" sum is order-observable in the last ulp). The
//     collect-then-sort idiom (append into a slice that the same
//     function passes to sort.*, slices.Sort*, network.SortedIDs,
//     network.Children, or membership.MTSummaryHIDs) is recognized and
//     not flagged.
//
//   - SeedSource bans wall-clock and ambient randomness in simulation
//     packages: importing math/rand, math/rand/v2, or crypto/rand, and
//     calling time.Now/Since/Sleep/Tick/... . Simulated randomness must
//     flow through internal/xrand streams derived positionally with
//     runner.DeriveSeed; simulated time comes from the des clock.
//
//   - PoolPair is a flow-insensitive lifecycle check for pooled
//     acquires (network.AcquirePacket and any Acquire* method): within
//     a function, every acquired value must reach a Release* call or a
//     recognized handoff (returned, stored, or passed to another call
//     that takes over the reference). Passing to a module-local callee
//     counts as a handoff only if the callee's summary actually
//     releases or re-hands-off that parameter; a summary that does
//     neither turns the call site into the reported leak. The dynamic
//     invariant PooledInFlight()==0 only fires at teardown; this
//     catches the leak at the line that drops the reference.
//
//   - ShardSafe guards the sharded kernel's ownership discipline in
//     the packages whose code runs on shard lanes (internal/des,
//     internal/network, internal/georoute): a function in lane context
//     — one taking per-lane state (*laneState, *rlane, *Lane) or a
//     closure passed to ScheduleLaneDirect/LogIntent — must not write
//     package-level variables or fields of the shared hub types
//     (Network, Router, Simulator, Sharded, Mux). Such writes race
//     across lane workers and, even when atomically safe, make results
//     depend on lane interleaving. The check is transitive over the
//     module's static call graph: a hub write anywhere reachable from
//     lane context is flagged at the write with the full call path in
//     the diagnostic. Writes through the lane-state parameters
//     themselves are the sanctioned path.
//
// # Interprocedural engine
//
// The analyzers above see through helper calls via a summary-based
// bottom-up engine (callgraph.go, summary.go): one extraction pass
// records per-function facts — hub writes, ordered sinks, per-param
// release/handoff behavior, outgoing calls including closures handed
// to the kernel's scheduling surface — then consume bits propagate
// over the call graph to their least fixed point (recursion cycles
// included) and lane reachability by breadth-first search from the
// lane roots. Unresolvable callees (other modules, interface methods)
// degrade conservatively: they consume their arguments and contribute
// no lane path. MapOrder uses the same summaries to follow a loop body
// one call deep into module-local helpers.
//
// # Suppression annotations
//
// Each analyzer has one annotation key; a site that is legitimately
// exempt carries a line comment either trailing the flagged line or
// alone on the line directly above it:
//
//	//hvdb:unordered <reason>   (MapOrder)
//	//hvdb:wallclock <reason>   (SeedSource)
//	//hvdb:handoff <reason>     (PoolPair)
//	//hvdb:serialonly <reason>  (ShardSafe)
//
// The reason is mandatory: a bare annotation is itself a diagnostic,
// so every exemption in the tree documents why it is safe. Annotations
// are deliberately line-scoped — there is no file- or package-wide
// opt-out — because the bug class is per-loop, not per-file. A
// diagnostic reported through the call graph is additionally covered
// by an annotation at any call site on its path, so one annotation on
// a lane-entry edge can cover every write it proves serial.
//
// # Driver
//
// Load resolves package patterns with `go list` and type-checks them
// from source (dependencies with bodies ignored), so the suite needs
// no network and no external modules. Analyze runs analyzers over the
// loaded packages and resolves suppressions. cmd/hvdblint is the CLI
// (-analyzers selects a subset); TestRepoLintClean in this package asserts
// zero unsuppressed diagnostics over ./... on every `go test`, so the
// lint is enforced even off-CI. See DESIGN.md "Determinism lint" for
// the sink model and for how to add a new analyzer.
package lint
