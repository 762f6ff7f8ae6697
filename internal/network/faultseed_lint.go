//go:build faultseed

package network

// This file seeds the two bug shapes the PR 10 interprocedural lint
// engine exists to catch, both invisible to a purely intraprocedural
// check: a hub write buried two module-local calls below a lane
// function, and an acquired pooled packet handed to a helper that
// silently drops the reference. internal/lint's fault-seed self-test
// loads this package with -tags faultseed and asserts that shardsafe
// and poolpair report both, each naming the full call path; plain
// builds never compile this file, so the module stays lint-clean.

// faultSeedLaneProbe is a lane function: the hub write it reaches
// through two helpers is a cross-shard race were it ever scheduled.
func (w *Network) faultSeedLaneProbe(ls *laneState) {
	ls.pktCheckedOut += 0
	w.faultSeedHopA()
}

func (w *Network) faultSeedHopA() { w.faultSeedHopB() }

// faultSeedHopB clobbers shared hub state two calls below the lane
// root.
func (w *Network) faultSeedHopB() { w.grain = 0 }

// faultSeedLeakProbe acquires a pooled packet and hands it to a
// read-only helper: the reference dies in the callee.
func (w *Network) faultSeedLeakProbe() int {
	p := w.AcquirePacket()
	return faultSeedInspect(p)
}

// faultSeedInspect neither releases nor re-hands-off its parameter.
func faultSeedInspect(p *Packet) int { return p.Size }
