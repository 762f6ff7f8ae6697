// Battlefield: the paper's motivating scenario — units moving as groups
// (reference point group mobility), heterogeneous capability (vehicle
// anchors act as cluster heads, foot soldiers as ordinary nodes), and
// node failures mid-session. Demonstrates the availability property:
// multicast keeps flowing while anchor CHs die, because the incomplete
// hypercube retains alternate logical routes.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	spec := hvdb.DefaultSpec()
	spec.Seed = 7
	spec.Nodes = 160
	spec.Mobility = hvdb.GroupMotion // squads move together
	spec.MinSpeed = 2
	spec.MaxSpeed = 6
	spec.Groups = 1
	spec.MembersPerGroup = 20 // the command net

	w, err := hvdb.Build(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("battlefield: %d vehicle anchors, %d dismounted nodes, command net of %d\n",
		len(w.Anchors), len(w.Ordinary), spec.MembersPerGroup)

	stk, err := w.Protocol("hvdb")
	if err != nil {
		log.Fatal(err)
	}
	stk.Start()
	w.WarmUp(15)

	// One meter per phase: n packets half a second apart, a 5 s drain,
	// and the deliveries counted against the members up at each send.
	send := func(n int) hvdb.Counts {
		m := w.Meter(stk, 5)
		src := w.RandomSource()
		for i := 0; i < n; i++ {
			m.Send(src, 0, 256)
			w.RunUntil(w.Sim.Now() + 0.5)
		}
		w.RunUntil(w.Sim.Now() + 5)
		return m.Close()
	}

	before := send(10)
	fmt.Printf("phase 1 (intact backbone): %d/%d deliveries\n", before.Delivered, before.Expected)

	// Combat losses: a fifth of the vehicle anchors go down at once.
	lost := w.FailRandomAnchors(len(w.Anchors) / 5)
	fmt.Printf("\n*** %d anchor CHs destroyed ***\n", len(lost))
	// Give the backbone a few seconds to re-elect and re-beacon.
	w.RunUntil(w.Sim.Now() + 8)

	after := send(10)
	stk.Stop()
	fmt.Printf("phase 2 (degraded backbone): %d/%d deliveries\n", after.Delivered, after.Expected)
	fmt.Printf("\nthe incomplete hypercube's spare logical routes kept the command net alive\n")
}
