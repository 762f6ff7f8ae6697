// Vehicular: emergency warnings in a vehicular network (one of the
// paper's motivating applications) — fast nodes on a large arena, where
// the HVDB is compared head-to-head against flooding on identically
// specced worlds: same warning traffic, radically different channel
// cost. Both arms are protocol.Stacks built by World.Protocol, so the
// drive loop is a single code path.
package main

import (
	"fmt"
	"log"

	"repro"
)

func run(name string) {
	spec := hvdb.DefaultSpec()
	spec.Seed = 3
	spec.ArenaSize = 3000 // 12x12 VCs, nine 4-D hypercubes
	spec.Nodes = 250
	spec.Mobility = hvdb.Manhattan // vehicles follow the street grid
	spec.MaxSpeed = 18             // m/s along streets
	spec.Groups = 1
	spec.MembersPerGroup = 30 // vehicles subscribed to warnings

	w, err := hvdb.Build(spec)
	if err != nil {
		log.Fatal(err)
	}
	stk, err := w.Protocol(name)
	if err != nil {
		log.Fatal(err)
	}

	stk.Start()
	w.WarmUp(12)

	delivered := 0
	stk.Deliveries(func(hvdb.NodeID, uint64, hvdb.Time, int) { delivered++ })

	// Ten emergency warnings from vehicles at random positions.
	sent := 0
	for i := 0; i < 10; i++ {
		if stk.Send(w.RandomSource(), 0, 128) != 0 {
			sent++
		}
		w.Sim.RunUntil(w.Sim.Now() + 1)
	}
	w.Sim.RunUntil(w.Sim.Now() + 5)
	stk.Stop()

	st := w.Net.Stats()
	expected := sent * len(w.Members[0])
	fmt.Printf("%-9s delivery %4.0f%%   data on air %7d bytes   control %8d bytes\n",
		name, 100*float64(delivered)/float64(expected), st.DataBytes, st.ControlBytes)
}

func main() {
	fmt.Println("vehicular emergency warnings: HVDB vs flooding on identical worlds")
	run("hvdb")
	run("flooding")
	fmt.Println("\nflooding pays for every warning with a transmission per vehicle;")
	fmt.Println("the HVDB pays a bounded backbone overhead instead")
}
