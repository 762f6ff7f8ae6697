// Quickstart: build the paper's running example (an 8x8 virtual-circle
// MANET forming four 4-dimensional logical hypercubes), start the HVDB
// protocol stack, multicast a few packets, and print what happened.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	spec := hvdb.DefaultSpec()
	spec.Nodes = 150
	spec.Groups = 1
	spec.MembersPerGroup = 12
	spec.Mobility = hvdb.Waypoint
	spec.MaxSpeed = 5

	w, err := hvdb.Build(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built %v\n", w.Net)
	fmt.Printf("logical structure: %d hypercubes of dimension %d over %dx%d virtual circles\n",
		w.Scheme.NumHypercubes(), w.Scheme.Dim(), w.Grid.Cols(), w.Grid.Rows())

	// Start clustering, route maintenance, and membership planes; let
	// them converge.
	stk, err := w.Protocol("hvdb")
	if err != nil {
		log.Fatal(err)
	}
	stk.Start()
	w.WarmUp(15)
	fmt.Printf("after warm-up: %d clusters have heads\n", len(w.CM.Heads()))

	// Observe deliveries.
	delivered := 0
	stk.Deliveries(func(member hvdb.NodeID, uid uint64, born hvdb.Time, hops int) {
		delivered++
		fmt.Printf("  delivery: member %d got packet %d after %.1f ms (%d logical hops)\n",
			member, uid, float64(w.Sim.Now()-born)*1000, hops)
	})

	// Multicast five packets from a random node to group 0.
	src := w.RandomSource()
	sent := 0
	for i := 0; i < 5; i++ {
		uid := stk.Send(src, 0, 512)
		w.RunUntil(w.Sim.Now() + 1)
		if uid != 0 {
			sent++
		}
	}
	w.RunUntil(w.Sim.Now() + 5)
	stk.Stop()

	members := len(w.Members[0])
	fmt.Printf("\nsent %d packets to a %d-member group: %d deliveries (%.0f%% of %d expected)\n",
		sent, members, delivered, 100*float64(delivered)/float64(sent*members), sent*members)
	st := w.Net.Stats()
	fmt.Printf("control %d bytes, data %d bytes, %d lost transmissions\n",
		st.ControlBytes, st.DataBytes, st.Lost)
}
