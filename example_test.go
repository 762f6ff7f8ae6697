package hvdb_test

import (
	"fmt"
	"log"

	hvdb "repro"
)

// Example reproduces the paper's running configuration and multicasts
// one metered packet through the full HVDB stack.
func Example() {
	spec := hvdb.DefaultSpec()
	spec.Nodes = 60
	spec.Groups = 1
	spec.MembersPerGroup = 5
	spec.Mobility = hvdb.Static

	w, err := hvdb.Build(spec)
	if err != nil {
		log.Fatal(err)
	}
	stk, err := w.Protocol("hvdb")
	if err != nil {
		log.Fatal(err)
	}
	stk.Start()
	w.WarmUp(12)

	m := w.Meter(stk, 5)
	m.Send(w.RandomSource(), 0, 256)
	w.RunUntil(w.Sim.Now() + 5)
	got := m.Close()
	stk.Stop()

	fmt.Println("delivered to all members:", got.Delivered == len(w.Members[0]))
	// Output: delivered to all members: true
}

// ExampleExperimentIDs lists the experiment harness index (see
// DESIGN.md for what each reproduces and EXPERIMENTS.md for recorded
// results).
func ExampleExperimentIDs() {
	for _, id := range hvdb.ExperimentIDs() {
		fmt.Printf("%-5s %s\n", id, hvdb.ExperimentTitle(id))
	}
	// Output:
	// c1    claim: high availability via disjoint paths
	// c2    claim: load balancing vs tree-based backbone
	// c3    claim: control overhead scalability
	// c4    claim: small diameter / few logical hops
	// c5    protocol comparison (PDR/delay/overhead)
	// c6    group dynamics: delivery under membership churn
	// f1    HVDB model construction (Fig. 1)
	// f2    8x8 VC / four 4-D hypercube decomposition (Fig. 2)
	// f3    4-D hypercube label layout (Fig. 3)
	// f4    proactive local logical route maintenance (Fig. 4)
	// f5    summary-based membership update (Fig. 5)
	// f6    logical location-based multicast routing (Fig. 6)
	// scale simulator scale sweep up to 100,000-node worlds
	// stress scripted stress scenarios: 6 protocol arms x 3 dynamic scripts
}
