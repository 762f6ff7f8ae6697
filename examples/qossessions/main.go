// QoS sessions: exercise the session-admission layer over the HVDB —
// hard (IntServ-like) admission with reservation and rollback, soft
// (DiffServ-like) admission with coverage reporting, and the capacity
// exhaustion point of the backbone (the paper's §2.3: "high availability
// and even distribution of traffic over the network are a prerequisite
// for the economical provisioning of QoS").
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	spec := hvdb.DefaultSpec()
	spec.Seed = 5
	spec.Nodes = 120
	spec.Mobility = hvdb.Static
	spec.Groups = 1
	spec.MembersPerGroup = 14

	w, err := hvdb.Build(spec)
	if err != nil {
		log.Fatal(err)
	}
	stk, err := w.Protocol("hvdb")
	if err != nil {
		log.Fatal(err)
	}
	stk.Start()
	w.WarmUp(14)

	// The stack's own session manager: the one its cluster-head-change
	// hook reconciles, so reservations never outlive a demoted CH.
	qm := hvdb.QoS(stk)
	src := w.RandomSource()

	// Hard admission: 2 Mb/s video sessions until the backbone refuses.
	fmt.Println("hard (IntServ-like) admission of 2 Mb/s sessions:")
	var ids []hvdb.SessionID
	for i := 1; ; i++ {
		s, err := qm.Open(src, 0, 2e6, hvdb.HardQoS)
		if err != nil {
			fmt.Printf("  session %d REJECTED: %v\n", i, err)
			break
		}
		ids = append(ids, s.ID)
		fmt.Printf("  session %d admitted: %d CHs reserved, backbone utilization %.0f%%\n",
			i, len(s.Reserved), qm.Utilization()*100)
		if i > 20 {
			break
		}
	}

	// Soft admission still succeeds, reporting partial coverage.
	s, err := qm.Open(src, 0, 2e6, hvdb.SoftQoS)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsoft (DiffServ-like) admission on the saturated backbone: coverage %.0f%%\n",
		s.Coverage()*100)
	fmt.Println("(the paper: soft QoS suits highly dynamic MANETs better than hard QoS)")

	// Release everything; utilization returns to the soft session only.
	for _, id := range ids {
		qm.Close(id)
	}
	fmt.Printf("\nafter closing the hard sessions: utilization %.1f%%, %d active\n",
		qm.Utilization()*100, qm.Active())
	stk.Stop()
}
