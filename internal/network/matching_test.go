package network

import (
	"strings"
	"testing"
)

func TestBytesAndSendersMatching(t *testing.T) {
	sim, net := testNet()
	a := addStatic(net, 0, 0)
	b := addStatic(net, 100, 0)
	c := addStatic(net, 200, 0)
	net.Unicast(a.ID, b.ID, &Packet{Kind: "plane-x", Size: 10, Control: true})
	net.Unicast(b.ID, c.ID, &Packet{Kind: "geo:plane-x", Size: 20, Control: true})
	net.Unicast(c.ID, b.ID, &Packet{Kind: "plane-y", Size: 40})
	sim.Run()

	planeX := func(kind string) bool {
		return kind == "plane-x" || strings.HasPrefix(kind, "geo:plane-x")
	}
	if got := net.BytesMatching(planeX); got != 30 {
		t.Fatalf("plane-x bytes %d want 30", got)
	}
	if got := net.SendersMatching(planeX); got != 2 {
		t.Fatalf("plane-x senders %d want 2 (a and b)", got)
	}
	all := func(string) bool { return true }
	if got := net.SendersMatching(all); got != 3 {
		t.Fatalf("all senders %d want 3", got)
	}
	net.ResetTraffic()
	if net.BytesMatching(all) != 0 || net.SendersMatching(all) != 0 {
		t.Fatal("ResetTraffic left matcher state")
	}
}

func TestSendersCountedOncePerKind(t *testing.T) {
	sim, net := testNet()
	a := addStatic(net, 0, 0)
	b := addStatic(net, 100, 0)
	for i := 0; i < 5; i++ {
		net.Unicast(a.ID, b.ID, &Packet{Kind: "k", Size: 1})
	}
	sim.Run()
	if got := net.SendersMatching(func(k string) bool { return k == "k" }); got != 1 {
		t.Fatalf("senders %d want 1", got)
	}
}

// TestInRangeAndString: the range decision sends run (Neighbors) admits
// the near node only, and drops it once it is down.
func TestInRangeAndString(t *testing.T) {
	_, net := testNet()
	a := addStatic(net, 0, 0)
	b := addStatic(net, 100, 0)
	addStatic(net, 900, 0)
	if nb := net.Neighbors(a.ID); len(nb) != 1 || nb[0] != b.ID {
		t.Fatalf("in range of a: %v, want only b", nb)
	}
	b.Fail()
	if nb := net.Neighbors(a.ID); len(nb) != 0 {
		t.Fatalf("in range of a with b down: %v, want none", nb)
	}
	s := net.String()
	if !strings.Contains(s, "nodes=3") || !strings.Contains(s, "up=2") {
		t.Fatalf("String() = %q", s)
	}
}

func TestNodeAccessors(t *testing.T) {
	_, net := testNet()
	a := addStatic(net, 5, 5)
	if a.Net() != net {
		t.Fatal("Net() accessor wrong")
	}
	if a.Fix().Pos != a.TruePos() {
		t.Fatal("oracle fix should match truth")
	}
}

func TestBroadcastFromDownNode(t *testing.T) {
	_, net := testNet()
	a := addStatic(net, 0, 0)
	addStatic(net, 100, 0)
	a.Fail()
	if got := net.Broadcast(a.ID, &Packet{Kind: "x", Size: 1}); got != 0 {
		t.Fatalf("down node broadcast reached %d", got)
	}
	if net.Broadcast(NodeID(99), &Packet{Kind: "x", Size: 1}) != 0 {
		t.Fatal("invalid node broadcast should reach 0")
	}
}
