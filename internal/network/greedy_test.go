package network

import (
	"testing"

	"repro/internal/des"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/xrand"
)

// bruteGreedy is the reference GreedyNext must reproduce: the first
// strict-< minimum of distance to target over NeighborsPos's list, in
// list order, starting from the sender's own distance. ties counts the
// candidates that exactly matched the best distance kept so far, so a
// test can show its world produced the ties the rank rule decides.
func bruteGreedy(net *Network, id NodeID, target geom.Point) (best NodeID, ties int) {
	best = NoNode
	if n := net.Node(id); n == nil || !n.Up() {
		return best, 0
	}
	bestD2 := net.LaneAt(0).TruePosOf(id).Dist2(target)
	ids, pos := net.NeighborsPos(id, nil, nil)
	for i, nb := range ids {
		d2 := pos[i].Dist2(target)
		if d2 < bestD2 {
			best, bestD2 = nb, d2
		} else if d2 == bestD2 && best != NoNode {
			ties++
		}
	}
	return best, ties
}

// greedyWorld is a seeded world for the equivalence checks: static
// anchors on a lattice (exact distance ties), waypoint movers with both
// radio classes, and static nodes beyond the padded grid, which clamp
// into the border cells.
func greedyWorld(seed uint64, arena geom.Rect, movers int) (*des.Simulator, *Network) {
	sim := des.New()
	rng := xrand.New(seed)
	net := New(sim, arena, rng.Split())
	const pitch = 250
	for x := arena.Min.X + pitch/2; x < arena.Max.X; x += pitch {
		for y := arena.Min.Y + pitch/2; y < arena.Max.Y; y += pitch {
			net.AddNode(&mobility.Static{P: geom.Pt(x, y)}, radio.DefaultCH, nil, true)
		}
	}
	for i := 0; i < movers; i++ {
		rm := radio.DefaultMN
		if i%5 == 0 {
			rm = radio.DefaultCH
		}
		net.AddNode(mobility.NewWaypoint(arena, 1, 20, 2, rng.Split()), rm, nil, false)
	}
	// Outside the arena and its two padding cells on every side: these
	// anchors sit beyond the clamped border cells' spans.
	for i := 0; i < 12; i++ {
		var p geom.Point
		switch i % 4 {
		case 0:
			p = geom.Pt(arena.Min.X-900-float64(i)*40, rng.Range(arena.Min.Y, arena.Max.Y))
		case 1:
			p = geom.Pt(arena.Max.X+900+float64(i)*40, rng.Range(arena.Min.Y, arena.Max.Y))
		case 2:
			p = geom.Pt(rng.Range(arena.Min.X, arena.Max.X), arena.Min.Y-900-float64(i)*40)
		default:
			p = geom.Pt(arena.Min.X-800-float64(i)*30, arena.Max.Y+850)
		}
		net.AddNode(&mobility.Static{P: p}, radio.DefaultCH, nil, false)
		// A partner inside range of each, further out still.
		net.AddNode(&mobility.Static{P: p.Add(geom.Vec(-120, -90))}, radio.DefaultMN, nil, false)
	}
	return sim, net
}

// greedyTargets returns the targets one sender is queried with: a
// lattice corner (equidistant from four anchors), random points inside
// and far outside the arena, a point inside the sender's own cell, and
// the sender's own position.
func greedyTargets(net *Network, id NodeID, rng *xrand.Rand) []geom.Point {
	a := net.Arena()
	p := net.LaneAt(0).TruePosOf(id)
	corner := geom.Pt(a.Min.X+250*float64(rng.Intn(int(a.W()/250)+1)), a.Min.Y+250*float64(rng.Intn(int(a.H()/250)+1)))
	return []geom.Point{
		corner,
		geom.Pt(rng.Range(a.Min.X, a.Max.X), rng.Range(a.Min.Y, a.Max.Y)),
		geom.Pt(rng.Range(a.Min.X-5000, a.Max.X+5000), rng.Range(a.Min.Y-5000, a.Max.Y+5000)),
		p.Add(geom.Vec(rng.Range(-40, 40), rng.Range(-40, 40))),
		p,
	}
}

// checkGreedyAll compares GreedyNext with the reference for every node
// of net toward each of its targets at the current instant, and
// returns the queries and reference ties seen.
func checkGreedyAll(t *testing.T, net *Network, rng *xrand.Rand) (queries, ties int) {
	t.Helper()
	lane := net.LaneAt(0)
	for id := NodeID(0); int(id) < net.Len(); id++ {
		for _, target := range greedyTargets(net, id, rng) {
			want, tie := bruteGreedy(net, id, target)
			if got := lane.GreedyNext(id, target); got != want {
				t.Fatalf("t=%v: GreedyNext(%d, %v) = %d, reference %d", net.Sim().Now(), id, target, got, want)
			}
			queries++
			ties += tie
		}
	}
	return queries, ties
}

func TestGreedyNextMatchesNeighborScan(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		sim, net := greedyWorld(seed, geom.RectWH(0, 0, 2000, 2000), 300)
		rng := xrand.New(seed ^ 0x9e37)
		// Down nodes: a few fail for good, a few cycle.
		for i := 0; i < 20; i++ {
			net.Node(NodeID(rng.Intn(net.Len()))).Fail()
		}
		cycling := NodeID(70)
		queries, ties := 0, 0
		for k := 0; k < 25; k++ {
			sim.RunUntil(des.Time(float64(k) * 0.73))
			if k%3 == 0 {
				if n := net.Node(cycling); n.Up() {
					n.Fail()
				} else {
					n.Recover()
				}
			}
			q, tie := checkGreedyAll(t, net, rng)
			queries += q
			ties += tie
		}
		if ties == 0 {
			t.Fatalf("seed %d: %d queries met no exact distance tie; the lattice world no longer exercises the rank tie-break", seed, queries)
		}
	}
}

// TestGreedyNextAcrossNilTiles: in a mega-arena whose population stands
// on a few index pages, senders near a page corner have scan boxes that
// span materialized and nil pages.
func TestGreedyNextAcrossNilTiles(t *testing.T) {
	sim := des.New()
	net := New(sim, geom.RectWH(0, 0, 50000, 50000), xrand.New(3))
	rng := xrand.New(11)
	// A tile covers 8 cells of 350 m = 2,800 m; the padded grid starts
	// two cells before the arena, so page boundaries fall at x, y =
	// 2800k - 700. Cluster nodes around the (2100, 2100) page corner,
	// leaving the north-east page unmaterialized.
	for net.Len() < 150 {
		p := geom.Pt(2100+rng.Range(-500, 500), 2100+rng.Range(-500, 500))
		if p.X < 2100 || p.Y < 2100 {
			net.AddNode(&mobility.Static{P: p}, radio.DefaultCH, nil, false)
		}
	}
	nilSpan := 0
	for id := NodeID(0); int(id) < net.Len(); id++ {
		_, _, c0, c1 := net.scanBox(&net.laneState, net.Node(id), sim.Now())
		for cy := c0.cy; cy <= c1.cy; cy++ {
			for cx := c0.cx; cx <= c1.cx; cx++ {
				if net.tileAt(cellKey{cx, cy}) == nil {
					nilSpan++
				}
			}
		}
	}
	if nilSpan == 0 {
		t.Fatal("no scan box spans a nil tile; move the cluster onto a page corner")
	}
	checkGreedyAll(t, net, rng)
}

// TestGreedyNextSkipsFixesWithoutMovingAnyone pins the precondition the
// greedy query rests on: skipping a candidate's exact position fix
// changes no later position. Each mobility model advances along a
// trajectory fixed by its own random stream, whatever instants it is
// sampled at. Two identical worlds step through the same instants; one
// runs the full neighbour scan from every node (a fix for every
// candidate in the scan disc), the other only greedy queries. Both must
// pick the same next hops, the greedy world must have evaluated fewer
// positions, and every node must stand at the same place afterwards.
func TestGreedyNextSkipsFixesWithoutMovingAnyone(t *testing.T) {
	arena := geom.RectWH(0, 0, 2000, 2000)
	models := map[string]func(rng *xrand.Rand) func() mobility.Model{
		"waypoint": func(rng *xrand.Rand) func() mobility.Model {
			return func() mobility.Model { return mobility.NewWaypoint(arena, 2, 18, 1, rng.Split()) }
		},
		"walk": func(rng *xrand.Rand) func() mobility.Model {
			return func() mobility.Model { return mobility.NewWalk(arena, 12, 3, rng.Split()) }
		},
		"gauss-markov": func(rng *xrand.Rand) func() mobility.Model {
			return func() mobility.Model { return mobility.NewGaussMarkov(arena, 10, 0.7, 1, rng.Split()) }
		},
		"group": func(rng *xrand.Rand) func() mobility.Model {
			groups := []*mobility.Group{
				mobility.NewGroup(arena, 2, 15, 1, rng.Split()),
				mobility.NewGroup(arena, 2, 15, 1, rng.Split()),
			}
			i := 0
			return func() mobility.Model {
				i++
				off := geom.Vec(rng.Range(-200, 200), rng.Range(-200, 200))
				return groups[i%2].Member(off, 10, rng.Split())
			}
		},
		"manhattan": func(rng *xrand.Rand) func() mobility.Model {
			return func() mobility.Model { return mobility.NewManhattan(arena, 250, 14, rng.Split()) }
		},
	}
	for _, name := range []string{"waypoint", "walk", "gauss-markov", "group", "manhattan"} {
		t.Run(name, func(t *testing.T) {
			build := func() (*des.Simulator, *Network) {
				rng := xrand.New(5)
				sim := des.New()
				net := New(sim, arena, rng.Split())
				next := models[name](rng)
				for i := 0; i < 250; i++ {
					rm := radio.DefaultMN
					if i%4 == 0 {
						rm = radio.DefaultCH
					}
					net.AddNode(next(), rm, nil, false)
				}
				return sim, net
			}
			simA, full := build()
			simB, greedy := build()
			rng := xrand.New(17)
			fixesA, fixesB := 0, 0
			for k := 1; k <= 40; k++ {
				at := des.Time(float64(k) * 0.61)
				simA.RunUntil(at)
				simB.RunUntil(at)
				// A tenth of the nodes send at each instant, so most
				// nodes are only ever candidates.
				for id := NodeID(k % 10); int(id) < full.Len(); id += 10 {
					target := geom.Pt(rng.Range(0, 2000), rng.Range(0, 2000))
					want, _ := bruteGreedy(full, id, target)
					if got := greedy.LaneAt(0).GreedyNext(id, target); got != want {
						t.Fatalf("t=%v: GreedyNext(%d) = %d, full scan %d", at, id, got, want)
					}
				}
				fixesA += fixedAt(full, at)
				fixesB += fixedAt(greedy, at)
			}
			if fixesB >= fixesA {
				t.Fatalf("greedy world evaluated %d positions, the full-scan world %d: nothing was skipped", fixesB, fixesA)
			}
			for _, later := range []des.Time{25, 25.5, 31, 47.25} {
				simA.RunUntil(later)
				simB.RunUntil(later)
				for id := NodeID(0); int(id) < full.Len(); id++ {
					if a, b := full.Node(id).TruePos(), greedy.Node(id).TruePos(); a != b {
						t.Fatalf("t=%v: node %d at %v after full scans, %v after greedy queries", later, id, a, b)
					}
				}
			}
		})
	}
}

// fixedAt counts the nodes whose exact position the serial lane has
// evaluated at instant at.
func fixedAt(net *Network, at des.Time) int {
	n := 0
	for _, e := range net.exact {
		if e.at == at {
			n++
		}
	}
	return n
}
