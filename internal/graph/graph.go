// Package graph owns the graph algorithms of HVDB's logical backbone. The
// backbone is one kind of object at two scales — incomplete hypercubes of
// CHs, joined into an incomplete 2-D mesh of hypercubes (§3) — so both
// tiers are a Graph: a presence set over a dense ID universe [0, n), made
// a hypercube or a mesh by its Shape's two rules (adjacency and the
// preferred path). Graph routes, checks connectivity and measures
// diameter, and builds the greedy multicast tree of both tiers.
//
// BFSTree, Prune and Reach cover graphs that are not dense: the unit-disc
// snapshot the DSM and CBT baselines build trees on, and the CH logical
// link graph.
//
// Every search here is one breadth-first loop, walk. It tries neighbours
// in the order the caller's rule yields them and keeps the first parent
// it finds, so each route and tree is a pure function of the graph and
// that order: no map iteration reaches a result.
package graph

import "fmt"

// ID is the integer type of a dense graph's node identifiers.
type ID interface{ ~int | ~uint32 }

// Shape is a dense graph's geometry. Its values are small and copied, so
// a Graph costs no allocation beyond its presence set.
type Shape[V ID] interface {
	// Adjacent appends every neighbour u has when all nodes are present,
	// in the order searches try them, and returns the extended buf.
	Adjacent(u V, buf []V) []V
	// Path appends the preferred src→dst path, endpoints included and
	// presence ignored, and returns the extended buf. Route and
	// MulticastTree take it whenever every node on it is present.
	Path(src, dst V, buf []V) []V
}

// Adj appends the neighbours of u to buf, in the order a search tries
// them, and returns the extended slice.
type Adj[V any] func(u V, buf []V) []V

// Graph is a possibly incomplete graph of shape S over [0, n): any number
// of its nodes may be absent, and an absent node carries no links.
type Graph[V ID, S Shape[V]] struct {
	shape   S
	present []bool
	count   int
}

// New returns the graph of shape s over [0, n) with every node absent.
func New[V ID, S Shape[V]](n int, s S) Graph[V, S] {
	return Graph[V, S]{shape: s, present: make([]bool, n)}
}

// Shape returns the graph's geometry.
func (g *Graph[V, S]) Shape() S { return g.shape }

// Size returns n, the size of the ID universe.
func (g *Graph[V, S]) Size() int { return len(g.present) }

// Count returns the number of present nodes.
func (g *Graph[V, S]) Count() int { return g.count }

// Has reports whether v is present.
func (g *Graph[V, S]) Has(v V) bool {
	return uint(v) < uint(len(g.present)) && g.present[v]
}

// Add marks v present. An ID outside [0, n) panics: the universe is fixed
// by the shape, and a bad ID is a mapping bug.
func (g *Graph[V, S]) Add(v V) {
	if uint(v) >= uint(len(g.present)) {
		panic(fmt.Sprintf("graph: id %d outside [0, %d)", v, len(g.present)))
	}
	if !g.present[v] {
		g.present[v] = true
		g.count++
	}
}

// Remove marks v absent.
func (g *Graph[V, S]) Remove(v V) {
	if g.Has(v) {
		g.present[v] = false
		g.count--
	}
}

// Members returns the present nodes in ascending order.
func (g *Graph[V, S]) Members() []V {
	out := make([]V, 0, g.count)
	for v, ok := range g.present {
		if ok {
			out = append(out, V(v))
		}
	}
	return out
}

// adj is the adjacency every search over g walks: the shape's, restricted
// to present nodes.
func (g *Graph[V, S]) adj(u V, buf []V) []V {
	start := len(buf)
	buf = g.shape.Adjacent(u, buf)
	out := buf[:start]
	for _, v := range buf[start:] {
		if g.Has(v) {
			out = append(out, v)
		}
	}
	return out
}

// intact reports whether every node on path is present.
func (g *Graph[V, S]) intact(path []V) bool {
	for _, v := range path {
		if !g.Has(v) {
			return false
		}
	}
	return true
}

// Route returns a shortest src→dst path through present nodes, endpoints
// included, or nil if none exists. It takes the shape's preferred path
// when that is intact and falls back to BFS otherwise.
func (g *Graph[V, S]) Route(src, dst V) []V {
	if !g.Has(src) || !g.Has(dst) {
		return nil
	}
	if p := g.shape.Path(src, dst, nil); g.intact(p) {
		return p
	}
	p := g.search(src, func(v V) bool { return v == dst })
	for i, j := 0, len(p)-1; i < j; i, j = i+1, j-1 {
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Distance returns the hop length of Route, or -1 if disconnected.
func (g *Graph[V, S]) Distance(src, dst V) int {
	return len(g.Route(src, dst)) - 1
}

// Connected reports whether the present nodes form one component.
func (g *Graph[V, S]) Connected() bool {
	for v, ok := range g.present {
		if ok {
			reached := 0
			for _, d := range g.dists(V(v)) {
				if d >= 0 {
					reached++
				}
			}
			return reached == g.count
		}
	}
	return true
}

// Diameter returns the largest shortest-path length between present
// nodes, or -1 if the graph is empty or disconnected.
func (g *Graph[V, S]) Diameter() int {
	if g.count == 0 {
		return -1
	}
	diam := 0
	for v, ok := range g.present {
		if !ok {
			continue
		}
		for w, d := range g.dists(V(v)) {
			if g.present[w] && d < 0 {
				return -1
			}
			diam = max(diam, d)
		}
	}
	return diam
}

// dists returns every node's hop distance from src through present nodes,
// -1 where unreached.
func (g *Graph[V, S]) dists(src V) []int {
	dist := make([]int, len(g.present))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	walk(src, -1, g.adj, func(v, _ V, d int) step {
		if dist[v] >= 0 {
			return skip
		}
		dist[v] = d
		return grow
	})
	return dist
}

// MulticastTree computes a multicast tree from root covering every
// present destination, as parent pointers (tree[v] = parent of v; the
// root maps to itself). Destinations are added greedily in the order
// given: each takes the preferred path from root, trimmed to start at its
// last node already in the tree — preferred paths share prefixes, which
// keeps the tree compact — or, when that path is broken, the BFS path
// from the destination to the nearest tree node. Destinations that are
// absent or unreachable are returned in missed, as is every destination
// when root is absent.
func (g *Graph[V, S]) MulticastTree(root V, dests []V) (tree map[V]V, missed []V) {
	tree = map[V]V{root: root}
	if !g.Has(root) {
		return tree, append(missed, dests...)
	}
	inTree := func(v V) bool {
		_, in := tree[v]
		return in
	}
	var buf []V
	for _, d := range dests {
		if !g.Has(d) {
			missed = append(missed, d)
			continue
		}
		if inTree(d) {
			continue
		}
		buf = g.shape.Path(root, d, buf[:0])
		path := buf
		if g.intact(path) {
			last := 0
			for i, v := range path {
				if inTree(v) {
					last = i
				}
			}
			path = path[last:]
		} else if path = g.search(d, inTree); path == nil {
			missed = append(missed, d)
			continue
		}
		for i := 1; i < len(path); i++ {
			if !inTree(path[i]) {
				tree[path[i]] = path[i-1]
			}
		}
	}
	return tree, missed
}

// search runs BFS from root through present nodes until it reaches a node
// v with found(v), and returns the path v, ..., root it reached v by; nil
// if no such node is reachable.
func (g *Graph[V, S]) search(root V, found func(V) bool) []V {
	prev := make([]V, len(g.present))
	seen := make([]bool, len(g.present))
	seen[root] = true
	var hit []V
	walk(root, -1, g.adj, func(v, from V, _ int) step {
		if seen[v] {
			return skip
		}
		seen[v], prev[v] = true, from
		if found(v) {
			hit = append(hit, v)
			return stop
		}
		return grow
	})
	for len(hit) > 0 && hit[len(hit)-1] != root {
		hit = append(hit, prev[hit[len(hit)-1]])
	}
	return hit
}

// BFSTree returns the breadth-first tree of everything reachable from
// root under adj, as parent pointers (root maps to itself).
func BFSTree[V comparable](root V, adj Adj[V]) map[V]V {
	parent := map[V]V{root: root}
	walk(root, -1, adj, func(v, from V, _ int) step {
		if _, ok := parent[v]; ok {
			return skip
		}
		parent[v] = from
		return grow
	})
	return parent
}

// Reach returns the hop distance from root of every node within depth
// hops of it under adj, root excluded.
func Reach[V comparable](root V, depth int, adj Adj[V]) map[V]int {
	dist := map[V]int{root: 0}
	walk(root, depth, adj, func(v, _ V, d int) step {
		if _, ok := dist[v]; ok {
			return skip
		}
		dist[v] = d
		return grow
	})
	delete(dist, root)
	return dist
}

// Prune reduces a parent-pointer tree rooted at root to the subtree
// spanning root and the destinations it reaches.
func Prune[V comparable](parent map[V]V, root V, dests []V) map[V]V {
	tree := map[V]V{root: root}
	for _, d := range dests {
		if _, ok := parent[d]; !ok {
			continue // not reached from root
		}
		for cur := d; ; {
			if _, ok := tree[cur]; ok {
				break
			}
			p := parent[cur]
			tree[cur] = p
			cur = p
		}
	}
	return tree
}

// step is a search's verdict on a node walk has just reached.
type step uint8

const (
	skip step = iota // reached before: do not expand it again
	grow             // newly reached: expand it in the next round
	stop             // the search is over
)

// walk is the one breadth-first loop behind every search in the package.
// It expands root out to depth rounds (all of them when depth < 0),
// offering each neighbour v of each expanded node u, in adj's order, to
// visit(v, u, d), where d is the round that reached v.
func walk[V any](root V, depth int, adj Adj[V], visit func(v, from V, d int) step) {
	frontier, next := []V{root}, []V(nil)
	var nbrs []V
	for d := 1; len(frontier) > 0 && (depth < 0 || d <= depth); d++ {
		for _, u := range frontier {
			nbrs = adj(u, nbrs[:0])
			for _, v := range nbrs {
				switch visit(v, u, d) {
				case grow:
					next = append(next, v)
				case stop:
					return
				}
			}
		}
		frontier, next = next, frontier[:0]
	}
}
