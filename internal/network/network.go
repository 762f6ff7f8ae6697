// Package network is the MANET substrate: mobile nodes with radios and
// mobility models, single-hop unicast/broadcast delivery with realistic
// delay and loss, a spatial index for neighbor queries, failure
// injection, and the traffic accounting every experiment reports
// (control vs. data overhead, per-node forwarding load).
//
// Protocols are written as packet handlers on nodes; the network
// schedules deliveries on the shared discrete-event simulator. A single
// Network is owned by a single simulation run and is not safe for
// concurrent use; runs are parallelized at the harness level by
// internal/runner, which gives every run its own Network, Simulator,
// and PRNG stream (no state in this package is shared between runs).
//
// # Hot-path design
//
// Five structures keep the substrate fast at 10k-node scale (DESIGN.md
// has the full story):
//
//   - The spatial index is incremental. Instead of rebuilding the cell
//     grid at every distinct simulation time (O(N) mobility advances per
//     event), each node carries a cell assignment plus a safe-until
//     deadline derived from its mobility model's DriftBound: until the
//     deadline, the node's true position provably stays within half a
//     cell of the position its cell was computed from. A query refreshes
//     only the nodes whose deadlines have passed (a small index heap),
//     widens the scan radius by that half-cell slack, and re-checks
//     candidates exactly. Static nodes — the anchor CH population —
//     never refresh at all. Cell buckets carry each member's anchor
//     position inline, so the prefilter is a sequential scan, and a
//     one-entry memo replays repeated same-sender same-instant list
//     queries without rescanning. Greedy forwarding asks for one
//     neighbour instead of the list (Lane.GreedyNext): it walks the
//     cells nearest the target first and skips, unfixed, every entry
//     whose anchor is too far from the target to win.
//   - The delivery path runs on dense per-node arrays (liveness,
//     receive counters, handlers, plus the spatial SoA slice), never
//     loading *Node structs, and per-node positions at the current
//     instant are memoized, so a broadcast storm touching the same
//     nodes at one timestamp advances each mobility model once.
//   - A Broadcast schedules its receivers as one des fan-out: one
//     queue entry and one event record until the kernel's bucket
//     holding it becomes current, where the receivers are sorted with
//     the rest of the bucket. The pending-event set outside the current
//     bucket scales with transmissions, not transmissions x degree,
//     while timestamps and tie-break order stay bit-identical to
//     per-neighbor scheduling.
//   - Traffic accounting interns the packet kind: one map lookup per
//     transmission into a counter struct (tx, bytes, sender bitset)
//     behind a one-entry cache riding same-kind bursts. The Mux keeps
//     the same cache over handler dispatch.
//   - Packet hops schedule through des.ScheduleCallU with the packet
//     as the arg and (from, to) packed into the word, so a hop needs no
//     closure and no delivery record, and packets themselves can be
//     pooled (AcquirePacket/ReleasePacket) with network-managed
//     reference counts, so the steady-state per-hop allocation count
//     is zero.
package network

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"repro/internal/des"
	"repro/internal/geom"
	"repro/internal/gps"
	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/xrand"
)

// NodeID identifies a node within one Network.
type NodeID int

// NoNode is the invalid node ID.
const NoNode NodeID = -1

// Packet is a single transmission unit. Protocols attach their own
// payload; Size is what occupies the channel and is what the overhead
// accounting integrates.
type Packet struct {
	// Kind names the protocol message type, e.g. "beacon",
	// "mnt-summary", "mcast-data". It keys the per-kind traffic counters.
	Kind string
	// Src is the originating node; Dst the final destination (protocols
	// performing multi-hop routing re-send at each hop).
	Src, Dst NodeID
	// Group carries a multicast group ID where relevant.
	Group int
	// Size is the on-air size in bytes, headers included.
	Size int
	// Control marks protocol overhead as opposed to application data.
	Control bool
	// Relays is a per-copy counter the protocol defines (multicast counts
	// logical CH-to-CH forwards in it); the network never touches it. It
	// sits in Control's padding, so it costs the packet no size.
	Relays int32
	// Hops counts physical transmissions so far: the network increments
	// it once per Unicast or Broadcast of the packet, so every receiver
	// of one broadcast sees the same count. A handler that relays a copy
	// it received (Clone, then send) gets the path length of that copy.
	// A relayed control flood re-broadcasts the one packet it received,
	// so its Hops counts every relay of the flood so far, not a path
	// length.
	Hops int
	// Born is the simulated time the packet's application payload was
	// created, for end-to-end delay measurement across re-encapsulation.
	Born des.Time
	// UID is unique per originated packet and survives forwarding, so
	// duplicate suppression and delivery accounting can key on it.
	UID uint64
	// Payload is protocol-defined.
	Payload any

	// Pool management (see AcquirePacket): refs counts the holders of a
	// pooled packet — the sending caller plus every in-flight delivery —
	// and child is a pooled packet this one keeps alive (see
	// AdoptPacket), released when this packet recycles.
	refs   int32
	pooled bool
	child  *Packet
}

// Clone returns a copy of the packet for duplication at branch points;
// payloads are shared (protocol payloads are immutable by convention).
// The copy is always heap-owned, never pooled, so cloning is also the
// way a handler retains a pooled packet past its delivery.
func (p *Packet) Clone() *Packet {
	q := *p
	q.refs, q.pooled, q.child = 0, false, nil
	return &q
}

// Handler receives packets delivered to a node. from is the physical
// (one-hop) sender.
type Handler func(n *Node, from NodeID, pkt *Packet)

// Node is one mobile node.
type Node struct {
	ID  NodeID
	net *Network

	Mob   mobility.Model
	Radio radio.Model
	GPS   gps.Receiver
	// CHCapable marks nodes with the stronger capability class that the
	// paper requires of cluster heads.
	CHCapable bool
	// cap meters residual bandwidth for QoS admission. It is lazily
	// materialized by Capacity(): only nodes an admission plane actually
	// touches pay for the meter, so the millions of idle nodes in a
	// mega-world carry none.
	cap *radio.Capacity

	rng xrand.Rand    // private stream, split off the network's at AddNode
	pre radio.Precomp // cached link budget of Radio

	// Traffic counters (transmissions this node performed). The receive
	// counter lives in the network's dense per-node array — the delivery
	// hot path updates it without loading the Node — and is read through
	// RxBytes.
	TxPackets, TxBytes uint64
	// ForwardLoad counts transmissions done on behalf of others (the
	// load-balancing experiments read it).
	ForwardLoad uint64
}

// RxBytes returns how many bytes the node has received.
func (n *Node) RxBytes() uint64 { return n.net.hot[n.ID].rxBytes }

// Up reports whether the node is alive.
func (n *Node) Up() bool { return n.net.hot[n.ID].up }

// SetHandler installs the packet receive callback.
func (n *Node) SetHandler(h Handler) { n.net.hot[n.ID].handler = h }

// Capacity returns the node's residual-bandwidth meter for QoS
// admission, materializing it on first touch. A fresh meter is fully
// free, so lazy allocation is observationally identical to the eager
// per-node meters it replaces.
func (n *Node) Capacity() *radio.Capacity {
	if n.cap == nil {
		n.cap = radio.NewCapacity(n.Radio.Bandwidth)
	}
	return n.cap
}

// Net returns the owning network.
func (n *Node) Net() *Network { return n.net }

// Fix samples the node's positioning receiver at the current simulated
// time.
func (n *Node) Fix() gps.Fix {
	return n.GPS.Fix(n.Mob, float64(n.net.sim.Now()))
}

// TruePos returns the node's ground-truth position (the network layer
// itself always uses truth for propagation; GPS error only affects what
// protocols believe). The position is memoized per simulation instant.
func (n *Node) TruePos() geom.Point {
	return n.net.truePos(n)
}

// Fail takes the node down: it stops receiving and transmitting until
// Recover. The node leaves the spatial index immediately, so neighbor
// queries at the same instant already exclude it.
func (n *Node) Fail() {
	if !n.net.hot[n.ID].up {
		return
	}
	n.net.hot[n.ID].up = false
	n.net.indexRemove(n.ID)
}

// Recover brings a failed node back and re-enters it into the spatial
// index at its current true position.
func (n *Node) Recover() {
	if n.net.hot[n.ID].up {
		return
	}
	n.net.hot[n.ID].up = true
	n.net.indexInsert(n.ID)
}

// laneState groups the per-lane mutable state of the delivery path:
// position memos, the neighbor-query memo, traffic accounting, and the
// packet pool. The unsharded network has exactly one (embedded in
// Network, so field references read naturally); EnableSharding adds one
// per extra shard, and every delivery executes against the lane of the
// shard that owns it, so concurrent lane workers never share a memo, a
// counter, or a free list. Counters are folded across lanes at read
// time (sums and bitset unions commute, so totals are shard-count
// independent); memos and pools are pure caches that never influence
// results.
type laneState struct {
	// exact memoizes each node's true position per simulation instant.
	// It lives apart from sp because the memo *hit* is the hot case —
	// every candidate surviving a neighbor scan's prefilter checks it —
	// and the 24-byte records pack ~3 nodes per cache line where the
	// full spatialState spans two lines on its own.
	exact []posMemo

	// One-entry neighbor-query memo: a repeated list query of the same
	// sender within one instant (Broadcast, NeighborsPos) replays the
	// result as two appends instead of a grid scan. topoVer
	// invalidates it on any index membership change.
	nbrMemoID  NodeID
	nbrMemoAt  des.Time
	nbrMemoVer uint64
	nbrMemoIDs []NodeID
	nbrMemoPos []geom.Point

	// Aggregate accounting, interned by packet kind, with a one-entry
	// cache riding the same-kind burstiness of protocol traffic.
	kinds     map[string]*kindCounter
	lastKind  string
	lastKC    *kindCounter
	ctrlBytes uint64
	dataBytes uint64
	lost      uint64
	rxDown    uint64 // deliveries whose receiver went down in flight

	// Free list for pooled packets; pktCheckedOut balances
	// AcquirePacket against pool recycling. A packet acquired on one
	// lane may recycle on another (the per-lane counts then go +1/-1),
	// so only the sum across lanes is meaningful — it must return to
	// zero once the simulator drains (the leak check scenario
	// integration tests assert at world teardown).
	freePkts      []*Packet
	pktCheckedOut int
}

// spatialState is the per-node bookkeeping of the incremental index.
// It deliberately duplicates the mobility model in one parallel
// struct-of-arrays slice: refreshTo and NeighborsPos iterate thousands
// of candidates per query, and walking w.sp[id] stays within a few
// contiguous cache lines where chasing *Node pointers would miss on
// every candidate. (Liveness, receive counters, and handlers live in
// their own denser arrays; see Network.)
type spatialState struct {
	// cell is the node's current bucket; anchorPos the position the
	// bucket and deadline were computed from.
	cell      cellKey
	anchorPos geom.Point
	// safeUntil is the last instant the drift bound guarantees the true
	// position within half a cell of anchorPos.
	safeUntil des.Time
	// heapIdx is the node's slot in the refresh heap; -1 when absent
	// (down nodes, and static nodes whose deadline is infinite).
	heapIdx int32
	// mob aliases Node.Mob so position refreshes never touch the Node.
	mob mobility.Model
	// driftSpeed/driftJump cache Mob.DriftBound().
	driftSpeed, driftJump float64
}

// Network owns the nodes of one simulated MANET.
type Network struct {
	sim   *des.Simulator
	arena geom.Rect
	nodes []*Node
	rng   *xrand.Rand

	// Incremental spatial index over node positions. Cells form a
	// two-level sparse grid over the arena (padded by gridPad cells per
	// side for movers that exceed the arena, e.g. group-motion offsets);
	// out-of-range positions clamp to the border cells, which preserves
	// query correctness because clamping never increases cell distance.
	// The coarse level is a page directory of tile pointers (tileW x
	// tileW cells each, nil until a node lands there), so an arena's
	// index memory is proportional to its occupied area, not its total
	// cell count — the property that lets sparse mega-arenas scale.
	// Buckets carry each member's anchor position inline (cellEntry),
	// so the query prefilter is one sequential scan per bucket and only
	// surviving candidates touch the per-node spatial state. Tiles are
	// materialized only from serial context (insert/refresh at window
	// barriers); scans never allocate, which keeps them pure inside
	// parallel windows.
	cellSize float64
	slack    float64 // staleness tolerance of cached cell positions
	gridMinX float64
	gridMinY float64
	gridCols int
	gridRows int
	tileCols int
	tileRows int
	tiles    []*gridTile // page directory, indexed ty*tileCols+tx
	sp       []spatialState
	refresh  []NodeID // index min-heap keyed by sp[id].safeUntil

	// laneState is lane 0: the serial execution context, and shard 0's
	// context during a parallel window (serial execution and windows
	// never overlap, so the sharing is race-free). Embedding keeps the
	// unsharded hot path's field accesses — w.exact, w.kinds, w.lost —
	// exactly as they were.
	laneState

	// hot packs the delivery hot path's per-node state — liveness,
	// receive counters, handler, and the node pointer — into one record
	// so a delivery touches a single cache line where four parallel
	// arrays cost four misses at 10k-node scale. hot[id].up is the
	// authoritative liveness flag (Node.Up reads it).
	hot []nodeHot

	// topoVer invalidates every lane's neighbor memo on any index
	// membership change. Written only from serial context (Fail/Recover
	// and index maintenance); lanes read it.
	topoVer uint64

	nextUID uint64

	// grain is the smallest radio delay quantum admitted so far; it
	// feeds the event scheduler's bucket sizing (des.Simulator.SetGrain)
	// and, when sharding is enabled, the engine's conservative lookahead.
	grain float64

	// deliverFn is the one method value every delivery event shares as
	// its ScheduleCallU target; deliverLaneFn is its counterpart for
	// events on shard lanes (it resolves the receiver's lane state).
	deliverFn     func(any, uint64)
	deliverLaneFn func(any, uint64)

	// fanAt and fanU are Broadcast's scratch for the receivers'
	// delivery instants and packed (from, to) words; the kernel copies
	// them into the fan-out it schedules.
	fanAt []des.Time
	fanU  []uint64

	// Sharding state (nil/empty unless EnableSharding was called).
	// shardOf maps each node to its spatial stripe; aux holds the lane
	// states of shards 1..k-1 (shard 0 shares the embedded laneState);
	// laneViews are the stable Lane handles handed to routing layers.
	// pieces is a lazily-corrected min-heap over mobile nodes'
	// mobility-piece end times: the window barrier advances expiring
	// pieces and caps each window below the earliest remaining boundary,
	// which is what makes concurrent in-window TrueFix reads pure.
	eng            *des.Sharded
	confinedPrefix string
	shardOf        []int32
	aux            []laneState
	laneViews      []Lane
	pieces         []pieceEntry
	onShard        []func(k int)
}

// pieceEntry is one mobile node's entry in the piece-expiry heap,
// ordered by (end, id). Entries may be stale — serial-phase TrueFix
// calls advance pieces without touching the heap — and are corrected
// lazily when they surface at the top.
type pieceEntry struct {
	end des.Time
	id  NodeID
}

// posMemo is one node's true-position memo: pos is valid at instant at
// (-1 = never computed).
type posMemo struct {
	at  des.Time
	pos geom.Point
}

// nodeHot is the per-node record of the delivery hot path. Field order
// keeps the two words deliver always touches (byte counter and handler)
// adjacent.
type nodeHot struct {
	rxBytes uint64
	handler Handler
	node    *Node
	up      bool
}

// cellKey addresses one cell of the dense grid.
type cellKey struct{ cx, cy int }

// cellEntry is one bucket member of the spatial index: the node plus a
// copy of the anchor position its bucket assignment was computed from,
// and whether the node is static (anchor CHs). Keeping the scan data
// inline makes the query prefilter a walk over contiguous 32-byte
// records; for static nodes the anchor *is* the exact position, so the
// whole range check completes without loading any per-node state.
type cellEntry struct {
	id     NodeID
	x, y   float64
	static bool
}

// gridPad is how many cells the grid extends beyond the arena on
// each side, absorbing movers that wander slightly outside it.
const gridPad = 2

// Tile geometry of the sparse index: tileW x tileW cells per page.
// 8x8 keeps a page at 64 slice headers (~1.5 KB) — fine-grained enough
// that a clustered population in a mega-arena allocates only the pages
// it stands on, coarse enough that the directory is 1/64th of the cell
// count in pointers.
const (
	tileShift = 3
	tileW     = 1 << tileShift
	tileMask  = tileW - 1
	tileCells = tileW * tileW
)

// gridTile is one materialized page of the spatial index: a dense
// tileW x tileW block of ID-ordered buckets, indexed iy<<tileShift|ix
// with ix, iy the cell coordinates within the tile.
type gridTile struct {
	buckets [tileCells][]cellEntry
}

// maxSlack caps the staleness slack of the incremental index (meters).
// Larger slack means rarer refreshes but more candidates per query to
// prefilter; at MANET node speeds, 60 m keeps refreshes far below one
// per node-second while adding only a thin shell to the query radius.
const maxSlack = 60.0

// kindCounter aggregates the traffic of one packet kind.
type kindCounter struct {
	tx      uint64
	bytes   uint64
	senders []uint64 // bitset over NodeID
}

func (k *kindCounter) setSender(id NodeID) {
	w := int(id) >> 6
	for len(k.senders) <= w {
		k.senders = append(k.senders, 0)
	}
	k.senders[w] |= 1 << (uint(id) & 63)
}

// New returns an empty network over the given arena on the given
// simulator.
func New(sim *des.Simulator, arena geom.Rect, rng *xrand.Rand) *Network {
	w := &Network{
		sim:      sim,
		arena:    arena,
		rng:      rng,
		cellSize: radio.DefaultCH.Range,
	}
	w.initLane(&w.laneState, 0)
	w.deliverFn = w.runDelivery
	w.deliverLaneFn = w.runDeliveryLane
	w.sizeGrid()
	return w
}

// initLane readies a lane state: non-nil kind map, empty memos, and a
// position-memo slot per existing node.
func (w *Network) initLane(ls *laneState, nodes int) {
	ls.kinds = make(map[string]*kindCounter)
	ls.nbrMemoID = NoNode
	ls.exact = make([]posMemo, nodes)
	for i := range ls.exact {
		ls.exact[i] = posMemo{at: -1}
	}
}

// sizeGrid (re)computes the grid dimensions for the current cell size
// and allocates an empty page directory (tiles materialize on first
// insert).
func (w *Network) sizeGrid() {
	w.slack = math.Min(w.cellSize/2, maxSlack)
	w.gridMinX = w.arena.Min.X - gridPad*w.cellSize
	w.gridMinY = w.arena.Min.Y - gridPad*w.cellSize
	w.gridCols = int(math.Ceil(w.arena.W()/w.cellSize)) + 2*gridPad + 1
	w.gridRows = int(math.Ceil(w.arena.H()/w.cellSize)) + 2*gridPad + 1
	w.tileCols = (w.gridCols + tileMask) >> tileShift
	w.tileRows = (w.gridRows + tileMask) >> tileShift
	w.tiles = make([]*gridTile, w.tileCols*w.tileRows)
}

// Sim returns the simulator the network schedules on.
func (w *Network) Sim() *des.Simulator { return w.sim }

// Arena returns the simulation area.
func (w *Network) Arena() geom.Rect { return w.arena }

// AddNode creates a node with the given mobility, radio, and positioning
// receiver. Nodes start up.
func (w *Network) AddNode(mob mobility.Model, rm radio.Model, receiver gps.Receiver, chCapable bool) *Node {
	if receiver == nil {
		receiver = gps.Oracle{}
	}
	n := &Node{
		ID:        NodeID(len(w.nodes)),
		net:       w,
		Mob:       mob,
		Radio:     rm,
		GPS:       receiver,
		CHCapable: chCapable,
		rng:       *xrand.New(w.rng.Uint64()), // = Split(), stream-identical
		pre:       rm.Precompute(),
	}
	w.nodes = append(w.nodes, n)
	w.sp = append(w.sp, spatialState{heapIdx: -1, mob: mob})
	w.exact = append(w.exact, posMemo{at: -1})
	w.hot = append(w.hot, nodeHot{up: true, node: n})
	sp := &w.sp[n.ID]
	sp.driftSpeed, sp.driftJump = mob.DriftBound()
	if q := n.pre.DelayQuantum(); q > 0 && (w.grain == 0 || q < w.grain) {
		// A finer radio class tightens the hop-delay quantum; let the
		// scheduler size its near-horizon buckets to it.
		w.grain = q
		w.sim.SetGrain(des.Duration(q))
	}
	if rm.Range > w.cellSize {
		// A longer-range radio widens the grid cells; re-bucket everyone
		// (the rebuild indexes the new node along with the rest).
		w.cellSize = rm.Range
		w.reindexAll()
	} else {
		w.indexInsert(n.ID)
	}
	if w.eng != nil {
		w.admitSharded(n)
	}
	return n
}

// admitSharded extends the sharding state for a node added after
// EnableSharding (late joiners in integration scenarios): stripe
// assignment from its entry position, a position-memo slot on every aux
// lane, and a piece-heap entry when it moves. The node must satisfy the
// same bounds EnableSharding checked for the initial population.
func (w *Network) admitSharded(n *Node) {
	sp := &w.sp[n.ID]
	if q := n.pre.DelayQuantum(); des.Duration(q) < w.eng.Lookahead() {
		panic(fmt.Sprintf("network: node %d hop-delay quantum %v below the shard lookahead %v", n.ID, q, w.eng.Lookahead()))
	}
	if span := w.safeSpan(sp); span < w.eng.Lookahead() {
		panic(fmt.Sprintf("network: node %d drift consumes the index slack in %v, below the shard lookahead %v", n.ID, span, w.eng.Lookahead()))
	}
	w.shardOf = append(w.shardOf, w.stripeOf(sp.anchorPos))
	for i := range w.aux {
		w.aux[i].exact = append(w.aux[i].exact, posMemo{at: -1})
	}
	if end := des.Time(sp.mob.PieceEnd()); end < des.Infinity {
		w.piecePush(pieceEntry{end: end, id: n.ID})
	}
}

// reindexAll rebuilds every live node's bucket after a cell-size change
// (only possible while nodes are still being admitted).
func (w *Network) reindexAll() {
	w.sizeGrid()
	w.refresh = w.refresh[:0]
	for _, n := range w.nodes {
		w.sp[n.ID].heapIdx = -1
		if w.hot[n.ID].up {
			w.indexInsert(n.ID)
		}
	}
}

// Node returns the node with the given ID, or nil if out of range.
func (w *Network) Node(id NodeID) *Node {
	if id < 0 || int(id) >= len(w.nodes) {
		return nil
	}
	return w.nodes[id]
}

// Nodes returns all nodes (shared slice; callers must not modify).
func (w *Network) Nodes() []*Node { return w.nodes }

// Len returns the number of nodes.
func (w *Network) Len() int { return len(w.nodes) }

// NextUID mints a unique packet UID.
func (w *Network) NextUID() uint64 {
	w.nextUID++
	return w.nextUID
}

// cellOf maps a position to dense-grid cell coordinates, clamping
// positions outside the padded arena to the border cells.
func (w *Network) cellOf(p geom.Point) cellKey {
	cx := int((p.X - w.gridMinX) / w.cellSize)
	cy := int((p.Y - w.gridMinY) / w.cellSize)
	if cx < 0 {
		cx = 0
	} else if cx >= w.gridCols {
		cx = w.gridCols - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= w.gridRows {
		cy = w.gridRows - 1
	}
	return cellKey{cx, cy}
}

// tileAt returns the page holding a cell, nil if never materialized.
func (w *Network) tileAt(c cellKey) *gridTile {
	return w.tiles[(c.cy>>tileShift)*w.tileCols+c.cx>>tileShift]
}

// ensureTile returns the page holding a cell, materializing it on
// first touch. Only called from serial context (index maintenance).
func (w *Network) ensureTile(c cellKey) *gridTile {
	ti := (c.cy>>tileShift)*w.tileCols + c.cx>>tileShift
	t := w.tiles[ti]
	if t == nil {
		t = &gridTile{}
		w.tiles[ti] = t
	}
	return t
}

// tileSlot is a cell's bucket index within its page.
func tileSlot(c cellKey) int { return (c.cy&tileMask)<<tileShift | (c.cx & tileMask) }

// truePos returns the node's exact position at the current instant,
// memoized so repeated queries within one event burst advance the
// mobility model once. It is tied to the serial clock: inside a
// parallel window, positions must be read through a Lane (which knows
// its own clock and memo), so calling this there is a bug worth
// failing loudly over.
func (w *Network) truePos(n *Node) geom.Point {
	if w.eng != nil && w.eng.InParallel() {
		panic("network: TruePos from a parallel window; read positions through the Lane view")
	}
	return w.truePosAt(&w.laneState, n.ID, w.sim.Now())
}

// truePosAt works purely off the compact memo slice: the candidate
// loops of NeighborsPos and refreshTo call it per candidate, and the
// common case — the position was already computed this instant by an
// earlier scan — touches one 24-byte record. Only a miss evaluates the
// mobility model; inside a parallel window that evaluation is a pure
// read (the barrier advanced every piece crossing the window), so
// concurrent lanes may query the same node through their own memos.
func (w *Network) truePosAt(ls *laneState, id NodeID, now des.Time) geom.Point {
	e := &ls.exact[id]
	if e.at != now {
		e.pos = w.sp[id].mob.TrueFix(float64(now)).Pos
		e.at = now
	}
	return e.pos
}

// safeSpan returns how long the node's bucket stays valid: the time for
// the drift bound to consume the staleness slack.
func (w *Network) safeSpan(sp *spatialState) des.Duration {
	slack := w.slack - sp.driftJump
	if slack <= 0 {
		return 0 // jump exceeds the slack: revalidate at every instant
	}
	if sp.driftSpeed <= 0 {
		return des.Infinity
	}
	return des.Duration(slack / sp.driftSpeed)
}

// indexInsert (re)computes the node's position, bucket, and deadline and
// enters it into the index. The node must currently be outside the index.
func (w *Network) indexInsert(id NodeID) {
	w.topoVer++
	n := w.nodes[id]
	sp := &w.sp[id]
	now := w.sim.Now()
	pos := w.truePos(n)
	sp.anchorPos = pos
	sp.cell = w.cellOf(pos)
	span := w.safeSpan(sp)
	static := span >= des.Infinity
	w.bucketInsert(sp.cell, cellEntry{id: id, x: pos.X, y: pos.Y, static: static})
	if static {
		sp.safeUntil = des.Infinity
		return // never expires (static node): stay out of the heap
	}
	sp.safeUntil = now + span
	w.heapPush(id)
}

// indexRemove takes the node out of its bucket and the refresh heap.
func (w *Network) indexRemove(id NodeID) {
	w.topoVer++
	sp := &w.sp[id]
	w.bucketRemove(sp.cell, id)
	if sp.heapIdx >= 0 {
		w.heapRemove(int(sp.heapIdx))
	}
}

// Buckets are kept in ascending node-ID order. The order is load-
// bearing: neighbor scans enumerate bucket members in storage order,
// and that enumeration order decides broadcast receiver numbering,
// per-receiver loss draws, and greedy-routing tie-breaks. Insertion-
// order buckets would make all of those depend on the history of index
// refreshes — which differs between a serial run and a sharded run
// (barriers refresh eagerly) — so the canonical order is what keeps
// results bit-identical across shard counts.

// bucketInsert places an entry at its ID-ordered slot, materializing
// the cell's page on first touch.
func (w *Network) bucketInsert(c cellKey, e cellEntry) {
	t := w.ensureTile(c)
	slot := tileSlot(c)
	b := append(t.buckets[slot], e)
	i := len(b) - 1
	for i > 0 && b[i-1].id > e.id {
		b[i] = b[i-1]
		i--
	}
	b[i] = e
	t.buckets[slot] = b
}

func (w *Network) bucketRemove(c cellKey, id NodeID) {
	t := w.tileAt(c)
	if t == nil {
		return
	}
	slot := tileSlot(c)
	b := t.buckets[slot]
	for i := range b {
		if b[i].id == id {
			t.buckets[slot] = append(b[:i], b[i+1:]...)
			return
		}
	}
}

// bucketRefresh updates the anchor position stored inline for a node
// that revalidated without crossing a cell boundary.
func (w *Network) bucketRefresh(c cellKey, id NodeID, pos geom.Point) {
	t := w.tileAt(c)
	if t == nil {
		return
	}
	b := t.buckets[tileSlot(c)]
	for i := range b {
		if b[i].id == id {
			b[i].x, b[i].y = pos.X, pos.Y
			return
		}
	}
}

// refreshTo revalidates every node whose deadline precedes now, moving
// it between buckets when it crossed a cell boundary. Nodes are popped
// in (deadline, ID) order, so the mobility models advance in a
// deterministic sequence.
func (w *Network) refreshTo(now des.Time) {
	for len(w.refresh) > 0 {
		id := w.refresh[0]
		sp := &w.sp[id]
		if sp.safeUntil >= now {
			return
		}
		pos := w.truePosAt(&w.laneState, id, now)
		sp.anchorPos = pos
		if c := w.cellOf(pos); c != sp.cell {
			w.bucketRemove(sp.cell, id)
			sp.cell = c
			w.bucketInsert(c, cellEntry{id: id, x: pos.X, y: pos.Y})
		} else {
			w.bucketRefresh(sp.cell, id, pos)
		}
		sp.safeUntil = now + w.safeSpan(sp)
		w.heapFix(0)
	}
}

// Refresh heap: an index min-heap of node IDs ordered by
// (safeUntil, ID); spatialState.heapIdx tracks positions.

func (w *Network) heapLess(i, j int) bool {
	a, b := w.refresh[i], w.refresh[j]
	sa, sb := w.sp[a].safeUntil, w.sp[b].safeUntil
	if sa != sb {
		return sa < sb
	}
	return a < b
}

func (w *Network) heapSwap(i, j int) {
	w.refresh[i], w.refresh[j] = w.refresh[j], w.refresh[i]
	w.sp[w.refresh[i]].heapIdx = int32(i)
	w.sp[w.refresh[j]].heapIdx = int32(j)
}

func (w *Network) heapPush(id NodeID) {
	w.sp[id].heapIdx = int32(len(w.refresh))
	w.refresh = append(w.refresh, id)
	w.heapUp(len(w.refresh) - 1)
}

func (w *Network) heapRemove(i int) {
	last := len(w.refresh) - 1
	w.sp[w.refresh[i]].heapIdx = -1
	if i != last {
		w.refresh[i] = w.refresh[last]
		w.sp[w.refresh[i]].heapIdx = int32(i)
	}
	w.refresh = w.refresh[:last]
	if i != last {
		w.heapFix(i)
	}
}

func (w *Network) heapFix(i int) {
	w.heapDown(i)
	w.heapUp(i)
}

func (w *Network) heapUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !w.heapLess(i, parent) {
			return
		}
		w.heapSwap(i, parent)
		i = parent
	}
}

func (w *Network) heapDown(i int) {
	n := len(w.refresh)
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			return
		}
		c := l
		if r < n && w.heapLess(r, l) {
			c = r
		}
		if !w.heapLess(c, i) {
			return
		}
		w.heapSwap(i, c)
		i = c
	}
}

// Neighbors returns the IDs of live nodes within the sender's radio
// range, excluding the sender itself. The result is freshly allocated;
// hot paths use NeighborsAppend with a reused buffer instead.
func (w *Network) Neighbors(id NodeID) []NodeID {
	return w.NeighborsAppend(id, nil)
}

// NeighborsAppend appends the IDs of live nodes within the sender's
// radio range to out and returns the extended slice. Candidates come
// from buckets within range plus the half-cell staleness slack; each is
// then checked against its exact current position, so results are exact
// despite the index being refreshed lazily.
func (w *Network) NeighborsAppend(id NodeID, out []NodeID) []NodeID {
	ids, _ := w.neighborMemo(&w.laneState, w.sim.Now(), id)
	return append(out, ids...)
}

// NeighborsPos is NeighborsAppend that additionally appends each
// neighbor's exact current position to pos, parallel to ids. Routing
// hot paths use it to avoid recomputing positions the range check
// already produced.
func (w *Network) NeighborsPos(id NodeID, ids []NodeID, pos []geom.Point) ([]NodeID, []geom.Point) {
	mi, mp := w.neighborMemo(&w.laneState, w.sim.Now(), id)
	return append(ids, mi...), append(pos, mp...)
}

// neighborMemo returns id's neighbours at now and their positions from
// the lane's one-entry memo, scanning on a miss; nil when id is absent
// or down. The slices are the memo's own, so callers copy them out.
func (w *Network) neighborMemo(ls *laneState, now des.Time, id NodeID) ([]NodeID, []geom.Point) {
	n := w.Node(id)
	if n == nil || !w.hot[id].up {
		return nil, nil
	}
	if ls.nbrMemoID != id || ls.nbrMemoAt != now || ls.nbrMemoVer != w.topoVer {
		w.scanNeighbors(ls, n, now)
	}
	return ls.nbrMemoIDs, ls.nbrMemoPos
}

// scanNeighbors runs the grid scan for the sender at the given instant
// and records the result in the lane's one-entry memo. Inside a
// parallel window the scan is read-only over all shared structures:
// refreshTo finds nothing to pop (the barrier refreshed past the
// window), bucket walks and position evaluations are pure, and all
// writes land in the caller's own lane state.
func (w *Network) scanNeighbors(ls *laneState, n *Node, now des.Time) {
	id := n.ID
	ls.nbrMemoID, ls.nbrMemoAt, ls.nbrMemoVer = id, now, w.topoVer
	ids, pos := ls.nbrMemoIDs[:0], ls.nbrMemoPos[:0]
	p, reach, c0, c1 := w.scanBox(ls, n, now)
	reach2 := reach * reach
	r2 := n.pre.Range2
	// Enumeration order is load-bearing (see the bucket-order comment):
	// cells are walked row-major — cy ascending, cx ascending — exactly
	// as the dense grid did, with each row visited tile page by tile
	// page. A nil page skips its whole tileW-cell span of the row.
	tx0, tx1 := c0.cx>>tileShift, c1.cx>>tileShift
	for cy := c0.cy; cy <= c1.cy; cy++ {
		base := (cy >> tileShift) * w.tileCols
		iy := (cy & tileMask) << tileShift
		for tx := tx0; tx <= tx1; tx++ {
			t := w.tiles[base+tx]
			if t == nil {
				continue
			}
			lo, hi := 0, tileMask
			if tx == tx0 {
				lo = c0.cx & tileMask
			}
			if tx == tx1 {
				hi = c1.cx & tileMask
			}
			row := t.buckets[iy+lo : iy+hi+1]
			for _, bucket := range row {
				for i := range bucket {
					e := &bucket[i]
					// The prefilter runs entirely on the bucket's inline
					// anchor copies — no per-node loads for rejected
					// candidates.
					dx, dy := p.X-e.x, p.Y-e.y
					d2 := dx*dx + dy*dy
					if d2 > reach2 || e.id == id {
						continue
					}
					if e.static {
						// Static nodes never drift: the anchor is the
						// exact position.
						if d2 <= r2 {
							ids = append(ids, e.id)
							pos = append(pos, geom.Pt(e.x, e.y))
						}
						continue
					}
					op := w.truePosAt(ls, e.id, now)
					if p.Dist2(op) <= r2 {
						ids = append(ids, e.id)
						pos = append(pos, op)
					}
				}
			}
		}
	}
	ls.nbrMemoIDs, ls.nbrMemoPos = ids, pos
}

// scanBox is the prologue both grid queries share: it brings the index
// up to now, evaluates the sender's exact position p, and returns the
// scan reach with the cell box covering the disc of that radius around
// p. A node in radio range r has its anchor within r+slack of p, so the
// box holds every neighbour, and a prefilter on the anchor (no mobility
// advance) leaves only the candidates inside the slack shell for the
// exact position check.
func (w *Network) scanBox(ls *laneState, n *Node, now des.Time) (p geom.Point, reach float64, c0, c1 cellKey) {
	w.refreshTo(now) //hvdb:serialonly in-window the barrier has refreshed past the window bound, so the pop loop body never executes; index writes below this edge happen in serial context only
	p = w.truePosAt(ls, n.ID, now)
	reach = n.Radio.Range + w.slack
	c0 = w.cellOf(geom.Pt(p.X-reach, p.Y-reach))
	c1 = w.cellOf(geom.Pt(p.X+reach, p.Y+reach))
	return p, reach, c0, c1
}

// greedyCell is one cell of a greedy query's scan box and its squared
// gap to the target.
type greedyCell struct {
	gap2   float64
	cx, cy int
}

// greedyNextLS returns the sender's neighbour strictly closer to target
// than the sender, nearest first — greedy forwarding's next hop — or
// NoNode. The winner is the one a strict-< pass over NeighborsPos's
// list would keep, found without building the list:
//
//   - It visits the scan box's cells nearest-to-target first. A cell's
//     gap is the distance from the target to its span (0 for the
//     clamped border cells, whose anchors may lie outside them); box
//     corners farther than the reach from the sender are dropped.
//   - An exact position is within slack of its anchor, so an entry
//     whose anchor lies farther than cut = |best| + slack from the
//     target cannot win or tie: it is skipped with no position fix, and
//     the walk stops at the first cell whose gap exceeds cut. A small
//     margin on both bounds lets float rounding only admit an entry,
//     never prune one.
//   - The best starts at the sender's own distance (strict progress).
//     Exact distance ties go to the lower (row-major cell, bucket slot)
//     rank, which is the enumeration order of the full scan, so the
//     winner is the same node.
//
// It neither reads nor fills the neighbour memo.
func (w *Network) greedyNextLS(ls *laneState, now des.Time, id NodeID, target geom.Point) NodeID {
	n := w.Node(id)
	if n == nil || !w.hot[id].up {
		return NoNode
	}
	p, reach, c0, c1 := w.scanBox(ls, n, now)
	margin := 1e-9 * (math.Abs(p.X) + math.Abs(p.Y) + math.Abs(target.X) + math.Abs(target.Y) + reach)
	reach2 := reach * reach
	reachCut := reach + margin
	reachCut2 := reachCut * reachCut

	// Squared gaps per box column and row, to the target and to the
	// sender; a cell's gap is a column's plus a row's. The box spans at
	// most 4x4 cells (reach is at most 1.5 cells), so nothing here
	// leaves the stack.
	var colBuf, rowBuf [4][2]float64
	cols, rows := colBuf[:0], rowBuf[:0]
	for cx := c0.cx; cx <= c1.cx; cx++ {
		g, s := w.axisGap(cx, w.gridCols, w.gridMinX, target.X), w.axisGap(cx, w.gridCols, w.gridMinX, p.X)
		cols = append(cols, [2]float64{g * g, s * s})
	}
	for cy := c0.cy; cy <= c1.cy; cy++ {
		g, s := w.axisGap(cy, w.gridRows, w.gridMinY, target.Y), w.axisGap(cy, w.gridRows, w.gridMinY, p.Y)
		rows = append(rows, [2]float64{g * g, s * s})
	}
	var cellBuf [16]greedyCell
	cells := cellBuf[:0]
	for j, row := range rows {
		for i, col := range cols {
			if col[1]+row[1] <= reachCut2 {
				cells = append(cells, greedyCell{gap2: col[0] + row[0], cx: c0.cx + i, cy: c0.cy + j})
			}
		}
	}

	r2 := n.pre.Range2
	best, bestRank, bestSlot := NoNode, 0, 0
	bestD2 := p.Dist2(target)
	cut := math.Sqrt(bestD2) + w.slack + margin
	cut2 := cut * cut
	for k := range cells {
		// Select the nearest cell left: the walk usually stops after
		// two or three, so a full sort would be wasted.
		m := k
		for j := k + 1; j < len(cells); j++ {
			if cells[j].gap2 < cells[m].gap2 {
				m = j
			}
		}
		if cells[m].gap2 > cut2 {
			break // every cell left is at least as far
		}
		cells[k], cells[m] = cells[m], cells[k]
		c := cellKey{cells[k].cx, cells[k].cy}
		t := w.tileAt(c)
		if t == nil {
			continue
		}
		bucket := t.buckets[tileSlot(c)]
		rank := c.cy*w.gridCols + c.cx
		for i := range bucket {
			e := &bucket[i]
			tx, ty := e.x-target.X, e.y-target.Y
			if tx*tx+ty*ty > cut2 {
				continue
			}
			dx, dy := p.X-e.x, p.Y-e.y
			d2 := dx*dx + dy*dy
			if d2 > reach2 || e.id == id {
				continue
			}
			q := geom.Pt(e.x, e.y)
			if e.static {
				if d2 > r2 {
					continue
				}
			} else if q = w.truePosAt(ls, e.id, now); p.Dist2(q) > r2 {
				continue
			}
			d2 = q.Dist2(target)
			if d2 < bestD2 {
				best, bestRank, bestSlot, bestD2 = e.id, rank, i, d2
				cut = math.Sqrt(bestD2) + w.slack + margin
				cut2 = cut * cut
			} else if d2 == bestD2 && best != NoNode && (rank < bestRank || rank == bestRank && i < bestSlot) {
				best, bestRank, bestSlot = e.id, rank, i
			}
		}
	}
	return best
}

// axisGap is the distance along one axis from v to grid line i's span
// (n lines from origin), 0 inside it and on the clamped border lines.
func (w *Network) axisGap(i, n int, origin, v float64) float64 {
	if i == 0 || i == n-1 {
		return 0
	}
	lo := origin + float64(i)*w.cellSize
	if v < lo {
		return lo - v
	}
	if hi := lo + w.cellSize; v > hi {
		return v - hi
	}
	return 0
}

// account charges a transmission to the sender and the lane's per-kind
// counters, and counts the hop on the packet. The node counters are
// safe from lane context because a node only transmits from events
// executing on its own shard; the kind counters are lane-private and
// folded at read time.
func (w *Network) account(ls *laneState, n *Node, pkt *Packet) {
	pkt.Hops++
	n.TxPackets++
	n.TxBytes += uint64(pkt.Size)
	kc := ls.lastKC
	if kc == nil || pkt.Kind != ls.lastKind {
		kc = ls.kinds[pkt.Kind]
		if kc == nil {
			kc = &kindCounter{}
			ls.kinds[pkt.Kind] = kc
		}
		ls.lastKind, ls.lastKC = pkt.Kind, kc
	}
	kc.tx++
	kc.bytes += uint64(pkt.Size)
	kc.setSender(n.ID)
	if pkt.Control {
		ls.ctrlBytes += uint64(pkt.Size)
	} else {
		ls.dataBytes += uint64(pkt.Size)
	}
	if pkt.Src != n.ID {
		n.ForwardLoad++
	}
}

// packHop encodes a delivery's (from, to) pair into the scheduler's
// unboxed event word; the packet itself rides in the event's arg slot.
// Together they make a delivery event self-contained — no pooled
// per-hop record, so executing it costs one less dependent cold load.
func packHop(from, to NodeID) uint64 {
	return uint64(uint32(from))<<32 | uint64(uint32(to))
}

// runDelivery is the shared ScheduleCallU target for all deliveries
// (installed once as w.deliverFn so events don't allocate closures).
func (w *Network) runDelivery(a any, u uint64) {
	w.deliverLS(&w.laneState, NodeID(uint32(u>>32)), NodeID(uint32(u)), a.(*Packet))
}

// runDeliveryLane is runDelivery for events placed on a shard lane: the
// receive counters and the packet recycle are charged to the lane that
// owns the receiver. It also runs at most once per receiver per event,
// so the whole body touches only that shard's state.
func (w *Network) runDeliveryLane(a any, u uint64) {
	to := NodeID(uint32(u))
	w.deliverLS(w.lane(int(w.shardOf[to])), NodeID(uint32(u>>32)), to, a.(*Packet))
}

// isConfined reports whether a delivery may execute on the receiver's
// shard lane: a relay hop of the routing layer's confined kind space
// (the geo envelope prefix) that is not the final consume at pkt.Dst.
// Consumes, anycast sends (Dst == NoNode), and all other kinds reach
// protocol state beyond the receiving shard and stay on the global lane.
func (w *Network) isConfined(to NodeID, pkt *Packet) bool {
	return pkt.Dst != NoNode && to != pkt.Dst && strings.HasPrefix(pkt.Kind, w.confinedPrefix)
}

// scheduleDelivery routes one delivery according to the execution
// context. Unsharded: an ordinary simulator event. Sharded, from serial
// context: confined deliveries go straight onto the receiver's lane
// with a fresh sequence number (ScheduleLaneDirect draws the same seq
// a ScheduleCallU here would have, so the rerouting is invisible to the
// total order); global ones schedule normally. Inside a parallel
// window, nothing schedules directly — the delivery is logged as an
// intent keyed by the executing event and materialized at the barrier.
func (w *Network) scheduleDelivery(now des.Time, delay des.Duration, from, to NodeID, pkt *Packet) {
	if pkt.pooled {
		pkt.refs++
	}
	at := now + delay
	if w.eng == nil {
		w.sim.ScheduleCallU(at, w.deliverFn, pkt, packHop(from, to))
		return
	}
	if w.eng.InParallel() {
		fromLane := int(w.shardOf[from])
		if w.isConfined(to, pkt) {
			w.eng.LogIntent(fromLane, int(w.shardOf[to]), at, w.deliverLaneFn, pkt, packHop(from, to))
		} else {
			w.eng.LogIntent(fromLane, des.LaneGlobal, at, w.deliverFn, pkt, packHop(from, to))
		}
		return
	}
	if w.isConfined(to, pkt) {
		w.eng.ScheduleLaneDirect(int(w.shardOf[to]), at, w.deliverLaneFn, pkt, packHop(from, to))
		return
	}
	w.sim.ScheduleCallU(at, w.deliverFn, pkt, packHop(from, to))
}

// Unicast transmits pkt from one node to a one-hop neighbor. It reports
// whether the transmission was attempted (sender up, receiver up, in
// range); a true return still allows in-flight loss per the radio model.
// Delivery is scheduled on the simulator after the radio's hop delay.
func (w *Network) Unicast(from, to NodeID, pkt *Packet) bool {
	return w.unicastLS(&w.laneState, w.sim.Now(), from, to, pkt)
}

// unicastLS is Unicast against an explicit lane state and clock, the
// form lane handlers reach through their Lane view. Every write it
// performs lands either in ls (accounting, loss) or in state owned by
// the sending node (tx counters, the loss draw from the sender's rng) —
// and a node's transmissions always execute on the shard that owns it,
// in the same (at, seq) order as the serial run, so the rng draw
// sequence per node is shard-count independent.
func (w *Network) unicastLS(ls *laneState, now des.Time, from, to NodeID, pkt *Packet) bool {
	src := w.Node(from)
	dst := w.Node(to)
	if src == nil || dst == nil || !w.hot[from].up || !w.hot[to].up {
		return false
	}
	d2 := w.truePosAt(ls, from, now).Dist2(w.truePosAt(ls, to, now))
	if !src.pre.InRange2(d2) {
		return false
	}
	w.account(ls, src, pkt)
	if src.Radio.Lost(&src.rng) {
		ls.lost++
		return true
	}
	w.scheduleDelivery(now, des.Duration(src.pre.HopDelay2(pkt.Size, d2)), from, to, pkt)
	return true
}

// Broadcast transmits pkt to every current one-hop neighbor of the
// sender with a single channel occupation (wireless broadcast
// advantage): the sender's counters are charged once, each receiver
// draws loss independently. It returns the number of neighbors the
// packet was put on air to.
//
// The receivers that survive the loss draw are scheduled as one
// des fan-out (Simulator.ScheduleFanout): one queue entry and one event
// record until the batch reaches the kernel's imminent tier, with the
// sequence numbers per-receiver scheduling would have taken, so
// delivery timestamps, tie-break order, and the executed-event count
// are those of one ScheduleCallU per receiver.
func (w *Network) Broadcast(from NodeID, pkt *Packet) int {
	if w.eng != nil && w.eng.InParallel() {
		// A broadcast draws sequence numbers and schedules on the global
		// lane — both serial-only operations. Confined (lane-executable)
		// traffic is unicast relay forwarding; protocols broadcast from
		// timer and consume events, which are global and run serially.
		panic("network: Broadcast from a parallel window")
	}
	src := w.Node(from)
	if src == nil || !w.hot[from].up {
		return 0
	}
	now := w.sim.Now()
	if w.nbrMemoID != from || w.nbrMemoAt != now || w.nbrMemoVer != w.topoVer {
		w.scanNeighbors(&w.laneState, src, now)
	}
	// Read the memo slices directly — nothing in the loop below can
	// trigger a rescan, and the per-transmission copy into caller
	// scratch is measurable at 10k-scale broadcast volume.
	nbrs, poss := w.nbrMemoIDs, w.nbrMemoPos
	w.account(&w.laneState, src, pkt)
	sp := w.truePos(src)
	at, u := w.fanAt[:0], w.fanU[:0]
	for i, to := range nbrs {
		if src.Radio.Lost(&src.rng) {
			w.lost++
			continue
		}
		d2 := sp.Dist2(poss[i])
		at = append(at, now+des.Duration(src.pre.HopDelay2(pkt.Size, d2)))
		u = append(u, packHop(from, to))
	}
	w.fanAt, w.fanU = at, u
	if pkt.pooled {
		pkt.refs += int32(len(at)) // one reference per eventual delivery
	}
	w.sim.ScheduleFanout(at, w.deliverFn, pkt, u)
	return len(nbrs)
}

// deliverLS completes one delivery against the lane that owns the
// receiver: receive counters and the handler run, then the lane drops
// its in-flight packet reference.
func (w *Network) deliverLS(ls *laneState, from, to NodeID, pkt *Packet) {
	e := &w.hot[to]
	if e.up { // may have gone down while the packet was in flight
		e.rxBytes += uint64(pkt.Size)
		if e.handler != nil {
			e.handler(e.node, from, pkt)
		}
	} else {
		ls.rxDown++
	}
	if pkt.pooled {
		w.unrefLS(ls, pkt)
	}
}

// AcquirePacket returns a zeroed packet from the network's pool. The
// caller owns one reference: after its last Unicast/Broadcast of the
// packet it must call ReleasePacket, and the network returns the packet
// to the pool once every in-flight delivery has also completed. Receive
// handlers must not retain a pooled packet past their return — Clone
// yields an unpooled copy for that. Best suited to high-volume packets
// whose handlers consume them immediately (beacons, geo envelopes).
func (w *Network) AcquirePacket() *Packet {
	return w.acquirePacketLS(&w.laneState)
}

func (w *Network) acquirePacketLS(ls *laneState) *Packet {
	var p *Packet
	if n := len(ls.freePkts); n > 0 {
		p = ls.freePkts[n-1]
		ls.freePkts = ls.freePkts[:n-1]
	} else {
		p = &Packet{}
	}
	p.pooled = true
	p.refs = 1
	ls.pktCheckedOut++
	return p
}

// PooledInFlight returns how many pooled packets are currently checked
// out of the pool — acquired by a caller or still referenced by
// in-flight deliveries. Once every send has released its reference and
// the simulator has drained, the balance is zero; a positive residue
// after teardown is a leak (a handler retained a pooled packet, or a
// Release call is missing). A packet acquired on one lane may recycle
// on another, so the per-lane balances are summed; only the total is
// meaningful.
func (w *Network) PooledInFlight() int {
	n := w.pktCheckedOut
	for i := range w.aux {
		n += w.aux[i].pktCheckedOut
	}
	return n
}

// ReleasePacket drops the caller's reference to a packet obtained from
// AcquirePacket. Calling it on nil or unpooled packets is a no-op, so
// call sites need not distinguish.
func (w *Network) ReleasePacket(p *Packet) {
	w.releasePacketLS(&w.laneState, p)
}

func (w *Network) releasePacketLS(ls *laneState, p *Packet) {
	if p != nil && p.pooled {
		w.unrefLS(ls, p)
	}
}

// AdoptPacket makes a pooled parent keep child alive: child gains a
// reference now and loses it when the parent recycles. An encapsulating
// protocol uses this to pin its payload packet to the envelope's
// lifetime, so every envelope outcome — delivered, dropped, or lost in
// flight — releases the payload without the protocol seeing the loss.
// No-op unless both packets are pooled.
func (w *Network) AdoptPacket(parent, child *Packet) {
	if parent == nil || child == nil || !parent.pooled || !child.pooled {
		return
	}
	child.refs++
	parent.child = child
}

func (w *Network) unrefLS(ls *laneState, p *Packet) {
	p.refs--
	if p.refs <= 0 {
		child := p.child
		*p = Packet{}
		ls.freePkts = append(ls.freePkts, p)
		ls.pktCheckedOut--
		if child != nil {
			w.releasePacketLS(ls, child)
		}
	}
}

// Stats is a snapshot of the network's aggregate traffic accounting.
type Stats struct {
	ControlBytes, DataBytes uint64
	Lost                    uint64 // radio losses
	ReceiverDown            uint64 // receptions cut by the receiver going down in flight
	KindTx                  map[string]uint64
	KindBytes               map[string]uint64
}

// eachLane visits lane 0 and every aux lane. Readers use it to fold
// the per-lane counters: sums and bitset unions commute, so the folded
// totals do not depend on which shard carried which traffic — they are
// shard-count independent whenever the underlying event totals are.
func (w *Network) eachLane(f func(ls *laneState)) {
	f(&w.laneState)
	for i := range w.aux {
		f(&w.aux[i])
	}
}

// Stats returns a copy of the aggregate counters, folded across lanes.
func (w *Network) Stats() Stats {
	kt := make(map[string]uint64, len(w.kinds))
	kb := make(map[string]uint64, len(w.kinds))
	st := Stats{KindTx: kt, KindBytes: kb}
	w.eachLane(func(ls *laneState) {
		st.ControlBytes += ls.ctrlBytes
		st.DataBytes += ls.dataBytes
		st.Lost += ls.lost
		st.ReceiverDown += ls.rxDown
		for k, c := range ls.kinds {
			if c.tx == 0 && c.bytes == 0 {
				continue
			}
			kt[k] += c.tx
			kb[k] += c.bytes
		}
	})
	return st
}

// BytesMatching sums transmitted bytes over packet kinds accepted by
// match; used to isolate one protocol plane's traffic (a geo-routed
// plane appears both under its own kind and under "geo:<kind>").
func (w *Network) BytesMatching(match func(kind string) bool) uint64 {
	var total uint64
	w.eachLane(func(ls *laneState) {
		for k, c := range ls.kinds {
			if match(k) {
				total += c.bytes
			}
		}
	})
	return total
}

// SendersMatching counts distinct nodes that transmitted any packet of
// a kind accepted by match — the "how many nodes are involved"
// measure of the paper's membership argument.
func (w *Network) SendersMatching(match func(kind string) bool) int {
	var union []uint64
	w.eachLane(func(ls *laneState) {
		//hvdb:unordered bitset union is commutative: the appends only zero-extend to the widest sender set and every bit lands via |=
		for k, c := range ls.kinds {
			if !match(k) {
				continue
			}
			for len(union) < len(c.senders) {
				union = append(union, 0)
			}
			for i, b := range c.senders {
				union[i] |= b
			}
		}
	})
	total := 0
	for _, b := range union {
		total += bits.OnesCount64(b)
	}
	return total
}

// ResetTraffic zeroes all traffic counters (network-wide and per-node);
// experiments call it at the end of the warm-up phase. Interned kind
// counters are kept and zeroed in place, so the measurement phase does
// not re-allocate them.
func (w *Network) ResetTraffic() {
	w.eachLane(func(ls *laneState) {
		ls.ctrlBytes, ls.dataBytes, ls.lost, ls.rxDown = 0, 0, 0, 0
		for _, c := range ls.kinds {
			c.tx, c.bytes = 0, 0
			for i := range c.senders {
				c.senders[i] = 0
			}
		}
	})
	for _, n := range w.nodes {
		n.TxPackets, n.TxBytes, n.ForwardLoad = 0, 0, 0
	}
	for i := range w.hot {
		w.hot[i].rxBytes = 0
	}
}

// ForwardLoads returns the per-node forwarding load vector (for Jain
// index computation), restricted to live nodes.
func (w *Network) ForwardLoads() []float64 {
	out := make([]float64, 0, len(w.nodes))
	for _, n := range w.nodes {
		if w.hot[n.ID].up {
			out = append(out, float64(n.ForwardLoad))
		}
	}
	return out
}

// String summarizes the network.
func (w *Network) String() string {
	up := 0
	for _, n := range w.nodes {
		if w.hot[n.ID].up {
			up++
		}
	}
	return fmt.Sprintf("network{nodes=%d up=%d arena=%gx%g}", len(w.nodes), up, w.arena.W(), w.arena.H())
}
