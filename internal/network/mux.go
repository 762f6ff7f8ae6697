package network

// Mux dispatches received packets to per-kind handlers, letting several
// protocol layers (clustering beacons, route maintenance, membership,
// multicast data) coexist on one node. Unknown kinds go to the fallback
// handler if one is set, else are dropped silently — the network layer
// counts every transmission, so drops remain visible in the accounting.
type Mux struct {
	handlers map[string]Handler
	fallback Handler
	aux      map[string]any

	// One-entry dispatch cache: deliveries arrive in same-kind bursts
	// (beacon rounds, membership floods, multicast storms), so most
	// dispatches resolve with one short string compare instead of a map
	// hash. Handle invalidates it.
	lastKind string
	lastH    Handler
}

// NewMux returns an empty dispatcher.
func NewMux() *Mux {
	return &Mux{handlers: make(map[string]Handler), aux: make(map[string]any)}
}

// Aux returns a value attached by SetAux, or nil. Protocol layers use it
// to share one instance per mux (e.g. the geo-routing layer).
func (m *Mux) Aux(key string) any { return m.aux[key] }

// SetAux attaches a shared value to the mux.
func (m *Mux) SetAux(key string, v any) { m.aux[key] = v }

// Handle registers h for packets of the given kind, replacing any
// previous registration.
func (m *Mux) Handle(kind string, h Handler) {
	m.handlers[kind] = h
	m.lastKind, m.lastH = "", nil
}

// HandleFallback registers the handler for kinds with no registration.
func (m *Mux) HandleFallback(h Handler) { m.fallback = h }

// Dispatch routes the packet to its handler. It has the Handler
// signature so a Mux can be installed directly via SetHandler.
func (m *Mux) Dispatch(n *Node, from NodeID, pkt *Packet) {
	if pkt.Kind == m.lastKind && m.lastH != nil {
		m.lastH(n, from, pkt)
		return
	}
	if h, ok := m.handlers[pkt.Kind]; ok {
		m.lastKind, m.lastH = pkt.Kind, h
		h(n, from, pkt)
		return
	}
	if m.fallback != nil {
		m.fallback(n, from, pkt)
	}
}

// Bind installs a fresh Mux on every node of the network and returns it.
// All nodes share the mux; per-node state lives in the protocol layers.
func Bind(w *Network) *Mux {
	m := NewMux()
	for _, n := range w.Nodes() {
		n.SetHandler(m.Dispatch)
	}
	return m
}
