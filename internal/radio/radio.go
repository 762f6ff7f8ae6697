// Package radio models the wireless channel between mobile nodes: a
// unit-disc propagation model with per-link delay composed of
// transmission (size/bandwidth), propagation (distance/c), and a
// configurable processing/queueing term, plus an optional loss process.
//
// The paper's QoS routing maintains "information such as delay and
// bandwidth ... in each specific local logical route"; this package is
// where those quantities originate. The model is deliberately simple —
// the paper's claims are topological, not PHY-level — but it exposes the
// two knobs the protocol consumes (per-link delay and residual
// bandwidth) and a loss process for availability experiments.
package radio

import (
	"math"

	"repro/internal/xrand"
)

// Model describes one radio class. The paper assumes heterogeneous
// capability ("a mobile device equipped on a tank can have stronger
// capability than the one equipped for a foot soldier"), so CH-capable
// nodes typically carry a Model with larger Range and Bandwidth.
type Model struct {
	// Range is the maximum communication distance in meters (unit disc).
	Range float64
	// Bandwidth is the link capacity in bits per second.
	Bandwidth float64
	// ProcDelay is the fixed per-hop processing/queueing delay in
	// seconds.
	ProcDelay float64
	// LossProb is the independent per-transmission loss probability in
	// [0, 1).
	LossProb float64
}

// Speed of light used for propagation delay, m/s.
const lightSpeed = 3e8

// DefaultMN is a baseline mobile-node radio roughly matching 2005-era
// 802.11b ad hoc settings (250 m nominal range, 2 Mb/s).
var DefaultMN = Model{Range: 250, Bandwidth: 2e6, ProcDelay: 1e-3}

// DefaultCH is the stronger cluster-head-capable radio the paper's
// non-dynamic-property assumption grants backbone nodes.
var DefaultCH = Model{Range: 350, Bandwidth: 11e6, ProcDelay: 0.5e-3}

// Lost draws the loss process once.
func (m Model) Lost(rng *xrand.Rand) bool {
	return m.LossProb > 0 && rng.Bool(m.LossProb)
}

// Precomp caches the derived link-budget quantities of a Model so the
// per-transmission hot path (one range check and one delay computation
// per packet hop) runs on multiplications against squared distances
// instead of divisions and square roots. The network layer computes one
// Precomp per node at admission time.
type Precomp struct {
	// Range2 is Range squared, for sqrt-free range checks against
	// squared distances.
	Range2 float64
	// SecPerByte is 8/Bandwidth: seconds of transmission time per byte.
	SecPerByte float64
	// ProcDelay mirrors Model.ProcDelay.
	ProcDelay float64
}

// invLightSpeed converts meters to propagation seconds by multiplication.
const invLightSpeed = 1.0 / lightSpeed

// Precompute derives the cached link budget of the model.
func (m Model) Precompute() Precomp {
	p := Precomp{Range2: m.Range * m.Range, ProcDelay: m.ProcDelay}
	if m.Bandwidth > 0 {
		p.SecPerByte = 8 / m.Bandwidth
	}
	return p
}

// InRange2 reports whether a receiver at squared distance d2 is
// reachable.
func (p Precomp) InRange2(d2 float64) bool { return d2 <= p.Range2 }

// DelayQuantum is the irreducible floor of this radio's per-hop latency
// — the processing/queueing term every transmission pays regardless of
// size or distance. It quantizes the hop-delay distribution: deliveries
// land at least one quantum past their send time, so the event
// scheduler uses the smallest quantum of the admitted radio classes to
// size its near-horizon buckets (des.Simulator.SetGrain).
func (p Precomp) DelayQuantum() float64 { return p.ProcDelay }

// HopDelay2 returns the one-hop latency for a packet of the given size
// (bytes) over squared distance d2 (square meters): transmission
// (size/bandwidth) plus propagation (distance/c) plus ProcDelay. Range
// enforcement is the caller's job (the network layer).
func (p Precomp) HopDelay2(sizeBytes int, d2 float64) float64 {
	return float64(sizeBytes)*p.SecPerByte + math.Sqrt(d2)*invLightSpeed + p.ProcDelay
}

// Capacity tracks residual bandwidth on a node for QoS admission: the
// paper's routes carry bandwidth state, and multicast sessions reserve a
// rate on each logical link they cross.
type Capacity struct {
	total    float64
	reserved float64
}

// NewCapacity returns a capacity meter for the given total bits/second.
func NewCapacity(total float64) *Capacity {
	if total < 0 {
		total = 0
	}
	return &Capacity{total: total}
}

// Free returns the unreserved bits/second.
func (c *Capacity) Free() float64 { return math.Max(0, c.total-c.reserved) }

// Reserve admits a flow of the given rate, returning false (and
// reserving nothing) if it does not fit. Zero and negative rates are
// admitted as no-ops.
func (c *Capacity) Reserve(rate float64) bool {
	if rate <= 0 {
		return true
	}
	if c.reserved+rate > c.total {
		return false
	}
	c.reserved += rate
	return true
}

// Release returns a previously reserved rate. Releasing more than was
// reserved clamps at zero rather than going negative, so a double
// release cannot manufacture capacity.
func (c *Capacity) Release(rate float64) {
	if rate <= 0 {
		return
	}
	c.reserved = math.Max(0, c.reserved-rate)
}

// Utilization returns reserved/total in [0, 1] (0 for zero-capacity).
func (c *Capacity) Utilization() float64 {
	if c.total == 0 {
		return 0
	}
	return c.reserved / c.total
}

// Energy converts the traffic counters the network layer keeps into
// consumed energy — the paper names "energy consumption" among the QoS
// metrics and motivates the backbone by the "limited bandwidth and
// energy of MNs". Default values follow the widely used WaveLAN
// measurements (~1.9 uJ/byte transmit, ~1.0 uJ/byte receive).
type Energy struct {
	// TxPerByte and RxPerByte are joules per byte transmitted/received.
	TxPerByte, RxPerByte float64
}

// DefaultEnergy is the WaveLAN-derived model.
var DefaultEnergy = Energy{TxPerByte: 1.9e-6, RxPerByte: 1.0e-6}

// Consumed returns the joules implied by the given byte counters.
func (e Energy) Consumed(txBytes, rxBytes uint64) float64 {
	return e.TxPerByte*float64(txBytes) + e.RxPerByte*float64(rxBytes)
}
