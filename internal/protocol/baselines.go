package protocol

import (
	"repro/internal/baseline"
	"repro/internal/des"
	"repro/internal/network"
)

func init() {
	register := func(name string, build func(*network.Network, *network.Mux) baseline.Protocol) {
		Register(name, func(d Deps) (Stack, error) {
			s := &baselineStack{p: build(d.Net, d.Mux)}
			s.p.OnDeliver(s.observe)
			return s, nil
		})
	}
	register("flooding", func(n *network.Network, m *network.Mux) baseline.Protocol { return baseline.NewFlooding(n, m) })
	register("dsm", func(n *network.Network, m *network.Mux) baseline.Protocol { return baseline.NewDSM(n, m) })
	register("pbm", func(n *network.Network, m *network.Mux) baseline.Protocol { return baseline.NewPBM(n, m) })
	register("spbm", func(n *network.Network, m *network.Mux) baseline.Protocol { return baseline.NewSPBM(n, m) })
	register("cbt", func(n *network.Network, m *network.Mux) baseline.Protocol { return baseline.NewCBT(n, m) })
}

// baselineStack adapts a baseline.Protocol to the Stack interface.
type baselineStack struct {
	p   baseline.Protocol
	on  DeliverFunc
	stx Stats
}

func (s *baselineStack) Name() string { return s.p.Name() }
func (s *baselineStack) Start()       { s.p.Start() }
func (s *baselineStack) Stop()        { s.p.Stop() }

func (s *baselineStack) Join(id network.NodeID, g Group)  { s.p.Join(id, baseline.Group(g)) }
func (s *baselineStack) Leave(id network.NodeID, g Group) { s.p.Leave(id, baseline.Group(g)) }

func (s *baselineStack) Send(src network.NodeID, g Group, payloadSize int) uint64 {
	uid := s.p.Send(src, baseline.Group(g), payloadSize)
	if uid != 0 {
		s.stx.Sent++
	}
	return uid
}

func (s *baselineStack) Deliveries(f DeliverFunc) { s.on = f }
func (s *baselineStack) Forget(uid uint64)        { s.p.Forget(uid) }
func (s *baselineStack) Tracked() int             { return s.p.Tracked() }

func (s *baselineStack) observe(member network.NodeID, uid uint64, born des.Time, hops int) {
	s.stx.Delivered++
	if s.on != nil {
		s.on(member, uid, born, hops)
	}
}

func (s *baselineStack) Stats() Stats { return s.stx }
