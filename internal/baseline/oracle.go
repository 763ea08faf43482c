package baseline

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/pubsub"
	"repro/internal/seen"
	"repro/internal/topology"
)

// oracleData is a data frame of the oracle protocol: packet plus the
// destinations this copy serves.
type oracleData struct {
	Pkt   pubsub.Packet
	Dests []int
}

// OracleRouter is the paper's performance upper bound (§IV-B.3): a routing
// scheme that always uses the shortest-delay path avoiding any failure,
// "since the condition of the entire network is known". It recomputes the
// next hop at every broker from the instantaneous link state (netsim.Alive),
// so the only delay penalties it pays are detour lengths and the rare wait
// when a broker is temporarily cut off; packet losses (Pl) are recovered by
// recomputation after an ACK timeout.
type OracleRouter struct {
	net      *netsim.Network
	w        *pubsub.Workload
	col      *metrics.Collector
	lifetime time.Duration
	nodes    []*oracleNode
}

type oracleNode struct {
	r      *OracleRouter
	id     int
	sender *hopSender
	seen   map[uint64]bool
	gp     grouper
}

// NewOracleRouter installs the oracle protocol on every node. lifetime
// bounds per-packet retrying; 0 means seen.DefaultMaxLifetime.
func NewOracleRouter(net *netsim.Network, w *pubsub.Workload, col *metrics.Collector, lifetime time.Duration) (*OracleRouter, error) {
	if lifetime <= 0 {
		lifetime = seen.DefaultMaxLifetime
	}
	g := net.Graph()
	r := &OracleRouter{
		net:      net,
		w:        w,
		col:      col,
		lifetime: lifetime,
		nodes:    make([]*oracleNode, g.N()),
	}
	for id := 0; id < g.N(); id++ {
		on := &oracleNode{
			r:      r,
			id:     id,
			sender: newHopSender(net, id),
			seen:   make(map[uint64]bool),
		}
		r.nodes[id] = on
		net.SetHandler(id, on.handleFrame)
	}
	return r, nil
}

// Name identifies the approach in experiment output.
func (r *OracleRouter) Name() string { return "ORACLE" }

// Publish injects a packet at its source broker.
func (r *OracleRouter) Publish(pkt pubsub.Packet) {
	node := r.nodes[pkt.Source]
	local, remote := splitLocal(pkt.Source, r.w.Destinations(pkt.Topic))
	now := r.net.Sim().Now()
	for _, d := range local {
		r.col.Deliver(pkt.ID, d, now)
	}
	node.process(pkt, remote)
}

func (on *oracleNode) handleFrame(f netsim.Frame) {
	if f.Kind == netsim.Control {
		on.sender.handleAck(f.Ack)
		return
	}
	switch p := f.Payload.(type) {
	case oracleData:
		sendAck(on.r.net, on.id, f)
		if on.seen[f.ID] {
			return
		}
		on.seen[f.ID] = true
		now := on.r.net.Sim().Now()
		local, remote := splitLocal(on.id, p.Dests)
		for _, d := range local {
			on.r.col.Deliver(p.Pkt.ID, d, now)
		}
		on.process(p.Pkt, remote)
	}
}

// process routes the destinations using a shortest-delay tree over links
// alive right now. Destinations with no alive path wait until the next
// failure-epoch boundary, when conditions change; ACK timeouts (packet loss
// or a failure landing mid-round-trip) re-enter process for a fresh route.
func (on *oracleNode) process(pkt pubsub.Packet, dests []int) {
	if len(dests) == 0 {
		return
	}
	now := on.r.net.Sim().Now()
	if now-pkt.PublishedAt > on.r.lifetime {
		for _, dest := range dests {
			on.r.col.Drop(pkt.ID, dest)
		}
		return
	}
	g := on.r.net.Graph()
	alive := topology.Dijkstra(g, on.id, func(u, v int) bool {
		return on.r.net.Alive(u, v, now)
	})
	on.gp.group(dests, alive.NextHop)
	if len(on.gp.unroutable) > 0 {
		// Temporarily cut off: retry when the failure process redraws.
		wait := on.r.net.NextEpochBoundary(now) - now
		pendingRetry := append([]int(nil), on.gp.unroutable...)
		on.r.net.Sim().After(wait, func() { on.process(pkt, pendingRetry) })
	}
	for gi, nh := range on.gp.hops {
		group := append([]int(nil), on.gp.dests[gi]...)
		payload := oracleData{Pkt: pkt, Dests: group}
		// Budget 1: an ACK timeout means loss or a mid-flight failure; the
		// oracle recomputes the route instead of blindly retransmitting.
		on.sender.send(nh, payload, 1, func() {
			on.process(pkt, group)
		})
	}
}
