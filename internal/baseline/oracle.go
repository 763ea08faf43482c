package baseline

import (
	"time"

	"repro/internal/des"
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
	frames *seen.Set // received frame IDs
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
			sender: &hopSender{net: net, node: id, inflight: make(map[uint64]*hopFlight)},
			frames: seen.New(seen.Horizon(lifetime)),
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

// handleFrame resolves ACKs, and ACKs every data frame (duplicates too)
// before processing the first copy of it.
func (on *oracleNode) handleFrame(f netsim.Frame) {
	if f.Kind == netsim.Control {
		on.sender.handleAck(f.Ack)
		return
	}
	p, ok := f.Payload.(oracleData)
	if !ok {
		return
	}
	net := on.r.net
	_ = net.Send(netsim.Frame{ID: net.NextFrameID(), From: on.id, To: f.From, Kind: netsim.Control, Ack: f.ID})
	now := net.Sim().Now()
	if on.frames.Seen(f.ID, now) {
		return
	}
	local, remote := splitLocal(on.id, p.Dests)
	for _, d := range local {
		on.r.col.Deliver(p.Pkt.ID, d, now)
	}
	on.process(p.Pkt, remote)
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
		on.sender.send(nh, oracleData{Pkt: pkt, Dests: group}, func() {
			on.process(pkt, group)
		})
	}
}

// hopSender manages one node's unacknowledged transmissions: it sends a
// frame once and arms an ACK timer at the link round trip; when the timer
// fires first, the failure callback runs. The oracle never retransmits
// blindly: a timeout means loss or a mid-flight failure, and it recomputes
// the route instead. Flights are pooled and timers use the simulator's
// closure-free AfterFunc.
type hopSender struct {
	net      *netsim.Network
	node     int
	inflight map[uint64]*hopFlight
	free     []*hopFlight
}

type hopFlight struct {
	h       *hopSender
	frameID uint64
	timer   des.EventID
	onFail  func()
}

// ackGuard pads the round-trip ACK timeout, as the engine's default does.
const ackGuard = time.Millisecond

// send transmits payload to neighbor to; onFail runs if no ACK arrives.
func (h *hopSender) send(to int, payload any, onFail func()) {
	wait, ok := h.net.AckWait(h.node, to)
	if !ok {
		h.net.Sim().After(0, onFail)
		return
	}
	var fl *hopFlight
	if l := len(h.free); l > 0 {
		fl = h.free[l-1]
		h.free = h.free[:l-1]
	} else {
		fl = &hopFlight{h: h}
	}
	fl.frameID = h.net.NextFrameID()
	fl.onFail = onFail
	h.inflight[fl.frameID] = fl
	_ = h.net.Send(netsim.Frame{ID: fl.frameID, From: h.node, To: to, Kind: netsim.Data, Payload: payload})
	fl.timer = h.net.Sim().AfterFunc(wait+ackGuard, hopTimeoutFired, fl)
}

// hopTimeoutFired is the pooled ACK-timer callback; des never fires a
// cancelled timer, so the flight is still in the air.
func hopTimeoutFired(a any) {
	fl := a.(*hopFlight)
	onFail := fl.onFail
	fl.h.release(fl)
	onFail()
}

// handleAck resolves a pending flight; duplicate or stale ACKs are ignored.
func (h *hopSender) handleAck(frameID uint64) {
	if fl, ok := h.inflight[frameID]; ok {
		fl.timer.Cancel()
		h.release(fl)
	}
}

// release forgets a resolved flight and recycles it.
func (h *hopSender) release(fl *hopFlight) {
	delete(h.inflight, fl.frameID)
	fl.onFail = nil
	h.free = append(h.free, fl)
}

// grouper buckets destinations by next hop into reusable scratch buffers,
// separating those with no route. Groups come out in ascending next-hop
// order. The buffers are valid until the next call; callers that retain a
// group (e.g. in a frame payload) must copy it.
type grouper struct {
	hops       []int
	dests      [][]int
	unroutable []int
}

func (gp *grouper) group(dests []int, next func(dest int) int) {
	gp.hops = gp.hops[:0]
	gp.unroutable = gp.unroutable[:0]
	for _, dest := range dests {
		nh := next(dest)
		if nh < 0 {
			gp.unroutable = append(gp.unroutable, dest)
			continue
		}
		gi := -1
		for j, h := range gp.hops {
			if h == nh {
				gi = j
				break
			}
		}
		if gi < 0 {
			gp.hops = append(gp.hops, nh)
			gi = len(gp.hops) - 1
			if len(gp.dests) <= gi {
				gp.dests = append(gp.dests, nil)
			}
			gp.dests[gi] = gp.dests[gi][:0]
		}
		gp.dests[gi] = append(gp.dests[gi], dest)
	}
	for i := 1; i < len(gp.hops); i++ {
		for j := i; j > 0 && gp.hops[j] < gp.hops[j-1]; j-- {
			gp.hops[j], gp.hops[j-1] = gp.hops[j-1], gp.hops[j]
			gp.dests[j], gp.dests[j-1] = gp.dests[j-1], gp.dests[j]
		}
	}
}

// splitLocal splits dests into those hosted at node (delivered
// immediately) and the rest.
func splitLocal(node int, dests []int) (local, remote []int) {
	for _, d := range dests {
		if d == node {
			local = append(local, d)
		} else {
			remote = append(remote, d)
		}
	}
	return local, remote
}
