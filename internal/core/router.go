// Package core implements DCRD (Delay-Cognizant Reliable Delivery) over
// the discrete-event simulator: it is the simulation shell around the two
// shared, transport-agnostic engines. Algorithm 1 — the recursive <d, r>
// parameters (Eq. 1–3), the Theorem-1 sending-list ordering and the
// route-table rebuild driver — lives in internal/algo1;
// Algorithm 2 — dynamic forwarding with hop-by-hop ACKs, per-neighbor
// failover and upstream rerouting — lives in internal/algo2. Router
// adapts both onto netsim's links, monitoring windows and simulated clock.
// FixedRouter runs the same Algorithm-2 shell over fixed sending lists
// without upstream reroute: the tree and multipath baselines.
package core

import (
	"fmt"
	"time"

	"repro/internal/algo1"
	"repro/internal/algo2"
	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/pubsub"
	"repro/internal/seen"
	"repro/internal/trace"
)

// RouterOptions tunes the Algorithm-2 forwarding scheme.
type RouterOptions struct {
	// M is the number of transmissions per neighbor before switching to the
	// next sending-list entry (the paper's m; default 1).
	M int
	// AckGuard is added on top of the network's ACK wait (alpha under the
	// paper's instant-control model, 2*alpha otherwise) when arming the
	// ACK timer. Default 1 ms.
	AckGuard time.Duration
	// MaxLifetime bounds how long a packet may stay in flight before the
	// router gives up (covers persistent partitions, which the paper
	// delegates to its out-of-scope persistency mode). Default
	// seen.DefaultMaxLifetime (30 s).
	MaxLifetime time.Duration
	// Persistent enables the paper's §III persistency mode: when the
	// origin exhausts every neighbor, the packet is held and resent from
	// scratch at the next failure-epoch boundary (when link states can
	// change) instead of being dropped, until MaxLifetime. This provides
	// the delivery guarantee even across windows where no live path
	// exists, at the cost of buffering and late deliveries.
	Persistent bool
	// Build tunes the Algorithm-1 table fixpoint.
	Build algo1.BuildOptions
	// Tracer, when non-nil, receives a per-packet routing timeline
	// (sends, ACK handoffs, timeouts, failovers, reroutes, deliveries).
	Tracer trace.Recorder
}

// withDefaults fills unset options.
func (o RouterOptions) withDefaults() RouterOptions {
	if o.M < 1 {
		o.M = 1
	}
	if o.AckGuard <= 0 {
		o.AckGuard = time.Millisecond
	}
	if o.MaxLifetime <= 0 {
		o.MaxLifetime = seen.DefaultMaxLifetime
	}
	if o.Build.M == 0 {
		o.Build.M = o.M
	}
	return o
}

// Router drives DCRD's dynamic routing (Algorithm 2) over a simulated
// network. It is the discrete-event shell around the shared forwarding
// engine (internal/algo2): the Algorithm-1 route tables live here, while
// every node's forwarding decisions — hop-by-hop ACKs, m transmissions per
// neighbor, sending-list failover, upstream rerouting — are made by one
// algo2.Engine per node, adapted onto the simulator clock and the netsim
// transport by nodeShell. One Router instance drives every broker node of
// the overlay.
type Router struct {
	*engines
	work *pubsub.Workload
	// drv owns the Algorithm-1 route tables for every (publisher,
	// subscriber) pair; simMonitor feeds it netsim's deterministic
	// monitoring estimates.
	drv *algo1.Driver
}

// Lists answers Algorithm 2's sending-list question for node: the
// neighbors to try, in order, to reach dest under routing key key (the
// topic, except for Multipath's per-route keys).
type Lists interface {
	SendingList(node int, key int32, dest int) []int
}

// engines is the simulation shell every Algorithm-2 approach shares: one
// engine per node, installed as that node's netsim handler, with lists as
// the sending-list provider.
//
// The forwarding hot path stays allocation-free in steady state: the
// engines share one algo2.Pools (a simulation is single-threaded, so the
// pool needs no locking), network copies of frames are recycled through
// onAir, and all timers go through the simulator's closure-free AfterFunc
// with des.EventID as the engine's timer-handle type (no interface boxing).
type engines struct {
	net    *netsim.Network
	col    *metrics.Collector
	lists  Lists
	shells []*nodeShell
	pools  *algo2.Pools[des.EventID]
	// onAir holds delivered network copies for reuse (see nodeShell.Send).
	onAir []*algo2.Frame
}

// newEngines builds one engine per node from cfg and installs its handler.
func newEngines(net *netsim.Network, col *metrics.Collector, cfg algo2.Config, lists Lists) *engines {
	n := net.Graph().N()
	e := &engines{
		net:    net,
		col:    col,
		lists:  lists,
		shells: make([]*nodeShell, n),
		pools:  algo2.NewPools[des.EventID](n),
	}
	for id := range n {
		sh := &nodeShell{e: e, id: id}
		cfg.NodeID = id
		sh.eng = algo2.NewEngine[des.EventID](cfg, sh, e.pools)
		e.shells[id] = sh
		net.SetHandler(id, sh.handleFrame)
	}
	return e
}

// publish injects a freshly published packet at its source broker, which
// becomes responsible for dests; key is what the engine hands to Lists.
func (e *engines) publish(pkt pubsub.Packet, key int32, dests []int) {
	e.shells[pkt.Source].eng.Publish(algo2.Packet{
		ID:          pkt.ID,
		Topic:       key,
		Source:      int32(pkt.Source),
		PublishedAt: pkt.PublishedAt,
	}, dests)
}

// FixedRouter runs Algorithm 2 over fixed sending lists with no upstream
// reroute: a copy whose list is exhausted is dropped wherever it is. That
// is the forwarding of the paper's tree and multipath baselines (§IV-B).
// It has no Algorithm-1 driver, hence no Rebuild.
type FixedRouter struct{ *engines }

// NewFixedRouter installs engines that send m times per link to the
// neighbors lists names. Lifetime and ACK guard are the engine defaults.
func NewFixedRouter(net *netsim.Network, col *metrics.Collector, m int, lists Lists) *FixedRouter {
	return &FixedRouter{newEngines(net, col, algo2.Config{M: m, NoReroute: true}, lists)}
}

// Publish injects pkt at its source, routed under key toward dests.
func (f *FixedRouter) Publish(pkt pubsub.Packet, key int32, dests []int) {
	f.publish(pkt, key, dests)
}

// simMonitor adapts netsim's monitoring model onto algo1.Deps: the
// estimate version and per-window link estimates are read at the
// simulator's current clock (a rebuild runs within one simulator event, so
// the clock — and with it every estimate — is frozen for its duration).
type simMonitor struct {
	net *netsim.Network
}

func (m simMonitor) EstimateVersion() uint64 {
	return m.net.EstimateVersion(m.net.Sim().Now())
}

func (m simMonitor) LinkEstimate(u, v int) (time.Duration, float64, bool) {
	est, ok := m.net.EstimateAt(u, v, m.net.Sim().Now())
	return est.Alpha, est.Gamma, ok
}

// tables reads Theorem-1 sending lists from the Algorithm-1 route tables.
type tables struct{ drv *algo1.Driver }

func (t tables) SendingList(node int, key int32, dest int) []int {
	table := t.drv.Table(algo1.PairKey{Topic: key, Sub: int32(dest)})
	if table == nil {
		return nil
	}
	return table.List(node)
}

// NewRouter builds route tables for every (publisher, subscriber) pair and
// installs frame handlers on every node of the network.
func NewRouter(net *netsim.Network, w *pubsub.Workload, col *metrics.Collector, opts RouterOptions) (*Router, error) {
	opts = opts.withDefaults()
	drv := algo1.NewDriver(net.Graph(), simMonitor{net: net}, algo1.DriverOptions{Build: opts.Build})
	// Register every (topic, subscriber) pair up front, in workload order.
	// Budgets depend only on the deadline and the (static) shortest-path
	// tree, so one registration is authoritative across epochs.
	for _, t := range w.Topics() {
		tree := w.PublisherTree(t.ID)
		for _, s := range t.Subscribers {
			drv.SetPair(algo1.PairKey{Topic: int32(t.ID), Sub: int32(s.Node)},
				s.Node, algo1.BudgetsFromTree(tree, s.Deadline))
		}
	}
	drv.Rebuild()
	return &Router{
		engines: newEngines(net, col, algo2.Config{
			M:           opts.M,
			AckGuard:    opts.AckGuard,
			MaxLifetime: opts.MaxLifetime,
			Persistent:  opts.Persistent,
			Tracer:      opts.Tracer,
		}, tables{drv}),
		work: w,
		drv:  drv,
	}, nil
}

// Name identifies the approach in experiment output.
func (r *Router) Name() string { return "DCRD" }

// Rebuild refreshes the Algorithm-1 route tables from the monitoring
// estimates current at the simulator's clock. Call it at every monitoring
// epoch when the network models measurement-based estimates
// (netsim.Config.MonitorSamples > 0); with exact estimates the fixpoint is
// time-invariant and one build at construction suffices.
//
// When the estimate version is unchanged the call is a no-op reusing every
// prior table; otherwise every pair is rebuilt against one link-stats
// Snapshot shared by the epoch (see algo1.Driver.Rebuild).
func (r *Router) Rebuild() { r.drv.Rebuild() }

// RebuildCold rebuilds every pair against its own snapshot: the oracle
// tests and benchmarks cross-check Rebuild's tables against.
func (r *Router) RebuildCold() { r.drv.RebuildCold() }

// Table exposes the route table for a (topic, subscriber) pair, mainly for
// tests and diagnostics.
func (r *Router) Table(topic, sub int) *algo1.Table {
	return r.drv.Table(algo1.PairKey{Topic: int32(topic), Sub: int32(sub)})
}

// Publish injects a freshly published packet at its source broker, which
// becomes responsible for all subscriber destinations of the topic.
func (r *Router) Publish(pkt pubsub.Packet) {
	r.publish(pkt, int32(pkt.Topic), r.work.Destinations(pkt.Topic))
}

// nodeShell adapts one node's forwarding engine onto the simulation: the
// simulator is the engine clock and timer wheel (des.EventID is the timer
// handle — Cancel is synchronous and reliable), netsim is the transport
// (copies of outbound algo2.Frames ride netsim data frames as payloads;
// hop-by-hop ACKs are netsim control frames), Lists is the sending-list
// provider, and the metrics collector receives deliveries and drops.
type nodeShell struct {
	e   *engines
	id  int
	eng *algo2.Engine[des.EventID]
}

var _ algo2.Deps[des.EventID] = (*nodeShell)(nil)

// handleFrame dispatches network frames to the ACK or data paths. For data
// frames the hop-by-hop ACK (Algorithm 2 line 2) is sent before the engine
// runs — for every received frame, duplicates included, lossy like any
// frame.
func (sh *nodeShell) handleFrame(f netsim.Frame) {
	if f.Kind == netsim.Control && f.Ack != 0 {
		sh.eng.HandleAck(f.Ack)
		return
	}
	switch p := f.Payload.(type) {
	case *algo2.Frame:
		_ = sh.e.net.Send(netsim.Frame{
			ID:   sh.e.net.NextFrameID(),
			From: sh.id,
			To:   f.From,
			Kind: netsim.Control,
			Ack:  f.ID,
		})
		sh.eng.HandleData(algo2.Inbound{
			FrameID: f.ID,
			From:    f.From,
			Pkt:     p.Pkt,
			Dests:   p.Dests,
			Path:    p.Path,
		})
		sh.e.onAir = append(sh.e.onAir, p) // HandleData copied what it keeps
	default:
		panic(fmt.Sprintf("core: node %d received unknown payload %T", sh.id, f.Payload))
	}
}

// Now is the simulator clock.
func (sh *nodeShell) Now() time.Duration { return sh.e.net.Sim().Now() }

// AfterFunc schedules on the simulator (closure-free, pooled events).
func (sh *nodeShell) AfterFunc(d time.Duration, fn func(any), arg any) des.EventID {
	return sh.e.net.Sim().AfterFunc(d, fn, arg)
}

// CancelTimer cancels a scheduled event; des guarantees a cancelled event
// never fires (generation-checked handles), satisfying the Deps contract.
func (sh *nodeShell) CancelTimer(t des.EventID) { t.Cancel() }

// NextFrameID allocates a run-unique frame identifier.
func (sh *nodeShell) NextFrameID() uint64 { return sh.e.net.NextFrameID() }

// AckWait asks the network for the link's ACK round trip.
func (sh *nodeShell) AckWait(k int) (time.Duration, bool) {
	return sh.e.net.AckWait(sh.id, k)
}

// Send puts a copy of f on the network. The engine recycles f when its
// flight resolves, and under LinkBandwidth a frame can sit in a transmit
// queue longer than its ACK wait, so the network must not share it. The
// copy is recycled by the receiver's handleFrame, or here when netsim drops
// it on the spot.
func (sh *nodeShell) Send(f *algo2.Frame) {
	var c *algo2.Frame
	if l := len(sh.e.onAir); l > 0 {
		c = sh.e.onAir[l-1]
		sh.e.onAir = sh.e.onAir[:l-1]
	} else {
		nc := new(netCopy)
		nc.Dests = nc.inline[:0]
		c = &nc.Frame
	}
	c.ID, c.To, c.Pkt = f.ID, f.To, f.Pkt
	// Dests and Path share one backing array, grown at most once per copy.
	buf := c.Dests[:0]
	if n := len(f.Dests) + len(f.Path); cap(buf) < n {
		buf = make([]int, 0, n)
	}
	c.Dests = append(buf, f.Dests...)
	c.Path = append(c.Dests[len(c.Dests):], f.Path...)
	dropped := sh.e.net.Stats().Dropped()
	_ = sh.e.net.Send(netsim.Frame{
		ID:      f.ID,
		From:    sh.id,
		To:      f.To,
		Kind:    netsim.Data,
		Payload: c,
	})
	if sh.e.net.Stats().Dropped() > dropped {
		sh.e.onAir = append(sh.e.onAir, c)
	}
}

// netCopy is a network copy of an outbound frame with inline room for its
// destinations and path, so a new copy is one allocation.
type netCopy struct {
	algo2.Frame
	inline [16]int
}

// SendingList asks the approach's Lists.
func (sh *nodeShell) SendingList(key int32, dest int) []int {
	return sh.e.lists.SendingList(sh.id, key, dest)
}

// LinkUp always holds in the simulation: dead links surface as ACK
// timeouts, exactly the paper's model.
func (sh *nodeShell) LinkUp(int) bool { return true }

// Deliver hands a local delivery to the collector.
func (sh *nodeShell) Deliver(pkt *algo2.Packet, _ int) {
	sh.e.col.Deliver(pkt.ID, sh.id, sh.e.net.Sim().Now())
}

// Drop records every abandoned destination with the collector.
func (sh *nodeShell) Drop(pkt *algo2.Packet, dests []int, _ algo2.DropReason) {
	for _, dest := range dests {
		sh.e.col.Drop(pkt.ID, dest)
	}
}

// AckTimedOut is a no-op: the simulator's gamma comes from the monitoring
// model, not from ACK outcomes.
func (sh *nodeShell) AckTimedOut(int) {}

// NextRetryAt is the next failure-epoch boundary — the earliest instant
// link states can change (persistency mode).
func (sh *nodeShell) NextRetryAt(now time.Duration) time.Duration {
	return sh.e.net.NextEpochBoundary(now)
}
