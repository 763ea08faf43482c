// Package core implements DCRD (Delay-Cognizant Reliable Delivery) over
// the discrete-event simulator: it is the simulation shell around the two
// shared, transport-agnostic engines. Algorithm 1 — the recursive <d, r>
// parameters (Eq. 1–3), the Theorem-1 sending-list ordering and the
// route-table rebuild driver — lives in internal/algo1;
// Algorithm 2 — dynamic forwarding with hop-by-hop ACKs, per-neighbor
// failover and upstream rerouting — lives in internal/algo2. Router
// adapts both onto netsim's links, monitoring windows and simulated clock.
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
//
// The forwarding hot path stays allocation-free in steady state: the
// engines share one algo2.Pools (a simulation is single-threaded, so the
// pool needs no locking), and all timers go through the simulator's
// closure-free AfterFunc with des.EventID as the engine's timer-handle
// type (no interface boxing).
type Router struct {
	net  *netsim.Network
	work *pubsub.Workload
	col  *metrics.Collector
	opts RouterOptions
	// drv owns the Algorithm-1 route tables for every (publisher,
	// subscriber) pair; simMonitor feeds it netsim's deterministic
	// monitoring estimates.
	drv    *algo1.Driver
	shells []*nodeShell
	pools  *algo2.Pools[des.EventID]
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

// NewRouter builds route tables for every (publisher, subscriber) pair and
// installs frame handlers on every node of the network.
func NewRouter(net *netsim.Network, w *pubsub.Workload, col *metrics.Collector, opts RouterOptions) (*Router, error) {
	opts = opts.withDefaults()
	g := net.Graph()
	r := &Router{
		net:    net,
		work:   w,
		col:    col,
		opts:   opts,
		drv:    algo1.NewDriver(g, simMonitor{net: net}, algo1.DriverOptions{Build: opts.Build}),
		shells: make([]*nodeShell, g.N()),
		pools:  algo2.NewPools[des.EventID](g.N()),
	}
	// Register every (topic, subscriber) pair up front, in workload order.
	// Budgets depend only on the deadline and the (static) shortest-path
	// tree, so one registration is authoritative across epochs.
	for _, t := range w.Topics() {
		tree := w.PublisherTree(t.ID)
		for _, s := range t.Subscribers {
			r.drv.SetPair(algo1.PairKey{Topic: int32(t.ID), Sub: int32(s.Node)},
				s.Node, algo1.BudgetsFromTree(tree, s.Deadline))
		}
	}
	r.Rebuild()
	for id := 0; id < g.N(); id++ {
		sh := &nodeShell{r: r, id: id}
		sh.eng = algo2.NewEngine[des.EventID](algo2.Config{
			NodeID:      id,
			M:           opts.M,
			AckGuard:    opts.AckGuard,
			MaxLifetime: opts.MaxLifetime,
			Persistent:  opts.Persistent,
			Tracer:      opts.Tracer,
		}, sh, r.pools)
		r.shells[id] = sh
		r.net.SetHandler(id, sh.handleFrame)
	}
	return r, nil
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
	r.shells[pkt.Source].eng.Publish(algo2.Packet{
		ID:          pkt.ID,
		Topic:       int32(pkt.Topic),
		Source:      int32(pkt.Source),
		PublishedAt: pkt.PublishedAt,
	}, r.work.Destinations(pkt.Topic))
}

// nodeShell adapts one node's forwarding engine onto the simulation: the
// simulator is the engine clock and timer wheel (des.EventID is the timer
// handle — Cancel is synchronous and reliable), netsim is the transport
// (outbound algo2.Frames ride netsim data frames as payloads; hop-by-hop
// ACKs are netsim control frames), the Router's Algorithm-1 tables are the
// sending-list provider, and the metrics collector receives deliveries and
// drops.
type nodeShell struct {
	r   *Router
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
		_ = sh.r.net.Send(netsim.Frame{
			ID:   sh.r.net.NextFrameID(),
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
	default:
		panic(fmt.Sprintf("core: node %d received unknown payload %T", sh.id, f.Payload))
	}
}

// Now is the simulator clock.
func (sh *nodeShell) Now() time.Duration { return sh.r.net.Sim().Now() }

// AfterFunc schedules on the simulator (closure-free, pooled events).
func (sh *nodeShell) AfterFunc(d time.Duration, fn func(any), arg any) des.EventID {
	return sh.r.net.Sim().AfterFunc(d, fn, arg)
}

// CancelTimer cancels a scheduled event; des guarantees a cancelled event
// never fires (generation-checked handles), satisfying the Deps contract.
func (sh *nodeShell) CancelTimer(t des.EventID) { t.Cancel() }

// NextFrameID allocates a run-unique frame identifier.
func (sh *nodeShell) NextFrameID() uint64 { return sh.r.net.NextFrameID() }

// AckWait asks the network for the link's ACK round trip.
func (sh *nodeShell) AckWait(k int) (time.Duration, bool) {
	return sh.r.net.AckWait(sh.id, k)
}

// Send transmits one data frame; the pooled algo2.Frame itself is the
// netsim payload. The receiver may read it only during its own delivery
// event and only for frames that pass deduplication — both hold by
// construction: the first delivery happens strictly before the ACK that
// releases the frame, and duplicate deliveries land within one ACK round
// trip, far inside the dedup horizon.
func (sh *nodeShell) Send(f *algo2.Frame) {
	_ = sh.r.net.Send(netsim.Frame{
		ID:      f.ID,
		From:    sh.id,
		To:      f.To,
		Kind:    netsim.Data,
		Payload: f,
	})
}

// SendingList looks the Theorem-1 list up in the Algorithm-1 tables.
func (sh *nodeShell) SendingList(topic int32, dest int) []int {
	table := sh.r.drv.Table(algo1.PairKey{Topic: topic, Sub: int32(dest)})
	if table == nil {
		return nil
	}
	return table.List(sh.id)
}

// LinkUp always holds in the simulation: dead links surface as ACK
// timeouts, exactly the paper's model.
func (sh *nodeShell) LinkUp(int) bool { return true }

// Deliver hands a local delivery to the collector.
func (sh *nodeShell) Deliver(pkt *algo2.Packet, _ int) {
	sh.r.col.Deliver(pkt.ID, sh.id, sh.r.net.Sim().Now())
}

// Drop records every abandoned destination with the collector.
func (sh *nodeShell) Drop(pkt *algo2.Packet, dests []int, _ algo2.DropReason) {
	for _, dest := range dests {
		sh.r.col.Drop(pkt.ID, dest)
	}
}

// AckTimedOut is a no-op: the simulator's gamma comes from the monitoring
// model, not from ACK outcomes.
func (sh *nodeShell) AckTimedOut(int) {}

// NextRetryAt is the next failure-epoch boundary — the earliest instant
// link states can change (persistency mode).
func (sh *nodeShell) NextRetryAt(now time.Duration) time.Duration {
	return sh.r.net.NextEpochBoundary(now)
}
