package broker

import (
	"fmt"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/pubsub"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Differential fidelity harness: the same topology and the same scripted
// loss schedule are driven through the DES shell (internal/core over
// netsim) and through a live net.Pipe broker overlay, and the per-packet
// forwarding decisions — transmission order per node, retransmit counts,
// failovers, upstream reroutes, deliveries and drops — must be identical,
// because both shells run the one shared engine (internal/algo2).
//
// Topology (all links equal delay):
//
//	0 —— 1 —— 3        publisher at 0, subscriber broker 3
//	|         |        primary route  0→1→3   (2 hops)
//	2 —————— 4         backup  route  0→2→4→3 (3 hops)
//
// Decisions are compared per node (cross-node interleaving is timing-
// dependent live, but each node's own decision sequence is causal).

// diffDropRule scripts one loss: frames of kind ("data" or "ack") from→to
// are dropped — all of them when nth is nil, else only the listed
// occurrence numbers (1-based, counted per (from, to, kind)).
type diffDropRule struct {
	from, to int
	kind     string
	nth      map[int]bool
}

// diffSchedule applies drop rules with per-(link, kind) occurrence
// counting; one schedule instance serves exactly one scenario run.
type diffSchedule struct {
	mu    sync.Mutex
	rules []diffDropRule
	count map[[2]int]map[string]int
}

func newDiffSchedule(rules []diffDropRule) *diffSchedule {
	return &diffSchedule{rules: rules, count: make(map[[2]int]map[string]int)}
}

func (s *diffSchedule) drop(from, to int, kind string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	link := [2]int{from, to}
	byKind := s.count[link]
	if byKind == nil {
		byKind = make(map[string]int)
		s.count[link] = byKind
	}
	byKind[kind]++
	n := byKind[kind]
	for _, r := range s.rules {
		if r.from != from || r.to != to || r.kind != kind {
			continue
		}
		if r.nth == nil || r.nth[n] {
			return true
		}
	}
	return false
}

// decision is one normalized forwarding decision: everything the engine
// chose, minus the things the two shells legitimately disagree on
// (timestamps, packet-ID encodings).
type decision struct {
	kind  trace.Kind
	peer  int
	dests string
	note  string
}

func (d decision) String() string {
	return fmt.Sprintf("%s peer=%d dests=%s note=%q", d.kind, d.peer, d.dests, d.note)
}

// normalize splits a trace into per-node decision sequences.
func normalize(events []trace.Event) map[int][]decision {
	out := make(map[int][]decision)
	for _, e := range events {
		out[e.Node] = append(out[e.Node], decision{
			kind:  e.Kind,
			peer:  e.Peer,
			dests: fmt.Sprint(e.Dests),
			note:  e.Note,
		})
	}
	return out
}

// diffLinks is the scenario topology's undirected edge list.
var diffLinks = [][2]int{{0, 1}, {1, 3}, {0, 2}, {2, 4}, {4, 3}}

const (
	diffNodes     = 5
	diffSub       = 3
	diffDeadline  = 10 * time.Second
	diffLinkDelay = 10 * time.Millisecond // every link, in both shells
)

// runSimScenario pushes one packet through the DES shell under the
// schedule and returns the per-node decisions plus the delivered count.
func runSimScenario(t *testing.T, rules []diffDropRule) (map[int][]decision, int) {
	t.Helper()
	g := topology.NewGraph(diffNodes)
	for _, l := range diffLinks {
		if err := g.AddLink(l[0], l[1], diffLinkDelay); err != nil {
			t.Fatal(err)
		}
	}
	sim := des.New(1)
	net, err := netsim.New(sim, g, netsim.Config{
		FailureEpoch:    time.Second,
		MonitorInterval: 5 * time.Minute,
	}, 42)
	if err != nil {
		t.Fatal(err)
	}
	w, err := pubsub.NewStatic(g, pubsub.DefaultConfig(), []pubsub.Topic{
		{Publisher: 0, Subscribers: []pubsub.Subscription{{Node: diffSub, Deadline: diffDeadline}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	col := metrics.NewCollector()
	buf := &trace.Buffer{}
	r, err := core.NewRouter(net, w, col, core.RouterOptions{M: 2, Tracer: buf})
	if err != nil {
		t.Fatal(err)
	}
	sched := newDiffSchedule(rules)
	net.SetDropFilter(func(f netsim.Frame) bool {
		kind := "data"
		if f.Kind == netsim.Control {
			kind = "ack"
		}
		return sched.drop(f.From, f.To, kind)
	})
	pkt := pubsub.Packet{ID: 1, Topic: 0, Source: 0, PublishedAt: 0}
	col.Publish(&pkt, w.Topic(0).Subscribers)
	r.Publish(pkt)
	sim.Run()

	delivered := 0
	for _, e := range buf.Events() {
		if e.Kind == trace.Deliver {
			delivered++
		}
	}
	return normalize(buf.Events()), delivered
}

// lockedTrace is a concurrency-safe trace.Recorder: live engine events are
// recorded under each broker's own mutex, but the test reads snapshots
// concurrently.
type lockedTrace struct {
	mu     sync.Mutex
	events []trace.Event
}

func (l *lockedTrace) Record(e trace.Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(e.Dests) > 0 {
		e.Dests = append([]int(nil), e.Dests...)
	}
	l.events = append(l.events, e)
}

func (l *lockedTrace) snapshot() []trace.Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]trace.Event(nil), l.events...)
}

// proxyPump forwards one direction of a proxied overlay link, dropping DATA
// and ACK entries per the schedule. The schedule counts per packet copy and
// per ACK, as the simulator's links do, so batches are filtered entry by
// entry and a batch left empty is not forwarded. Control-plane traffic (link
// state, probes) always passes. Every frame is released diffLinkDelay after
// it was read — a delay line, not a per-frame sleep in series, so a burst of
// floods does not queue a probe behind it. The live links then have the
// simulator's equal link delays, and the alphas measured from them order
// the sending lists by hop count as the simulator's do; on bare pipes a
// link's first round trip is a scheduling accident.
func proxyPump(src, dst net.Conn, from, to int, sched *diffSchedule) {
	type held struct {
		due   time.Time
		frame []byte
	}
	line := make(chan held, 1024) // far more frames than a scenario puts on one link within a delay
	go func() {
		defer close(line)
		rd := newConnReader(src)
		for {
			msg, err := rd.Next()
			if err != nil {
				return
			}
			switch m := msg.(type) {
			case *wire.DataBatch:
				m.Frames = slices.DeleteFunc(m.Frames, func(wire.Data) bool { return sched.drop(from, to, "data") })
				if len(m.Frames) == 0 {
					continue
				}
			case *wire.AckBatch:
				m.FrameIDs = slices.DeleteFunc(m.FrameIDs, func(uint64) bool { return sched.drop(from, to, "ack") })
				if len(m.FrameIDs) == 0 {
					continue
				}
			}
			// Re-encoded now: rd recycles msg on the next frame.
			line <- held{time.Now().Add(diffLinkDelay), wire.AppendFrame(nil, msg)}
		}
	}()
	var err error
	for h := range line {
		time.Sleep(time.Until(h.due))
		if err == nil { // after a write error, drain so the reader can exit
			_, err = dst.Write(h.frame)
		}
	}
}

// waitListsConverge polls until every broker's published sending list for
// (topic, sub) matches the structurally expected Theorem-1 order and every
// broker's link-state database holds every directed link, so the live
// overlay starts each scenario from the same routing state the simulator
// computes, with no first-sample flood still on its way to kick a control
// step mid-scenario.
func waitListsConverge(t *testing.T, brokers []*Broker, topic int32, want map[int][]int) {
	t.Helper()
	converged := func() bool {
		for _, bk := range brokers {
			if len(bk.ctrl.db.linkStats()) != 2*len(diffLinks) {
				return false
			}
		}
		for id, exp := range want {
			if !slices.Equal(ctrlList(brokers[id], topic, diffSub), exp) {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(15 * time.Second)
	for !converged() {
		if time.Now().After(deadline) {
			for id := range want {
				t.Logf("broker %d list: %v (want %v)", id, ctrlList(brokers[id], topic, diffSub), want[id])
			}
			t.Fatal("live routing never converged to the expected sending lists")
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// runLiveScenario pushes one packet through a proxied net.Pipe overlay
// under the same schedule and returns per-node decisions plus the
// subscriber's delivered count. shards picks each broker's engine-shard
// count — the decision sequences must not depend on it.
func runLiveScenario(t *testing.T, rules []diffDropRule, wantDelivered bool, minEvents map[int][]decision, shards int) (map[int][]decision, int) {
	t.Helper()
	sched := newDiffSchedule(rules)

	listeners := make([]net.Listener, diffNodes)
	addrs := make([]string, diffNodes)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	neighbors := make([]map[int]string, diffNodes)
	for i := range neighbors {
		neighbors[i] = make(map[int]string)
	}
	for _, l := range diffLinks {
		neighbors[l[0]][l[1]] = addrs[l[1]]
		neighbors[l[1]][l[0]] = addrs[l[0]]
	}
	tracers := make([]*lockedTrace, diffNodes)
	brokers := make([]*Broker, diffNodes)
	for i := 0; i < diffNodes; i++ {
		tracers[i] = &lockedTrace{}
		bk, err := New(Config{
			ID:        i,
			Listen:    addrs[i],
			Neighbors: neighbors[i],
			M:         2,
			AckGuard:  25 * time.Millisecond,
			// The simulator's tables are frozen for the whole scenario
			// (MonitorInterval 5 min), so the live ones must be too: a
			// scripted drop halves gamma, and a control tick would re-flood
			// it and re-sort the lists mid-scenario. With the tick out of
			// reach, only kicks run the control loop — attach, first alpha
			// samples and gossip that changed a database — and those settle
			// once every link is measured.
			LinkStateInterval: 10 * time.Minute,
			DialRetry:         50 * time.Millisecond,
			DefaultDeadline:   diffDeadline,
			Shards:            shards,
			Tracer:            tracers[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		brokers[i] = bk
	}
	// Every overlay link runs through a wire-parsing proxy: broker u and
	// broker v each hold one end of their own pipe, and two pump
	// goroutines forward frames between the proxy ends, consulting the
	// drop schedule. Attach before StartListener so the dial loops see the
	// links already up and never touch TCP.
	var proxyConns []net.Conn
	for _, l := range diffLinks {
		u, v := l[0], l[1]
		endU, proxyU := net.Pipe()
		endV, proxyV := net.Pipe()
		proxyConns = append(proxyConns, proxyU, proxyV)
		ncU := brokers[u].neighbor(v)
		ncU.attach(brokers[u], endU)
		ncV := brokers[v].neighbor(u)
		ncV.attach(brokers[v], endV)
		u0, v0 := u, v
		brokers[u].goTracked(func() { brokers[u0].readNeighbor(ncU, endU, newConnReader(endU)) })
		brokers[v].goTracked(func() { brokers[v0].readNeighbor(ncV, endV, newConnReader(endV)) })
		go proxyPump(proxyU, proxyV, u0, v0, sched)
		go proxyPump(proxyV, proxyU, v0, u0, sched)
	}
	for i, bk := range brokers {
		if err := bk.StartListener(listeners[i]); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, bk := range brokers {
			_ = bk.Close()
		}
		for _, c := range proxyConns {
			_ = c.Close()
		}
	})

	sub, err := Dial(addrs[diffSub], "diff-sub")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sub.Close() })
	if err := sub.Subscribe(1, diffDeadline); err != nil {
		t.Fatal(err)
	}
	// The same structural sending lists the simulator's Algorithm 1
	// produces for this topology (uniform link delays): primary route
	// first, backup second, path-blocked entries filtered at use time.
	waitListsConverge(t, brokers, 1, map[int][]int{
		0: {1, 2},
		1: {3, 0},
		2: {4, 0},
		4: {3, 2},
	})

	pub, err := Dial(addrs[0], "diff-pub")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pub.Close() })
	if err := pub.Publish(1, diffDeadline, []byte("payload")); err != nil {
		t.Fatal(err)
	}

	// Wait until every node has produced at least as many decisions as the
	// simulator did, then let things settle and take the final snapshot
	// (any extra events become a comparison failure).
	deadline := time.Now().Add(15 * time.Second)
	for {
		done := true
		for node, want := range minEvents {
			got := normalize(tracers[node].snapshot())
			if len(got[node]) < len(want) {
				done = false
				break
			}
		}
		if done || time.Now().After(deadline) {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)

	delivered := 0
	if wantDelivered {
		select {
		case <-sub.Receive():
			delivered = 1
		case <-time.After(10 * time.Second):
		}
	}

	merged := make(map[int][]decision)
	for node, tr := range tracers {
		for n, ds := range normalize(tr.snapshot()) {
			if n != node {
				t.Errorf("broker %d recorded an event for node %d", node, n)
			}
			merged[n] = append(merged[n], ds...)
		}
	}
	return merged, delivered
}

// diffScenarios is the shared scenario matrix: the clean path,
// m-retransmission failover at the origin, list exhaustion with upstream
// reroute, total origin exhaustion (drop), and a lost ACK (retransmission
// absorbed by frame dedup). TestDifferentialSimVsLive runs it against a
// 1-shard broker, TestShardedDifferential (sharded_test.go) against 4
// shards.
var diffScenarios = []struct {
	name      string
	rules     []diffDropRule
	delivered bool
}{
	{
		name:      "clean_path",
		rules:     nil,
		delivered: true,
	},
	{
		name:      "origin_failover",
		rules:     []diffDropRule{{from: 0, to: 1, kind: "data"}},
		delivered: true,
	},
	{
		name:      "exhaustion_upstream_reroute",
		rules:     []diffDropRule{{from: 1, to: 3, kind: "data"}},
		delivered: true,
	},
	{
		name: "origin_exhausted_drop",
		rules: []diffDropRule{
			{from: 0, to: 1, kind: "data"},
			{from: 0, to: 2, kind: "data"},
		},
		delivered: false,
	},
	{
		name:      "lost_ack_retransmit_dedup",
		rules:     []diffDropRule{{from: 1, to: 0, kind: "ack", nth: map[int]bool{1: true}}},
		delivered: true,
	},
}

// TestDifferentialSimVsLive is the tentpole's fidelity harness: identical
// scripted loss through both shells must yield identical per-node decision
// sequences and identical delivery outcomes. Scenarios cover the clean
// path, m-retransmission failover at the origin, list exhaustion with
// upstream reroute, total origin exhaustion (drop), and a lost ACK
// (retransmission absorbed by frame dedup).
func TestDifferentialSimVsLive(t *testing.T) {
	if testing.Short() {
		t.Skip("live overlay convergence is wall-clock bound")
	}
	for _, sc := range diffScenarios {
		t.Run(sc.name, func(t *testing.T) {
			simDecisions, simDelivered := runSimScenario(t, sc.rules)
			if (simDelivered > 0) != sc.delivered {
				t.Fatalf("sim delivered %d, scenario expects delivered=%v", simDelivered, sc.delivered)
			}
			liveDecisions, liveDelivered := runLiveScenario(t, sc.rules, sc.delivered, simDecisions, 1)
			if (liveDelivered > 0) != (simDelivered > 0) {
				t.Errorf("delivery sets differ: sim=%d live=%d", simDelivered, liveDelivered)
			}
			for node := 0; node < diffNodes; node++ {
				simSeq, liveSeq := simDecisions[node], liveDecisions[node]
				if len(simSeq) != len(liveSeq) {
					t.Errorf("node %d: %d decisions in sim, %d live\nsim:  %v\nlive: %v",
						node, len(simSeq), len(liveSeq), simSeq, liveSeq)
					continue
				}
				for i := range simSeq {
					if simSeq[i] != liveSeq[i] {
						t.Errorf("node %d decision %d differs:\nsim:  %v\nlive: %v",
							node, i, simSeq[i], liveSeq[i])
					}
				}
			}
		})
	}
}
