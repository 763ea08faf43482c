package core

import (
	"slices"
	"testing"
	"time"

	"repro/internal/algo2"
	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/pubsub"
	"repro/internal/topology"
)

// testEnv bundles one simulated DCRD deployment.
type testEnv struct {
	sim *des.Simulator
	net *netsim.Network
	w   *pubsub.Workload
	col *metrics.Collector
	r   *Router
}

// newEnv wires a Router over g with one topic (publisher pub, subscribers
// subs) and the given network conditions.
func newEnv(t *testing.T, g *topology.Graph, cfg netsim.Config, pub int, subs []int, opts RouterOptions) *testEnv {
	t.Helper()
	sim := des.New(1)
	net, err := netsim.New(sim, g, cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	var subscriptions []pubsub.Subscription
	for _, s := range subs {
		subscriptions = append(subscriptions, pubsub.Subscription{Node: s})
	}
	w, err := pubsub.NewStatic(g, pubsub.DefaultConfig(), []pubsub.Topic{
		{Publisher: pub, Subscribers: subscriptions},
	})
	if err != nil {
		t.Fatal(err)
	}
	col := metrics.NewCollector()
	r, err := NewRouter(net, w, col, opts)
	if err != nil {
		t.Fatal(err)
	}
	return &testEnv{sim: sim, net: net, w: w, col: col, r: r}
}

// publish publishes one packet on topic 0 and registers it with the collector.
func (e *testEnv) publish(id uint64) pubsub.Packet {
	pkt := pubsub.Packet{
		ID:          id,
		Topic:       0,
		Source:      e.w.Topic(0).Publisher,
		PublishedAt: e.sim.Now(),
	}
	e.col.Publish(&pkt, e.w.Topic(0).Subscribers)
	e.r.Publish(pkt)
	return pkt
}

func (e *testEnv) result() metrics.Result {
	return e.col.Result(e.net.Stats().DataTransmissions)
}

func cleanConfig() netsim.Config {
	return netsim.Config{FailureEpoch: time.Second, MonitorInterval: 5 * time.Minute}
}

func TestRouterDeliversOnLine(t *testing.T) {
	g := lineGraph(t, 10*time.Millisecond, 20*time.Millisecond)
	env := newEnv(t, g, cleanConfig(), 0, []int{2}, RouterOptions{})
	env.publish(1)
	env.sim.Run()
	res := env.result()
	if res.Delivered != 1 || res.OnTime != 1 {
		t.Fatalf("result = %+v, want 1 delivered on time", res)
	}
	if len(res.Latencies) != 1 || res.Latencies[0] != 30*time.Millisecond {
		t.Errorf("latency = %v, want 30ms (pure propagation)", res.Latencies)
	}
	// Two data hops (0->1, 1->2) and two ACKs.
	st := env.net.Stats()
	if st.DataTransmissions != 2 {
		t.Errorf("data transmissions = %d, want 2", st.DataTransmissions)
	}
	if st.ControlTransmissions != 2 {
		t.Errorf("control transmissions = %d, want 2", st.ControlTransmissions)
	}
}

func TestRouterGroupsSharedNextHop(t *testing.T) {
	// Star: 0-1, 1-2, 1-3. One packet to subscribers {2,3} must cross 0->1
	// once, then fan out: 3 data frames total, not 4.
	g := topology.NewGraph(4)
	for _, l := range []struct {
		u, v int
		d    time.Duration
	}{{0, 1, 10 * time.Millisecond}, {1, 2, 10 * time.Millisecond}, {1, 3, 10 * time.Millisecond}} {
		if err := g.AddLink(l.u, l.v, l.d); err != nil {
			t.Fatal(err)
		}
	}
	env := newEnv(t, g, cleanConfig(), 0, []int{2, 3}, RouterOptions{})
	env.publish(1)
	env.sim.Run()
	res := env.result()
	if res.Delivered != 2 || res.OnTime != 2 {
		t.Fatalf("result = %+v, want both delivered on time", res)
	}
	if st := env.net.Stats(); st.DataTransmissions != 3 {
		t.Errorf("data transmissions = %d, want 3 (grouped first hop)", st.DataTransmissions)
	}
}

func TestRouterFailsOverToSecondNeighbor(t *testing.T) {
	// Diamond: 0-1-3 is fastest, 0-2-3 is backup. Kill link 0-1; DCRD must
	// time out once on neighbor 1 and deliver via 2.
	g := topology.NewGraph(4)
	for _, l := range []struct {
		u, v int
		d    time.Duration
	}{
		{0, 1, 10 * time.Millisecond}, {1, 3, 10 * time.Millisecond},
		{0, 2, 20 * time.Millisecond}, {2, 3, 20 * time.Millisecond},
	} {
		if err := g.AddLink(l.u, l.v, l.d); err != nil {
			t.Fatal(err)
		}
	}
	env := newEnv(t, g, cleanConfig(), 0, []int{3}, RouterOptions{})
	if err := env.net.ForceDown(0, 1); err != nil {
		t.Fatal(err)
	}
	env.publish(1)
	env.sim.Run()
	res := env.result()
	if res.Delivered != 1 {
		t.Fatalf("packet not delivered around the failed link: %+v", res)
	}
	// Latency = ACK timeout on 0->1 (2*10ms + guard) + 40ms detour.
	wantMin := 40 * time.Millisecond
	if res.Latencies[0] <= wantMin {
		t.Errorf("latency %v too small to have included a failover", res.Latencies[0])
	}
}

func TestRouterRetransmitsWithinM(t *testing.T) {
	// m=2: the first transmission is lost (forced-down link restored right
	// after), the retransmission succeeds on the same neighbor.
	g := lineGraph(t, 10*time.Millisecond)
	env := newEnv(t, g, cleanConfig(), 0, []int{1}, RouterOptions{M: 2})
	if err := env.net.ForceDown(0, 1); err != nil {
		t.Fatal(err)
	}
	// Restore after the first transmission left (at t=0) but before the
	// retransmission (at ~21ms).
	env.sim.At(5*time.Millisecond, func() {
		if err := env.net.Restore(0, 1); err != nil {
			t.Fatal(err)
		}
	})
	env.publish(1)
	env.sim.Run()
	res := env.result()
	if res.Delivered != 1 {
		t.Fatalf("retransmission did not deliver: %+v", res)
	}
	if st := env.net.Stats(); st.DataTransmissions != 2 {
		t.Errorf("data transmissions = %d, want 2 (original + retransmit)", st.DataTransmissions)
	}
}

func TestRouterReroutesViaUpstream(t *testing.T) {
	// 0-1-2 is the cheap route; 0-4-2 the expensive one. Kill 1-2: node 1
	// exhausts its list (only 0 and 2 are neighbors; 0 is on the path) and
	// must bounce the packet back to 0, which delivers via 4.
	g := topology.NewGraph(5)
	for _, l := range []struct {
		u, v int
		d    time.Duration
	}{
		{0, 1, 10 * time.Millisecond}, {1, 2, 10 * time.Millisecond},
		{0, 4, 30 * time.Millisecond}, {4, 2, 30 * time.Millisecond},
	} {
		if err := g.AddLink(l.u, l.v, l.d); err != nil {
			t.Fatal(err)
		}
	}
	env := newEnv(t, g, cleanConfig(), 0, []int{2}, RouterOptions{})
	if err := env.net.ForceDown(1, 2); err != nil {
		t.Fatal(err)
	}
	env.publish(1)
	env.sim.Run()
	res := env.result()
	if res.Delivered != 1 {
		t.Fatalf("upstream reroute failed to deliver: %+v", res)
	}
	// The packet must have visited node 1 and come back: more than the
	// 4 data transmissions of the direct detour.
	if st := env.net.Stats(); st.DataTransmissions < 4 {
		t.Errorf("data transmissions = %d, expected at least 4 (0->1, 1->?, 1->0, 0->4, 4->2)",
			st.DataTransmissions)
	}
}

func TestRouterDropsWhenPartitioned(t *testing.T) {
	// Single link to the subscriber, permanently down: the publisher
	// exhausts its list and gives up; the run must terminate.
	g := lineGraph(t, 10*time.Millisecond)
	env := newEnv(t, g, cleanConfig(), 0, []int{1}, RouterOptions{M: 2, MaxLifetime: 2 * time.Second})
	if err := env.net.ForceDown(0, 1); err != nil {
		t.Fatal(err)
	}
	env.publish(1)
	env.sim.Run()
	res := env.result()
	if res.Delivered != 0 {
		t.Fatalf("delivered across a dead link: %+v", res)
	}
	if res.Drops == 0 {
		t.Error("expected an explicit drop record")
	}
}

func TestRouterDuplicateFrameIgnored(t *testing.T) {
	// Lost ACKs cause retransmissions of already-received frames; the
	// receiver must re-ACK but not re-forward. Simulate by publishing the
	// same frame path: set loss to 100% for control frames is not possible
	// directly, so approximate by checking the seen-set behavior through a
	// clean double publish of distinct packets instead, then assert dedup
	// on the collector side via identical IDs.
	g := lineGraph(t, 10*time.Millisecond)
	env := newEnv(t, g, cleanConfig(), 0, []int{1}, RouterOptions{})
	pkt := env.publish(7)
	env.sim.Run()
	// Re-inject the very same packet (same ID): collector must not double
	// count, and the run must stay finite.
	env.r.Publish(pkt)
	env.sim.Run()
	res := env.result()
	if res.Delivered != 1 {
		t.Fatalf("duplicate packet inflated deliveries: %+v", res)
	}
}

func TestRouterMeshDeliversEverythingUnderFailures(t *testing.T) {
	rng := des.New(3).Rand()
	g, err := topology.FullMesh(10, topology.DefaultDelayRange(), rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := netsim.Config{
		LossRate:        1e-4,
		FailureProb:     0.1,
		FailureEpoch:    time.Second,
		MonitorInterval: 5 * time.Minute,
	}
	env := newEnv(t, g, cfg, 0, []int{3, 5, 7, 9}, RouterOptions{})
	const packets = 200
	for i := 0; i < packets; i++ {
		at := time.Duration(i) * 100 * time.Millisecond
		id := uint64(i + 1)
		env.sim.At(at, func() { env.publish(id) })
	}
	env.sim.Run()
	res := env.result()
	if ratio := res.DeliveryRatio(); ratio < 0.99 {
		t.Errorf("delivery ratio %v under Pf=0.1 on a mesh, want >= 0.99", ratio)
	}
	// The paper reports ~96.7% QoS delivery on a mesh at Pf=0.1 (Fig. 2b).
	if qos := res.QoSDeliveryRatio(); qos < 0.9 {
		t.Errorf("QoS ratio %v, want >= 0.9", qos)
	}
}

func TestRouterDeterministicAcrossRuns(t *testing.T) {
	run := func() metrics.Result {
		rng := des.New(11).Rand()
		g, err := topology.FullMesh(8, topology.DefaultDelayRange(), rng)
		if err != nil {
			t.Fatal(err)
		}
		cfg := netsim.Config{
			LossRate:        0.01,
			FailureProb:     0.1,
			FailureEpoch:    time.Second,
			MonitorInterval: 5 * time.Minute,
		}
		env := newEnv(t, g, cfg, 0, []int{2, 4, 6}, RouterOptions{})
		for i := 0; i < 50; i++ {
			at := time.Duration(i) * 50 * time.Millisecond
			id := uint64(i + 1)
			env.sim.At(at, func() { env.publish(id) })
		}
		env.sim.Run()
		return env.result()
	}
	a, b := run(), run()
	if a.Delivered != b.Delivered || a.OnTime != b.OnTime ||
		a.DataTransmissions != b.DataTransmissions {
		t.Errorf("identical seeds diverged: %+v vs %+v", a, b)
	}
}

func TestRouterOptionsDefaults(t *testing.T) {
	o := RouterOptions{}.withDefaults()
	if o.M != 1 || o.AckGuard != time.Millisecond || o.MaxLifetime != 30*time.Second {
		t.Errorf("defaults = %+v", o)
	}
	o = RouterOptions{M: 3}.withDefaults()
	if o.Build.M != 3 {
		t.Errorf("Build.M should inherit M, got %d", o.Build.M)
	}
}

// TestNetworkCopyOutlivesFlight pins the frame-ownership rule of the
// simulator shell: a frame on the network belongs to its network copy, not
// to the engine pool. On a 10 frames/s link the fifth and sixth of six
// back-to-back packets queue past their ACK wait (alpha plus four slots), so
// the origin times out, drops them and recycles their frames into two later
// publishes — all before the queued frames arrive. Each arrival must still
// carry the packet, destinations and path it was sent with.
func TestNetworkCopyOutlivesFlight(t *testing.T) {
	cfg := cleanConfig()
	cfg.LinkBandwidth = 10
	env := newEnv(t, lineGraph(t, 10*time.Millisecond), cfg, 0, []int{1}, RouterOptions{})
	type sent struct {
		pkt         uint64
		dests, path []int
	}
	onWire := map[uint64]sent{}
	env.net.SetDropFilter(func(f netsim.Frame) bool {
		if p, ok := f.Payload.(*algo2.Frame); ok {
			onWire[f.ID] = sent{p.Pkt.ID, slices.Clone(p.Dests), slices.Clone(p.Path)}
		}
		return false
	})
	receive, late := env.r.shells[1].handleFrame, 0
	env.net.SetHandler(1, func(f netsim.Frame) {
		if p, ok := f.Payload.(*algo2.Frame); ok {
			if _, _, live := env.r.shells[0].eng.InflightDests(f.ID); !live {
				late++
			}
			want := onWire[f.ID]
			if p.Pkt.ID != want.pkt || !slices.Equal(p.Dests, want.dests) || !slices.Equal(p.Path, want.path) {
				t.Errorf("frame %d arrived as packet %d dests %v path %v, sent as packet %d dests %v path %v",
					f.ID, p.Pkt.ID, p.Dests, p.Path, want.pkt, want.dests, want.path)
			}
		}
		receive(f)
	})
	for id := uint64(1); id <= 6; id++ {
		env.publish(id)
	}
	env.sim.At(450*time.Millisecond, func() {
		env.publish(7)
		env.publish(8)
	})
	env.sim.Run()
	if late != 2 {
		t.Fatalf("%d frames arrived after their flight resolved, want 2 (the scenario no longer exercises reuse)", late)
	}
}
