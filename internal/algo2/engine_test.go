package algo2

import (
	"testing"
	"time"
)

func TestUpstreamOf(t *testing.T) {
	tests := []struct {
		name string
		node int
		path []int
		want int
	}{
		{name: "empty path", node: 5, path: nil, want: -1},
		{name: "fresh arrival", node: 5, path: []int{0, 1}, want: 1},
		{name: "returned copy", node: 1, path: []int{0, 1, 2}, want: 0},
		{name: "origin", node: 0, path: []int{0, 1, 2}, want: -1},
		{name: "duplicate self entries", node: 1, path: []int{0, 1, 2, 1, 3}, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := UpstreamOf(tt.node, tt.path); got != tt.want {
				t.Errorf("UpstreamOf(%d, %v) = %d, want %d", tt.node, tt.path, got, tt.want)
			}
		})
	}
}

// testTimer is the allocation-free fake timer handle: testDeps recycles
// cancelled handles through a free list, so steady state needs no new ones.
type testTimer struct {
	when    time.Duration
	fn      func(any)
	arg     any
	stopped bool
}

// testDeps is a minimal, allocation-free Deps implementation: fixed sending
// lists, recycled timer handles, counters instead of recorded events.
type testDeps struct {
	now       time.Duration
	frameSeq  uint64
	lastFrame uint64
	lastTo    int
	list      []int
	free      []*testTimer

	sends    int
	delivers int
	drops    int
}

func (d *testDeps) Now() time.Duration { return d.now }

func (d *testDeps) AfterFunc(dur time.Duration, fn func(any), arg any) *testTimer {
	var tm *testTimer
	if n := len(d.free); n > 0 {
		tm = d.free[n-1]
		d.free[n-1] = nil
		d.free = d.free[:n-1]
	} else {
		tm = &testTimer{}
	}
	tm.when = d.now + dur
	tm.fn = fn
	tm.arg = arg
	tm.stopped = false
	return tm
}

func (d *testDeps) CancelTimer(tm *testTimer) {
	tm.stopped = true
	tm.fn = nil
	tm.arg = nil
	d.free = append(d.free, tm)
}

func (d *testDeps) NextFrameID() uint64 {
	d.frameSeq++
	return d.frameSeq
}

func (d *testDeps) AckWait(int) (time.Duration, bool) { return time.Millisecond, true }

func (d *testDeps) Send(f *Frame) {
	d.sends++
	d.lastFrame = f.ID
	d.lastTo = f.To
}

func (d *testDeps) SendingList(int32, int) []int { return d.list }

func (d *testDeps) LinkUp(int) bool { return true }

func (d *testDeps) Deliver(*Packet, int) { d.delivers++ }

func (d *testDeps) Drop(_ *Packet, dests []int, _ DropReason) { d.drops += len(dests) }

func (d *testDeps) AckTimedOut(int) {}

func (d *testDeps) NextRetryAt(now time.Duration) time.Duration { return now + time.Millisecond }

// TestEngineZeroAllocSteadyState locks in the tentpole's allocation
// guarantee (mirroring wire's TestReaderZeroAllocSteadyState): once pools
// are warm, a full per-copy routing cycle — publish (or receive) → group →
// transmit → ACK resolve — touches no allocator. This is the property that
// lets the live broker shed its per-packet map allocations.
func TestEngineZeroAllocSteadyState(t *testing.T) {
	deps := &testDeps{list: []int{2, 3}}
	pools := NewPools[*testTimer](8)
	eng := NewEngine[*testTimer](Config{
		NodeID:      1,
		M:           2,
		AckGuard:    time.Millisecond,
		MaxLifetime: time.Millisecond,
	}, deps, pools)

	var pktSeq, frameSeq uint64
	pubDests := []int{2, 3}
	publishCycle := func() {
		deps.now += 3 * time.Millisecond // past the dedup horizon: seen stays tiny
		pktSeq++
		eng.Publish(Packet{ID: pktSeq, Topic: 7, Source: 1, PublishedAt: deps.now}, pubDests)
		if _, ok := eng.HandleAck(deps.lastFrame); !ok {
			t.Fatal("ACK did not resolve the published group")
		}
	}
	dests := []int{3}
	path := []int{0}
	receiveCycle := func() {
		deps.now += 3 * time.Millisecond
		pktSeq++
		frameSeq++
		eng.HandleData(Inbound{
			FrameID: 1<<40 | frameSeq, // distinct from outbound IDs
			From:    0,
			Pkt:     Packet{ID: pktSeq, Topic: 7, Source: 0, PublishedAt: deps.now},
			Dests:   dests,
			Path:    path,
		})
		if _, ok := eng.HandleAck(deps.lastFrame); !ok {
			t.Fatal("ACK did not resolve the forwarded group")
		}
	}

	// Warm the pools, the engine scratch and the dedup ring.
	for i := 0; i < 200; i++ {
		publishCycle()
		receiveCycle()
	}
	if w, f, fr := pools.Live(); w != 0 || f != 0 || fr != 0 {
		t.Fatalf("pool leak after warmup: works=%d flights=%d frames=%d", w, f, fr)
	}

	if allocs := testing.AllocsPerRun(100, publishCycle); allocs != 0 {
		t.Errorf("publish→ACK cycle allocates %.1f times per op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, receiveCycle); allocs != 0 {
		t.Errorf("receive→forward→ACK cycle allocates %.1f times per op, want 0", allocs)
	}
	if deps.sends == 0 || deps.drops != 0 {
		t.Fatalf("unexpected op mix: sends=%d drops=%d", deps.sends, deps.drops)
	}
}

// TestEngineFailover drives the m-transmissions-then-failover path and the
// upstream reroute directly against fake deps: neighbor 2 never ACKs, so
// after M attempts the copy fails over to neighbor 3; when 3 also dies the
// non-origin copy bounces to its upstream.
func TestEngineFailover(t *testing.T) {
	deps := &testDeps{list: []int{2, 3}}
	pools := NewPools[*testTimer](8)
	eng := NewEngine[*testTimer](Config{NodeID: 1, M: 2, MaxLifetime: time.Hour}, deps, pools)

	var timers []*testTimer
	fire := func() {
		if len(timers) == 0 {
			t.Fatal("no armed timer")
		}
		tm := timers[len(timers)-1]
		timers = timers[:len(timers)-1]
		if !tm.stopped {
			tm.fn(tm.arg)
		}
	}
	// Wrap AfterFunc results by re-reading deps state: testDeps does not
	// retain armed timers, so intercept via a thin shim.
	shim := &armingDeps{testDeps: deps, armed: &timers}
	eng = NewEngine[*testTimer](Config{NodeID: 1, M: 2, MaxLifetime: time.Hour}, shim, pools)

	eng.HandleData(Inbound{
		FrameID: 99,
		From:    0,
		Pkt:     Packet{ID: 1, Topic: 7, Source: 0},
		Dests:   []int{4},
		Path:    []int{0},
	})
	if deps.sends != 1 || deps.lastTo != 2 {
		t.Fatalf("first transmission: sends=%d to=%d, want 1 to 2", deps.sends, deps.lastTo)
	}
	fire() // attempt 2 to neighbor 2 (m=2)
	if deps.sends != 2 || deps.lastTo != 2 {
		t.Fatalf("retransmission: sends=%d to=%d, want 2 to 2", deps.sends, deps.lastTo)
	}
	fire() // neighbor 2 exhausted → failover to 3
	if deps.sends != 3 || deps.lastTo != 3 {
		t.Fatalf("failover: sends=%d to=%d, want 3 to 3", deps.sends, deps.lastTo)
	}
	fire()
	fire() // neighbor 3 exhausted → list exhausted → reroute upstream (0)
	if deps.sends != 5 || deps.lastTo != 0 {
		t.Fatalf("upstream reroute: sends=%d to=%d, want 5 to 0", deps.sends, deps.lastTo)
	}
	// The upstream copy retries without an m bound; resolve it with an ACK.
	if to, ok := eng.HandleAck(deps.lastFrame); !ok || to != 0 {
		t.Fatalf("upstream ACK: to=%d ok=%v", to, ok)
	}
	if w, f, fr := pools.Live(); w != 0 || f != 0 || fr != 0 {
		t.Fatalf("pool leak: works=%d flights=%d frames=%d", w, f, fr)
	}
	if eng.InflightCount() != 0 {
		t.Fatalf("inflight leak: %d", eng.InflightCount())
	}
}

// armingDeps records armed timers so tests can fire them by hand.
type armingDeps struct {
	*testDeps
	armed *[]*testTimer
}

func (d *armingDeps) AfterFunc(dur time.Duration, fn func(any), arg any) *testTimer {
	tm := d.testDeps.AfterFunc(dur, fn, arg)
	*d.armed = append(*d.armed, tm)
	return tm
}

// TestPayloadReferences pins the engine's one rule for a reference-counted
// payload: every work that carries the packet holds one reference — taken
// by Publish, by HandleData for a fresh frame, and by the §III persistency
// copy — a duplicate frame takes none, and the last one goes when the work
// is recycled. The caller's own reference (the 1 the payload starts with)
// is never touched.
func TestPayloadReferences(t *testing.T) {
	var timers []*testTimer
	deps := &testDeps{list: []int{2}}
	shim := &armingDeps{testDeps: deps, armed: &timers}
	pools := NewPools[*testTimer](8)
	eng := NewEngine[*testTimer](Config{NodeID: 1, M: 1, MaxLifetime: time.Hour, Persistent: true}, shim, pools)
	want := func(p *countPayload, n int, when string) {
		t.Helper()
		if p.refs != n {
			t.Fatalf("%s: %d references, want %d", when, p.refs, n)
		}
	}

	pub := &countPayload{refs: 1}
	eng.Publish(Packet{ID: 1, Topic: 7, Source: 1, Payload: pub}, []int{3})
	want(pub, 2, "published, flight awaiting its ACK")
	eng.HandleAck(deps.lastFrame)
	want(pub, 1, "publish ACKed")

	in := Inbound{
		FrameID: 1<<40 | 1, From: 0,
		Pkt:   Packet{ID: 2, Topic: 7, Source: 0, Payload: &countPayload{refs: 1}},
		Dests: []int{3}, Path: []int{0},
	}
	rcv := in.Pkt.Payload.(*countPayload)
	eng.HandleData(in)
	want(rcv, 2, "fresh frame forwarded")
	eng.HandleData(in)
	want(rcv, 2, "duplicate frame")
	eng.HandleAck(deps.lastFrame)
	want(rcv, 1, "forwarded frame ACKed")
	eng.HandleData(in)
	want(rcv, 1, "duplicate frame after the ACK")

	// The only neighbor times out at the origin: the publish's work is
	// recycled and the persistency copy holds the packet until its retry.
	held := &countPayload{refs: 1}
	eng.Publish(Packet{ID: 3, Topic: 7, Source: 1, Payload: held}, []int{3})
	want(held, 2, "published, flight awaiting its ACK")
	ack := timers[len(timers)-1]
	ack.fn(ack.arg)
	want(held, 2, "held for a persistency retry")
	eng.Shutdown()
	want(held, 1, "Shutdown with the retry pending")
	if w, f, fr := pools.Live(); w != 0 || f != 0 || fr != 0 {
		t.Fatalf("pool leak: works=%d flights=%d frames=%d", w, f, fr)
	}
}

// reasonDeps records the reason of every Drop.
type reasonDeps struct {
	*armingDeps
	reasons []DropReason
}

func (d *reasonDeps) Drop(pkt *Packet, dests []int, reason DropReason) {
	d.testDeps.Drop(pkt, dests, reason)
	d.reasons = append(d.reasons, reason)
}

// TestNoRerouteDropsAtRelay pins Config.NoReroute: a relay whose one-entry
// sending list is exhausted drops the destination as DropExhausted and sends
// nothing to its upstream, while the zero value bounces the same copy
// upstream exactly as Algorithm 2 does.
func TestNoRerouteDropsAtRelay(t *testing.T) {
	for _, noReroute := range []bool{true, false} {
		var timers []*testTimer
		deps := &testDeps{list: []int{2}}
		shim := &reasonDeps{armingDeps: &armingDeps{testDeps: deps, armed: &timers}}
		pools := NewPools[*testTimer](8)
		eng := NewEngine[*testTimer](Config{NodeID: 1, M: 2, MaxLifetime: time.Hour, NoReroute: noReroute}, shim, pools)
		eng.HandleData(Inbound{
			FrameID: 99, From: 0,
			Pkt:   Packet{ID: 1, Topic: 7, Source: 0},
			Dests: []int{4}, Path: []int{0},
		})
		for range 2 { // m = 2 attempts to neighbor 2, neither ACKed
			tm := timers[len(timers)-1]
			timers = timers[:len(timers)-1]
			tm.fn(tm.arg)
		}
		if noReroute {
			if deps.sends != 2 || deps.lastTo != 2 {
				t.Fatalf("NoReroute: sends=%d last to=%d, want 2 to neighbor 2 and none upstream", deps.sends, deps.lastTo)
			}
			if len(shim.reasons) != 1 || shim.reasons[0] != DropExhausted || deps.drops != 1 {
				t.Fatalf("NoReroute: drops=%d reasons=%v, want one DropExhausted", deps.drops, shim.reasons)
			}
			if eng.InflightCount() != 0 {
				t.Fatalf("NoReroute: %d groups still in flight", eng.InflightCount())
			}
		} else {
			if deps.sends != 3 || deps.lastTo != 0 || deps.drops != 0 {
				t.Fatalf("reroute: sends=%d to=%d drops=%d, want a third send to upstream 0 and no drop",
					deps.sends, deps.lastTo, deps.drops)
			}
			eng.HandleAck(deps.lastFrame)
		}
		if w, f, fr := pools.Live(); w != 0 || f != 0 || fr != 0 {
			t.Fatalf("NoReroute=%v: pool leak: works=%d flights=%d frames=%d", noReroute, w, f, fr)
		}
	}
}
