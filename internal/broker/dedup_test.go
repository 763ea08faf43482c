package broker

import (
	"slices"
	"testing"
	"time"

	"repro/internal/algo2"
)

// TestShardDeliveryInsideHorizonDeduplicated: a shard delivers packet P,
// then 400,000 other packets (10 s of relay_clean's 40k pps, arriving within
// about a second of shard clock), then a failover copy of P. The copy is
// inside the horizon, so it is not delivered a second time.
func TestShardDeliveryInsideHorizonDeduplicated(t *testing.T) {
	const topic = int32(9)
	b, err := New(Config{ID: 0, Listen: "unused", Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })
	b.subsSnap.Store(&subsSnapshot{byTopic: map[int32]*topicLedger{topic: {subs: 1}}})
	s := newShard(b, 0, 1) // no goroutine runs it: the test is the shard goroutine
	defer s.drain()
	sh := shardShell{s}
	body := b.newPayload([]byte("p"))
	defer body.Release()

	delivered := 0 // deliveries queued for P
	deliver := func(pid uint64) {
		sh.Deliver(&algo2.Packet{ID: pid, Topic: topic, Payload: body}, 1)
		for i := range s.pendingDeliver {
			if s.pendingDeliver[i].pktID == 1<<48|1 {
				delivered++
			}
			s.pendingDeliver[i].payload.Release()
		}
		s.pendingDeliver = s.pendingDeliver[:0]
	}
	start := sh.Now()
	deliver(1<<48 | 1)
	for i := uint64(2); i <= 400_001; i++ {
		deliver(1<<48 | i)
	}
	t.Logf("400,000 deliveries took %v of shard clock", sh.Now()-start)
	deliver(1<<48 | 1) // the failover copy
	if delivered != 1 {
		t.Errorf("packet delivered %d times, want once", delivered)
	}
}

func TestGammaAdaptation(t *testing.T) {
	nc := newNeighborConn(1)
	_, g0 := nc.estimate()
	if g0 != initialGamma {
		t.Fatalf("initial gamma = %v", g0)
	}
	nc.ackTimedOut()
	_, g1 := nc.estimate()
	if g1 >= g0 {
		t.Errorf("gamma did not decay on timeout: %v -> %v", g0, g1)
	}
	for i := 0; i < 200; i++ {
		nc.ackTimedOut()
	}
	_, gFloor := nc.estimate()
	if gFloor < gammaFloor {
		t.Errorf("gamma fell through floor: %v", gFloor)
	}
	for i := 0; i < 500; i++ {
		nc.ackSucceeded()
	}
	_, gUp := nc.estimate()
	if gUp <= gFloor || gUp > 1 {
		t.Errorf("gamma did not recover: %v", gUp)
	}
}

// TestAlphaFromPong pins alpha's two sample sources, the PROBE echo (the
// broker-to-broker pong) and DATA→ACK: a link's first round trip replaces the
// unmeasured zero outright, and only later samples fold into the EWMA.
func TestAlphaFromPong(t *testing.T) {
	nc := newNeighborConn(1)
	if a, _ := nc.estimate(); a != 0 {
		t.Fatalf("unmeasured alpha = %v, want 0", a)
	}
	base := time.Now()
	nc.probeStart(7, base)
	if matched, _ := nc.probeReply(99, base.Add(time.Millisecond)); matched {
		t.Error("unknown probe token accepted")
	}
	if matched, first := nc.probeReply(7, base.Add(2*time.Millisecond)); !matched || !first {
		t.Fatalf("first echo: matched=%v first=%v, want true/true", matched, first)
	}
	if a, _ := nc.estimate(); a != time.Millisecond {
		t.Fatalf("alpha = %v after a 2ms round trip, want the sample itself (1ms)", a)
	}
	nc.noteDataSend(5, base)
	if first := nc.noteDataAck(5, base.Add(12*time.Millisecond)); first {
		t.Error("second sample reported as first")
	}
	// EWMA: 0.7·1ms + 0.3·6ms, to float rounding.
	if a, _ := nc.estimate(); a < 2499*time.Microsecond || a > 2501*time.Microsecond {
		t.Errorf("alpha = %v after a 12ms DATA→ACK round trip, want 2.5ms", a)
	}

	// On a link busy before it was ever probed, DATA→ACK is the first sample.
	nc = newNeighborConn(2)
	nc.noteDataSend(9, base)
	if first := nc.noteDataAck(9, base.Add(40*time.Millisecond)); !first {
		t.Error("first DATA→ACK sample not reported as first")
	}
	if a, _ := nc.estimate(); a != 20*time.Millisecond {
		t.Errorf("alpha = %v after a 40ms DATA→ACK round trip, want 20ms", a)
	}
}

// TestDataSendSweepOnlyWhenSomethingCanBeStale pins noteDataSend's bound:
// a full map of fresh samples is walked once, not on every later send, and
// a sample whose ACK never came is still evicted a second after it was
// taken. The walk has no effect of its own to observe, so the test plants
// an old entry behind the map's back and watches whether a send removes it.
func TestDataSendSweepOnlyWhenSomethingCanBeStale(t *testing.T) {
	nc := newNeighborConn(1)
	t0 := time.Now()
	for i := uint64(0); i < maxDataSamples; i++ {
		nc.noteDataSend(i, t0.Add(time.Duration(i)*time.Millisecond))
	}
	has := func(id uint64) bool {
		nc.mu.Lock()
		defer nc.mu.Unlock()
		_, ok := nc.dataSend[id]
		return ok
	}
	at := t0.Add(100 * time.Millisecond)
	nc.noteDataSend(1000, at) // full and all fresh: one walk, nothing evicted, not sampled
	if has(1000) || !nc.dataStaleAt.Equal(t0.Add(time.Second)) {
		t.Fatalf("full fresh map: sampled=%v staleAt=%v, want false and t0+1s", has(1000), nc.dataStaleAt.Sub(t0))
	}
	nc.mu.Lock()
	nc.dataSend[7] = t0.Add(-time.Hour)
	nc.mu.Unlock()
	nc.noteDataSend(1001, at.Add(time.Millisecond))
	if !has(7) || has(1001) {
		t.Error("a send before dataStaleAt walked the map again")
	}
	// Past t0+1s entry 0 (and the planted one) are stale: both go, the rest
	// stay, and the freed room takes the new sample.
	nc.noteDataSend(1002, t0.Add(time.Second+time.Microsecond))
	if has(0) || has(7) || !has(1) || !has(1002) {
		t.Errorf("after the bound: has(0)=%v has(7)=%v has(1)=%v has(1002)=%v, want false false true true",
			has(0), has(7), has(1), has(1002))
	}
}

// TestUnsubscribeWithdrawsRoute: the last local unsubscribe leaves the
// topic out of the subscriber broker's next membership flood, and that
// withdraw removes the pair from the publisher broker's snapshot — list and
// destination both.
func TestUnsubscribeWithdrawsRoute(t *testing.T) {
	o := newOverlay(t, 2, [][2]int{{0, 1}})
	sub, err := Dial(o.addrs[1], "sub")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Subscribe(4, time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "route to appear", func() bool {
		return len(ctrlList(o.brokers[0], 4, 1)) > 0 && slices.Equal(ctrlDests(o.brokers[0], 4), []int{1})
	})
	if err := sub.Unsubscribe(4); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "route to be withdrawn", func() bool {
		return ctrlList(o.brokers[0], 4, 1) == nil && ctrlDests(o.brokers[0], 4) == nil
	})
	if got := memberTopics(o.brokers[0], 1); len(got) != 0 {
		t.Errorf("broker 0 still holds broker 1's membership %v", got)
	}
}

// TestClientDisconnectWithdrawsRoute: a subscriber's connection dropping is
// an unsubscribe from every topic it held, withdrawn the same way.
func TestClientDisconnectWithdrawsRoute(t *testing.T) {
	o := newOverlay(t, 2, [][2]int{{0, 1}})
	sub, err := Dial(o.addrs[1], "sub")
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Subscribe(6, time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "route to appear", func() bool {
		return len(ctrlList(o.brokers[0], 6, 1)) > 0 && slices.Equal(memberTopics(o.brokers[0], 1), []int32{6})
	})
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "route to be withdrawn after disconnect", func() bool {
		return o.brokers[1].localLedger(6).subscribers() == 0 &&
			len(memberTopics(o.brokers[0], 1)) == 0 && ctrlDests(o.brokers[0], 6) == nil
	})
}
