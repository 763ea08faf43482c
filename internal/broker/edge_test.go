package broker

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// Edge-tier tests: multiplexed sessions, per-topic delivery aggregation and
// the copy-on-write ledger snapshot under churn.

// startEdgeBroker spins up a loopback broker for edge tests.
func startEdgeBroker(t *testing.T, shards int) (*Broker, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{ID: 1, Listen: ln.Addr().String(), Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })
	if err := b.StartListener(ln); err != nil {
		t.Fatal(err)
	}
	return b, ln.Addr().String()
}

// muxRecorder collects aggregated deliveries, copying out of the pooled
// message before it is recycled.
type muxRecorder struct {
	mu   sync.Mutex
	got  []muxEvent
	seen map[muxKey]int // (subID, packetID) -> deliveries
}

type muxEvent struct {
	topic   int32
	pktID   uint64
	subIDs  []uint32
	payload string
}

type muxKey struct {
	subID uint32
	pktID uint64
}

func newMuxRecorder() *muxRecorder {
	return &muxRecorder{seen: make(map[muxKey]int)}
}

func (r *muxRecorder) handle(m *wire.MuxDeliver) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.got = append(r.got, muxEvent{
		topic:   m.Topic,
		pktID:   m.PacketID,
		subIDs:  append([]uint32(nil), m.SubIDs...),
		payload: string(m.Payload),
	})
	for _, id := range m.SubIDs {
		r.seen[muxKey{id, m.PacketID}]++
	}
}

func (r *muxRecorder) events() []muxEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]muxEvent(nil), r.got...)
}

// counts snapshots the per-(subID, packet) delivery counts.
func (r *muxRecorder) counts() map[muxKey]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[muxKey]int, len(r.seen))
	for k, v := range r.seen {
		out[k] = v
	}
	return out
}

// TestSessionAggregatedDelivery pins the tentpole behavior: one session
// with several logical subscribers on a topic receives ONE MuxDeliver per
// packet, carrying the full sorted subscriber-ID list and the payload once,
// while a plain client on the same topic (a session of one) gets its own
// delivery. The edge gauges count both sessions; the publisher, which never
// subscribes, is not one.
func TestSessionAggregatedDelivery(t *testing.T) {
	b, addr := startEdgeBroker(t, 2)

	rec := newMuxRecorder()
	s, err := DialSession(addr, "mux", 3, rec.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, id := range []uint32{9, 0, 5} {
		if err := s.Subscribe(id, 3, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	plain, err := Dial(addr, "plain")
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if err := plain.Subscribe(3, time.Second); err != nil {
		t.Fatal(err)
	}

	// Registration flushes asynchronously (coalescing window).
	waitFor(t, 5*time.Second, "ledger to cover 4 subscribers", func() bool {
		return b.localLedger(3).subscribers() == 4
	})

	pub, err := Dial(addr, "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Publish(3, time.Second, []byte("edge payload")); err != nil {
		t.Fatal(err)
	}
	if st := b.Stats(); st.Sessions != 2 || st.Subscriptions != 4 {
		t.Fatalf("gauges = %d sessions / %d subscriptions, want 2/4", st.Sessions, st.Subscriptions)
	}

	waitFor(t, 5*time.Second, "aggregated delivery", func() bool {
		return len(rec.events()) >= 1
	})
	evs := rec.events()
	if len(evs) != 1 {
		t.Fatalf("session received %d MuxDeliver frames, want exactly 1: %+v", len(evs), evs)
	}
	ev := evs[0]
	if ev.topic != 3 || ev.payload != "edge payload" {
		t.Errorf("delivery = topic %d payload %q, want 3/%q", ev.topic, ev.payload, "edge payload")
	}
	if want := []uint32{0, 5, 9}; !sort.SliceIsSorted(ev.subIDs, func(i, j int) bool { return ev.subIDs[i] < ev.subIDs[j] }) ||
		len(ev.subIDs) != 3 || ev.subIDs[0] != want[0] || ev.subIDs[1] != want[1] || ev.subIDs[2] != want[2] {
		t.Errorf("subIDs = %v, want %v (sorted ascending)", ev.subIDs, want)
	}

	d := <-plain.Receive()
	if d.Topic != 3 || string(d.Payload) != "edge payload" {
		t.Errorf("plain client delivery = topic %d payload %q", d.Topic, d.Payload)
	}
}

// TestSessionUnsubNarrowsDelivery checks that SessionUnsub removes exactly
// one logical subscriber from the aggregated list (and the gauges), and
// that the last unsubscribe drops the session from the ledger entirely.
func TestSessionUnsubNarrowsDelivery(t *testing.T) {
	b, addr := startEdgeBroker(t, 1)

	rec := newMuxRecorder()
	s, err := DialSession(addr, "mux", 2, rec.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, id := range []uint32{1, 2} {
		if err := s.Subscribe(id, 7, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "both subscribers registered", func() bool {
		return b.localLedger(7).subscribers() == 2
	})

	if err := s.Unsubscribe(1, 7); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "unsubscribe to flush", func() bool {
		return b.localLedger(7).subscribers() == 1
	})
	if st := b.Stats(); st.Subscriptions != 1 {
		t.Fatalf("subscriptions gauge = %d, want 1", st.Subscriptions)
	}

	pub, err := Dial(addr, "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Publish(7, time.Second, []byte("x")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "narrowed delivery", func() bool {
		return len(rec.events()) >= 1
	})
	if evs := rec.events(); len(evs[0].subIDs) != 1 || evs[0].subIDs[0] != 2 {
		t.Errorf("subIDs after unsub = %v, want [2]", evs[0].subIDs)
	}

	if err := s.Unsubscribe(2, 7); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "empty ledger", func() bool {
		return b.localLedger(7).subscribers() == 0
	})
}

// TestMembershipNeverPrecedesLedger: while the coalescing flusher still
// holds a subscription back, the membership the control loop states for the
// topic brings the delivery ledger with it. Otherwise publishers could get a
// route to this broker before it can deliver, and lose the first packets.
func TestMembershipNeverPrecedesLedger(t *testing.T) {
	b, _ := startEdgeBroker(t, 1)
	b.sessionSub(&clientConn{name: "sub"}, &wire.SessionSub{Topic: 6, Deadline: time.Second})
	if m := b.ctrl.appendLocalMembers(nil); len(m) != 1 || m[0].Topic != 6 {
		t.Fatalf("membership = %+v, want topic 6", m)
	}
	if n := b.localLedger(6).subscribers(); n != 1 {
		t.Errorf("topic 6 is stated as membership while its ledger serves %d subscribers", n)
	}
}

// TestSessionChurnExactlyOnce is the snapshot-swap race test: while one
// publisher streams packets, churner subscribers flip on and off the topic
// (multi-ID sessions and plain clients alike, forcing continuous
// copy-on-write ledger rebuilds) — and a set of stable logical subscribers must still see every
// packet exactly once: no drop and no duplicate across snapshot swaps.
// Run under -race this also exercises the flusher/data-plane handoff.
func TestSessionChurnExactlyOnce(t *testing.T) {
	const (
		topic      = int32(4)
		stableSubs = 8
		packets    = 120
		churners   = 3
	)
	b, addr := startEdgeBroker(t, 4)

	rec := newMuxRecorder()
	stable, err := DialSession(addr, "stable", stableSubs, rec.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer stable.Close()
	for i := uint32(0); i < stableSubs; i++ {
		if err := stable.Subscribe(i, topic, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if err := stable.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "stable subscribers registered", func() bool {
		return b.localLedger(topic).subscribers() == stableSubs
	})

	stop := make(chan struct{})
	var churnWg sync.WaitGroup
	churnErr := make(chan error, 2*churners)
	for c := 0; c < churners; c++ {
		c := c
		// Session churner: one extra subscriber ID flipping on and off.
		churnWg.Add(1)
		go func() {
			defer churnWg.Done()
			s, err := DialSession(addr, fmt.Sprintf("churn-mux-%d", c), 1, nil)
			if err != nil {
				churnErr <- err
				return
			}
			defer s.Close()
			id := uint32(1000 + c)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := s.Subscribe(id, topic, time.Second); err != nil {
					churnErr <- err
					return
				}
				if err := s.Unsubscribe(id, topic); err != nil {
					churnErr <- err
					return
				}
				if err := s.Flush(); err != nil {
					churnErr <- err
					return
				}
			}
		}()
		// Plain-client churner: every flip is flushed to the broker at once.
		churnWg.Add(1)
		go func() {
			defer churnWg.Done()
			cl, err := Dial(addr, fmt.Sprintf("churn-plain-%d", c))
			if err != nil {
				churnErr <- err
				return
			}
			defer cl.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := cl.Subscribe(topic, time.Second); err != nil {
					churnErr <- err
					return
				}
				if err := cl.Unsubscribe(topic); err != nil {
					churnErr <- err
					return
				}
			}
		}()
	}

	pub, err := Dial(addr, "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	for i := 0; i < packets; i++ {
		if err := pub.Publish(topic, time.Second, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}

	// Every stable logical subscriber must converge on exactly-once for
	// every packet: first wait until all (subID, packet) pairs arrived...
	waitFor(t, 10*time.Second, "all stable deliveries", func() bool {
		counts := rec.counts()
		n := 0
		for k := range counts {
			if k.subID < stableSubs {
				n++
			}
		}
		return n >= stableSubs*packets
	})
	close(stop)
	churnWg.Wait()
	close(churnErr)
	for err := range churnErr {
		t.Fatal(err)
	}
	// ...then require no duplicates ever showed up.
	for k, n := range rec.counts() {
		if k.subID < stableSubs && n != 1 {
			t.Errorf("stable subscriber %d saw packet %d %d times", k.subID, k.pktID, n)
		}
	}
}
