package broker

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/wal"
)

// Durable-custody integration tests (DESIGN.md §16): the ACK-after-durable
// invariant, exactly-once across an abrupt crash, and replay resuming
// outstanding flights. The WAL's own mechanics (torn tails, CRC, recovery
// compaction) are covered in internal/wal; these tests pin the broker glue.

// durableDirs assigns each broker in an overlay its own DataDir under root.
func durableDirs(root string, n int) []string {
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = fmt.Sprintf("%s/broker-%d", root, i)
	}
	return dirs
}

// restartBroker rebinds broker id's address and replaces it in the overlay
// (mirroring chaosOverlay.restart); mutate tweaks the replacement's config
// the same way the overlay's original hook did.
func restartBroker(t *testing.T, o *overlay, links [][2]int, id int, mutate func(*Config)) *Broker {
	t.Helper()
	var ln net.Listener
	deadline := time.Now().Add(5 * time.Second)
	for {
		var err error
		ln, err = net.Listen("tcp", o.addrs[id])
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebinding %s: %v", o.addrs[id], err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	neighbors := make(map[int]string)
	for _, l := range links {
		if l[0] == id {
			neighbors[l[1]] = o.addrs[l[1]]
		}
		if l[1] == id {
			neighbors[l[0]] = o.addrs[l[0]]
		}
	}
	cfg := Config{
		ID:              id,
		Listen:          o.addrs[id],
		Neighbors:       neighbors,
		DialRetry:       20 * time.Millisecond,
		AckGuard:        30 * time.Millisecond,
		DefaultDeadline: 2 * time.Second,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.StartListener(ln); err != nil {
		t.Fatal(err)
	}
	o.brokers[id] = b // the overlay cleanup now closes the replacement
	return b
}

// gatedFlush returns a WAL BeforeFlush hook blocked until release is called
// (idempotent). While blocked, appends accumulate but nothing becomes
// durable — so no custody ACK may leave the broker.
func gatedFlush() (hook func(), release func()) {
	gate := make(chan struct{})
	var once sync.Once
	return func() { <-gate }, func() { once.Do(func() { close(gate) }) }
}

// TestDurableAckWithheldUntilFsync pins the invariant the whole design
// hangs on: a durable broker does not ACK a received DATA frame before the
// custody record is fsynced. The downstream's WAL flush is gated, so the
// upstream's in-flight group must stay unresolved — the huge AckGuard rules
// out every other way it could resolve — until the gate opens.
func TestDurableAckWithheldUntilFsync(t *testing.T) {
	hook, release := gatedFlush()
	dir := t.TempDir()
	o := newOverlayConfig(t, 2, [][2]int{{0, 1}}, func(cfg *Config) {
		cfg.AckGuard = 10 * time.Second // no timeout/failover noise in-window
		cfg.Persistent = true
		if cfg.ID == 1 {
			cfg.DataDir = dir
			cfg.walBeforeFlush = hook
		}
	})
	t.Cleanup(release) // runs before the overlay cleanup: Close needs the committer free

	sub, err := Dial(o.addrs[1], "sub")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Subscribe(soakTopic, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "route 0→1", routesReady(o.brokers[0], 1))

	pub, err := Dial(o.addrs[0], "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	const n = 3
	for i := 0; i < n; i++ {
		if err := pub.Publish(soakTopic, 5*time.Second, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}

	// Custody is appended (and even delivered — delivery is not gated)...
	waitFor(t, 5*time.Second, "custody appended on broker 1", func() bool {
		return o.brokers[1].Stats().Wal.Appends >= n
	})
	for i := 0; i < n; i++ {
		receiveOne(t, sub, 5*time.Second)
	}
	// ...but never durable, so the upstream must still hold every flight.
	for i := 0; i < 10; i++ {
		if _, flights, _ := o.brokers[0].PoolsLive(); flights < n {
			t.Fatalf("upstream flights resolved to %d with WAL flush gated: an ACK crossed before durability", flights)
		}
		time.Sleep(20 * time.Millisecond)
	}

	release()
	waitFor(t, 5*time.Second, "withheld ACKs released after fsync", func() bool {
		_, flights, _ := o.brokers[0].PoolsLive()
		return flights == 0
	})
	if st := o.brokers[1].Stats().Wal; !st.Enabled || st.Fsyncs == 0 {
		t.Errorf("durable broker stats implausible after release: %+v", st)
	}
}

// TestDurableCrashBeforeAckRedelivers is the kill-between-append-and-ACK
// test: broker 1 (a pure relay) journals custody but crashes before any of
// it is fsynced — so before any ACK went upstream. The un-fsynced log is
// discarded (Crash == power loss), the upstream still holds every packet
// and retransmits to the restarted incarnation, and the subscriber behind
// the relay sees every packet exactly once.
func TestDurableCrashBeforeAckRedelivers(t *testing.T) {
	links := [][2]int{{0, 1}, {1, 2}}
	hook, release := gatedFlush()
	dir := t.TempDir()
	durable := func(cfg *Config) {
		cfg.Persistent = true
		cfg.RetryInterval = 30 * time.Millisecond
		cfg.MaxLifetime = 60 * time.Second
		if cfg.ID == 1 {
			cfg.DataDir = dir
		}
	}
	o := newOverlayConfig(t, 3, links, func(cfg *Config) {
		durable(cfg)
		if cfg.ID == 1 {
			cfg.walBeforeFlush = hook
		}
	})
	t.Cleanup(release)

	sub, err := Dial(o.addrs[2], "sub")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Subscribe(soakTopic, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	col := newCollector(sub)
	waitFor(t, 5*time.Second, "route 0→2", routesReady(o.brokers[0], 2))

	pub, err := Dial(o.addrs[0], "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	publishRange(t, pub, 0, 5)

	// The relay took (non-durable) custody and forwarded — the subscriber
	// already has everything once...
	waitFor(t, 10*time.Second, "custody appended on the gated relay", func() bool {
		return o.brokers[1].Stats().Wal.Appends >= 5
	})
	waitFor(t, 10*time.Second, "first delivery of every packet", func() bool { return col.have(5) })
	// ...and the publisher's broker must still own every packet: nothing
	// was fsynced, so nothing may have been ACKed.
	if works, flights, _ := o.brokers[0].PoolsLive(); works+flights == 0 {
		t.Fatal("origin fully resolved while the relay's WAL was gated: an ACK crossed before durability")
	}

	// Power-loss the relay: the appended-but-unsynced records evaporate.
	if err := o.brokers[1].Crash(); err != nil {
		t.Fatalf("crash: %v", err)
	}
	if g := o.brokers[1].Goroutines(); g != 0 {
		t.Errorf("%d goroutines survived the crash teardown", g)
	}
	release()

	b1 := restartBroker(t, o, links, 1, durable)
	// Nothing was durable, so nothing replays — the upstream's retry is the
	// only copy, which is exactly Theorem 2's invariant.
	if got := b1.Stats().Wal.ReplayedFlights; got != 0 {
		t.Errorf("replayed %d flights from a log that was never fsynced", got)
	}
	waitFor(t, 30*time.Second, "origin resolving via retransmission", func() bool {
		works, flights, _ := o.brokers[0].PoolsLive()
		return works+flights == 0
	})
	// The subscriber's broker dedups the re-forwarded copies by packet ID.
	time.Sleep(300 * time.Millisecond)
	if d := col.duplicates(); len(d) != 0 {
		t.Errorf("subscriber saw duplicate sequences %v", d)
	}
	if !col.have(5) {
		t.Error("redelivery incomplete")
	}
}

// TestDurableReplayResumesFlights stops a broker holding fsynced custody it
// could not yet hand off (the relay to the subscriber's broker was dead) and
// asserts the restart replays exactly those flights and drives them to
// delivery — the §III persistency hold now survives node loss.
func TestDurableReplayResumesFlights(t *testing.T) {
	links := [][2]int{{0, 1}, {1, 2}}
	dir := t.TempDir()
	durable := func(cfg *Config) {
		cfg.Persistent = true
		cfg.RetryInterval = 30 * time.Millisecond
		cfg.MaxLifetime = 60 * time.Second
		if cfg.ID == 0 {
			cfg.DataDir = dir
		}
	}
	o := newOverlayConfig(t, 3, links, durable)

	sub, err := Dial(o.addrs[2], "sub")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Subscribe(soakTopic, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "route 0→2", routesReady(o.brokers[0], 2))

	// Kill the relay, then publish into the hole. Broker 2 is still a
	// destination — the relay's last flood links to it — so the origin
	// journals custody for a dest it cannot reach and holds (§III).
	assertBrokerClean(t, o.brokers[1])
	waitFor(t, 5*time.Second, "origin noticing the dead neighbor", func() bool {
		return !o.brokers[0].neighbor(1).connected()
	})
	pub, err := Dial(o.addrs[0], "pub")
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		if err := pub.Publish(soakTopic, 30*time.Second, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "origin custody journaled", func() bool {
		return o.brokers[0].Stats().Wal.Appends >= n
	})
	_ = pub.Close()

	// Graceful stop: custody stays in the log — that is the point.
	assertBrokerClean(t, o.brokers[0])

	// Restart both. The origin must replay all n held flights...
	restartBroker(t, o, links, 1, durable)
	b0 := restartBroker(t, o, links, 0, durable)
	if got := b0.Stats().Wal.ReplayedFlights; got != n {
		t.Errorf("replayed %d flights, want %d", got, n)
	}

	// ...and deliver them to the subscriber exactly once.
	got := make(map[byte]int)
	deadline := time.After(20 * time.Second)
	for len(got) < n {
		select {
		case d, ok := <-sub.Receive():
			if !ok {
				t.Fatalf("subscriber died: %v", sub.Err())
			}
			if len(d.Payload) == 1 {
				got[d.Payload[0]]++
			}
		case <-deadline:
			t.Fatalf("replayed flights never delivered; got %v", got)
		}
	}
	time.Sleep(300 * time.Millisecond)
	for seq, c := range got {
		if c != 1 {
			t.Errorf("sequence %d delivered %d times", seq, c)
		}
	}
	// The monitoring plane reports the journal end to end.
	mon, err := Dial(o.addrs[0], "mon")
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	reply, err := mon.Stats(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !reply.Wal.Enabled || reply.Wal.ReplayedFlights != n || reply.Wal.Appends == 0 {
		t.Errorf("wire-level WAL stats implausible: %+v", reply.Wal)
	}

	// Once everything settled, the cleared flights must be durable too: a
	// cold recovery of the directory finds no outstanding custody.
	waitFor(t, 30*time.Second, "origin pools draining", func() bool {
		works, flights, _ := b0.PoolsLive()
		return works+flights == 0
	})
	assertBrokerClean(t, b0)
	l, rec, err := wal.Open(wal.Config{Dir: dir, NodeID: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(rec.Flights) != 0 {
		t.Errorf("cold recovery found %d outstanding flights after full delivery", len(rec.Flights))
	}
}
