package broker

import (
	"encoding/binary"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// overlay spins up a live broker overlay on localhost from an adjacency
// list, handling the port-0 two-phase setup.
type overlay struct {
	brokers []*Broker
	addrs   []string
}

// newOverlay builds n brokers with the given undirected adjacency.
func newOverlay(t *testing.T, n int, links [][2]int) *overlay {
	t.Helper()
	return newOverlayConfig(t, n, links, nil)
}

// newOverlayConfig is newOverlay with a per-broker Config hook, applied
// after the base test config (ID included) is assembled.
func newOverlayConfig(t *testing.T, n int, links [][2]int, mutate func(*Config)) *overlay {
	t.Helper()
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	neighbors := make([]map[int]string, n)
	for i := range neighbors {
		neighbors[i] = make(map[int]string)
	}
	for _, l := range links {
		neighbors[l[0]][l[1]] = addrs[l[1]]
		neighbors[l[1]][l[0]] = addrs[l[0]]
	}
	o := &overlay{addrs: addrs}
	for i := 0; i < n; i++ {
		cfg := Config{
			ID:              i,
			Listen:          addrs[i],
			Neighbors:       neighbors[i],
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
		if err := b.StartListener(listeners[i]); err != nil {
			t.Fatal(err)
		}
		o.brokers = append(o.brokers, b)
	}
	t.Cleanup(func() {
		for _, b := range o.brokers {
			_ = b.Close()
		}
	})
	return o
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// receiveOne waits for a single delivery on the client.
func receiveOne(t *testing.T, c *Client, timeout time.Duration) Delivery {
	t.Helper()
	select {
	case d, ok := <-c.Receive():
		if !ok {
			t.Fatalf("client %q connection closed: %v", c.s.name, c.Err())
		}
		return d
	case <-time.After(timeout):
		t.Fatalf("client %q: no delivery within %v", c.s.name, timeout)
	}
	panic("unreachable")
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{ID: -1, Listen: "x"}); err == nil {
		t.Error("negative ID accepted")
	}
	if _, err := New(Config{ID: 0, Listen: ""}); err == nil {
		t.Error("empty listen address accepted")
	}
	if _, err := New(Config{ID: 0, Listen: "x", Neighbors: map[int]string{0: "y"}}); err == nil {
		t.Error("self-neighbor accepted")
	}
	if _, err := New(Config{ID: 0, Listen: "x", Neighbors: map[int]string{-2: "y"}}); err == nil {
		t.Error("negative neighbor accepted")
	}
}

func TestLocalPubSub(t *testing.T) {
	// Publisher and subscriber on the same broker: no overlay hops at all.
	o := newOverlay(t, 1, nil)
	sub, err := Dial(o.addrs[0], "sub")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Subscribe(1, time.Second); err != nil {
		t.Fatal(err)
	}
	pub, err := Dial(o.addrs[0], "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	time.Sleep(50 * time.Millisecond) // let the subscription register
	if err := pub.Publish(1, time.Second, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	d := receiveOne(t, sub, 2*time.Second)
	if string(d.Payload) != "hello" || d.Topic != 1 {
		t.Errorf("delivery = %+v", d)
	}
}

func TestTwoBrokerDelivery(t *testing.T) {
	o := newOverlay(t, 2, [][2]int{{0, 1}})
	sub, err := Dial(o.addrs[1], "sub")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Subscribe(7, time.Second); err != nil {
		t.Fatal(err)
	}
	// Wait for broker 0 to learn a route to (7, broker 1).
	waitFor(t, 3*time.Second, "route propagation", func() bool {
		return len(ctrlList(o.brokers[0], 7, 1)) > 0
	})
	pub, err := Dial(o.addrs[0], "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Publish(7, time.Second, []byte("cross-broker")); err != nil {
		t.Fatal(err)
	}
	d := receiveOne(t, sub, 2*time.Second)
	if string(d.Payload) != "cross-broker" {
		t.Errorf("payload = %q", d.Payload)
	}
	if d.Source != 0 {
		t.Errorf("source = %d, want 0", d.Source)
	}
}

func TestLineDeliveryAcrossRelay(t *testing.T) {
	// 0 - 1 - 2: broker 1 must relay using its sending list.
	o := newOverlay(t, 3, [][2]int{{0, 1}, {1, 2}})
	sub, err := Dial(o.addrs[2], "sub")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Subscribe(3, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "route at broker 0", func() bool {
		return len(ctrlList(o.brokers[0], 3, 2)) > 0
	})
	pub, err := Dial(o.addrs[0], "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	for i := 0; i < 5; i++ {
		if err := pub.Publish(3, 2*time.Second, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[byte]bool)
	for i := 0; i < 5; i++ {
		d := receiveOne(t, sub, 2*time.Second)
		seen[d.Payload[0]] = true
	}
	if len(seen) != 5 {
		t.Errorf("received %d distinct messages, want 5", len(seen))
	}
	st := o.brokers[1].Stats()
	if st.Forwarded == 0 {
		t.Error("relay broker forwarded nothing")
	}
}

func TestFanoutToMultipleSubscriberBrokers(t *testing.T) {
	// Star around broker 0: subscribers at 1, 2, 3.
	o := newOverlay(t, 4, [][2]int{{0, 1}, {0, 2}, {0, 3}})
	var subs []*Client
	for i := 1; i <= 3; i++ {
		c, err := Dial(o.addrs[i], "sub")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Subscribe(9, time.Second); err != nil {
			t.Fatal(err)
		}
		subs = append(subs, c)
	}
	waitFor(t, 3*time.Second, "all routes at broker 0", func() bool {
		for i := int32(1); i <= 3; i++ {
			if len(ctrlList(o.brokers[0], 9, i)) == 0 {
				return false
			}
		}
		return true
	})
	pub, err := Dial(o.addrs[0], "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Publish(9, time.Second, []byte("fanout")); err != nil {
		t.Fatal(err)
	}
	for _, c := range subs {
		d := receiveOne(t, c, 2*time.Second)
		if string(d.Payload) != "fanout" {
			t.Errorf("payload = %q", d.Payload)
		}
	}
}

func TestFailoverAroundDeadBroker(t *testing.T) {
	// Diamond: 0-1-3 and 0-2-3. Kill broker 1; publishes must keep
	// arriving via 2.
	o := newOverlay(t, 4, [][2]int{{0, 1}, {1, 3}, {0, 2}, {2, 3}})
	sub, err := Dial(o.addrs[3], "sub")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Subscribe(5, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "both routes at broker 0", func() bool {
		return len(ctrlList(o.brokers[0], 5, 3)) >= 2
	})
	pub, err := Dial(o.addrs[0], "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	if err := pub.Publish(5, 2*time.Second, []byte("before")); err != nil {
		t.Fatal(err)
	}
	if d := receiveOne(t, sub, 2*time.Second); string(d.Payload) != "before" {
		t.Fatalf("first delivery = %q", d.Payload)
	}

	if err := o.brokers[1].Close(); err != nil {
		t.Fatal(err)
	}
	// Give broker 0 a moment to notice the dropped connection.
	waitFor(t, 3*time.Second, "broker 0 sees neighbor 1 down", func() bool {
		nc := o.brokers[0].neighbor(1)
		return !nc.connected()
	})

	if err := pub.Publish(5, 2*time.Second, []byte("after")); err != nil {
		t.Fatal(err)
	}
	if d := receiveOne(t, sub, 5*time.Second); string(d.Payload) != "after" {
		t.Fatalf("post-failure delivery = %q", d.Payload)
	}
}

func TestUnknownNeighborRejected(t *testing.T) {
	o := newOverlay(t, 1, nil)
	conn, err := net.Dial("tcp", o.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Claim to be broker 42, which is not in the config.
	if err := writeHello(conn, 42, "impostor"); err != nil {
		t.Fatal(err)
	}
	// The broker should close the connection promptly.
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Error("connection from unknown neighbor stayed open")
	}
}

// TestHelloVersionMismatchRefused sends a hand-built Hello one protocol
// version ahead, once claiming a configured neighbor and once as a client.
// Both are refused at the handshake: the connection closes, the neighbor is
// never attached and nothing is queued for it, no client is registered, and
// the handshake goroutine is gone again.
func TestHelloVersionMismatchRefused(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Neighbor 1's address is never dialed: only a lower ID dials a higher.
	b, err := New(Config{ID: 2, Listen: ln.Addr().String(), Neighbors: map[int]string{1: "127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.StartListener(ln); err != nil {
		t.Fatal(err)
	}
	before := b.Goroutines()
	for _, id := range []int32{1, -1} {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		hello := wire.AppendFrame(nil, &wire.Hello{BrokerID: id, Name: "future"})
		binary.BigEndian.PutUint16(hello[9:], wire.ProtocolVersion+1) // after length, tag, BrokerID
		if _, err := conn.Write(hello); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err == nil {
			t.Errorf("Hello %d of version %d: connection stayed open", id, wire.ProtocolVersion+1)
		}
		_ = conn.Close()
	}
	waitFor(t, 2*time.Second, "handshake goroutines to exit", func() bool { return b.Goroutines() == before })
	nc := b.neighbor(1)
	nc.mu.Lock()
	attaches, w := nc.attaches, nc.w
	nc.mu.Unlock()
	if attaches != 0 || w != nil {
		t.Errorf("neighbor 1 attached %d times (writer %v) by a mismatched Hello", attaches, w)
	}
	b.mu.Lock()
	clients := len(b.clients)
	b.mu.Unlock()
	if clients != 0 {
		t.Errorf("%d clients registered by a mismatched Hello", clients)
	}
	if st := b.Stats(); st.Reconnects != 0 || st.Sessions != 0 {
		t.Errorf("stats after refusals: %+v", st)
	}
}

// TestDialerBacksOffWhenRefused: a peer that closes every connection before
// sending a frame, as a broker refusing the Hello does, counts as a failed
// dial, so the dialer widens its backoff instead of redialing at once.
func TestDialerBacksOffWhenRefused(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var accepts atomic.Int32
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			_ = c.Close()
		}
	}()
	o := newOverlayConfig(t, 1, nil, func(cfg *Config) { cfg.Neighbors = map[int]string{1: ln.Addr().String()} })
	waitFor(t, 5*time.Second, "three refused connections", func() bool { return accepts.Load() >= 3 })
	if st := o.brokers[0].Stats(); st.Redials < 2 {
		t.Errorf("%d refused connections but %d failed dials: the dialer did not back off", accepts.Load(), st.Redials)
	}
}

// TestWedgedNeighborFailsWriteWithinTimeout: the writer moves a link's write
// deadline only once half of WriteTimeout is spent, yet it survives a peer
// that keeps reading for several timeouts, and a peer on a net.Pipe that
// stops reading still fails the write, ending the writer, within
// WriteTimeout.
func TestWedgedNeighborFailsWriteWithinTimeout(t *testing.T) {
	const timeout, slack = 200 * time.Millisecond, 150 * time.Millisecond
	b, err := New(Config{ID: 1, Listen: "127.0.0.1:0", Neighbors: map[int]string{0: "127.0.0.1:1"}, WriteTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	local, remote := net.Pipe()
	defer remote.Close()
	nc := b.neighbor(0)
	nc.attach(b, local) // the higher ID never dials; the link is this pipe
	nc.mu.Lock()
	w := nc.w
	nc.mu.Unlock()

	var reading atomic.Bool
	reading.Store(true)
	readerDone := make(chan time.Time, 1)
	go func() {
		buf := make([]byte, 4096)
		for reading.Load() {
			if _, err := remote.Read(buf); err != nil {
				break
			}
		}
		readerDone <- time.Now()
	}()
	stopSending := make(chan struct{})
	defer close(stopSending)
	go func() {
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for token := uint64(1); ; token++ {
			select {
			case <-stopSending:
				return
			case <-tick.C:
			}
			if w.send(&wire.Probe{Token: token}) == errNotConnected {
				return
			}
		}
	}()

	select {
	case <-w.stop:
		t.Fatalf("the writer quit while its peer was still reading (WriteTimeout %v)", timeout)
	case <-time.After(3 * timeout):
	}
	reading.Store(false)
	stoppedAt := <-readerDone
	select {
	case <-w.stop:
		if took := time.Since(stoppedAt); took > timeout+slack {
			t.Errorf("the writer took %v to fail a wedged write, WriteTimeout %v", took, timeout)
		}
	case <-time.After(5 * timeout):
		t.Fatalf("the writer still blocks %v after its peer stopped reading (WriteTimeout %v)", 5*timeout, timeout)
	}
}

func TestBrokerCloseIdempotent(t *testing.T) {
	o := newOverlay(t, 1, nil)
	if err := o.brokers[0].Close(); err != nil {
		t.Fatal(err)
	}
	if err := o.brokers[0].Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsCounters(t *testing.T) {
	o := newOverlay(t, 2, [][2]int{{0, 1}})
	sub, err := Dial(o.addrs[1], "sub")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Subscribe(1, time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "route", func() bool {
		return len(ctrlList(o.brokers[0], 1, 1)) > 0
	})
	pub, err := Dial(o.addrs[0], "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Publish(1, time.Second, []byte("x")); err != nil {
		t.Fatal(err)
	}
	receiveOne(t, sub, 2*time.Second)
	waitFor(t, time.Second, "stats to settle", func() bool {
		return o.brokers[0].Stats().Published == 1 &&
			o.brokers[0].Stats().Forwarded >= 1 &&
			o.brokers[1].Stats().Delivered == 1
	})
}

func TestStatsRequestReply(t *testing.T) {
	o := newOverlay(t, 2, [][2]int{{0, 1}})
	sub, err := Dial(o.addrs[1], "sub")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Subscribe(3, time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "route", func() bool {
		return len(ctrlList(o.brokers[0], 3, 1)) > 0
	})
	mon, err := Dial(o.addrs[0], "mon")
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	reply, err := mon.Stats(3 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if reply.BrokerID != 0 {
		t.Errorf("broker ID = %d", reply.BrokerID)
	}
	if len(reply.Neighbors) != 1 || reply.Neighbors[0].ID != 1 || !reply.Neighbors[0].Connected {
		t.Errorf("neighbors = %+v", reply.Neighbors)
	}
	found := false
	for _, rt := range reply.Routes {
		if rt.Topic == 3 && rt.Sub == 1 && rt.R > 0 && rt.ListLen == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("route (3,1) missing from %+v", reply.Routes)
	}
	// A second request works too (token correlation).
	if _, err := mon.Stats(3 * time.Second); err != nil {
		t.Fatal(err)
	}
}
