package broker

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
)

// The chaos soak is the live analog of Theorem 2: an 8-broker overlay with
// persistency on, driven through compressed churn — per-epoch link failure
// (Pf), per-frame loss, duplication, detected corruption, connection resets
// and one full broker crash/restart — must deliver every published packet
// exactly once per subscriber, and tearing everything down afterwards must
// leak neither goroutines nor pooled engine objects.
//
// Every broker runs with crash-durable custody (Config.DataDir): the relay
// that crashes does so MID-TRAFFIC, with no drain, losing whatever its WAL
// had not yet fsynced (Broker.Crash simulates the power cut). Exactly-once
// must hold anyway — un-fsynced custody was never ACKed so its upstream
// still holds it, and fsynced custody is replayed by the restarted
// incarnation from the same directory (DESIGN.md §16).

const soakTopic = 42

// soakRing is an 8-node ring with cross chords: every node has degree 3, so
// no single broker loss can disconnect the overlay.
func soakRing() [][2]int {
	links := [][2]int{{0, 4}, {1, 5}, {2, 6}, {3, 7}}
	for i := 0; i < 8; i++ {
		links = append(links, [2]int{i, (i + 1) % 8})
	}
	return links
}

// soakFaults is the compressed churn plan: the paper's Pf=0.2 epoch process
// plus loss, duplication, detected corruption, resets and short stalls.
func soakFaults() chaos.Faults {
	return chaos.Faults{
		PartitionProb: 0.2,
		DropProb:      0.05,
		DupProb:       0.05,
		CorruptProb:   0.002,
		ResetProb:     0.004,
		StallProb:     0.002,
		StallFor:      200 * time.Millisecond,
		Delay:         200 * time.Microsecond,
		DelayJitter:   time.Millisecond,
	}
}

// soakBrokerConfig is the per-broker tuning for chaos tests: compressed
// timers, persistency on, and a lifetime that comfortably outlasts a soak.
// dataDir, when non-empty, turns on crash-durable custody.
func soakBrokerConfig(id int, addr string, neighbors map[int]string, dataDir string) Config {
	return Config{
		DataDir:         dataDir,
		ID:              id,
		Listen:          addr,
		Neighbors:       neighbors,
		DialRetry:       20 * time.Millisecond,
		DialRetryMax:    250 * time.Millisecond,
		AckGuard:        40 * time.Millisecond,
		WriteTimeout:    2 * time.Second,
		MaxLifetime:     60 * time.Second,
		Persistent:      true,
		RetryInterval:   50 * time.Millisecond,
		DefaultDeadline: 30 * time.Second,
		// Pin a multi-shard data plane regardless of the machine's core
		// count: the soak must exercise cross-shard dispatch, per-shard
		// pools and the shard-drain shutdown path.
		Shards: 4,
	}
}

// chaosOverlay is a live overlay whose brokers all listen through one chaos
// network.
type chaosOverlay struct {
	net       *chaos.Network
	brokers   []*Broker
	addrs     []string
	neighbors []map[int]string
	dataDirs  []string // per-broker WAL directories; nil in memory mode
}

// newChaosOverlay builds n brokers on the given adjacency, every listener
// wrapped by cn. A non-empty dataRoot gives every broker its own WAL
// directory beneath it (crash-durable custody); restart reuses the same
// directory, so recovery replays across the crash. Fault injection state
// (SetActive) is the caller's business.
func newChaosOverlay(t *testing.T, cn *chaos.Network, n int, links [][2]int, dataRoot string) *chaosOverlay {
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
	o := &chaosOverlay{net: cn, addrs: addrs, neighbors: neighbors}
	if dataRoot != "" {
		o.dataDirs = durableDirs(dataRoot, n)
	}
	for i := 0; i < n; i++ {
		b, err := New(soakBrokerConfig(i, addrs[i], neighbors[i], o.dataDir(i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := b.StartListener(cn.Listener(listeners[i], i)); err != nil {
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

// dataDir returns broker id's WAL directory ("" in memory mode).
func (o *chaosOverlay) dataDir(id int) string {
	if o.dataDirs == nil {
		return ""
	}
	return o.dataDirs[id]
}

// restart brings broker id back after a crash: rebind the same address (the
// neighbors' dial loops know no other), rewrap it in the chaos network and
// replace the dead broker in the slice. In durable mode the same data
// directory is reused, so the WAL's outstanding custody replays.
func (o *chaosOverlay) restart(t *testing.T, id int) {
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
	b, err := New(soakBrokerConfig(id, o.addrs[id], o.neighbors[id], o.dataDir(id)))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.StartListener(o.net.Listener(ln, id)); err != nil {
		t.Fatal(err)
	}
	o.brokers[id] = b
}

// routesReady reports whether broker b can currently reach every subscriber
// broker for the soak topic.
func routesReady(b *Broker, subs ...int32) func() bool {
	return func() bool {
		for _, s := range subs {
			if len(ctrlList(b, soakTopic, s)) == 0 {
				return false
			}
		}
		return true
	}
}

// collector counts per-sequence deliveries for one subscriber.
type collector struct {
	mu  sync.Mutex
	got map[uint32]int
}

func newCollector(c *Client) *collector {
	col := &collector{got: make(map[uint32]int)}
	go func() {
		for d := range c.Receive() {
			if len(d.Payload) != 4 {
				continue
			}
			seq := binary.BigEndian.Uint32(d.Payload)
			col.mu.Lock()
			col.got[seq]++
			col.mu.Unlock()
		}
	}()
	return col
}

// have reports whether every sequence in [0, n) arrived at least once.
func (col *collector) have(n uint32) bool {
	col.mu.Lock()
	defer col.mu.Unlock()
	for s := uint32(0); s < n; s++ {
		if col.got[s] == 0 {
			return false
		}
	}
	return true
}

// duplicates returns the sequences delivered more than once.
func (col *collector) duplicates() []uint32 {
	col.mu.Lock()
	defer col.mu.Unlock()
	var d []uint32
	for s, c := range col.got {
		if c > 1 {
			d = append(d, s)
		}
	}
	return d
}

// publishRange publishes sequences [from, to) as 4-byte payloads, paced so
// the overlay sees a stream rather than one burst.
func publishRange(t *testing.T, pub *Client, from, to uint32) {
	t.Helper()
	for s := from; s < to; s++ {
		var payload [4]byte
		binary.BigEndian.PutUint32(payload[:], s)
		if err := pub.Publish(soakTopic, 30*time.Second, payload[:]); err != nil {
			t.Fatalf("publish seq %d: %v", s, err)
		}
		time.Sleep(4 * time.Millisecond)
	}
}

// assertBrokerCrashed crashes b (abrupt node loss: the WAL's un-fsynced
// tail is lost) and asserts the in-process teardown leaked nothing.
func assertBrokerCrashed(t *testing.T, b *Broker) {
	t.Helper()
	if err := b.Crash(); err != nil {
		t.Fatalf("broker %d crash: %v", b.ID(), err)
	}
	if g := b.Goroutines(); g != 0 {
		t.Errorf("broker %d: %d goroutines survived Crash", b.ID(), g)
	}
	assertNothingLive(t, b, "after Crash")
}

// assertNothingLive requires every pooled engine object recycled and every
// payload reference released.
func assertNothingLive(t *testing.T, b *Broker, when string) {
	t.Helper()
	works, flights, frames := b.PoolsLive()
	if payloads := b.PayloadsLive(); works != 0 || flights != 0 || frames != 0 || payloads != 0 {
		t.Errorf("broker %d leaked pooled objects %s: works=%d flights=%d frames=%d payloads=%d",
			b.ID(), when, works, flights, frames, payloads)
	}
}

// assertBrokerClean closes b and asserts it leaked nothing.
func assertBrokerClean(t *testing.T, b *Broker) {
	t.Helper()
	if err := b.Close(); err != nil {
		t.Fatalf("broker %d close: %v", b.ID(), err)
	}
	if g := b.Goroutines(); g != 0 {
		t.Errorf("broker %d: %d goroutines survived Close", b.ID(), g)
	}
	assertNothingLive(t, b, "after Close")
}

func TestChaosSoak(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	perPhase := uint32(25)
	if testing.Short() {
		seeds = seeds[:1]
		perPhase = 12
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runChaosSoak(t, seed, perPhase)
		})
	}
}

func runChaosSoak(t *testing.T, seed uint64, perPhase uint32) {
	cn := chaos.NewNetwork(chaos.Config{
		Seed:    seed,
		Epoch:   150 * time.Millisecond,
		Default: soakFaults(),
	})
	defer cn.Close()
	cn.SetActive(false) // converge the overlay clean first
	o := newChaosOverlay(t, cn, 8, soakRing(), t.TempDir())

	// Publisher on broker 0, subscribers on brokers 3 and 5; broker 4 (a
	// pure relay adjacent to 0, 3 and 5) is the crash victim.
	subClients := make([]*Client, 0, 2)
	collectors := make([]*collector, 0, 2)
	for _, at := range []int{3, 5} {
		c, err := Dial(o.addrs[at], fmt.Sprintf("sub-%d", at))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Subscribe(soakTopic, 30*time.Second); err != nil {
			t.Fatal(err)
		}
		subClients = append(subClients, c)
		collectors = append(collectors, newCollector(c))
	}
	waitFor(t, 10*time.Second, "routes from broker 0 to both subscriber brokers",
		routesReady(o.brokers[0], 3, 5))
	pub, err := Dial(o.addrs[0], "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	cn.SetActive(true) // let the churn begin

	// Phase A: publish through the full overlay under churn, then crash
	// broker 4 MID-TRAFFIC — no drain. Whatever custody it had ACKed but
	// not fsynced is lost with the page cache; whatever it had fsynced is
	// stranded on disk until the restart. Exactly-once must survive both.
	publishRange(t, pub, 0, perPhase)
	assertBrokerCrashed(t, o.brokers[4])
	waitFor(t, 10*time.Second, "broker 0 noticing the crash", func() bool {
		return !o.brokers[0].neighbor(4).connected()
	})

	// Phase B: the overlay routes around the hole while dial loops back off
	// against the dead address.
	publishRange(t, pub, perPhase, 2*perPhase)

	// Restart broker 4 mid-phase-C: neighbors redial, the WAL replays its
	// stranded custody into the fresh engines, and the persisted
	// incarnation keeps its new frame and packet IDs partitioned from every
	// pre-crash ID still inside the peers' dedup horizon.
	o.restart(t, 4)
	publishRange(t, pub, 2*perPhase, 3*perPhase)

	// Heal and require convergence: every packet, every subscriber.
	cn.SetActive(false)
	total := 3 * perPhase
	waitFor(t, 30*time.Second, "full delivery after healing", func() bool {
		return collectors[0].have(total) && collectors[1].have(total)
	})
	for i, col := range collectors {
		if d := col.duplicates(); len(d) != 0 {
			t.Errorf("subscriber %d saw duplicate sequences %v", i, d)
		}
	}

	// All retransmission state must resolve: pooled objects return to zero
	// on every broker while the overlay is still running. The window must
	// cover MaxLifetime: a straggler copy that failed over through the churn
	// can legitimately ride its lifetime out before resolving, and under the
	// race detector everything runs several times slower.
	waitFor(t, 90*time.Second, "engine pools draining on all brokers", func() bool {
		for _, b := range o.brokers {
			if works, flights, frames := b.PoolsLive(); works+flights+frames+b.PayloadsLive() != 0 {
				return false
			}
		}
		return true
	})

	// The churn must have actually happened for this to certify anything.
	cs := cn.Stats()
	if cs.FramesDropped == 0 || cs.Resets == 0 {
		t.Errorf("implausibly quiet chaos run: %+v", cs)
	}
	var redials, reconnects uint64
	for _, b := range o.brokers {
		st := b.Stats()
		redials += st.Redials
		reconnects += st.Reconnects
	}
	if redials == 0 {
		t.Error("no redials recorded despite a broker crash")
	}
	if reconnects == 0 {
		t.Error("no reconnects recorded despite resets and a restart")
	}
	// Every link speaks the batch framing, so the exactly-once result above
	// also certifies coalesced ACKs and batch framing under churn — provided
	// the machinery actually engaged.
	var ackBatches uint64
	for _, b := range o.brokers {
		ackBatches += b.Stats().AckBatches
	}
	if ackBatches == 0 {
		t.Error("no coalesced ACK batches despite relay batching overlay-wide")
	}

	// Likewise the link-state control plane ran overlay-wide through the
	// same churn: every broker must have gossiped, rebuilt tables from the
	// gossip, and kept the data plane correct while doing it.
	for i, b := range o.brokers {
		st := b.Stats()
		if st.Ctrl.LinkStatesSent == 0 || st.Ctrl.LinkStatesRecv == 0 {
			t.Errorf("broker %d: no link-state gossip (sent=%d recv=%d)",
				i, st.Ctrl.LinkStatesSent, st.Ctrl.LinkStatesRecv)
		}
		if st.Ctrl.Rebuilds == 0 || st.Ctrl.TablesBuilt == 0 {
			t.Errorf("broker %d: control plane never rebuilt (rebuilds=%d tables=%d)",
				i, st.Ctrl.Rebuilds, st.Ctrl.TablesBuilt)
		}
		if len(st.Links) == 0 {
			t.Errorf("broker %d: empty link estimate table after soak", i)
		}
	}

	// Durable custody ran overlay-wide: every broker journaled, and the
	// restarted broker recovered from the crash victim's directory.
	for i, b := range o.brokers {
		st := b.Stats().Wal
		if !st.Enabled {
			t.Errorf("broker %d: WAL disabled during a durable soak", i)
			continue
		}
		if st.Appends == 0 || st.Fsyncs == 0 {
			t.Errorf("broker %d: no WAL activity (appends=%d fsyncs=%d)", i, st.Appends, st.Fsyncs)
		}
	}

	for _, c := range subClients {
		_ = c.Close()
	}
	_ = pub.Close()
	for _, b := range o.brokers {
		assertBrokerClean(t, b)
	}
}

// TestCloseUnderChaosTraffic slams Close on every broker while publishers
// are mid-stream and the chaos layer is resetting connections: no panic, no
// deadlock, no leaked goroutines or pooled objects.
func TestCloseUnderChaosTraffic(t *testing.T) {
	cn := chaos.NewNetwork(chaos.Config{
		Seed:  7,
		Epoch: 100 * time.Millisecond,
		Default: chaos.Faults{
			DropProb:  0.1,
			ResetProb: 0.02,
			DupProb:   0.05,
		},
	})
	defer cn.Close()
	// Memory-custody mode on purpose: this test certifies the in-memory
	// teardown path stays clean without a WAL in the picture.
	o := newChaosOverlay(t, cn, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}, "")

	sub, err := Dial(o.addrs[2], "sub")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Subscribe(soakTopic, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	go func() {
		for range sub.Receive() {
		}
	}()
	waitFor(t, 10*time.Second, "route 0→2", routesReady(o.brokers[0], 2))

	// Two publishers hammer broker 0 until their connections die under them.
	var pubs sync.WaitGroup
	for p := 0; p < 2; p++ {
		c, err := Dial(o.addrs[0], fmt.Sprintf("pub-%d", p))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		pubs.Add(1)
		go func(c *Client) {
			defer pubs.Done()
			var payload [4]byte
			for s := uint32(0); ; s++ {
				binary.BigEndian.PutUint32(payload[:], s)
				if err := c.Publish(soakTopic, 10*time.Second, payload[:]); err != nil {
					return
				}
			}
		}(c)
	}
	time.Sleep(300 * time.Millisecond) // let traffic and resets build up

	closed := make(chan struct{})
	go func() {
		defer close(closed)
		var wg sync.WaitGroup
		for _, b := range o.brokers {
			wg.Add(1)
			go func(b *Broker) {
				defer wg.Done()
				_ = b.Close()
			}(b)
		}
		wg.Wait()
	}()
	select {
	case <-closed:
	case <-time.After(20 * time.Second):
		t.Fatal("Close deadlocked under chaos traffic")
	}
	pubs.Wait()
	for _, b := range o.brokers {
		if g := b.Goroutines(); g != 0 {
			t.Errorf("broker %d: %d goroutines survived Close", b.ID(), g)
		}
		assertNothingLive(t, b, "after Close")
	}
	// Shard-aware shutdown ordering: Close waits for every shard to drain
	// its mailbox and shut its engine down before tearing connections apart,
	// so once PoolsLive reads zero it must STAY zero — no straggling
	// in-flight work may resurrect a pooled object after the read.
	time.Sleep(200 * time.Millisecond)
	for _, b := range o.brokers {
		assertNothingLive(t, b, "200 ms after Close (resurrected)")
	}
}

// TestCloseMidTrafficReleasesEveryPayload closes a 3-broker chain while a
// publisher is saturating it, twenty times over: every payload reference —
// in a mailbox, an engine, a queued delivery or a writer queue whose writer
// has just stopped — must still be released. A message left in a stopped
// writer's queue is collected all the same, so nothing but PayloadsLive
// would notice it, and the leak check would go blind.
func TestCloseMidTrafficReleasesEveryPayload(t *testing.T) {
	for round := 0; round < 20; round++ {
		o := pipeChain(t, 3)
		sub, err := DialSession(o.addrs[2], "sub", 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := sub.Subscribe(1, soakTopic, 10*time.Second); err != nil {
			t.Fatal(err)
		}
		if err := sub.Flush(); err != nil {
			t.Fatal(err)
		}
		plain, err := Dial(o.addrs[2], "plain-sub")
		if err != nil {
			t.Fatal(err)
		}
		if err := plain.Subscribe(soakTopic, 10*time.Second); err != nil {
			t.Fatal(err)
		}
		go func() {
			for range plain.Receive() {
			}
		}()
		waitForRoute(t, o.brokers[0], soakTopic, 2)
		pub, err := Dial(o.addrs[0], "pub")
		if err != nil {
			t.Fatal(err)
		}
		published := make(chan int)
		go func() {
			n := 0
			for pub.Publish(soakTopic, 10*time.Second, []byte("mid-traffic")) == nil {
				n++
			}
			published <- n
		}()
		waitFor(t, 10*time.Second, "traffic reaching the far broker", func() bool {
			return o.brokers[2].Stats().Delivered > 200
		})
		// Far end first: the upstream brokers are then mid-send to links and
		// writers that are going away.
		for i := len(o.brokers) - 1; i >= 0; i-- {
			assertBrokerClean(t, o.brokers[i])
		}
		_ = pub.Close()
		if n := <-published; n == 0 {
			t.Fatal("the publisher never got a packet in")
		}
		_ = sub.Close()
		_ = plain.Close()
	}
}

// TestSendAfterWriterStoppedReleases pins the hand-over rule of
// connWriter.send: a message enqueued after the writer stopped (the writer
// has already released what it found and will not look again) is released by
// the sender, and one refused outright stays the caller's.
func TestSendAfterWriterStoppedReleases(t *testing.T) {
	bk, err := New(Config{ID: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer bk.Close()
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	w := newConnWriter(server, 8, nil)
	newMsg := func() *muxMsg {
		m := muxMsgPool.Get().(*muxMsg)
		m.payload = bk.newPayload([]byte("late"))
		return m
	}

	w.queue <- newMsg() // enqueued while the writer was alive
	w.shutdown()
	w.queue <- newMsg() // the enqueue half of a send that raced the stop
	w.queued()
	if n, live := len(w.queue), bk.PayloadsLive(); n != 0 || live != 0 {
		t.Fatalf("after the sender's re-check: %d messages queued, %d payloads live, want 0 and 0", n, live)
	}

	m := newMsg()
	if err := w.send(m); err == nil {
		t.Fatal("send to a stopped writer succeeded")
	}
	if live := bk.PayloadsLive(); live != 1 {
		t.Fatalf("a refused message must stay the caller's: %d payloads live, want 1", live)
	}
	releaseMsg(m)
	if live := bk.PayloadsLive(); live != 0 {
		t.Fatalf("%d payloads live after the caller released its message", live)
	}
}
