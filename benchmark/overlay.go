package main

import (
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/broker"
	"repro/internal/chaos"
	"repro/internal/trace"
	"repro/internal/wire"
)

// scratchRoot holds the WAL directories of durable runs. It sits inside the
// working directory (the benchmark reads and writes only inside its
// checkout) and is removed when the run ends.
const scratchRoot = ".bench_tmp"

// overlay is one live in-process overlay with its single publisher
// connection and single subscriber session attached.
type overlay struct {
	w       *workload
	brokers []*broker.Broker
	addrs   []string
	// listeners are closed again at tearDown: a broker that never got as
	// far as StartListener does not own its listener yet.
	listeners []net.Listener
	// cn is the chaos network (nil on plain listeners); cnStart is its
	// epoch-clock origin to within a microsecond.
	cn      *chaos.Network
	cnStart time.Time
	links   *linkCounters
	dataDir string

	base time.Time // origin of every ns-since-base stamp in this overlay
	gen  *generator
	rx   *receiver
	sess *broker.Session

	// setup is how long setUp took: broker.New × N, through Subscribe, to
	// the first probe publish arriving on every topic.
	setup time.Duration
}

// overlayOpts are the traced pass's taps; the zero value is the untraced
// overlay every end-to-end metric comes from.
type overlayOpts struct {
	tracer trace.Recorder
	count  bool // wrap listeners in counting conns
}

// setUp builds the workload's overlay cold and returns once traffic flows
// end to end. maxSeqs sizes the receiver's ledger.
func setUp(w *workload, seed uint64, maxSeqs int, opt overlayOpts) (_ *overlay, err error) {
	begin := time.Now()
	ov := &overlay{w: w, base: begin}
	defer func() {
		if err != nil {
			ov.tearDown()
		}
	}()
	if w.durable {
		if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
			return nil, err
		}
		if ov.dataDir, err = os.MkdirTemp(scratchRoot, w.name+"-"); err != nil {
			return nil, err
		}
	}
	if w.faults != nil {
		ov.cnStart = time.Now()
		ov.cn = chaos.NewNetwork(chaos.Config{Seed: seed, Epoch: chaosEpoch, Default: *w.faults})
		ov.cn.SetActive(false) // converge and warm up clean; the window switches faults on
	}
	if opt.count {
		ov.links = &linkCounters{}
	}

	n := w.brokers
	neighbors := make([]map[int]string, n)
	ov.addrs = make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ov.listeners = append(ov.listeners, ln)
		ov.addrs[i] = ln.Addr().String()
		neighbors[i] = make(map[int]string)
	}
	if n > 1 {
		link := func(a, b int) {
			neighbors[a][b] = ov.addrs[b]
			neighbors[b][a] = ov.addrs[a]
		}
		for i := 0; i < n; i++ {
			link(i, (i+1)%n)
		}
		for i := 0; i < n/2; i++ {
			link(i, i+n/2)
		}
	}
	for i := 0; i < n; i++ {
		cfg := broker.Config{
			ID:         i,
			Listen:     ov.addrs[i],
			Neighbors:  neighbors[i],
			M:          2,
			Persistent: true,
			DialRetry:  20 * time.Millisecond,
			// The one knob off its default besides the ISSUE's. The
			// broker→subscriber hop has no custody: a frame that finds the
			// session's queue full for 5 ms is dropped for good. The default
			// 1024 overflows whenever an fsync hiccup or a host stall releases
			// a second's worth of deliveries at once (2 of 10 relay_durable
			// runs lost 1-9 packets that way).
			SendQueue: 8192,
			Tracer:    opt.tracer,
		}
		if ov.dataDir != "" {
			cfg.DataDir = filepath.Join(ov.dataDir, fmt.Sprintf("broker-%d", i))
		}
		b, err := broker.New(cfg)
		if err != nil {
			return nil, err
		}
		ov.brokers = append(ov.brokers, b)
		ln := ov.listeners[i]
		if ov.cn != nil {
			ln = ov.cn.Listener(ln, i)
		}
		if ov.links != nil {
			// Outermost, so it counts what the broker itself reads and writes.
			ln = &countingListener{Listener: ln, c: ov.links}
		}
		if err := b.StartListener(ln); err != nil {
			return nil, err
		}
	}

	tr := newTraffic(w, seed)
	ov.rx = newReceiver(tr, ov.base, maxSeqs)
	ov.rx.sampling = opt.tracer != nil
	ov.sess, err = broker.DialSession(ov.addrs[w.subAt], "bench-sub", uint32(w.subs), ov.rx.handle)
	if err != nil {
		return nil, err
	}
	for i := 0; i < w.subs; i++ {
		if err := ov.sess.Subscribe(uint32(i), topicBase+int32(i%w.topics), w.deadline); err != nil {
			return nil, err
		}
	}
	if err := ov.sess.Flush(); err != nil {
		return nil, err
	}
	ov.gen, err = newGenerator(w, tr, ov.rx, ov.addrs[0], ov.base)
	if err != nil {
		return nil, err
	}

	// Probe every millisecond, cycling over the topics, until each topic
	// has echoed one probe to its full subscriber list.
	timeout := time.After(30 * time.Second)
	tk := time.NewTicker(time.Millisecond)
	defer tk.Stop()
	for k := uint64(0); ; k++ {
		ov.gen.probe(k)
		if ov.gen.writeErr != nil {
			return nil, ov.gen.writeErr
		}
		select {
		case <-ov.rx.probed:
			ov.setup = time.Since(begin)
			return ov, nil
		case <-timeout:
			return nil, fmt.Errorf("%s: no probe arrived within 30s of set-up", w.name)
		case <-tk.C:
		}
	}
}

// closeClients ends the publisher connection and the subscriber session;
// after it the receiver's ledger is quiescent.
func (ov *overlay) closeClients() {
	if ov.gen != nil {
		_ = ov.gen.conn.Close()
	}
	if ov.sess != nil {
		_ = ov.sess.Close()
	}
}

// tearDown stops everything and reports what leaked: after Close every
// broker must be back to zero tracked goroutines and zero pooled objects.
func (ov *overlay) tearDown() (leaks []string) {
	ov.closeClients()
	for _, b := range ov.brokers {
		if err := b.Close(); err != nil {
			leaks = append(leaks, fmt.Sprintf("broker %d close: %v", b.ID(), err))
		}
	}
	for _, ln := range ov.listeners {
		_ = ln.Close() // already closed by its broker, unless set-up failed half way
	}
	if ov.cn != nil {
		ov.cn.Close()
	}
	for _, b := range ov.brokers {
		if g := b.Goroutines(); g != 0 {
			leaks = append(leaks, fmt.Sprintf("broker %d leaked %d goroutines", b.ID(), g))
		}
		if w, f, fr := b.PoolsLive(); w+f+fr != 0 {
			leaks = append(leaks, fmt.Sprintf("broker %d leaked pooled objects (works=%d flights=%d frames=%d)", b.ID(), w, f, fr))
		}
	}
	if ov.dataDir != "" {
		_ = os.RemoveAll(ov.dataDir)
		_ = os.Remove(scratchRoot) // succeeds only once the last run's directory is gone
	}
	return leaks
}

// sumStats adds up every broker's counters.
func (ov *overlay) sumStats() broker.Stats {
	var t broker.Stats
	for _, b := range ov.brokers {
		s := b.Stats()
		t.Published += s.Published
		t.Delivered += s.Delivered
		t.Forwarded += s.Forwarded
		t.Dropped += s.Dropped
		t.QueueDrops += s.QueueDrops
		t.Reconnects += s.Reconnects
		t.AckBatches += s.AckBatches
		t.AckFramesCoalesced += s.AckFramesCoalesced
		t.Ctrl.Rebuilds += s.Ctrl.Rebuilds
		t.Ctrl.Noops += s.Ctrl.Noops
		t.Ctrl.TablesBuilt += s.Ctrl.TablesBuilt
		t.Ctrl.LinkStatesSent += s.Ctrl.LinkStatesSent
		t.Wal.Enabled = t.Wal.Enabled || s.Wal.Enabled
		t.Wal.Appends += s.Wal.Appends
		t.Wal.Fsyncs += s.Wal.Fsyncs
		t.Wal.Bytes += s.Wal.Bytes
	}
	return t
}

// linkCounters is what the counting listeners saw, split by what the first
// inbound frame said the peer is: a broker (relay link) or a client (edge).
type linkCounters struct {
	relayBytes  atomic.Int64 // both directions of every relay link
	relayWrites atomic.Int64 // Write calls on the accepting end
	edgeBytes   atomic.Int64 // broker→client bytes
}

// linkCounts is one reading of linkCounters.
type linkCounts struct{ relayBytes, relayWrites, edgeBytes int64 }

func (c *linkCounters) snapshot() linkCounts {
	return linkCounts{c.relayBytes.Load(), c.relayWrites.Load(), c.edgeBytes.Load()}
}

type countingListener struct {
	net.Listener
	c *linkCounters
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: conn, c: l.c}, nil
}

// countingConn classifies itself from the Hello that opens every
// connection (4-byte length, type byte, int32 BrokerID) and then counts.
// Each overlay link is accepted by exactly one broker, so wrapping every
// listener sees every link once.
type countingConn struct {
	net.Conn
	c     *linkCounters
	head  [9]byte
	nhead int
	// class is 0 until the Hello is seen, then 1 (relay) or 2 (client). The
	// read loop sets it, the writer goroutine reads it.
	class atomic.Int32
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	switch c.class.Load() {
	case 0:
		c.nhead += copy(c.head[c.nhead:], p[:n])
		if c.nhead == len(c.head) {
			class := int32(2)
			if wire.Type(c.head[4]) == wire.TypeHello && int32(binary.BigEndian.Uint32(c.head[5:])) >= 0 {
				class = 1
			}
			c.class.Store(class)
		}
	case 1:
		c.c.relayBytes.Add(int64(n))
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	switch c.class.Load() {
	case 1:
		c.c.relayBytes.Add(int64(n))
		c.c.relayWrites.Add(1)
	case 2:
		c.c.edgeBytes.Add(int64(n))
	}
	return n, err
}
