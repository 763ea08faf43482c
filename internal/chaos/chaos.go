// Package chaos is a deterministic fault-injection layer for the live DCRD
// broker: a net.Listener/net.Conn wrapper that subjects broker-broker links
// to the paper's dynamic failure process — per-epoch link failure
// (Theorem 2's Pf, ported to wall-clock epochs), per-transmission loss (Pl)
// — plus the failure modes real deployments add on top: added delay,
// frame duplication, detected corruption, connection resets and write-side
// stalls.
//
// # Topology of interception
//
// Every broker-broker TCP connection is accepted by exactly one endpoint,
// so wrapping every broker's listener (Network.Listener) covers every
// overlay link exactly once, in both directions: the accepted connection's
// read path carries peer→owner frames and its write path owner→peer frames.
// The wrapper is frame-aware — it understands the wire protocol's
// "uint32 length + body" framing — so faults operate on whole frames, never
// tearing the byte stream mid-frame (except deliberately, via corruption).
// Connections are classified by their first inbound frame: a Hello with
// BrokerID >= 0 binds the connection to the overlay link {owner, peer} and
// its fault plan; client connections (BrokerID < 0) pass through clean.
//
// # Determinism
//
// All per-frame fault decisions come from a splitmix64 stream seeded by
// (Network seed, link endpoints, direction), consuming a fixed number of
// draws per frame regardless of outcomes: for one seed, the k-th frame sent
// on a given link direction always suffers the same fate, across runs and
// across reconnects of the underlying TCP connection (the decision stream
// belongs to the link, not the connection). The epoch partition process is
// indexed by wall-clock epoch number from its own per-link stream, so the
// partition schedule for a seed is a fixed bit string over epochs. Faults
// can also be scripted per link (SetLink) — e.g. a permanent write stall on
// one link, probability-1 loss on another — on top of or instead of the
// seeded process.
//
// # Fault channels
//
//   - Partition (Pf): each epoch, each link independently fails with
//     probability Pf; a failed link silently drops every frame in both
//     directions for the epoch — exactly the paper's failure process, where
//     a failed link looks like 100% loss, not a TCP error.
//   - Loss (Pl): each frame is independently dropped.
//   - Delay: each frame waits Delay plus a seeded jitter before forwarding
//     (head-of-line: later frames queue behind it, like a serial link).
//   - Duplication: a frame is forwarded twice back-to-back (the receiver
//     must dedup by frame ID).
//   - Corruption: the frame's type byte is poisoned (bit 7 set), which the
//     peer's decoder rejects, killing the TCP session — this models
//     *detected* corruption; silent payload corruption is out of scope for
//     a protocol without checksums, as it is for the paper.
//   - Reset: the underlying TCP connection is closed abruptly mid-stream.
//   - Stall: the pump stops moving bytes for StallFor; the backpressure
//     propagates to the sender's conn.Write, which is exactly what a
//     wedged peer looks like (and what write deadlines must recover from).
package chaos

import (
	"encoding/binary"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// Faults configures one link's fault channels. Probabilities are per frame
// except PartitionProb, which is per epoch (the paper's Pf). The zero value
// injects nothing.
type Faults struct {
	// PartitionProb is the per-epoch probability the link fails for that
	// whole epoch (silent 100% loss, both directions).
	PartitionProb float64
	// DropProb drops individual frames (per-transmission loss Pl).
	DropProb float64
	// DupProb forwards a frame twice.
	DupProb float64
	// CorruptProb poisons a frame's type byte so the receiver's decoder
	// rejects the stream (detected corruption ⇒ connection teardown).
	CorruptProb float64
	// ResetProb closes the underlying TCP connection abruptly.
	ResetProb float64
	// StallProb freezes the direction's pump for StallFor, wedging the
	// sender's writes behind it.
	StallProb float64
	// StallFor is how long a stall lasts (default 2s).
	StallFor time.Duration
	// Delay is added to every frame's forwarding, plus a seeded jitter
	// uniform in [0, DelayJitter).
	Delay       time.Duration
	DelayJitter time.Duration
}

// Config describes a chaos network.
type Config struct {
	// Seed drives every fault decision stream; same seed, same schedule.
	Seed uint64
	// Epoch is the wall-clock length of one partition epoch (default 200ms
	// — a compressed version of the paper's 1 s epochs).
	Epoch time.Duration
	// Default is the fault plan applied to every broker-broker link without
	// a SetLink override.
	Default Faults
}

// Network coordinates fault injection for one overlay: all listeners
// wrapped by one Network share its seed, epoch clock and per-link state.
type Network struct {
	cfg   Config
	start time.Time

	// active gates all fault injection; 0 means pass everything clean
	// (used to heal the overlay at the end of a soak).
	active atomic.Int32

	mu        sync.Mutex
	links     map[linkKey]*linkState
	overrides map[linkKey]Faults
	conns     map[*chaosConn]struct{}
	closing   bool // set by Close; refuses new wrapConn pumps

	wg sync.WaitGroup

	// Counters are cumulative across the network (atomic).
	framesSeen    atomic.Uint64
	framesDropped atomic.Uint64
	framesDuped   atomic.Uint64
	framesCorrupt atomic.Uint64
	resets        atomic.Uint64
	stalls        atomic.Uint64
}

// Stats is a snapshot of the network's cumulative fault counters.
type Stats struct {
	FramesSeen    uint64
	FramesDropped uint64
	FramesDuped   uint64
	FramesCorrupt uint64
	Resets        uint64
	Stalls        uint64
}

// linkKey identifies one undirected overlay link.
type linkKey struct{ lo, hi int }

func keyOf(a, b int) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{lo: a, hi: b}
}

// NewNetwork builds a chaos network with injection active.
func NewNetwork(cfg Config) *Network {
	if cfg.Epoch <= 0 {
		cfg.Epoch = 200 * time.Millisecond
	}
	n := &Network{
		cfg:       cfg,
		start:     time.Now(),
		links:     make(map[linkKey]*linkState),
		overrides: make(map[linkKey]Faults),
		conns:     make(map[*chaosConn]struct{}),
	}
	n.active.Store(1)
	return n
}

// SetLink overrides the fault plan for one undirected link, replacing the
// network default. It applies to frames processed after the call.
func (n *Network) SetLink(a, b int, f Faults) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.overrides[keyOf(a, b)] = f
	if ls, ok := n.links[keyOf(a, b)]; ok {
		ls.mu.Lock()
		ls.faults = withStallDefault(f)
		ls.mu.Unlock()
	}
}

// SetActive enables or disables all fault injection. Disabling heals the
// overlay: every frame passes clean, partitions lift immediately.
func (n *Network) SetActive(on bool) {
	if on {
		n.active.Store(1)
	} else {
		n.active.Store(0)
	}
}

// Stats snapshots the cumulative fault counters.
func (n *Network) Stats() Stats {
	return Stats{
		FramesSeen:    n.framesSeen.Load(),
		FramesDropped: n.framesDropped.Load(),
		FramesDuped:   n.framesDuped.Load(),
		FramesCorrupt: n.framesCorrupt.Load(),
		Resets:        n.resets.Load(),
		Stalls:        n.stalls.Load(),
	}
}

// Close tears down every live wrapped connection and waits for the pump
// goroutines. Listeners themselves are the caller's to close.
func (n *Network) Close() {
	n.mu.Lock()
	n.closing = true
	conns := make([]*chaosConn, 0, len(n.conns))
	for c := range n.conns {
		conns = append(conns, c)
	}
	n.mu.Unlock()
	for _, c := range conns {
		c.teardown()
	}
	n.wg.Wait()
}

// withStallDefault fills the stall duration default.
func withStallDefault(f Faults) Faults {
	if f.StallFor <= 0 {
		f.StallFor = 2 * time.Second
	}
	return f
}

// link returns (creating if needed) the shared state for one undirected
// link. Decision streams live here, so they persist across reconnects.
func (n *Network) link(a, b int) *linkState {
	key := keyOf(a, b)
	n.mu.Lock()
	defer n.mu.Unlock()
	ls, ok := n.links[key]
	if !ok {
		f, overridden := n.overrides[key]
		if !overridden {
			f = n.cfg.Default
		}
		ls = &linkState{
			net:    n,
			key:    key,
			faults: withStallDefault(f),
			part:   rng{s: mix(n.cfg.Seed, uint64(key.lo)<<32|uint64(key.hi), 0x9a73)},
		}
		ls.dirs[0] = &direction{link: ls, rnd: rng{s: mix(n.cfg.Seed, uint64(key.lo)<<32|uint64(key.hi), 1)}}
		ls.dirs[1] = &direction{link: ls, rnd: rng{s: mix(n.cfg.Seed, uint64(key.lo)<<32|uint64(key.hi), 2)}}
		n.links[key] = ls
	}
	return ls
}

// linkState is the persistent chaos state of one undirected link: its fault
// plan, the two per-direction decision streams, and the lazily extended
// epoch partition schedule.
type linkState struct {
	net *Network
	key linkKey

	mu       sync.Mutex
	faults   Faults
	part     rng    // partition schedule stream
	schedule []bool // schedule[i]: is epoch i partitioned?
	// dirs[0] serves lo→hi frames, dirs[1] hi→lo.
	dirs [2]*direction
}

// dir returns the decision stream for frames flowing from → to.
func (ls *linkState) dir(from, to int) *direction {
	if from < to {
		return ls.dirs[0]
	}
	return ls.dirs[1]
}

// partitioned reports whether the link is failed in the current epoch,
// extending the precomputed schedule as the clock reaches new epochs.
func (ls *linkState) partitioned(now time.Time) bool {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.faults.PartitionProb <= 0 {
		return false
	}
	epoch := int(now.Sub(ls.net.start) / ls.net.cfg.Epoch)
	for len(ls.schedule) <= epoch {
		ls.schedule = append(ls.schedule, ls.part.float() < ls.faults.PartitionProb)
	}
	return ls.schedule[epoch]
}

// direction is one flow direction's decision stream.
type direction struct {
	link *linkState
	mu   sync.Mutex
	rnd  rng
}

// verdict is the full set of fault decisions for one frame. The draws are
// always consumed in the same fixed order so the decision stream stays
// aligned across runs regardless of what earlier frames suffered.
type verdict struct {
	drop    bool
	dup     bool
	corrupt bool
	reset   bool
	stall   bool
	delay   time.Duration
}

// decide consumes one frame's worth of draws and folds in the epoch
// partition state.
func (d *direction) decide(now time.Time) verdict {
	d.link.mu.Lock()
	f := d.link.faults
	d.link.mu.Unlock()
	d.mu.Lock()
	v := verdict{
		drop:    d.rnd.float() < f.DropProb,
		dup:     d.rnd.float() < f.DupProb,
		corrupt: d.rnd.float() < f.CorruptProb,
		reset:   d.rnd.float() < f.ResetProb,
		stall:   d.rnd.float() < f.StallProb,
	}
	jitter := d.rnd.float() // always drawn, even when unused
	d.mu.Unlock()
	if f.Delay > 0 || f.DelayJitter > 0 {
		v.delay = f.Delay + time.Duration(jitter*float64(f.DelayJitter))
	}
	if d.link.partitioned(now) {
		v.drop = true
	}
	return v
}

// Listener wraps a broker's listener so every accepted connection flows
// through the chaos network. ownerID is the broker the listener belongs to.
type Listener struct {
	net.Listener
	network *Network
	owner   int
}

// Listener wraps ln for the given owning broker.
func (n *Network) Listener(ln net.Listener, ownerID int) *Listener {
	return &Listener{Listener: ln, network: n, owner: ownerID}
}

// Accept wraps the next inbound connection in the chaos pumps.
func (l *Listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.network.wrapConn(c, l.owner), nil
}

// chaosConn is the pump pair bridging one real connection and the pipe end
// handed to the broker.
type chaosConn struct {
	network *Network
	owner   int
	real    net.Conn
	pipe    net.Conn // chaos side of the pipe; the broker holds the other end

	closeOnce sync.Once
	done      chan struct{} // closed by teardown; aborts in-flight sleeps

	// classification: set once the first inbound frame (Hello) is parsed.
	classified chan struct{}
	peer       int // broker ID, or -1 for clients (no faults)
}

// wrapConn starts the pumps for one accepted connection and returns the end
// the broker reads/writes.
func (n *Network) wrapConn(real net.Conn, owner int) net.Conn {
	brokerEnd, chaosEnd := net.Pipe()
	c := &chaosConn{
		network:    n,
		owner:      owner,
		real:       real,
		pipe:       chaosEnd,
		classified: make(chan struct{}),
		done:       make(chan struct{}),
		peer:       -1,
	}
	n.mu.Lock()
	// An accept can race Close (a broker's accept loop outlives the chaos
	// network in failure teardowns). Registering and wg.Add under the same
	// lock that Close uses to set closing means every started pump pair is
	// either seen by Close's teardown snapshot or never started at all —
	// wg.Add can't race wg.Wait.
	if n.closing {
		n.mu.Unlock()
		_ = real.Close()
		_ = chaosEnd.Close()
		_ = brokerEnd.Close()
		return brokerEnd
	}
	n.conns[c] = struct{}{}
	n.wg.Add(2)
	n.mu.Unlock()
	go c.pumpIn()
	go c.pumpOut()
	return brokerEnd
}

// teardown closes both halves; pumps exit on the resulting errors.
func (c *chaosConn) teardown() {
	c.closeOnce.Do(func() {
		close(c.done)
		_ = c.real.Close()
		_ = c.pipe.Close()
	})
	c.network.mu.Lock()
	delete(c.network.conns, c)
	c.network.mu.Unlock()
}

// pumpIn moves peer→owner frames. The first frame classifies the
// connection (Hello.BrokerID) and always passes clean; afterwards, frames
// on broker links run the gauntlet.
func (c *chaosConn) pumpIn() {
	defer c.network.wg.Done()
	defer c.teardown()
	first := true
	c.pump(c.real, c.pipe, func(frame []byte) *direction {
		if first {
			first = false
			c.classify(frame)
			return nil // handshake frame passes clean
		}
		if c.peer < 0 {
			return nil // client connection: no faults
		}
		return c.network.link(c.owner, c.peer).dir(c.peer, c.owner)
	})
}

// pumpOut moves owner→peer frames, waiting for classification so the fault
// plan is known (brokers never send before receiving the peer's Hello, so
// this wait resolves immediately in practice).
func (c *chaosConn) pumpOut() {
	defer c.network.wg.Done()
	defer c.teardown()
	c.pump(c.pipe, c.real, func(frame []byte) *direction {
		select {
		case <-c.classified:
		case <-c.done: // peer never sent its Hello; pass through and let
			return nil // the closed conns error the pump out
		}
		if c.peer < 0 {
			return nil
		}
		return c.network.link(c.owner, c.peer).dir(c.owner, c.peer)
	})
}

// classify parses the first inbound frame as a Hello and records the peer.
// Anything unexpected is treated as a client (clean passthrough).
func (c *chaosConn) classify(frame []byte) {
	// frame = type byte + body; Hello body starts with BrokerID int32.
	if len(frame) >= 5 && wire.Type(frame[0]) == wire.TypeHello {
		if id := int32(binary.BigEndian.Uint32(frame[1:5])); id >= 0 {
			c.peer = int(id)
		}
	}
	close(c.classified)
}

// pump is the shared frame loop: read one frame from src, ask pick for the
// decision stream (nil = forward clean), apply the verdict, write to dst.
func (c *chaosConn) pump(src io.Reader, dst io.Writer, pick func(frame []byte) *direction) {
	// buf holds one whole frame, length header included, so forwarding it
	// is one Write.
	buf := make([]byte, 4, 4096)
	for {
		if _, err := io.ReadFull(src, buf[:4]); err != nil {
			return
		}
		size := binary.BigEndian.Uint32(buf)
		if size == 0 || size > wire.MaxFrameSize {
			return // stream is already broken; tear it down
		}
		if cap(buf) < 4+int(size) {
			buf = append(make([]byte, 0, 4+int(size)), buf[:4]...)
		}
		buf = buf[:4+size]
		frame := buf[4:]
		if _, err := io.ReadFull(src, frame); err != nil {
			return
		}
		dir := pick(frame)
		if dir == nil || c.network.active.Load() == 0 {
			if !writeFrame(dst, buf) {
				return
			}
			continue
		}
		c.network.framesSeen.Add(1)
		v := dir.decide(time.Now())
		if v.stall {
			c.network.stalls.Add(1)
			sleepCtx(c, dir.stallFor())
		}
		if v.delay > 0 {
			sleepCtx(c, v.delay)
		}
		if v.reset {
			c.network.resets.Add(1)
			c.teardown()
			return
		}
		if v.drop {
			c.network.framesDropped.Add(1)
			continue
		}
		if v.corrupt {
			c.network.framesCorrupt.Add(1)
			frame[0] |= 0x80 // unknown type ⇒ peer rejects the stream
			writeFrame(dst, buf)
			// The stream is now poisoned from the peer's point of view;
			// finish the job so both sides converge on reconnect.
			c.teardown()
			return
		}
		if !writeFrame(dst, buf) {
			return
		}
		if v.dup {
			c.network.framesDuped.Add(1)
			if !writeFrame(dst, buf) {
				return
			}
		}
	}
}

// stallFor reads the link's current stall duration.
func (d *direction) stallFor() time.Duration {
	d.link.mu.Lock()
	defer d.link.mu.Unlock()
	return d.link.faults.StallFor
}

// sleepCtx sleeps d, aborting early when the connection tears down so a
// long stall cannot outlive Network.Close.
func sleepCtx(c *chaosConn, d time.Duration) {
	if d <= 0 {
		return
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-c.done:
	}
}

// writeFrame writes one whole frame (header included) in one Write; false
// means the stream died.
func writeFrame(dst io.Writer, frame []byte) bool {
	_, err := dst.Write(frame)
	return err == nil
}

// rng is a splitmix64 stream — tiny, seedable, stable across Go versions.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform float64 in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// mix folds link identity and a stream tag into the seed.
func mix(seed, link, tag uint64) uint64 {
	x := rng{s: seed ^ link*0x9e3779b97f4a7c15 ^ tag<<17}
	return x.next()
}
