package broker

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// Writer-pipeline tuning. Every connection (neighbor link or client) owns a
// dedicated writer goroutine fed by a bounded queue: send is an enqueue that
// never blocks on a syscall, and the writer drains whatever is queued into
// one coalesced conn.Write per wakeup.
const (
	// defaultSendQueue is the per-connection outbound queue length when
	// Config.SendQueue is unset.
	defaultSendQueue = 1024
	// enqueueWait bounds how long send blocks for space on a full queue
	// before reporting the message dropped (backpressure, not disconnect).
	enqueueWait = 5 * time.Millisecond
	// maxFlushBytes caps how many encoded bytes one wakeup coalesces into a
	// single conn.Write, bounding both latency and the scratch buffer.
	maxFlushBytes = 256 << 10
	// writerBufCap is the writer's initial scratch-buffer capacity.
	writerBufCap = 32 << 10
	// readBufSize is the buffered-reader size in front of each connection's
	// frame decoder.
	readBufSize = 64 << 10
	// handshakeTimeout bounds how long an inbound connection may sit
	// without sending its Hello before the broker gives up on it — a
	// half-open peer must not pin an accept goroutine forever.
	handshakeTimeout = 10 * time.Second
)

var (
	errNotConnected  = errors.New("broker: not connected")
	errSendQueueFull = errors.New("broker: send queue full")
)

// connWriter is the outbound half of one connection: a bounded message
// queue drained by a dedicated goroutine (Broker.runWriter). Messages must
// not be mutated after a successful send — encoding happens later, on the
// writer goroutine.
type connWriter struct {
	conn  net.Conn
	queue chan wire.Message
	stop  chan struct{}
	once  sync.Once
	// drops counts queue-full message drops into the broker's shared
	// QueueDrops counter (nil discards).
	drops *atomic.Uint64
}

func newConnWriter(conn net.Conn, queueLen int, drops *atomic.Uint64) *connWriter {
	if queueLen < 1 {
		queueLen = defaultSendQueue
	}
	return &connWriter{
		conn:  conn,
		queue: make(chan wire.Message, queueLen),
		stop:  make(chan struct{}),
		drops: drops,
	}
}

// shutdown stops the writer goroutine; it is idempotent and safe to call
// from any goroutine.
func (w *connWriter) shutdown() { w.once.Do(func() { close(w.stop) }) }

// kick wakes the writer goroutine without enqueueing a message (a nil queue
// entry is a pure wakeup). Used by the ACK coalescer: the writer drains the
// pending coalesced ACKs on every wakeup. Best-effort — if the queue is
// full the writer is awake anyway.
func (w *connWriter) kick() {
	select {
	case w.queue <- nil:
	default:
	}
}

// send enqueues one message for the writer. A full queue is given a brief
// grace period (backpressure) and then the message is dropped with
// errSendQueueFull; the connection itself stays up — Algorithm 2's
// retransmit machinery covers dropped data frames, and probes and floods
// are periodic anyway. On nil the message belongs to the writer, which releases
// it (releaseMsg); on an error it is still the caller's.
func (w *connWriter) send(msg wire.Message) error {
	select {
	case <-w.stop:
		return errNotConnected
	default:
	}
	select {
	case w.queue <- msg:
		w.queued()
		return nil
	default:
	}
	t := time.NewTimer(enqueueWait)
	defer t.Stop()
	select {
	case w.queue <- msg:
		w.queued()
		return nil
	case <-w.stop:
		return errNotConnected
	case <-t.C:
		if w.drops != nil {
			w.drops.Add(1)
		}
		return errSendQueueFull
	}
}

// queued runs after a successful enqueue. A writer that stopped in between
// has already released what it found queued and will not look again, so the
// sender does it in its place: no queued message outlives its writer
// unreleased (the payload references they hold are what PayloadsLive counts).
func (w *connWriter) queued() {
	select {
	case <-w.stop:
		w.releaseQueued()
	default:
	}
}

// releaseQueued releases every message in the queue without encoding it.
func (w *connWriter) releaseQueued() {
	for {
		select {
		case msg := <-w.queue:
			if msg != nil {
				releaseMsg(msg)
			}
		default:
			return
		}
	}
}

// runWriter drains a connection's outbound queue: each wakeup encodes every
// queued message (up to maxFlushBytes) into one reused buffer and issues a
// single conn.Write. A write error ends the writer and runs onExit, which
// drops the connection so the dial loop can re-establish it.
//
// For neighbor links (nc != nil) the writer is also the relay-aggregation
// point: consecutive queued DATA messages are packed into DataBatch frames
// (a lone one is a batch of one), and every flush drains the neighbor's
// coalesced-ACK set into one AckBatch frame. Messages are released after
// encoding (releaseMsg), and whatever is still queued when the writer exits
// — stopped first, so that send can tell — is released unencoded.
func (b *Broker) runWriter(w *connWriter, label string, nc *neighborConn, onExit func()) {
	defer onExit()
	defer w.releaseQueued()
	defer w.shutdown()
	buf := make([]byte, 0, writerBufCap)
	var (
		batch      wire.DataBatch // consecutive DATA messages, not yet encoded
		batchBytes int            // their payload bytes, counted against maxFlushBytes
		release    []wire.Message // messages to release after encode
		acks       wire.AckBatch  // coalesced-ACK drain, encoded in place
		deadline   time.Time      // the conn's write deadline
	)
	flushBatch := func() {
		if len(batch.Frames) == 0 {
			return
		}
		buf = b.appendFrameChecked(buf, label, &batch)
		// The entries alias slices owned by pooled messages in release;
		// drop the references so the scratch batch cannot pin them.
		clear(batch.Frames)
		batch.Frames = batch.Frames[:0]
		batchBytes = 0
	}
	appendMsg := func(msg wire.Message) {
		if msg == nil { // kick(): pure wakeup for the ACK coalescer
			return
		}
		release = append(release, msg)
		if d, ok := msg.(*dataMsg); ok {
			batch.Frames = append(batch.Frames, d.Data)
			batchBytes += len(d.Payload)
			if len(batch.Frames) >= dataBatchMaxFrames {
				flushBatch()
			}
			return
		}
		flushBatch() // keep wire order: earlier DATA goes first
		buf = b.appendFrameChecked(buf, label, msg)
	}
	for {
		var msg wire.Message
		select {
		case <-w.stop:
			return
		case msg = <-w.queue:
		}
		buf = buf[:0]
		appendMsg(msg)
	fill:
		for len(buf)+batchBytes < maxFlushBytes {
			select {
			case m := <-w.queue:
				appendMsg(m)
			default:
				break fill
			}
		}
		flushBatch()
		if nc != nil {
			if acks.FrameIDs = nc.takeAcks(acks.FrameIDs); len(acks.FrameIDs) > 0 {
				buf = b.appendAckBatch(buf, label, &acks)
			}
		}
		// Every batched entry is encoded (or dropped) by now.
		for i, m := range release {
			releaseMsg(m)
			release[i] = nil
		}
		release = release[:0]
		if len(buf) == 0 {
			continue
		}
		// Bound the flush: a peer that stops reading (stalled TCP window)
		// must surface as a write error so the connection is dropped and
		// redialed, not wedge this writer forever. The deadline is moved
		// only once half spent (on a net.Pipe every move allocates a
		// timer), so a wedged write still fails within WriteTimeout.
		if now := time.Now(); deadline.Sub(now) < b.cfg.WriteTimeout/2 {
			deadline = now.Add(b.cfg.WriteTimeout)
			_ = w.conn.SetWriteDeadline(deadline)
		}
		if _, err := w.conn.Write(buf); err != nil {
			if !b.stopping() {
				b.logf("%s write: %v", label, err)
			}
			return
		}
		// An oversized frame can balloon the scratch buffer past the flush
		// cap; don't let one giant payload pin that memory forever.
		if cap(buf) > 2*maxFlushBytes {
			buf = make([]byte, 0, writerBufCap)
		}
	}
}

// appendFrameChecked encodes msg onto buf, dropping (and logging) frames
// that exceed the wire size limit instead of poisoning the stream. It also
// feeds the broker's wire-egress telemetry (frames and encoded bytes) —
// the edge fan-out benchmark measures aggregation gains through it.
func (b *Broker) appendFrameChecked(buf []byte, label string, msg wire.Message) []byte {
	base := len(buf)
	buf = wire.AppendFrame(buf, msg)
	if !wire.FrameFits(buf, base) {
		b.logf("%s: dropping oversized %v frame", label, msg.Type())
		return buf[:base]
	}
	b.wireFrames.Add(1)
	b.wireBytes.Add(uint64(len(buf) - base))
	return buf
}

// neighborConn is the broker's view of one overlay link: the TCP connection
// (owned by the lower-ID side) with its writer pipeline, the measured alpha
// (EWMA of RTT/2) and the adaptive gamma estimate driven by ACK outcomes.
// alpha means nothing until sampled is set: the first round trip replaces
// it outright, and until then the link stays out of this broker's
// LINK_STATE records, so no route table can use it.
type neighborConn struct {
	id int

	mu       sync.Mutex
	conn     net.Conn
	w        *connWriter
	attaches int
	alpha    time.Duration
	sampled  bool
	gamma    float64

	// Relay-plane ACK coalescing (see relay.go): pendingAcks is the
	// hop-by-hop ACK set drained by the writer, with ackFlushTimer bounding
	// how long an ACK may sit (always far inside the sender's retransmit
	// timeout).
	ackMu         sync.Mutex
	pendingAcks   []uint64
	ackFlushTimer *time.Timer

	// Control-plane state (see controlplane.go), guarded by mu:
	// probeTok/probeAt track the single outstanding PROBE on this link,
	// gammaAt is the last time any delivery signal (ACK outcome or probe
	// echo) updated gamma, and dataSend maps sampled outbound frame IDs to
	// send times for ACK-derived alpha samples (dataStaleAt: the earliest
	// instant one of them can be a second old, see noteDataSend).
	probeTok    uint64
	probeAt     time.Time
	gammaAt     time.Time
	dataSend    map[uint64]time.Time
	dataStaleAt time.Time
}

// Link-estimate tuning.
const (
	// initialGamma is the optimistic starting delivery-ratio estimate.
	initialGamma = 0.99
	// gammaFloor keeps a dead link's estimate from reaching exactly zero so
	// the route can recover once ACKs flow again.
	gammaFloor = 0.05
	// ewma weights for alpha and gamma updates.
	alphaWeight = 0.3
	gammaUp     = 0.05 // gain per successful ACK
	gammaDown   = 0.5  // multiplicative decay per timeout
)

func newNeighborConn(id int) *neighborConn {
	return &neighborConn{id: id, gamma: initialGamma}
}

// estimate returns the current <alpha, gamma> for the link; alpha is zero
// until the first sample.
func (nc *neighborConn) estimate() (time.Duration, float64) {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	return nc.alpha, nc.gamma
}

// record renders the link as one of this broker's LINK_STATE records. ok is
// false while the link is down or has no alpha sample yet.
func (nc *neighborConn) record() (r wire.LinkRecord, ok bool) {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	return wire.LinkRecord{To: int32(nc.id), Alpha: nc.alpha, Gamma: nc.gamma}, nc.conn != nil && nc.sampled
}

// sampleAlphaLocked folds one round trip into alpha (RTT/2): the first
// sample replaces the unmeasured zero, later ones move the EWMA. It reports
// whether this was the first, which the caller answers by kicking the
// control loop so the link joins the flooded records at once. Caller holds
// nc.mu.
func (nc *neighborConn) sampleAlphaLocked(rtt time.Duration) (first bool) {
	sample := rtt / 2
	if sample <= 0 {
		sample = time.Millisecond / 2
	}
	if !nc.sampled {
		nc.alpha, nc.sampled = sample, true
		return true
	}
	nc.alpha = time.Duration((1-alphaWeight)*float64(nc.alpha) + alphaWeight*float64(sample))
	return false
}

// connected reports whether a live TCP connection is attached.
func (nc *neighborConn) connected() bool {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	return nc.conn != nil
}

// attach installs a TCP connection, replacing any previous one, and starts
// its writer pipeline.
func (nc *neighborConn) attach(b *Broker, conn net.Conn) {
	nc.resetRelay()
	w := newConnWriter(conn, b.cfg.SendQueue, &b.queueDrops)
	nc.mu.Lock()
	old, oldW := nc.conn, nc.w
	nc.conn, nc.w = conn, w
	nc.attaches++
	reattach := nc.attaches > 1
	nc.mu.Unlock()
	if reattach {
		b.reconnects.Add(1)
	}
	if oldW != nil {
		oldW.shutdown()
	}
	if old != nil {
		_ = old.Close()
	}
	b.goTracked(func() {
		b.runWriter(w, fmt.Sprintf("neighbor %d", nc.id), nc, func() {
			nc.detach(conn)
			// A dropped link must leave the flooded record set within one
			// control step, not wait out the ticker.
			b.ctrl.kickCtrl()
		})
	})
	// The new peer gets this broker's whole database (and a prompt control
	// step), so a restarted broker converges without waiting out every
	// origin's refresh.
	b.ctrl.syncTo(nc)
	// A dial or inbound handshake that completes while Close is tearing
	// links down can install this connection after Close's pass over
	// b.neighbors — nothing would ever close it and Close would wait on its
	// read loop forever. The done channel is closed before that pass, so
	// checking after installing covers the race.
	if b.stopping() {
		nc.detach(conn)
	}
}

// detach drops the connection (and stops its writer) if it is still the
// given one.
func (nc *neighborConn) detach(conn net.Conn) {
	nc.mu.Lock()
	var w *connWriter
	if nc.conn == conn {
		nc.conn = nil
		w, nc.w = nc.w, nil
	}
	nc.mu.Unlock()
	if w != nil {
		w.shutdown()
	}
	_ = conn.Close()
}

// close tears the link down.
func (nc *neighborConn) close() {
	nc.resetRelay()
	nc.mu.Lock()
	conn, w := nc.conn, nc.w
	nc.conn, nc.w = nil, nil
	nc.mu.Unlock()
	if w != nil {
		w.shutdown()
	}
	if conn != nil {
		_ = conn.Close()
	}
}

// send enqueues one message for the neighbor's writer pipeline. The message
// must not be mutated afterwards. Write errors are handled by the writer
// (connection dropped, dial loop re-establishes); a full queue only drops
// this message.
func (nc *neighborConn) send(msg wire.Message) error {
	nc.mu.Lock()
	w := nc.w
	nc.mu.Unlock()
	if w == nil {
		return errNotConnected
	}
	return w.send(msg)
}

// ackSucceeded nudges gamma up after a timely ACK.
func (nc *neighborConn) ackSucceeded() {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	nc.gamma += gammaUp * (1 - nc.gamma)
	if nc.gamma > 1 {
		nc.gamma = 1
	}
	nc.gammaAt = time.Now()
}

// ackTimedOut decays gamma after a missed ACK.
func (nc *neighborConn) ackTimedOut() {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	nc.gamma *= gammaDown
	if nc.gamma < gammaFloor || math.IsNaN(nc.gamma) {
		nc.gamma = gammaFloor
	}
	nc.gammaAt = time.Now()
}

// gammaSignalAt is the last time any delivery signal updated gamma.
func (nc *neighborConn) gammaSignalAt() time.Time {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	return nc.gammaAt
}

// probeState returns the outstanding probe token (0 = none), its send time
// and how long it is given: 2·alpha + guard, like an ACK, once alpha is
// measured. A first probe has no round trip to be timed against, and
// expiring it early would only delay the link's first sample by another
// idle period, so it is given the unmeasured wait (the idle threshold).
func (nc *neighborConn) probeState(guard, unmeasured time.Duration) (uint64, time.Time, time.Duration) {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	if !nc.sampled {
		return nc.probeTok, nc.probeAt, unmeasured
	}
	return nc.probeTok, nc.probeAt, 2*nc.alpha + guard
}

// probeStart records one outgoing probe; at most one is ever outstanding.
func (nc *neighborConn) probeStart(token uint64, at time.Time) {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	nc.probeTok, nc.probeAt = token, at
}

// probeExpire clears the outstanding probe if it is still the given one,
// reporting whether the caller should decay gamma for it.
func (nc *neighborConn) probeExpire(token uint64) bool {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	if nc.probeTok != token {
		return false
	}
	nc.probeTok = 0
	return true
}

// probeReply folds a probe echo into the link estimate: an alpha sample
// from the round trip, gamma nudged up like a successful ACK. matched
// reports whether the token was the outstanding probe's, first whether the
// echo was the link's first alpha sample.
func (nc *neighborConn) probeReply(token uint64, now time.Time) (matched, first bool) {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	if token == 0 || nc.probeTok != token {
		return false, false
	}
	nc.probeTok = 0
	first = nc.sampleAlphaLocked(now.Sub(nc.probeAt))
	nc.gamma += gammaUp * (1 - nc.gamma)
	if nc.gamma > 1 {
		nc.gamma = 1
	}
	nc.gammaAt = now
	return true, first
}

// noteDataSend samples one outbound data frame's send time so its
// hop-by-hop ACK can feed alpha — real traffic measures the link, probes
// only fill the gaps. Sampling is bounded: at most
// maxDataSamples frames are tracked, with entries older than a second
// (ACKs lost) evicted to keep sampling alive on lossy links. A busy link
// keeps the map full, so the sweep runs only once something can have aged
// out: dataStaleAt is when the oldest entry the last sweep kept turns a
// second old, and every entry added since is younger than that one.
func (nc *neighborConn) noteDataSend(frameID uint64, now time.Time) {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	if nc.dataSend == nil {
		nc.dataSend = make(map[uint64]time.Time, maxDataSamples)
	}
	if len(nc.dataSend) >= maxDataSamples {
		if !now.After(nc.dataStaleAt) {
			return
		}
		oldest := now
		for id, at := range nc.dataSend {
			if now.Sub(at) > time.Second {
				delete(nc.dataSend, id)
			} else if at.Before(oldest) {
				oldest = at
			}
		}
		if len(nc.dataSend) >= maxDataSamples {
			nc.dataStaleAt = oldest.Add(time.Second)
			return
		}
	}
	nc.dataSend[frameID] = now
}

// noteDataAck folds a returning ACK's round trip into alpha when the frame
// was sampled, reporting whether it was the link's first alpha sample. The
// sample includes the peer's ACK-coalescing delay (AckFlushInterval, 1ms by
// default), which sits inside the re-flood tolerance.
func (nc *neighborConn) noteDataAck(frameID uint64, now time.Time) (first bool) {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	sent, ok := nc.dataSend[frameID]
	if !ok {
		return false
	}
	delete(nc.dataSend, frameID)
	return nc.sampleAlphaLocked(now.Sub(sent))
}

// clientConn is one connected client with its writer pipeline.
type clientConn struct {
	name string
	conn net.Conn
	w    *connWriter
	// session marks a connection counted in Stats.Sessions: it sent a
	// SessionHello or registered a subscriber. Guarded by b.mu.
	session bool
}

// send enqueues one message for the client's writer pipeline. The message
// must not be mutated afterwards.
func (c *clientConn) send(msg wire.Message) error {
	return c.w.send(msg)
}

// newConnReader is the pooled frame decoder every connection's read loop
// uses, behind a buffered reader.
func newConnReader(conn net.Conn) *wire.Reader {
	return wire.NewReader(bufio.NewReaderSize(conn, readBufSize))
}

// writeHello opens a connection from the dialing side.
func writeHello(conn net.Conn, id int32, name string) error {
	_, err := conn.Write(wire.AppendFrame(nil, &wire.Hello{BrokerID: id, Name: name}))
	return err
}

// acceptLoop handles inbound connections: the first frame must be a Hello
// identifying a neighbor broker (BrokerID >= 0) or a client (-1).
func (b *Broker) acceptLoop() {
	for {
		conn, err := b.ln.Accept()
		if err != nil {
			if b.stopping() {
				return
			}
			b.logf("accept: %v", err)
			return
		}
		b.goTracked(func() { b.handleInbound(conn) })
	}
}

// handleInbound performs the Hello handshake and dispatches to the broker
// or client read loop, which goes on with the same Reader (frames the peer
// sent behind its Hello may already sit in its buffer). A Hello of another
// protocol version is refused here, before anything is attached: the peer
// sees its connection closed, which a dialing broker answers by backing off.
// There is no reply Hello — with one dialect there is nothing to negotiate.
func (b *Broker) handleInbound(conn net.Conn) {
	_ = conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	rd := newConnReader(conn)
	msg, err := rd.Next()
	if err != nil {
		if errors.Is(err, wire.ErrVersion) {
			b.logf("inbound %s refused: %v", conn.RemoteAddr(), err)
		}
		_ = conn.Close()
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	hello, ok := msg.(*wire.Hello)
	if !ok {
		b.logf("inbound %s: first frame %v, want HELLO", conn.RemoteAddr(), msg.Type())
		_ = conn.Close()
		return
	}
	if hello.BrokerID >= 0 {
		b.handleNeighborConn(int(hello.BrokerID), conn, rd)
		return
	}
	b.handleClientConn(hello.Name, conn, rd)
}

// handleNeighborConn registers an inbound broker link and pumps its frames.
func (b *Broker) handleNeighborConn(id int, conn net.Conn, rd *wire.Reader) {
	if _, known := b.cfg.Neighbors[id]; !known {
		b.logf("rejecting unknown neighbor %d", id)
		_ = conn.Close()
		return
	}
	nc := b.neighbor(id)
	nc.attach(b, conn)
	b.logf("neighbor %d connected (inbound)", id)
	b.readNeighbor(nc, conn, rd)
}

// neighbor returns the state for a configured neighbor id. The map is built
// complete in New and immutable afterwards, so the lookup is lock-free; all
// callers pass ids validated against Config.Neighbors.
func (b *Broker) neighbor(id int) *neighborConn {
	return b.neighbors[id]
}

// dialLoop owns the outbound connection to a higher-ID neighbor. Failed
// attempts back off exponentially (DialRetry base, DialRetryMax cap) with
// ±25% jitter so a rebooted peer is not hammered in lockstep by every
// neighbor at once. A connection the peer closed without sending a frame
// (it refused the Hello) counts as a failed attempt; one it spoke on resets
// the backoff.
func (b *Broker) dialLoop(id int, addr string) {
	nc := b.neighbor(id)
	backoff := b.cfg.DialRetry
	fail := func() bool { // sleep one jittered backoff step, then widen it
		b.redials.Add(1)
		d := backoff
		if d > 4*time.Microsecond {
			d = d - d/4 + time.Duration(rand.Int63n(int64(d/2)))
		}
		if !sleepUnlessDone(b.done, d) {
			return false
		}
		if backoff *= 2; backoff > b.cfg.DialRetryMax {
			backoff = b.cfg.DialRetryMax
		}
		return true
	}
	for !b.stopping() {
		if nc.connected() {
			if !sleepUnlessDone(b.done, b.cfg.DialRetry) {
				return
			}
			continue
		}
		conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err == nil {
			if err = writeHello(conn, int32(b.cfg.ID), "broker"); err != nil {
				_ = conn.Close()
			}
		}
		if err == nil {
			nc.attach(b, conn)
			b.logf("neighbor %d connected (outbound)", id)
			if b.readNeighbor(nc, conn, newConnReader(conn)) {
				backoff = b.cfg.DialRetry
				continue
			}
		}
		if !fail() {
			return
		}
	}
}

// readNeighbor pumps frames from one broker link until it fails, and reports
// whether the peer sent any. Messages handed to handleNeighborMsg belong to
// rd and are recycled on the next frame, so handlers must not retain them
// (or their slices) past return.
func (b *Broker) readNeighbor(nc *neighborConn, conn net.Conn, rd *wire.Reader) (heard bool) {
	defer b.ctrl.kickCtrl()
	defer nc.detach(conn)
	for {
		msg, err := rd.Next()
		if err != nil {
			if !errors.Is(err, io.EOF) && !b.stopping() {
				b.logf("neighbor %d read: %v", nc.id, err)
			}
			return heard
		}
		heard = true
		b.handleNeighborMsg(nc, msg)
	}
}

// handleNeighborMsg dispatches one frame from a neighbor broker. msg is
// owned by the caller's Reader and recycled after return.
func (b *Broker) handleNeighborMsg(nc *neighborConn, msg wire.Message) {
	switch m := msg.(type) {
	case *wire.AckBatch:
		now := time.Now()
		for _, id := range m.FrameIDs {
			if nc.noteDataAck(id, now) {
				b.ctrl.kickCtrl()
			}
			b.handleAck(id)
		}
	case *wire.DataBatch:
		for i := range m.Frames {
			d := &m.Frames[i]
			b.custodyAck(nc, d)
			b.handleData(nc.id, d)
		}
	case *wire.LinkState:
		b.handleLinkState(nc, m)
	case *wire.Probe:
		b.handleProbe(nc, m)
	default:
		b.logf("neighbor %d sent unexpected %v", nc.id, msg.Type())
	}
}

// handleClientConn registers a client, starts its writer pipeline and pumps
// its requests (messages recycled per frame, same ownership rule as
// readNeighbor).
func (b *Broker) handleClientConn(name string, conn net.Conn, rd *wire.Reader) {
	c := &clientConn{name: name, conn: conn, w: newConnWriter(conn, b.cfg.SendQueue, &b.queueDrops)}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		_ = conn.Close()
		return
	}
	b.clients[c] = struct{}{}
	b.mu.Unlock()
	b.goTracked(func() {
		b.runWriter(c.w, "client "+name, nil, func() { _ = conn.Close() })
	})
	defer func() {
		b.mu.Lock()
		delete(b.clients, c)
		b.dropClientSubsLocked(c)
		// Disconnects flush synchronously: a departed connection must not
		// linger in the delivery snapshot for a coalescing window.
		b.flushSubsLocked()
		b.mu.Unlock()
		b.ctrl.kickCtrl()
		c.w.shutdown()
		_ = conn.Close()
	}()
	var walDests []int32
	for {
		msg, err := rd.Next()
		if err != nil {
			return
		}
		switch m := msg.(type) {
		case *wire.SessionHello:
			b.sessionHello(c, m)
		case *wire.SessionSub:
			b.sessionSub(c, m)
		case *wire.SessionUnsub:
			b.sessionUnsub(c, m)
		case *wire.Publish:
			b.publishLocal(m, &walDests)
		case *wire.StatsRequest:
			_ = c.send(b.statsReply(m.Token))
		default:
			b.logf("client %q sent unexpected %v", name, msg.Type())
		}
	}
}

// sleepUnlessDone waits d or until done closes; it reports false on done.
func sleepUnlessDone(done <-chan struct{}, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-done:
		return false
	case <-t.C:
		return true
	}
}
