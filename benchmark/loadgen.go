package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// splitmix is the seeded stream behind payload filler and the topic order:
// tiny, stable across Go versions, same as internal/chaos uses.
func splitmix(s uint64) uint64 {
	s += 0x9e3779b97f4a7c15
	z := s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// topicBase keeps benchmark topics clear of the small numbers tests use.
const topicBase = 1000

// traffic is everything about the publish stream that derives from the seed
// and the workload, and nothing that derives from the clock: the topic
// order and the payload filler. Same seed, same workload: same inputs.
type traffic struct {
	seed   uint64
	order  []int32 // order[seq % topics] is the topic index of publish seq
	subs   int     // logical subscribers per publish
	topics int
}

func newTraffic(w *workload, seed uint64) *traffic {
	tr := &traffic{seed: seed, subs: w.subsPerPublish(), topics: w.topics}
	tr.order = make([]int32, w.topics)
	for i := range tr.order {
		tr.order[i] = int32(i)
	}
	// Fisher-Yates on the seeded stream.
	s := seed
	for i := len(tr.order) - 1; i > 0; i-- {
		s = splitmix(s)
		j := int(s % uint64(i+1))
		tr.order[i], tr.order[j] = tr.order[j], tr.order[i]
	}
	return tr
}

// topicIndex is the topic index (0..topics-1) of publish seq.
func (tr *traffic) topicIndex(seq uint64) int32 { return tr.order[seq%uint64(len(tr.order))] }

// Payload layout: seq, due time in ns since the run's base instant, then
// seeded filler the receiver recomputes (the payload echo check).
func (tr *traffic) fillPayload(p []byte, seq uint64, dueNs int64) {
	binary.BigEndian.PutUint64(p[0:], seq)
	binary.BigEndian.PutUint64(p[8:], uint64(dueNs))
	s := tr.seed ^ seq*0x9e3779b97f4a7c15
	for off := 16; off+8 <= len(p); off += 8 {
		s = splitmix(s)
		binary.BigEndian.PutUint64(p[off:], s)
	}
}

func (tr *traffic) payloadOK(p []byte, seq uint64) bool {
	if len(p) != payloadBytes {
		return false
	}
	s := tr.seed ^ seq*0x9e3779b97f4a7c15
	for off := 16; off+8 <= len(p); off += 8 {
		s = splitmix(s)
		if binary.BigEndian.Uint64(p[off:]) != s {
			return false
		}
	}
	return true
}

// tick is one burst of the open-loop schedule: count publishes, seqs
// firstSeq.., all due at offset due from the window start.
type tick struct {
	due      time.Duration
	firstSeq uint64
	count    int
}

// schedule lays out an open-loop window: one tick every tickInterval, rate
// publishes per second spread evenly over ticks. It depends on nothing but
// its arguments.
func schedule(rate int, length time.Duration, firstSeq uint64) []tick {
	n := int(length / tickInterval)
	per := rate / ticksPerSec
	ticks := make([]tick, n)
	for i := range ticks {
		ticks[i] = tick{due: time.Duration(i) * tickInterval, firstSeq: firstSeq + uint64(i*per), count: per}
	}
	return ticks
}

// probeSeq marks set-up probe publishes; they are recognised and not
// accounted. Probe k uses probeSeq+k so it cycles over the topics.
const probeSeq = uint64(1) << 62

// receiver is the subscriber side: the session handler, the per-seq
// exactly-once ledger and the first-copy latency table. handle runs on the
// session's read goroutine only; everything except the atomics is read by
// others only after the session is closed.
type receiver struct {
	tr   *traffic
	base time.Time

	copies   []uint16 // logical deliveries per seq
	firstLat []int32  // ns due→handler of the first frame, -1 until then

	delivered  atomic.Int64 // packets whose first frame arrived
	wake       chan struct{}
	dupCopies  int64 // logical deliveries beyond the first frame of a seq
	badPayload int64
	badSubs    int64 // frames whose subscriber list is not the topic's
	unknown    int64 // frames carrying a seq never published
	frames     int64
	logical    int64

	// Set-up: probeSeen marks the topics that have echoed a probe to their
	// full subscriber list; probed is closed when all have.
	probeSeen []bool
	probeLeft int
	probed    chan struct{}

	// Traced pass: handler time of every sampled packet, keyed by the
	// broker-assigned packet ID the tracer sees too.
	sampling bool
	sampled  []sampledDelivery
}

type sampledDelivery struct {
	pkt uint64
	seq uint64
	at  int64 // ns since base
}

func newReceiver(tr *traffic, base time.Time, maxSeqs int) *receiver {
	r := &receiver{
		tr:        tr,
		base:      base,
		copies:    make([]uint16, maxSeqs),
		firstLat:  make([]int32, maxSeqs),
		wake:      make(chan struct{}, 1),
		probeSeen: make([]bool, tr.topics),
		probeLeft: tr.topics,
		probed:    make(chan struct{}),
	}
	for i := range r.firstLat {
		r.firstLat[i] = -1
	}
	return r
}

// subsOK reports whether ids is exactly the subscriber list of topic index
// t: subscriber i sits on topic i % topics, so the list is t, t+T, t+2T...
func (r *receiver) subsOK(ids []uint32, t int32) bool {
	if len(ids) != r.tr.subs {
		return false
	}
	for i, id := range ids {
		if id != uint32(int(t)+i*r.tr.topics) {
			return false
		}
	}
	return true
}

func (r *receiver) handle(m *wire.MuxDeliver) {
	now := time.Since(r.base)
	if len(m.Payload) < 16 {
		r.badPayload++
		return
	}
	seq := binary.BigEndian.Uint64(m.Payload[0:])
	if seq >= probeSeq {
		t := r.tr.topicIndex(seq)
		if !r.probeSeen[t] && r.subsOK(m.SubIDs, t) {
			r.probeSeen[t] = true
			if r.probeLeft--; r.probeLeft == 0 {
				close(r.probed)
			}
		}
		return
	}
	r.frames++
	r.logical += int64(len(m.SubIDs))
	if seq >= uint64(len(r.copies)) {
		r.unknown++
		return
	}
	t := r.tr.topicIndex(seq)
	if m.Topic != topicBase+t || !r.subsOK(m.SubIDs, t) {
		r.badSubs++
	}
	if !r.tr.payloadOK(m.Payload, seq) {
		r.badPayload++
	}
	if r.copies[seq] > 0 {
		r.dupCopies += int64(len(m.SubIDs))
	} else {
		due := int64(binary.BigEndian.Uint64(m.Payload[8:]))
		r.firstLat[seq] = int32(min(max(int64(now)-due, 0), math.MaxInt32))
		r.delivered.Add(1)
		select {
		case r.wake <- struct{}{}:
		default:
		}
		if r.sampling && m.PacketID%traceSample == 0 {
			r.sampled = append(r.sampled, sampledDelivery{pkt: m.PacketID, seq: seq, at: int64(now)})
		}
	}
	r.copies[seq] = uint16(min(int(r.copies[seq])+len(m.SubIDs), math.MaxUint16))
}

// verdict is the exactly-once account of seqs [0, published).
type verdict struct {
	attempted int64 // publishes
	failed    int64 // publishes not delivered exactly once to every logical subscriber
	missing   int64 // logical deliveries that never arrived
	dups      int64 // logical deliveries beyond the first
	other     int64 // payload, subscriber-list and unknown-seq violations
}

// check audits seqs [0, published): every one must have reached each of its
// logical subscribers exactly once. Call only after the session is closed.
func (r *receiver) check(published uint64) verdict {
	v := verdict{attempted: int64(published), dups: r.dupCopies, other: r.badPayload + r.badSubs + r.unknown}
	want := uint16(r.tr.subs)
	for seq := uint64(0); seq < published; seq++ {
		got := r.copies[seq]
		if got < want {
			v.missing += int64(want - got)
		}
		if got != want {
			v.failed++
		}
	}
	// A payload or subscriber-list violation fails a publish even when the
	// copy count is right; count each at most once on top.
	v.failed = min(v.failed+v.other, v.attempted)
	return v
}

// generator is the publisher side: one raw connection, frames built with
// wire.AppendFrame and flushed once per burst.
type generator struct {
	w    *workload
	tr   *traffic
	rx   *receiver
	conn net.Conn
	base time.Time

	buf      []byte
	payload  [payloadBytes]byte
	pub      wire.Publish
	nextSeq  uint64 // next unused real seq
	writeErr error
}

func newGenerator(w *workload, tr *traffic, rx *receiver, addr string, base time.Time) (*generator, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("publisher: %w", err)
	}
	g := &generator{w: w, tr: tr, rx: rx, conn: conn, base: base, buf: make([]byte, 0, 64<<10)}
	g.buf = wire.AppendFrame(g.buf[:0], &wire.Hello{BrokerID: -1, Name: "bench-pub"})
	if _, err := conn.Write(g.buf); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("publisher handshake: %w", err)
	}
	return g, nil
}

// appendPublish encodes one publish onto the burst buffer.
func (g *generator) appendPublish(seq uint64, dueNs int64) {
	g.tr.fillPayload(g.payload[:], seq, dueNs)
	g.pub.Topic = topicBase + g.tr.topicIndex(seq)
	g.pub.Deadline = g.w.deadline
	g.pub.Payload = g.payload[:]
	g.buf = wire.AppendFrame(g.buf, &g.pub)
}

func (g *generator) flush() {
	if g.writeErr != nil {
		return
	}
	if _, err := g.conn.Write(g.buf); err != nil {
		g.writeErr = fmt.Errorf("publisher write: %w", err)
	}
}

// probe publishes one set-up probe (not accounted by the receiver).
func (g *generator) probe(k uint64) {
	g.buf = g.buf[:0]
	g.appendPublish(probeSeq+k, int64(time.Since(g.base)))
	g.flush()
}

// sleepUntil sleeps to 1 ms before t, then yields until it: plain
// time.Sleep overshoots by about half a millisecond on this class of host,
// most of a clean overlay's median latency.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// openWindow is what the generator observed while driving one open-loop
// window.
type openWindow struct {
	start    time.Time
	firstSeq uint64
	endSeq   uint64
	ticks    []tick
	// Per tick, ns since the generator's base: when the burst started being
	// built and when its single write returned.
	burstAt []int64
	wroteAt []int64
	// backlog[i] is published-delivered just before slice i's last burst.
	backlog []int64
}

// dueNs is tick i's due instant in ns since base.
func (ow *openWindow) dueNs(base time.Time, i int) int64 {
	return int64(ow.start.Sub(base) + ow.ticks[i].due)
}

// runOpen drives one open-loop window starting at start: every tick's
// publishes are stamped with the tick's due instant whatever time it really
// is, so generator lateness lands in the measured latency. A generator that
// fell behind catches up at twice the schedule's rate, not in one burst:
// generator and overlay share the host, so a host stall freezes both, and
// replaying the frozen time as a single burst of thousands of publishes
// measures the stall (queueing past the ACK timeout, a retransmission storm)
// instead of the overlay.
func (g *generator) runOpen(start time.Time, length time.Duration) *openWindow {
	ow := &openWindow{start: start, firstSeq: g.nextSeq, ticks: schedule(g.w.rate, length, g.nextSeq)}
	ow.burstAt = make([]int64, len(ow.ticks))
	ow.wroteAt = make([]int64, len(ow.ticks))
	startNs := int64(start.Sub(g.base))
	var earliest time.Time
	for i, tk := range ow.ticks {
		at := start.Add(tk.due)
		if at.Before(earliest) {
			at = earliest
		}
		sleepUntil(at)
		earliest = time.Now().Add(tickInterval / 2)
		ow.burstAt[i] = int64(time.Since(g.base))
		if (i+1)%ticksPerSec == 0 {
			// Before the slice's last burst: everything counted here has
			// been on its way for at least one tick.
			ow.backlog = append(ow.backlog, int64(g.nextSeq)-g.rx.delivered.Load())
		}
		dueNs := startNs + int64(tk.due)
		g.buf = g.buf[:0]
		for k := 0; k < tk.count; k++ {
			g.appendPublish(tk.firstSeq+uint64(k), dueNs)
		}
		g.flush()
		ow.wroteAt[i] = int64(time.Since(g.base))
		g.nextSeq = tk.firstSeq + uint64(tk.count)
	}
	ow.endSeq = g.nextSeq
	return ow
}

// capacitySlice is the closed loop's accounting interval: the capacity
// figure is a robust average over these, so a host stall inside the phase
// costs one slice, not the result.
const capacitySlice = 250 * time.Millisecond

// runClosed drives the capacity phase: a closed loop keeping up to window
// publishes outstanding, refilled in bursts of at least refill. It returns
// unique packets delivered per second in each capacitySlice of the phase.
func (g *generator) runClosed(length time.Duration, maxSeq uint64) []float64 {
	var rates []float64
	sliceStart := time.Now()
	sliceGot := g.rx.delivered.Load()
	end := sliceStart.Add(length)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for g.writeErr == nil && g.nextSeq+window <= maxSeq {
		now := time.Now()
		if el := now.Sub(sliceStart); el >= capacitySlice {
			got := g.rx.delivered.Load()
			rates = append(rates, float64(got-sliceGot)/el.Seconds())
			sliceStart, sliceGot = now, got
		}
		if !now.Before(end) {
			break
		}
		n := window - int(int64(g.nextSeq)-g.rx.delivered.Load())
		if n < refill {
			// Wait for deliveries; the timer bounds the wait so the phase
			// ends on time even if the overlay stops delivering.
			timer.Reset(time.Millisecond)
			select {
			case <-g.rx.wake:
			case <-timer.C:
			}
			continue
		}
		dueNs := int64(now.Sub(g.base))
		g.buf = g.buf[:0]
		for k := 0; k < n; k++ {
			g.appendPublish(g.nextSeq, dueNs)
			g.nextSeq++
		}
		g.flush()
	}
	return rates
}

// settle waits until every published packet's first copy has arrived, or
// for at most d, and reports whether it all arrived.
func (g *generator) settle(d time.Duration) bool {
	deadline := time.Now().Add(d)
	for g.rx.delivered.Load() < int64(g.nextSeq) {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}
