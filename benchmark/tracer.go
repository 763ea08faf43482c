package main

import (
	"cmp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// traceEvent is one engine event of a sampled packet, stamped by the
// recorder's own clock: every broker's engine clock has its own origin, the
// recorder's time.Now() is common to all of them and to the generator.
type traceEvent struct {
	at    int64 // ns since the overlay's base instant
	kind  trace.Kind
	pkt   uint64
	node  int
	peer  int
	first bool // a SEND that is a flight's first transmission
}

// recorder is the benchmark-owned trace.Recorder installed on every broker
// of the traced overlay. It counts every event by kind and keeps the events
// of one packet in traceSample. Shard goroutines of all brokers call Record
// concurrently.
type recorder struct {
	base time.Time
	on   atomic.Bool // only the traced window is recorded

	counts     [trace.Hold + 1]atomic.Int64
	firstSends atomic.Int64

	mu     sync.Mutex
	events []traceEvent
}

func (r *recorder) Record(e trace.Event) {
	if !r.on.Load() || e.Kind < trace.Publish || e.Kind > trace.Hold {
		return
	}
	r.counts[e.Kind].Add(1)
	// The engine numbers a flight's transmissions in the note; a neighbor's
	// first is the hop, the rest are retransmissions.
	first := e.Kind == trace.Send && (e.Note == "attempt 1" || strings.HasPrefix(e.Note, "attempt 1 "))
	if first {
		r.firstSends.Add(1)
	}
	if e.Packet%traceSample != 0 {
		return
	}
	ev := traceEvent{at: int64(time.Since(r.base)), kind: e.Kind, pkt: e.Packet, node: e.Node, peer: e.Peer, first: first}
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

// byPacket groups the kept events per packet, each group in time order.
func (r *recorder) byPacket() map[uint64][]traceEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := make(map[uint64][]traceEvent)
	for _, e := range r.events {
		m[e.pkt] = append(m[e.pkt], e)
	}
	for _, evs := range m {
		slices.SortStableFunc(evs, func(a, b traceEvent) int { return cmp.Compare(a.at, b.at) })
	}
	return m
}

// packetSpans is one sampled packet's latency cut at the layer boundaries
// the benchmark can see from outside. The spans are contiguous along the
// path the delivered copy took, so they sum to e2e unless a boundary is
// missing or out of order (then the clamp shows up as a gap).
type packetSpans struct {
	pubWait     int64   // client: due → the burst's write returned
	ingress     int64   // broker: write returned → PUBLISH at the origin engine
	origin      int64   // algo2: PUBLISH → first SEND
	recovery    int64   // algo2: time spent past a node's first SEND before the SEND that got through
	hops        []int64 // broker: SEND at X → first event at peer Y, per hop
	edgeDeliver int64   // broker: last engine event at the subscriber's broker → handler
	custody     []int64 // broker: first SEND → HANDOFF of each flight (off the delivery path)
	e2e         int64   // due → handler
	timeouts    int
}

func (ps *packetSpans) sum() int64 {
	s := ps.pubWait + ps.ingress + ps.origin + ps.recovery + ps.edgeDeliver
	for _, h := range ps.hops {
		s += h
	}
	return s
}

// gapRatio is |Σ spans − e2e| ÷ e2e for this packet.
func (ps *packetSpans) gapRatio() float64 {
	if ps.e2e <= 0 {
		return 0
	}
	d := ps.sum() - ps.e2e
	if d < 0 {
		d = -d
	}
	return float64(d) / float64(ps.e2e)
}

// reconstruct rebuilds one packet's span chain from its engine events (in
// time order), the generator's stamps for its tick and the handler's stamp.
// It walks backwards from the delivery: the copy the subscriber's broker
// delivered came from some peer's SEND, that peer first saw the packet
// through an earlier SEND to it, and so on back to the origin. ok is false
// when the chain cannot be closed.
func reconstruct(due, wrote, handler int64, evs []traceEvent, src, dst int) (ps packetSpans, ok bool) {
	clamp := func(d int64) int64 { return max(d, 0) }
	ps.e2e = handler - due
	ps.pubWait = clamp(wrote - due)

	tPub := int64(-1)
	for _, e := range evs {
		if e.kind == trace.Publish && e.node == src {
			tPub = e.at
			break
		}
	}
	if tPub < 0 {
		return ps, false
	}
	ps.ingress = clamp(tPub - wrote)
	for _, e := range evs {
		if e.kind == trace.Timeout {
			ps.timeouts++
		}
	}
	ps.custody = custodySpans(evs)

	if src == dst {
		// Publisher and subscriber share the broker: no relay link, the
		// publish is the last engine event before the edge delivery.
		ps.edgeDeliver = clamp(handler - tPub)
		return ps, true
	}

	// latestSend finds the latest SEND from→to at or before t.
	latestSend := func(from, to int, t int64) (int64, int, bool) {
		for i := len(evs) - 1; i >= 0; i-- {
			e := evs[i]
			if e.kind == trace.Send && e.at <= t && e.peer == to && (from < 0 || e.node == from) {
				return e.at, e.node, true
			}
		}
		return 0, 0, false
	}
	firstAt := func(node int, onlySend bool) (int64, bool) {
		for _, e := range evs {
			if e.node == node && (!onlySend || e.kind == trace.Send) {
				return e.at, true
			}
		}
		return 0, false
	}

	var tDel int64
	cur := -1
	for _, e := range evs {
		if e.kind == trace.Deliver && e.node == dst {
			tDel, cur = e.at, e.peer
			break
		}
	}
	if cur < 0 {
		return ps, false
	}
	ps.edgeDeliver = clamp(handler - tDel)

	next, tArr := dst, tDel
	for hop := 0; hop < 16; hop++ {
		tSend, _, found := latestSend(cur, next, tArr)
		if !found {
			return ps, false
		}
		ps.hops = append(ps.hops, tArr-tSend)
		if cur == src {
			fs, _ := firstAt(src, true)
			ps.origin = clamp(fs - tPub)
			ps.recovery += tSend - fs
			return ps, true
		}
		tFirst, _ := firstAt(cur, false)
		ps.recovery += tSend - tFirst
		_, up, found := latestSend(-1, cur, tFirst)
		if !found {
			return ps, false
		}
		next, cur, tArr = cur, up, tFirst
	}
	return ps, false
}

// custodySpans pairs every flight's first SEND with the HANDOFF that
// resolved it: how long the sender held custody waiting for the ACK.
func custodySpans(evs []traceEvent) []int64 {
	var out []int64
	for i, s := range evs {
		if s.kind != trace.Send || !s.first {
			continue
		}
		for _, h := range evs[i+1:] {
			if h.kind == trace.Handoff && h.node == s.node && h.peer == s.peer {
				out = append(out, h.at-s.at)
				break
			}
		}
	}
	return out
}
