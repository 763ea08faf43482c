// Package algo2 is the transport- and clock-agnostic implementation of
// DCRD's Algorithm 2 — the single forwarding engine shared by the
// discrete-event simulator (internal/core) and the live broker
// (internal/broker). One Engine instance is one overlay node's forwarding
// state machine: sorted sending lists, hop-by-hop ACKs, m transmissions per
// neighbor, path-recording loop avoidance, rerouting to the upstream node
// when a sending list is exhausted, and the §III persistency mode.
//
// The engine owns all per-copy routing state (pending destinations, path
// bitsets, failed-neighbor sets, in-flight retransmission groups, the
// frame-level dedup horizon) and performs no I/O and reads no clock itself:
// everything environmental goes through the Deps interface — virtual or
// wall-clock time, timers, frame transmission, sending-list lookup,
// delivery and drop sinks. The shells stay thin: internal/core adapts Deps
// to des.Simulator + netsim.Network, internal/broker to wall-clock timers +
// per-connection writer pipelines, and a differential test drives both
// shells with one scripted loss schedule to prove they decide identically.
//
// The hot path is allocation-free in steady state: work, flight and Frame
// objects are pooled (Pools is shared by all engines of one single-threaded
// or single-lock deployment), per-copy path sets are bitsets with reusable
// backing arrays, and all timer callbacks are pre-instantiated functions
// with pooled arguments. Engines are not safe for concurrent use; callers
// serialize externally (the simulator's event loop, the broker's mutex).
package algo2

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/seen"
	"repro/internal/trace"
)

// Packet is the engine's view of one published packet. Times are durations
// on the deployment's engine clock (Deps.Now): virtual time in the
// simulator, time-since-broker-epoch live. Payload is opaque to the engine
// and travels untouched from Publish/Inbound to outbound Frames. A payload
// that implements Retain()/Release() is reference-counted by the engine
// under one rule: every work that carries the packet holds one reference,
// taken when the work is filled and dropped when it is recycled. Frames
// hold none — a flight pins its work — and the caller keeps its own.
type Packet struct {
	ID          uint64
	Topic       int32
	Source      int32
	PublishedAt time.Duration
	Deadline    time.Duration
	Payload     any
}

// refCounted is what a Packet.Payload may implement to be told how long the
// engine needs it (the live broker's pooled payload buffers). Any other
// payload — nil in the simulator, a plain []byte — is carried untouched.
type refCounted interface {
	Retain()
	Release()
}

// Frame is one outbound data-frame body: the packet plus the destinations
// this copy is responsible for and the recorded routing path (the node IDs
// that have sent this copy, in order, with duplicates when a node sent it
// more than once — exactly the paper's packet format).
//
// Frames are pooled: the engine recycles a frame when the hop-by-hop ACK
// resolves its flight (or the flight expires). Deps.Send implementations
// and receivers may therefore read the frame's contents only until they
// return — retaining it requires a copy. Retransmissions reuse the same
// Frame (and frame ID) for every attempt.
type Frame struct {
	ID    uint64
	To    int
	Pkt   Packet
	Dests []int
	Path  []int
}

// Inbound is one received data frame handed to HandleData. The engine
// copies Dests and Path before returning, so callers may reuse the backing
// slices (e.g. decode scratch buffers) immediately after the call.
type Inbound struct {
	FrameID uint64
	From    int
	Pkt     Packet
	Dests   []int
	Path    []int
}

// DropReason classifies Deps.Drop calls.
type DropReason int

const (
	// DropLifetime: the packet exceeded MaxLifetime (at dispatch or when an
	// in-flight group's ACK timer fired past the horizon).
	DropLifetime DropReason = iota + 1
	// DropExhausted: a node exhausted its sending list with nowhere to
	// bounce: the origin with persistency off, or any node under NoReroute.
	DropExhausted
)

// Deps is everything Algorithm 2 needs from its environment. T is the
// timer-handle type (des.EventID in the simulator, a wall-clock timer
// wrapper live) — a type parameter so storing handles in pooled flights
// never boxes.
//
// All methods are invoked synchronously from engine calls; implementations
// must not re-enter the engine. Timer callbacks scheduled via AfterFunc
// must run under the same external serialization as every other engine
// entry point.
type Deps[T any] interface {
	// Now is the current engine-clock time.
	Now() time.Duration
	// AfterFunc schedules fn(arg) after d and returns a cancelable handle.
	AfterFunc(d time.Duration, fn func(any), arg any) T
	// CancelTimer cancels a pending timer. The cancellation must be
	// reliable: after CancelTimer returns, the callback is guaranteed not
	// to run (flights are pooled, so a stale callback could otherwise
	// observe a recycled struct).
	CancelTimer(t T)
	// NextFrameID allocates a deployment-unique data-frame identifier.
	NextFrameID() uint64
	// AckWait returns how long a sender should wait for neighbor k's
	// hop-by-hop ACK before the AckGuard padding, and whether the link
	// exists at all. A false return marks k failed for the copy and
	// re-processes via the event loop rather than crashing.
	AckWait(k int) (time.Duration, bool)
	// Send transmits one data frame to f.To. The frame is only valid until
	// Send returns; retaining it requires a copy.
	Send(f *Frame)
	// SendingList returns the Theorem-1-ordered neighbor list for reaching
	// dest on topic, or nil when no route is known.
	SendingList(topic int32, dest int) []int
	// LinkUp reports whether neighbor k is currently usable as a next hop.
	// The simulator always says true (dead links surface as ACK timeouts);
	// the live broker skips disconnected neighbors.
	LinkUp(k int) bool
	// Deliver hands a packet destined for this node to local subscribers.
	// from is the sending neighbor, or -1 when the node is the origin.
	// The shell owns packet-level delivery dedup (failover can produce
	// duplicate copies on distinct frames).
	Deliver(pkt *Packet, from int)
	// Drop records giving up on dests for this packet.
	Drop(pkt *Packet, dests []int, reason DropReason)
	// AckTimedOut observes neighbor k missing an ACK deadline (the live
	// broker decays its adaptive gamma here; the simulator ignores it).
	AckTimedOut(k int)
	// NextRetryAt returns when a persistency-held packet should be retried
	// (the next instant network conditions can have changed). Only called
	// with Config.Persistent set.
	NextRetryAt(now time.Duration) time.Duration
}

// Config tunes one engine.
type Config struct {
	// NodeID is this node's overlay identifier.
	NodeID int
	// M is the number of transmissions per neighbor before failover
	// (default 1).
	M int
	// AckGuard is added on top of Deps.AckWait when arming ACK timers.
	AckGuard time.Duration
	// MaxLifetime bounds how long a packet may stay in flight before the
	// engine gives up; the frame-dedup set remembers IDs for
	// seen.Horizon(MaxLifetime).
	MaxLifetime time.Duration
	// Persistent enables the paper's §III persistency mode: an origin that
	// exhausts every neighbor holds the packet and retries from scratch at
	// Deps.NextRetryAt instead of dropping, until MaxLifetime.
	Persistent bool
	// NoReroute drops what an exhausted sending list leaves at every node
	// instead of bouncing it upstream: the paper's fixed-route baselines
	// (§IV-B), which have no path to retreat along.
	NoReroute bool
	// Tracer, when non-nil, receives the per-packet routing timeline.
	Tracer trace.Recorder
}

// withDefaults fills unset options.
func (c Config) withDefaults() Config {
	if c.M < 1 {
		c.M = 1
	}
	if c.AckGuard <= 0 {
		c.AckGuard = time.Millisecond
	}
	if c.MaxLifetime <= 0 {
		c.MaxLifetime = seen.DefaultMaxLifetime
	}
	return c
}

// Pools is the shared object pool for the engines of one deployment.
// Sharing one Pools across all of a simulation's per-node engines (or
// handing each of the live broker's shards its own) keeps steady state
// allocation-free; the free lists are serialized by the same discipline as
// the engines themselves, but the live counters are atomic so an observer
// (Broker.PoolsLive aggregating across shards) can read them without
// entering any engine's serialization domain. Backing slices inside
// recycled objects are kept, so steady state reuses their capacity.
type Pools[T any] struct {
	// words is the initial pathSet bitset length, (nodesHint+63)/64;
	// bitsets grow on demand when IDs exceed the hint.
	words      int
	freeWork   []*work[T]
	freeFlight []*flight[T]
	freeFrame  []*Frame

	liveWork   atomic.Int64
	liveFlight atomic.Int64
	liveFrame  atomic.Int64
}

// NewPools sizes a pool for a deployment of about nodesHint nodes (path
// bitsets are pre-sized to cover IDs below the hint; larger IDs grow them).
func NewPools[T any](nodesHint int) *Pools[T] {
	words := (nodesHint + 63) / 64
	if words < 1 {
		words = 1
	}
	return &Pools[T]{words: words}
}

// Live returns the outstanding (not yet recycled) object counts — the
// fuzz harness checks these return to zero once every packet resolves. It
// is safe to call from outside the pool's serialization domain.
func (p *Pools[T]) Live() (works, flights, frames int) {
	return int(p.liveWork.Load()), int(p.liveFlight.Load()), int(p.liveFrame.Load())
}

// allocWork takes a work object from the pool with one reference held by
// the caller.
func (p *Pools[T]) allocWork(e *Engine[T]) *work[T] {
	var w *work[T]
	if l := len(p.freeWork); l > 0 {
		w = p.freeWork[l-1]
		p.freeWork[l-1] = nil
		p.freeWork = p.freeWork[:l-1]
	} else {
		w = &work[T]{pathSet: make([]uint64, p.words)}
	}
	p.liveWork.Add(1)
	w.eng = e
	w.path = w.path[:0]
	w.pending = w.pending[:0]
	w.failed = w.failed[:0]
	clear(w.pathSet)
	w.refs = 1
	return w
}

// releaseWork drops one reference and recycles the work when none remain,
// giving back the payload reference the work held.
func (p *Pools[T]) releaseWork(w *work[T]) {
	w.refs--
	if w.refs == 0 {
		p.liveWork.Add(-1)
		w.eng = nil
		if rc, ok := w.pkt.Payload.(refCounted); ok {
			rc.Release()
		}
		w.pkt = Packet{}
		p.freeWork = append(p.freeWork, w)
	}
}

// allocFrame takes a frame from the pool, keeping recycled capacity.
func (p *Pools[T]) allocFrame() *Frame {
	p.liveFrame.Add(1)
	if l := len(p.freeFrame); l > 0 {
		f := p.freeFrame[l-1]
		p.freeFrame[l-1] = nil
		p.freeFrame = p.freeFrame[:l-1]
		f.Dests = f.Dests[:0]
		f.Path = f.Path[:0]
		return f
	}
	return &Frame{}
}

// releaseFrame returns a frame to the pool once its flight resolves.
func (p *Pools[T]) releaseFrame(f *Frame) {
	p.liveFrame.Add(-1)
	f.Pkt = Packet{}
	p.freeFrame = append(p.freeFrame, f)
}

// allocFlight takes a flight from the pool.
func (p *Pools[T]) allocFlight() *flight[T] {
	p.liveFlight.Add(1)
	if l := len(p.freeFlight); l > 0 {
		fl := p.freeFlight[l-1]
		p.freeFlight[l-1] = nil
		p.freeFlight = p.freeFlight[:l-1]
		return fl
	}
	return &flight[T]{}
}

// releaseFlight recycles the flight struct only; frame and work are
// released separately by the caller (their lifetimes differ across the
// resolve paths).
func (p *Pools[T]) releaseFlight(fl *flight[T]) {
	p.liveFlight.Add(-1)
	*fl = flight[T]{}
	p.freeFlight = append(p.freeFlight, fl)
}

// Engine is one node's Algorithm-2 state: deduplication of received frames
// and the set of sent-but-unacknowledged groups. Per the paper, no
// per-packet routing state survives once the downstream ACK arrives.
//
// The scratch slices are reused by process on every call; process never
// runs re-entrantly (all continuations go through Deps.AfterFunc), so one
// set per engine suffices.
type Engine[T any] struct {
	deps  Deps[T]
	pools *Pools[T]
	cfg   Config
	id    int

	frames   *seen.Set // processed frame IDs
	inflight map[uint64]*flight[T]
	// pendingRetries tracks scheduled re-process events (deferred retries
	// after a missing link, persistency holds) so Shutdown can cancel them
	// and release their work references; freeRetries recycles the wrappers.
	pendingRetries []*retryRef[T]
	freeRetries    []*retryRef[T]
	// Timer callbacks, instantiated once: evaluating a generic function as
	// a func value allocates its dictionary closure, so the hot path must
	// not do it per call.
	ackTimeoutFn func(any)
	reprocessFn  func(any)
	// process scratch
	dests      []int
	exhausted  []int
	groupHops  []int
	groupDests [][]int
}

// NewEngine builds the forwarding engine for one node. pools may be shared
// with other engines under the same serialization domain.
func NewEngine[T any](cfg Config, deps Deps[T], pools *Pools[T]) *Engine[T] {
	cfg = cfg.withDefaults()
	return &Engine[T]{
		deps:         deps,
		pools:        pools,
		cfg:          cfg,
		id:           cfg.NodeID,
		frames:       seen.New(seen.Horizon(cfg.MaxLifetime)),
		inflight:     make(map[uint64]*flight[T]),
		ackTimeoutFn: ackTimeoutFired[T],
		reprocessFn:  reprocessWork[T],
	}
}

// InflightCount reports how many sent groups await their hop-by-hop ACK.
func (e *Engine[T]) InflightCount() int { return len(e.inflight) }

// Shutdown cancels every pending timer — in-flight ACK timers and
// scheduled re-process/persistency retries — and releases all pooled state
// they held, so Pools.Live returns to zero no matter how much traffic was
// in flight. The engine must not be used afterwards.
func (e *Engine[T]) Shutdown() {
	for id, fl := range e.inflight {
		e.deps.CancelTimer(fl.timer)
		delete(e.inflight, id)
		w := fl.w
		e.pools.releaseFrame(fl.frame)
		e.pools.releaseFlight(fl)
		e.pools.releaseWork(w)
	}
	for _, ref := range e.pendingRetries {
		e.deps.CancelTimer(ref.timer)
		e.pools.releaseWork(ref.w)
		ref.w = nil
	}
	e.pendingRetries = e.pendingRetries[:0]
}

// retryRef is the argument of a scheduled re-process event: it keeps the
// event cancelable (and its work reference releasable) at Shutdown.
type retryRef[T any] struct {
	eng   *Engine[T]
	w     *work[T]
	timer T
}

// scheduleReprocess arms a deferred process(w) after d. The caller has
// already accounted w's reference for the event.
func (e *Engine[T]) scheduleReprocess(w *work[T], d time.Duration) {
	var ref *retryRef[T]
	if l := len(e.freeRetries); l > 0 {
		ref = e.freeRetries[l-1]
		e.freeRetries[l-1] = nil
		e.freeRetries = e.freeRetries[:l-1]
	} else {
		ref = &retryRef[T]{}
	}
	ref.eng = e
	ref.w = w
	e.pendingRetries = append(e.pendingRetries, ref)
	ref.timer = e.deps.AfterFunc(d, e.reprocessFn, ref)
}

// unregisterRetry removes one fired retry from the pending list.
func (e *Engine[T]) unregisterRetry(ref *retryRef[T]) {
	for i, r := range e.pendingRetries {
		if r == ref {
			last := len(e.pendingRetries) - 1
			e.pendingRetries[i] = e.pendingRetries[last]
			e.pendingRetries[last] = nil
			e.pendingRetries = e.pendingRetries[:last]
			break
		}
	}
	ref.w = nil
	var zero T
	ref.timer = zero
	e.freeRetries = append(e.freeRetries, ref)
}

// record emits a trace event when tracing is enabled. dests is copied so
// recorded events stay valid after pooled buffers are reused.
func (e *Engine[T]) record(kind trace.Kind, pkt uint64, node, peer int, dests []int, note string) {
	if e.cfg.Tracer == nil {
		return
	}
	if dests != nil {
		dests = append([]int(nil), dests...)
	}
	e.cfg.Tracer.Record(trace.Event{
		At:     e.deps.Now(),
		Kind:   kind,
		Packet: pkt,
		Node:   node,
		Peer:   peer,
		Dests:  dests,
		Note:   note,
	})
}

// work tracks one received copy of a packet at this node: the destinations
// still unresolved here, the neighbors that already timed out for this
// copy, and the routing path the copy arrived with. Works are pooled and
// reference-counted: every flight and every scheduled re-process event
// holds one reference.
type work[T any] struct {
	eng      *Engine[T]
	pkt      Packet
	path     []int    // routing path as received (before appending self)
	pathSet  []uint64 // bitset over node IDs on path (plus self)
	upstream int      // -1 when this node is the origin
	pending  []int    // unresolved destinations, sorted at process entry
	failed   []int    // neighbors that timed out for this copy
	refs     int
}

// setPkt fills w's packet and takes the work's payload reference.
func (w *work[T]) setPkt(pkt Packet) {
	w.pkt = pkt
	if rc, ok := pkt.Payload.(refCounted); ok {
		rc.Retain()
	}
}

// addToPathSet marks node b as on this copy's routing path, growing the
// bitset when b exceeds the pool's node hint.
func (w *work[T]) addToPathSet(b int) {
	for len(w.pathSet) <= b>>6 {
		w.pathSet = append(w.pathSet, 0)
	}
	w.pathSet[b>>6] |= 1 << (uint(b) & 63)
}

// onPath reports whether node b is on this copy's routing path.
func (w *work[T]) onPath(b int) bool {
	i := b >> 6
	return i < len(w.pathSet) && w.pathSet[i]&(1<<(uint(b)&63)) != 0
}

// hasFailed reports whether neighbor k already timed out for this copy.
func (w *work[T]) hasFailed(k int) bool {
	for _, f := range w.failed {
		if f == k {
			return true
		}
	}
	return false
}

// removePending deletes one destination from the pending slice.
func (w *work[T]) removePending(dest int) {
	for i, d := range w.pending {
		if d == dest {
			w.pending = append(w.pending[:i], w.pending[i+1:]...)
			return
		}
	}
}

// flight is one sent group awaiting its hop-by-hop ACK.
type flight[T any] struct {
	eng        *Engine[T]
	frameID    uint64
	to         int
	w          *work[T]
	attempts   int
	timer      T
	toUpstream bool
	frame      *Frame
	timeout    time.Duration
}

// Publish injects a freshly published packet at this node (which must be
// the packet's source), making it responsible for dests. Destinations
// equal to this node are delivered locally without touching the network.
func (e *Engine[T]) Publish(pkt Packet, dests []int) {
	e.record(trace.Publish, pkt.ID, e.id, -1, dests, "")
	w := e.pools.allocWork(e)
	w.setPkt(pkt)
	w.upstream = -1
	w.addToPathSet(e.id)
	for _, dest := range dests {
		if dest == e.id {
			e.deps.Deliver(&w.pkt, -1)
			continue
		}
		w.pending = append(w.pending, dest)
	}
	e.process(w)
	e.pools.releaseWork(w)
}

// SeenFrame reports whether a frame ID was already processed, without
// inserting it. No shell calls it (HandleData does its own check); tests
// use it to observe the dedup set.
func (e *Engine[T]) SeenFrame(id uint64) bool { return e.frames.Has(id) }

// HandleData implements Algorithm 2 lines 1–6 for one received data frame:
// deduplicate, deliver to local subscribers, then start processing the
// remaining destinations. The hop-by-hop ACK (line 2) is the shell's job —
// it is sent for every received frame, duplicates included, before calling
// HandleData.
func (e *Engine[T]) HandleData(in Inbound) {
	if e.frames.Seen(in.FrameID, e.deps.Now()) {
		return // retransmission of an already-processed frame
	}

	w := e.pools.allocWork(e)
	w.setPkt(in.Pkt)
	w.path = append(w.path, in.Path...)
	w.upstream = UpstreamOf(e.id, in.Path)
	for _, b := range in.Path {
		w.addToPathSet(b)
	}
	w.addToPathSet(e.id)
	for _, dest := range in.Dests {
		if dest == e.id {
			e.deps.Deliver(&w.pkt, in.From)
			e.record(trace.Deliver, in.Pkt.ID, e.id, in.From, nil, "")
			continue
		}
		w.pending = append(w.pending, dest)
	}
	e.process(w)
	e.pools.releaseWork(w)
}

// InflightDests looks up a pending sent group by frame ID, returning the
// packet it carries and the destinations its ACK would hand off. The
// returned slice aliases engine-owned memory and is only valid until the
// next engine call — callers that retain it must copy. The broker's durable
// shell reads it just before HandleAck (which releases the flight) to
// journal a custody-clear record.
func (e *Engine[T]) InflightDests(frameID uint64) (pktID uint64, dests []int, ok bool) {
	fl, live := e.inflight[frameID]
	if !live {
		return 0, nil, false
	}
	return fl.w.pkt.ID, fl.frame.Dests, true
}

// HandleAck resolves the in-flight group: the downstream neighbor took
// responsibility for the group's destinations, so this node aggressively
// forgets them (§III: "each node aggressively deletes a copy of packet once
// it receives an ACK from its downstream neighbor"). It returns the
// neighbor the group was sent to, or ok=false for duplicate/stale ACKs —
// the live shell feeds the outcome into its adaptive gamma.
func (e *Engine[T]) HandleAck(frameID uint64) (to int, ok bool) {
	fl, live := e.inflight[frameID]
	if !live {
		return 0, false // duplicate or stale ACK
	}
	e.deps.CancelTimer(fl.timer)
	delete(e.inflight, frameID)
	e.record(trace.Handoff, fl.w.pkt.ID, e.id, fl.to, fl.frame.Dests, "")
	to = fl.to
	w := fl.w
	e.pools.releaseFrame(fl.frame)
	e.pools.releaseFlight(fl)
	e.pools.releaseWork(w)
	return to, true
}

// UpstreamOf finds the upstream node of node in a routing path: the entry
// immediately before node's first appearance, or — when node never appears
// (a fresh arrival) — the last sender on the path. Returns -1 when no
// upstream exists (node is the origin).
func UpstreamOf(node int, path []int) int {
	for i, b := range path {
		if b == node {
			if i == 0 {
				return -1
			}
			return path[i-1]
		}
	}
	if len(path) == 0 {
		return -1
	}
	return path[len(path)-1]
}

// reprocessWork is the pooled callback for deferred process calls (retry
// after a missing link or a persistency hold): the scheduled event holds
// one work reference, released after processing.
func reprocessWork[T any](a any) {
	ref := a.(*retryRef[T])
	e := ref.eng
	w := ref.w
	e.unregisterRetry(ref)
	e.process(w)
	e.pools.releaseWork(w)
}

// process implements Algorithm 2 lines 7–29 event-dependently: every pending
// destination is assigned to the first eligible sending-list neighbor,
// destinations sharing a next hop are grouped into one frame, and
// destinations whose list is exhausted are rerouted to the upstream node
// (or dropped at the origin, and everywhere under NoReroute).
func (e *Engine[T]) process(w *work[T]) {
	now := e.deps.Now()
	slices.Sort(w.pending)
	if now-w.pkt.PublishedAt > e.cfg.MaxLifetime {
		e.deps.Drop(&w.pkt, w.pending, DropLifetime)
		e.record(trace.Drop, w.pkt.ID, e.id, -1, w.pending, "lifetime exceeded")
		w.pending = w.pending[:0]
		return
	}
	// Assign every pending destination to its first eligible neighbor,
	// grouping by next hop; scratch buffers keep this allocation-free.
	dests := append(e.dests[:0], w.pending...)
	e.dests = dests
	hops := e.groupHops[:0]
	exhausted := e.exhausted[:0]
	for _, dest := range dests {
		k := e.nextHop(w, dest)
		if k < 0 {
			exhausted = append(exhausted, dest)
			continue
		}
		gi := -1
		for j, h := range hops {
			if h == k {
				gi = j
				break
			}
		}
		if gi < 0 {
			hops = append(hops, k)
			gi = len(hops) - 1
			if len(e.groupDests) <= gi {
				e.groupDests = append(e.groupDests, nil)
			}
			e.groupDests[gi] = e.groupDests[gi][:0]
		}
		e.groupDests[gi] = append(e.groupDests[gi], dest)
	}
	// Groups fire in ascending next-hop order (the deterministic event
	// ordering contract); insertion sort over the handful of hops.
	for i := 1; i < len(hops); i++ {
		for j := i; j > 0 && hops[j] < hops[j-1]; j-- {
			hops[j], hops[j-1] = hops[j-1], hops[j]
			e.groupDests[j], e.groupDests[j-1] = e.groupDests[j-1], e.groupDests[j]
		}
	}
	e.groupHops = hops
	e.exhausted = exhausted
	for gi := range hops {
		e.sendGroup(w, hops[gi], e.groupDests[gi], false)
	}
	if len(exhausted) == 0 {
		return
	}
	if w.upstream < 0 || e.cfg.NoReroute {
		if w.upstream < 0 && e.cfg.Persistent {
			e.record(trace.Hold, w.pkt.ID, e.id, -1, exhausted, "persistency: retry next epoch")
			// Persistency mode (§III): hold the packet at the origin and
			// resend once network conditions can have changed, with a
			// clean slate (fresh path and failed set).
			retry := e.pools.allocWork(e)
			retry.setPkt(w.pkt)
			retry.upstream = -1
			retry.addToPathSet(e.id)
			for _, dest := range exhausted {
				w.removePending(dest)
				retry.pending = append(retry.pending, dest)
			}
			wait := e.deps.NextRetryAt(now) - now
			e.scheduleReprocess(retry, wait)
			return
		}
		// No usable path now, and nowhere to bounce to.
		for _, dest := range exhausted {
			w.removePending(dest)
		}
		e.deps.Drop(&w.pkt, exhausted, DropExhausted)
		e.record(trace.Drop, w.pkt.ID, e.id, -1, exhausted, "origin exhausted sending list")
		return
	}
	e.record(trace.Reroute, w.pkt.ID, e.id, w.upstream, exhausted, "sending list exhausted")
	e.sendGroup(w, w.upstream, exhausted, true)
}

// nextHop returns the first sending-list neighbor for dest that is neither
// on the routing path, already timed out for this copy, nor reported down
// by the shell, or -1.
func (e *Engine[T]) nextHop(w *work[T], dest int) int {
	for _, k := range e.deps.SendingList(w.pkt.Topic, dest) {
		if w.onPath(k) || w.hasFailed(k) {
			continue
		}
		if !e.deps.LinkUp(k) {
			continue
		}
		return k
	}
	return -1
}

// sendGroup transmits one group to neighbor k (Algorithm 2 lines 13–22):
// the node appends itself to the routing path, sends a single frame
// covering all destinations whose next hop is k, caches the packet and arms
// an ACK timer scaled to the link's round trip.
func (e *Engine[T]) sendGroup(w *work[T], k int, dests []int, toUpstream bool) {
	for _, dest := range dests {
		w.removePending(dest)
	}
	w.path = append(w.path, e.id) // line 20: add X to the routing path
	wait, ok := e.deps.AckWait(k)
	if !ok {
		// The table or path information referenced a non-link; mark the
		// neighbor failed and retry via the event loop rather than crash.
		w.failed = append(w.failed, k)
		w.pending = append(w.pending, dests...)
		w.refs++
		e.scheduleReprocess(w, 0)
		return
	}
	f := e.pools.allocFrame()
	f.Pkt = w.pkt
	f.Dests = append(f.Dests, dests...)
	f.Path = append(f.Path, w.path...)
	fl := e.pools.allocFlight()
	fl.eng = e
	fl.frameID = e.deps.NextFrameID()
	fl.to = k
	fl.w = w
	fl.attempts = 0
	fl.toUpstream = toUpstream
	fl.frame = f
	fl.timeout = wait + e.cfg.AckGuard
	f.ID = fl.frameID
	f.To = k
	e.inflight[fl.frameID] = fl
	w.refs++
	e.transmit(fl)
}

// ackTimeoutFired is the pooled ACK-timer callback.
func ackTimeoutFired[T any](a any) {
	fl := a.(*flight[T])
	fl.eng.ackTimeout(fl)
}

// transmit performs one transmission attempt and arms the ACK timer.
func (e *Engine[T]) transmit(fl *flight[T]) {
	fl.attempts++
	if e.cfg.Tracer != nil {
		note := fmt.Sprintf("attempt %d", fl.attempts)
		if fl.toUpstream {
			note += " (upstream)"
		}
		e.record(trace.Send, fl.w.pkt.ID, e.id, fl.to, fl.frame.Dests, note)
	}
	e.deps.Send(fl.frame)
	fl.timer = e.deps.AfterFunc(fl.timeout, e.ackTimeoutFn, fl)
}

// ackTimeout fires when no ACK arrived in time: retransmit while attempts
// remain (m per neighbor; unbounded toward the upstream, since the upstream
// is the only remaining route), otherwise declare the neighbor failed for
// this copy and re-process the group's destinations.
func (e *Engine[T]) ackTimeout(fl *flight[T]) {
	if cur, live := e.inflight[fl.frameID]; !live || cur != fl {
		return // resolved concurrently
	}
	e.deps.AckTimedOut(fl.to)
	now := e.deps.Now()
	e.record(trace.Timeout, fl.w.pkt.ID, e.id, fl.to, fl.frame.Dests, "")
	expired := now-fl.w.pkt.PublishedAt > e.cfg.MaxLifetime
	if !expired && (fl.toUpstream || fl.attempts < e.cfg.M) {
		e.transmit(fl)
		return
	}
	delete(e.inflight, fl.frameID)
	w := fl.w
	if expired {
		e.deps.Drop(&w.pkt, fl.frame.Dests, DropLifetime)
		e.record(trace.Drop, w.pkt.ID, e.id, fl.to, fl.frame.Dests, "lifetime exceeded")
		e.pools.releaseFrame(fl.frame)
		e.pools.releaseFlight(fl)
		e.pools.releaseWork(w)
		return
	}
	if e.cfg.Tracer != nil {
		e.record(trace.Failover, w.pkt.ID, e.id, fl.to, fl.frame.Dests,
			fmt.Sprintf("no ACK after %d transmission(s)", fl.attempts))
	}
	w.failed = append(w.failed, fl.to)
	w.pending = append(w.pending, fl.frame.Dests...)
	e.pools.releaseFrame(fl.frame)
	e.pools.releaseFlight(fl)
	e.process(w)
	e.pools.releaseWork(w)
}
