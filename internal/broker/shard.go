package broker

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algo2"
	"repro/internal/des"
	"repro/internal/seen"
	"repro/internal/wire"
)

// The broker's data plane is partitioned into Config.Shards single-threaded
// engine shards. Every packet is assigned to exactly one shard by a hash of
// its packet ID, so all state for one packet — frame dedup, in-flight
// retransmission groups, delivery dedup — lives in exactly one engine and
// never needs cross-shard coordination: retransmissions carry the same
// frame ID and packet ID, failover copies carry the same packet ID, and
// hop-by-hop ACKs are routed back by the shard bits their frame ID carries.
//
// Producers (connection read loops, client publishes) never touch engine
// state directly: they enqueue items into the owning shard's bounded
// mailbox and the shard goroutine applies them in arrival order. A full
// mailbox blocks the producer — the same backpressure the old single broker
// mutex applied, minus the cross-shard convoying. ACK and retry deadlines
// sit in a timer queue the shard goroutine owns and runs between mailbox
// batches (turn). Cold-path control operations that need a coherent
// per-shard view (stats snapshots) rendezvous through Broker.barrier.

const (
	// shardMailboxLen bounds each shard's work queue. Producers block when
	// it fills (backpressure onto the connection read loop), so the bound
	// caps per-shard memory without dropping custody of ACKed frames.
	shardMailboxLen = 4096
	// maxShards caps Config.Shards: frame IDs carry the owning shard in 6
	// bits (see shardShell.NextFrameID).
	maxShards = 64
	// noWake is shard.wakeAt while the wake timer is not armed.
	noWake = time.Duration(math.MaxInt64)
)

// shardItem kinds.
const (
	itemPublish = iota
	itemData
	itemAck
	itemBarrier
)

// shardItem is one unit of mailbox work. Items are pooled; producers fill
// only the fields their kind uses, and the shard goroutine recycles the
// item after applying it. The dests/path slices are item-owned scratch
// (producers copy into them, the engine copies out of them); payload is the
// item's own reference to the packet body (publish and data items only),
// dropped when the item is recycled.
type shardItem struct {
	kind     int
	from     int
	frameID  uint64
	pktID    uint64
	topic    int32
	source   int32
	pubAt    time.Time
	deadline time.Duration
	payload  *payload
	dests    []int
	path     []int
	bfn      func(*shard)
	acks     chan struct{}
}

var shardItemPool = sync.Pool{New: func() any { return new(shardItem) }}

func getItem() *shardItem { return shardItemPool.Get().(*shardItem) }

func putItem(it *shardItem) {
	if it.payload != nil {
		it.payload.Release()
		it.payload = nil
	}
	it.bfn = nil
	it.acks = nil
	it.dests = it.dests[:0]
	it.path = it.path[:0]
	shardItemPool.Put(it)
}

// shard is one single-threaded slice of the broker's data plane: its own
// Algorithm-2 engine, object pools, timer queue, delivery dedup and flush
// queue, fed by one bounded mailbox and drained by one goroutine. Fields
// below the mailbox are owned by that goroutine exclusively.
type shard struct {
	b   *Broker
	idx int
	mb  chan *shardItem

	eng   *algo2.Engine[des.EventID]
	pools *algo2.Pools[des.EventID]

	// Shard-goroutine-only state. timers holds the engine's deadlines by
	// engine-clock time (the des heap only: the wall clock says what is due);
	// wake, the shard's one runtime timer, ends an idle sleep at wakeAt.
	timers         *des.Simulator
	wake           *time.Timer
	wakeAt         time.Duration
	deliveredSeen  *seen.Set // delivered packet IDs, on the shard clock
	pendingDeliver []queuedDeliver
	nextFrameID    uint64

	// Mailbox telemetry, surfaced through wire.StatsReply.
	enqueued  atomic.Uint64
	processed atomic.Uint64
}

// newShard builds one shard. frameSeed seeds the frame counter so a
// restarted broker cannot reuse frame IDs its previous incarnation put on
// the wire within the peers' dedup horizon: in memory mode it is the wall
// clock (nanoseconds advance far faster than frames are sent, and the
// 42-bit counter space spans ~73 minutes of wall clock — orders of
// magnitude past the 2×MaxLifetime horizon), in durable mode the WAL's
// persisted incarnation shifted above the per-restart counter range
// (seedsFromIncarnation).
func newShard(b *Broker, idx int, frameSeed uint64) *shard {
	nodesHint := b.cfg.ID + len(b.cfg.Neighbors) + 1
	s := &shard{
		b:             b,
		idx:           idx,
		mb:            make(chan *shardItem, shardMailboxLen),
		deliveredSeen: seen.New(seen.Horizon(b.cfg.MaxLifetime)),
		nextFrameID:   frameSeed & (1<<42 - 1),
		timers:        des.New(0),
		wake:          time.NewTimer(time.Hour),
		wakeAt:        noWake,
	}
	s.wake.Stop()
	s.pools = algo2.NewPools[des.EventID](nodesHint)
	s.eng = algo2.NewEngine[des.EventID](algo2.Config{
		NodeID:      b.cfg.ID,
		M:           b.cfg.M,
		AckGuard:    b.cfg.AckGuard,
		MaxLifetime: b.cfg.MaxLifetime,
		Persistent:  b.cfg.Persistent,
		Tracer:      b.cfg.Tracer,
	}, shardShell{s: s}, s.pools)
	return s
}

// enqueue hands an item to the shard goroutine, blocking while the mailbox
// is full. During shutdown the item is discarded instead (barrier
// handshakes still complete); it reports whether the item was accepted.
func (s *shard) enqueue(it *shardItem) bool {
	select {
	case s.mb <- it:
		s.enqueued.Add(1)
		return true
	case <-s.b.done:
		s.discard(it)
		return false
	}
}

// run is the shard goroutine: one turn after another until Close, then
// drain. It blocks (on mailbox, wake timer and done together) only after a
// turn that found neither a queued item nor a due timer.
func (s *shard) run() {
	for !s.b.stopping() {
		now := shardShell{s}.Now()
		if s.turn(now) {
			continue
		}
		// Sleep to the earliest live deadline. On a healthy link each one is
		// cancelled by its ACK and the next is later, so the timer is re-armed
		// only for a deadline earlier than the one it waits for; an early
		// wake, or a tick left in wake.C by a re-arm, costs one empty turn.
		if at, ok := s.timers.NextAt(); ok && at < s.wakeAt {
			s.wake.Reset(at - now)
			s.wakeAt = at
		}
		select {
		case it := <-s.mb:
			s.handle(it)
		case <-s.wake.C:
			s.wakeAt = noWake
		case <-s.b.done:
		}
	}
	s.drain()
}

// turn applies the items that were queued when the caller read now, in
// arrival order, and only then runs the timers that were due at now: an
// ACK that reached the mailbox before its flight's deadline cancels the
// timeout, however late the shard gets to either. The batch is therefore
// everything queued (the mailbox bounds it): under a smaller cap a due
// timeout overtakes an ACK queued beyond it. Reports whether it did work.
func (s *shard) turn(now time.Duration) bool {
	n := len(s.mb)
	for i := 0; i < n; i++ {
		s.handle(<-s.mb)
	}
	fired := false
	for s.timers.StepUntil(now) {
		fired = true
	}
	s.flushPending()
	return n > 0 || fired
}

// drain empties whatever is left of the mailbox without doing protocol work
// — matching the pre-shard behavior of entry points bailing once b.closed —
// while still completing barrier handshakes so no control caller hangs.
// It then shuts the engine down, returning every pooled object (and
// cancelling every deadline), so PoolsLive is final before Close proceeds
// to writer-pipeline teardown.
func (s *shard) drain() {
	s.discardQueued()
	s.eng.Shutdown()
	s.wake.Stop()
}

// discardQueued empties the mailbox without blocking.
func (s *shard) discardQueued() {
	for {
		select {
		case it := <-s.mb:
			s.discard(it)
		default:
			return
		}
	}
}

// discard recycles an item without applying it, completing any barrier
// handshake it carries and dropping its payload reference.
func (s *shard) discard(it *shardItem) {
	if it.kind == itemBarrier {
		it.acks <- struct{}{} // buffered to shard count; never blocks
	}
	putItem(it)
}

// handle applies one mailbox item to the shard's engine, then flushes the
// local deliveries the engine queued.
func (s *shard) handle(it *shardItem) {
	s.processed.Add(1)
	b := s.b
	switch it.kind {
	case itemPublish:
		s.eng.Publish(algo2.Packet{
			ID:          it.pktID,
			Topic:       it.topic,
			Source:      it.source,
			PublishedAt: it.pubAt.Sub(b.epoch),
			Deadline:    it.deadline,
			Payload:     it.payload,
		}, it.dests)
	case itemData:
		s.eng.HandleData(algo2.Inbound{
			FrameID: it.frameID,
			From:    it.from,
			Pkt: algo2.Packet{
				ID:          it.pktID,
				Topic:       it.topic,
				Source:      it.source,
				PublishedAt: it.pubAt.Sub(b.epoch),
				Deadline:    it.deadline,
				Payload:     it.payload,
			},
			Dests: it.dests,
			Path:  it.path,
		})
	case itemAck:
		if b.wal != nil {
			// Journal the custody hand-off before HandleAck releases the
			// flight (InflightDests aliases engine memory valid only until
			// then): the neighbor now holds these dests, so a crash after
			// this record must not replay them from here.
			if pid, dests, ok := s.eng.InflightDests(it.frameID); ok {
				b.walClear(pid, dests)
			}
		}
		if to, ok := s.eng.HandleAck(it.frameID); ok {
			if nc := b.neighbors[to]; nc != nil {
				nc.ackSucceeded()
			}
		}
	case itemBarrier:
		if it.bfn != nil {
			it.bfn(s)
		}
		it.acks <- struct{}{}
	}
	putItem(it)
	s.flushPending()
}

// flushPending sends the deliveries the engine queued during the last item
// or timer callback to their subscriber clients. Client sends are bounded
// enqueues into the per-connection writer pipelines, so flushing on the
// shard goroutine cannot wedge it behind a stalled subscriber.
func (s *shard) flushPending() {
	if len(s.pendingDeliver) == 0 {
		return
	}
	q := s.pendingDeliver
	s.pendingDeliver = s.pendingDeliver[:0]
	for i := range q {
		s.b.deliver(&q[i])
		q[i].payload.Release()
		q[i] = queuedDeliver{}
	}
}

// stats snapshots the shard's mailbox telemetry. Depth and inflight are
// coherent when called on the shard goroutine (via Broker.barrier); the
// shutdown fallback reads the atomics directly and reports inflight as 0.
func (s *shard) stats(onShard bool) wire.ShardStat {
	st := wire.ShardStat{
		Depth:     int32(len(s.mb)),
		Enqueued:  s.enqueued.Load(),
		Processed: s.processed.Load(),
	}
	if onShard {
		st.Inflight = int32(s.eng.InflightCount())
	}
	return st
}

// shardShell implements algo2.Deps for one shard. Every method is invoked
// by the engine on the shard goroutine; everything it reads from the broker
// is either immutable after New (cfg, epoch, neighbors), a copy-on-write
// snapshot (routes, local subscribers) or atomic (counters) — no locks on
// the data path.
type shardShell struct{ s *shard }

var _ algo2.Deps[des.EventID] = shardShell{}

// Now is the engine clock: time since the broker's construction epoch.
func (sh shardShell) Now() time.Duration { return time.Since(sh.s.b.epoch) }

// AfterFunc puts a deadline on the shard's timer queue; the shard goroutine
// runs the callback in the first turn that starts at or after it.
func (sh shardShell) AfterFunc(d time.Duration, fn func(any), arg any) des.EventID {
	return sh.s.timers.AtFunc(sh.Now()+d, fn, arg)
}

// CancelTimer is reliable by construction: the goroutine that cancels is
// the one that runs the queue. The entry drops its argument at once.
func (sh shardShell) CancelTimer(t des.EventID) { t.Cancel() }

// NextFrameID allocates an overlay-unique frame identifier. Receivers
// de-duplicate retransmissions by frame ID and senders route the returning
// hop-by-hop ACK by it, so the layout carries both origins: 16 bits of
// broker ID, 6 bits of shard index, 42 bits of per-shard counter.
func (sh shardShell) NextFrameID() uint64 {
	s := sh.s
	s.nextFrameID++
	return uint64(s.b.cfg.ID)<<48 | uint64(s.idx)<<42 | (s.nextFrameID & (1<<42 - 1))
}

// AckWait scales the ACK timeout to the link's measured round trip
// (2*alpha; the engine adds Config.AckGuard on top). Unknown neighbors, and
// links with no alpha sample yet, get a bare-guard timeout and fail over via
// the normal timer path.
func (sh shardShell) AckWait(k int) (time.Duration, bool) {
	if nc := sh.s.b.neighbors[k]; nc != nil {
		alpha, _ := nc.estimate()
		return 2 * alpha, true
	}
	return 0, true
}

// Send encodes one engine frame as a wire.Data and hands it to the
// neighbor's writer pipeline (already safe for concurrent senders). The
// engine frame is only valid until return while the pipeline retains its
// message, so the wire message is built fresh per attempt — from the pool,
// recycled by the writer after encoding; it borrows the payload's bytes
// under a reference of its own, since the flight (and with it the work's
// reference) can resolve before the writer gets to it.
func (sh shardShell) Send(f *algo2.Frame) {
	b := sh.s.b
	nc := b.neighbors[f.To]
	if nc == nil {
		return // no such neighbor; the ACK timer will fail the copy over
	}
	b.forwarded.Add(1)
	msg := dataMsgPool.Get().(*dataMsg)
	msg.FrameID = f.ID
	msg.PacketID = f.Pkt.ID
	msg.Topic = f.Pkt.Topic
	msg.Source = f.Pkt.Source
	msg.PublishedAt = b.epoch.Add(f.Pkt.PublishedAt)
	msg.Deadline = f.Pkt.Deadline
	msg.payload = f.Pkt.Payload.(*payload)
	msg.payload.Retain()
	msg.Payload = msg.payload.buf
	for _, d := range f.Dests {
		msg.Dests = append(msg.Dests, int32(d))
	}
	for _, p := range f.Path {
		msg.Path = append(msg.Path, int32(p))
	}
	if err := nc.send(msg); err != nil {
		releaseMsg(msg)
		b.logf("send frame %d to %d: %v", f.ID, f.To, err)
		return
	}
	// Sample the send time so the returning hop-by-hop ACK measures alpha
	// from real traffic (bounded; see noteDataSend).
	nc.noteDataSend(f.ID, time.Now())
}

// SendingList exposes the distributed Algorithm-1 state: this broker's list
// in the pair's table, as the control plane last published it
// (controlplane.go). Before a table exists the list is empty, and the
// engine treats the packet as it treats an exhausted list: held under §III
// persistency, or dropped.
func (sh shardShell) SendingList(topic int32, dest int) []int {
	return sh.s.b.ctrlSnap.Load().lists[routeKey{topic: topic, sub: int32(dest)}]
}

// LinkUp skips neighbors without a live connection.
func (sh shardShell) LinkUp(k int) bool {
	nc := sh.s.b.neighbors[k]
	return nc != nil && nc.connected()
}

// Deliver queues a local delivery, flushed by the shard goroutine after the
// engine call returns. Packet-level dedup lives here, per shard — packet
// affinity guarantees every copy of one packet consults the same set.
func (sh shardShell) Deliver(pkt *algo2.Packet, _ int) {
	s := sh.s
	if s.deliveredSeen.Seen(pkt.ID, sh.Now()) {
		return
	}
	if s.b.wal != nil {
		// Journaled at the same point the dedup set marks the packet — a
		// topic with no local ledger still counts as delivered, exactly as
		// it does in memory. Durability is group-committed, not awaited
		// (see wal.AppendDeliver for the redelivery window this accepts).
		s.b.wal.AppendDeliver(pkt.ID)
	}
	led := s.b.localLedger(pkt.Topic)
	if led == nil {
		return
	}
	body := pkt.Payload.(*payload)
	body.Retain() // the work's reference can be gone before the flush
	s.pendingDeliver = append(s.pendingDeliver, queuedDeliver{
		led:     led,
		topic:   pkt.Topic,
		pktID:   pkt.ID,
		source:  pkt.Source,
		pubAt:   s.b.epoch.Add(pkt.PublishedAt),
		payload: body,
	})
}

// Drop counts abandoned destinations — and, in durable mode, settles them
// in the WAL so an abandoned packet is not resurrected at the next restart.
func (sh shardShell) Drop(pkt *algo2.Packet, dests []int, reason algo2.DropReason) {
	b := sh.s.b
	b.walClear(pkt.ID, dests)
	b.dropped.Add(uint64(len(dests)))
	for _, dest := range dests {
		if reason == algo2.DropExhausted {
			b.logf("packet %d: no route to dest %d, dropping at origin", pkt.ID, dest)
		} else {
			b.logf("packet %d: lifetime exceeded for dest %d", pkt.ID, dest)
		}
	}
}

// AckTimedOut decays the neighbor's adaptive gamma.
func (sh shardShell) AckTimedOut(k int) {
	if nc := sh.s.b.neighbors[k]; nc != nil {
		nc.ackTimedOut()
	}
}

// NextRetryAt paces §III persistency retries: a packet whose sending list
// is unreachable is re-processed every RetryInterval until a route appears
// or its lifetime expires.
func (sh shardShell) NextRetryAt(now time.Duration) time.Duration {
	return now + sh.s.b.cfg.RetryInterval
}
