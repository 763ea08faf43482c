package broker

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// The live broker is a sharded shell over the shared Algorithm-2 engine
// (internal/algo2): every hot entry point below routes its input to the
// owning shard's mailbox by packet-ID hash (shard.go), and the per-shard
// goroutine applies it to that shard's single-threaded engine. No entry
// point here takes b.mu — the data plane reads only immutable broker state,
// copy-on-write snapshots and atomics.

// payload is the one owner of a packet body inside the broker: a pooled,
// reference-counted buffer. The bytes are copied in once per broker, from
// the frame the read loop's pooled Reader is about to recycle (publishLocal,
// handleData) or from a recovered WAL record (replayRecovered) — aliasing the
// read buffer instead would pin 64 KiB per packet still in flight and stall
// the Reader, and a 64-byte memmove is not what a copy costs: the object and
// its collection are, and the pool removes both. From there every holder
// keeps a reference and whoever drops the last one recycles the buffer:
//
//   - the mailbox item, from creation until the shard has applied it;
//   - the engine, one per work that carries the packet (algo2.Packet);
//   - a queued local delivery, from shardShell.Deliver to the shard's flush;
//   - each DATA or MuxDeliver message that borrows the bytes, from a
//     successful send until its writer has encoded it.
//
// A *payload is never nil where one is expected: stored in Packet.Payload
// (an any), a nil pointer would be a non-nil interface.
type payload struct {
	buf  []byte
	refs atomic.Int32
	live *atomic.Int64 // the owning broker's PayloadsLive gauge
}

// maxPooledPayload is the largest buffer a released payload keeps for reuse
// (the writer-scratch rule: one giant body must not pin its memory).
const maxPooledPayload = 64 << 10

var payloadPool = sync.Pool{New: func() any { return new(payload) }}

// newPayload copies src into a pooled buffer; the caller holds the one
// reference.
func (b *Broker) newPayload(src []byte) *payload {
	p := payloadPool.Get().(*payload)
	p.buf = append(p.buf[:0], src...)
	p.refs.Store(1)
	p.live = &b.payloadsLive
	p.live.Add(1)
	return p
}

// Retain takes one more reference.
func (p *payload) Retain() { p.refs.Add(1) }

// Release drops one reference; the last one recycles the buffer.
func (p *payload) Release() {
	switch n := p.refs.Add(-1); {
	case n > 0:
	case n < 0:
		panic("broker: payload released more often than retained")
	default:
		p.live.Add(-1)
		p.live = nil
		if cap(p.buf) > maxPooledPayload {
			p.buf = nil
		}
		payloadPool.Put(p)
	}
}

// queuedDeliver is one local delivery: the packet's header fields by value,
// the body by reference, and the immutable snapshot ledger to send it to.
// The engine produces them during a shard's engine call (shardShell.Deliver)
// and the shard sends them when it flushes, after the engine returns.
type queuedDeliver struct {
	led     *topicLedger
	topic   int32
	pktID   uint64
	source  int32
	pubAt   time.Time
	payload *payload
}

// publishLocal accepts a publish from a connected client: hand one copy per
// known subscriber broker to the owning shard's engine, then deliver to
// local subscribers. walDests is the calling read loop's scratch for the
// origin custody record's destination list.
func (b *Broker) publishLocal(m *wire.Publish, walDests *[]int32) {
	if b.stopping() {
		return
	}
	deadline := m.Deadline
	if deadline <= 0 {
		deadline = b.cfg.DefaultDeadline
	}
	// m belongs to the read loop's pooled Reader and is recycled on the next
	// frame, while the routed copy and the queued deliveries outlive this
	// call. This reference is publishLocal's own, held for the local delivery
	// below; the item gets a second one, which may be gone the moment enqueue
	// returns.
	body := b.newPayload(m.Payload)
	defer body.Release()
	now := time.Now()
	b.published.Add(1)
	// Packet IDs must be overlay-unique (delivery dedup keys on them), so
	// the broker ID occupies the high bits.
	pid := uint64(b.cfg.ID)<<48 | (b.nextPacketID.Add(1) & (1<<48 - 1))
	deliverTo := b.localLedger(m.Topic)

	it := getItem()
	it.kind = itemPublish
	it.pktID = pid
	it.topic = m.Topic
	it.source = int32(b.cfg.ID)
	it.pubAt = now
	it.deadline = deadline
	body.Retain()
	it.payload = body
	// The snapshot's destination set is immutable but the item's slices are
	// recycled scratch, so copy rather than alias it.
	it.dests = append(it.dests[:0], b.ctrlSnap.Load().dests[m.Topic]...)
	if b.wal != nil && len(it.dests) > 0 {
		// Origin custody: journal before the packet reaches the engine, so a
		// crash replays it as a publish of the still-outstanding dests.
		// Frame ID 0 marks an origin record — real frame IDs never collide
		// with it (the counter seeds above zero and the broker/shard bits
		// sit higher still). Forwarding need not wait for durability: there
		// is no upstream copy to release, and a pre-fsync crash only loses
		// what a memory-custody broker would have lost anyway.
		d := wire.Data{
			PacketID:    pid,
			Topic:       m.Topic,
			Source:      int32(b.cfg.ID),
			PublishedAt: now,
			Deadline:    deadline,
			Dests:       (*walDests)[:0],
			Payload:     body.buf,
		}
		for _, dest := range it.dests {
			d.Dests = append(d.Dests, int32(dest))
		}
		*walDests = d.Dests
		b.wal.AppendCustody(&d, -1)
	}
	b.shardOf(pid).enqueue(it)

	if deliverTo != nil {
		b.deliver(&queuedDeliver{
			led:     deliverTo,
			topic:   m.Topic,
			pktID:   pid,
			source:  int32(b.cfg.ID),
			pubAt:   now,
			payload: body,
		})
	}
}

// handleData routes a data frame from a neighbor (Algorithm 2, receive
// side) to the packet's shard. The hop-by-hop ACK was already sent by the
// caller — for every received frame, duplicates included.
func (b *Broker) handleData(from int, m *wire.Data) {
	if b.stopping() {
		return
	}
	// m is recycled by the read loop's pooled Reader after return; the
	// engine's work (held across ACK timers) and any queued deliveries need
	// the body to outlive it, so copy it once here into a payload the item
	// owns. Dests/Path are copied into the pooled item's own scratch slices —
	// the engine copies both again before its HandleData returns, so the item
	// can be recycled immediately after.
	it := getItem()
	it.kind = itemData
	it.from = from
	it.frameID = m.FrameID
	it.pktID = m.PacketID
	it.topic = m.Topic
	it.source = m.Source
	it.pubAt = m.PublishedAt
	it.deadline = m.Deadline
	it.payload = b.newPayload(m.Payload)
	for _, d := range m.Dests {
		it.dests = append(it.dests, int(d))
	}
	for _, p := range m.Path {
		it.path = append(it.path, int(p))
	}
	b.shardOf(m.PacketID).enqueue(it)
}

// handleAck routes an in-flight group's resolution to the shard that sent
// the frame: the neighbor took responsibility, so that shard forgets the
// copy (aggressive deletion, §III) and credits the neighbor's gamma.
func (b *Broker) handleAck(frameID uint64) {
	it := getItem()
	it.kind = itemAck
	it.frameID = frameID
	b.ackShard(frameID).enqueue(it)
}

// shardOf maps a packet ID to its owning shard. All state for one packet —
// frame dedup, in-flight groups, delivery dedup — must live in exactly one
// shard, and every retransmission or failover copy of a packet carries the
// same packet ID, so hashing it gives stable affinity.
func (b *Broker) shardOf(pid uint64) *shard {
	if len(b.shards) == 1 {
		return b.shards[0]
	}
	// Fibonacci multiplicative hash: packet IDs are counter-in-low-bits, so
	// mix before reducing or adjacent packets would all land in order.
	h := pid * 0x9e3779b97f4a7c15
	return b.shards[(h>>33)%uint64(len(b.shards))]
}

// ackShard routes a returning hop-by-hop ACK by the shard index the frame
// ID carries (bits 42–47, written by shardShell.NextFrameID). ACKs only
// ever return for frames this broker sent, so the bits are always ours; the
// modulo guards against a corrupted or foreign frame ID.
func (b *Broker) ackShard(frameID uint64) *shard {
	return b.shards[int(frameID>>42&(maxShards-1))%len(b.shards)]
}

// deliver pushes one packet to a topic ledger's local subscribers. Sends are
// bounded enqueues into per-connection writer pipelines, safe from any
// goroutine. Every session gets ONE pooled MuxDeliver carrying its
// subscriber-ID list (the ledger's ID slices are immutable, see edge.go), so
// the aggregation costs one small message header per session, not one
// payload copy per subscriber. The caller's payload reference is only
// borrowed: each message that reaches a writer queue takes its own, which
// that writer drops after encoding. The delivered counter counts logical
// deliveries.
func (b *Broker) deliver(q *queuedDeliver) {
	for i := range q.led.sessions {
		sd := &q.led.sessions[i]
		// Each MuxDeliver has exactly one owner (one session writer), so the
		// struct comes from a pool: the writer recycles it after encoding
		// (releaseMsg), and a failed send recycles it here.
		mux := muxMsgPool.Get().(*muxMsg)
		mux.Topic = q.topic
		mux.PacketID = q.pktID
		mux.Source = q.source
		mux.PublishedAt = q.pubAt
		mux.SubIDs = sd.subIDs
		mux.Payload = q.payload.buf
		q.payload.Retain()
		mux.payload = q.payload
		if err := sd.c.send(mux); err != nil {
			releaseMsg(mux)
			b.logf("mux deliver to %q: %v", sd.c.name, err)
			continue
		}
		b.delivered.Add(uint64(len(sd.subIDs)))
	}
}
