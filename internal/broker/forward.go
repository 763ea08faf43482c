package broker

import (
	"time"

	"repro/internal/wire"
)

// The live broker is a sharded shell over the shared Algorithm-2 engine
// (internal/algo2): every hot entry point below routes its input to the
// owning shard's mailbox by packet-ID hash (shard.go), and the per-shard
// goroutine applies it to that shard's single-threaded engine. No entry
// point here takes b.mu — the data plane reads only immutable broker state,
// copy-on-write snapshots and atomics.

// queuedDeliver is one local delivery the engine produced during a shard's
// engine call; it is sent to the ledger's subscribers when the shard
// flushes, after the engine returns. led is an immutable snapshot ledger.
type queuedDeliver struct {
	led *topicLedger
	msg *wire.Deliver
}

// publishLocal accepts a publish from a connected client: deliver to local
// subscribers immediately, then hand one copy per known subscriber broker
// to the owning shard's engine.
func (b *Broker) publishLocal(m *wire.Publish) {
	if b.stopping() {
		return
	}
	deadline := m.Deadline
	if deadline <= 0 {
		deadline = b.cfg.DefaultDeadline
	}
	// m belongs to the read loop's pooled Reader and is recycled on the next
	// frame, while the routed copy and the queued deliveries outlive this
	// call: take one stable copy of the payload.
	payload := append([]byte(nil), m.Payload...)
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
	it.payload = payload
	// The snapshot's destination set is immutable but the item's slices are
	// recycled scratch, so copy rather than alias it.
	it.dests = append(it.dests[:0], b.routesSnap.Load().destsByTopic[m.Topic]...)
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
			Payload:     payload,
		}
		for _, dest := range it.dests {
			d.Dests = append(d.Dests, int32(dest))
		}
		b.wal.AppendCustody(&d, -1)
	}
	b.shardOf(pid).enqueue(it)

	if deliverTo != nil {
		b.deliver(deliverTo, &wire.Deliver{
			Topic:       m.Topic,
			PacketID:    pid,
			Source:      int32(b.cfg.ID),
			PublishedAt: now,
			Payload:     payload,
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
	// engine's copy (held across ACK timers) and any queued deliveries need
	// a stable payload, so copy it once here. Dests/Path are copied into the
	// pooled item's own scratch slices — the engine copies both again before
	// its HandleData returns, so the item can be recycled immediately after.
	it := getItem()
	it.kind = itemData
	it.from = from
	it.frameID = m.FrameID
	it.pktID = m.PacketID
	it.topic = m.Topic
	it.source = m.Source
	it.pubAt = m.PublishedAt
	it.deadline = m.Deadline
	it.payload = append([]byte(nil), m.Payload...)
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

// deliver pushes a message to a topic ledger's local subscribers. Sends are
// bounded enqueues into per-connection writer pipelines, safe from any
// goroutine. Legacy subscribers each get their own Deliver frame; every
// multiplexed session gets ONE MuxDeliver frame carrying its subscriber-ID
// list — the payload []byte and the ledger's ID slices are shared with the
// queued messages (both immutable, see edge.go), so the aggregation costs
// one small message header per session, not one payload copy per
// subscriber. The delivered counter counts logical deliveries either way.
func (b *Broker) deliver(led *topicLedger, msg *wire.Deliver) {
	if led == nil {
		return
	}
	for _, c := range led.legacy {
		if err := c.send(msg); err != nil {
			b.logf("deliver to %q: %v", c.name, err)
			continue
		}
		b.delivered.Add(1)
	}
	for i := range led.sessions {
		sd := &led.sessions[i]
		// Each MuxDeliver has exactly one owner (one session writer), so the
		// struct comes from a pool: the writer recycles it after encoding
		// (releaseMsg), and a failed send recycles it here.
		mux := getMuxDeliver()
		mux.Topic = msg.Topic
		mux.PacketID = msg.PacketID
		mux.Source = msg.Source
		mux.PublishedAt = msg.PublishedAt
		mux.SubIDs = sd.subIDs
		mux.Payload = msg.Payload
		if err := sd.c.send(mux); err != nil {
			releaseMsg(mux)
			b.logf("mux deliver to %q: %v", sd.c.name, err)
			continue
		}
		b.delivered.Add(uint64(len(sd.subIDs)))
	}
}
