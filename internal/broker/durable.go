package broker

import (
	"repro/internal/seen"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Crash-durable custody (DESIGN.md §16). With Config.DataDir set, the broker
// journals every custody transfer to a write-ahead log and withholds the
// hop-by-hop ACK until the record is on disk. The ACK is Algorithm 2's
// custody hand-off — the upstream deletes its copy the moment it arrives
// (aggressive deletion, §III) — so "ACK only after durable" is exactly the
// invariant that extends Theorem 2's exactly-once guarantee from link
// failures to node loss: at every instant, each undelivered packet copy is
// either still held (and retried) by the upstream, or durable here.
//
// The glue in this file is everything the broker adds on top of
// internal/wal: opening/recovery in New, the withheld-ACK path, the clear/
// deliver records fed from the shard engines, and replay of recovered
// flights back into those engines.

// seedsFromIncarnation derives the packet- and frame-counter seeds for a
// durable broker from the WAL's persisted restart counter. The low 10 bits
// of the incarnation are placed above each counter's active range — 38 bits
// of packets, 32 bits of frames per shard per incarnation — so IDs from
// distinct incarnations cannot collide within the peers' dedup horizon
// (wrap-around after 1024 restarts is far past 2×MaxLifetime).
func seedsFromIncarnation(inc uint64) (pktSeed, frameSeed uint64) {
	return (inc & (1<<10 - 1)) << 38, (inc & (1<<10 - 1)) << 32
}

// openWal opens (recovering if needed) the custody journal under
// Config.DataDir. Called by New before the shards are built: the persisted
// incarnation seeds the ID counters, the recovered deliveries seed the shards'
// delivery sets before their goroutines start, and the recovered flights are
// replayed once they run.
func (b *Broker) openWal() (*wal.Recovered, error) {
	w, rec, err := wal.Open(wal.Config{
		Dir:         b.cfg.DataDir,
		NodeID:      b.cfg.ID,
		Horizon:     seen.Horizon(b.cfg.MaxLifetime),
		OnDurable:   b.onWalDurable,
		BeforeFlush: b.cfg.walBeforeFlush,
		Logf:        b.logf,
	})
	if err != nil {
		return nil, err
	}
	b.wal = w
	return rec, nil
}

// custodyAck emits the hop-by-hop ACK for one received DATA frame. In
// memory-custody mode it goes out immediately — the engine state reached
// via handleData IS the custody. In durable mode the ACK is a durability
// promise, so it is withheld until the WAL record is on disk: AppendCustody
// journals the frame and the committer releases the ACK from onWalDurable
// after the batch's fsync. Duplicate frames are not re-journaled but still
// get a callback — the previous ACK may have been the thing that was lost.
func (b *Broker) custodyAck(nc *neighborConn, m *wire.Data) {
	if b.wal == nil {
		nc.queueAck(b, m.FrameID)
		return
	}
	b.wal.AppendCustody(m, nc.id)
}

// onWalDurable runs on the WAL committer goroutine after the fsync that
// made a custody record durable: release the withheld ACK. During shutdown
// the ACK is skipped — the upstream retransmits to the restarted
// incarnation, whose recovered WAL entry answers with a fresh ACK. The send
// is a coalesced ACK-set insert drained by the neighbor's writer pipeline,
// so the committer is never wedged behind a peer.
func (b *Broker) onWalDurable(frameID uint64, from int) {
	if b.stopping() {
		return
	}
	if nc := b.neighbors[from]; nc != nil {
		nc.queueAck(b, frameID)
	}
}

// seedDelivered inserts the packet IDs the WAL recorded as delivered locally
// into their shards' delivery sets, at shard clock ≈ 0, so replay cannot
// deliver them twice. New calls it before the shard goroutines start.
func (b *Broker) seedDelivered(rec *wal.Recovered) {
	for _, pid := range rec.Delivered {
		s := b.shardOf(pid)
		s.deliveredSeen.Seen(pid, shardShell{s}.Now())
	}
}

// replayRecovered re-injects the crash-surviving custody flights into the
// shard engines as ordinary mailbox work (seedDelivered ran first). Each
// outstanding flight resumes retransmission where the previous incarnation
// held custody:
//
//   - relayed flights (frame ID != 0) re-enter as inbound DATA carrying the
//     original frame ID, remaining dests and path — an upstream that never
//     got our ACK retransmits the same frame ID and dedups against it, and
//     downstream packet-level dedup absorbs any copy the previous
//     incarnation had already pushed further;
//   - origin flights (frame ID 0, journaled by publishLocal) re-enter as
//     publishes of their remaining destination set.
//
// Local re-delivery on replay is deliberately NOT attempted: subscriber
// registrations are not durable, and a topic with no ledger counts as
// delivered (the same rule the live Deliver path applies).
func (b *Broker) replayRecovered(rec *wal.Recovered) {
	for i := range rec.Flights {
		d := &rec.Flights[i].Rec
		it := getItem()
		it.pktID = d.PacketID
		it.topic = d.Topic
		it.source = d.Source
		it.pubAt = d.PublishedAt
		it.deadline = d.Deadline
		it.payload = b.newPayload(d.Payload)
		for _, dd := range d.Dests {
			it.dests = append(it.dests, int(dd))
		}
		if d.FrameID != 0 {
			it.kind = itemData
			it.frameID = d.FrameID
			it.from = -1 // no live upstream to attribute; ACK was ours to send, not receive
			for _, p := range d.Path {
				it.path = append(it.path, int(p))
			}
		} else {
			it.kind = itemPublish
		}
		if b.shardOf(d.PacketID).enqueue(it) {
			b.walReplayed.Add(1)
		}
	}
	if n := b.walReplayed.Load(); n > 0 || len(rec.Delivered) > 0 {
		b.logf("wal: incarnation %d replayed %d flights, preloaded %d delivered packets",
			rec.Incarnation, n, len(rec.Delivered))
	}
}

// Crash tears the broker down as abrupt node loss rather than a graceful
// stop: the WAL discards everything not yet fsynced — the page cache of a
// power-failed machine — and no withheld ACK ever fires. Exactly-once must
// survive this by construction: un-fsynced custody was never ACKed, so the
// upstream still holds (and will retransmit) it, while fsynced custody is
// replayed by the next incarnation from the same DataDir. Durability tests
// and cmd/dcrd-chaos crash brokers through here; a memory-custody broker
// just closes.
func (b *Broker) Crash() error {
	if b.wal != nil {
		b.wal.CloseDiscard()
	}
	return b.Close()
}

// walClear journals that dests of pkt have settled (ACK moved custody
// downstream, or the destination was abandoned). No-op in memory mode.
func (b *Broker) walClear(pid uint64, dests []int) {
	if b.wal != nil {
		b.wal.AppendClear(pid, dests)
	}
}

// walStat snapshots the journal's counters for Stats and wire.StatsReply.
func (b *Broker) walStat() wire.WalStat {
	if b.wal == nil {
		return wire.WalStat{}
	}
	st := b.wal.Stats()
	return wire.WalStat{
		Enabled:         true,
		Appends:         st.Appends,
		Fsyncs:          st.Fsyncs,
		Bytes:           st.Bytes,
		ReplayedFlights: b.walReplayed.Load(),
		Checkpoints:     st.Checkpoints,
	}
}
