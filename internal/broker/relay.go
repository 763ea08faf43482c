package broker

import (
	"slices"
	"sync"
	"time"

	"repro/internal/wire"
)

// Relay-plane link aggregation: the engine's decisions are untouched, but
// the wire between batch-capable brokers gets cheaper in both directions.
//
//   - Outbound DATA: the writer pipeline packs consecutive wire.Data
//     messages bound for one neighbor into a single wire.DataBatch frame
//     with delta-compressed headers (see runWriter).
//   - Hop-by-hop ACKs: instead of answering every received DATA with its
//     own Ack frame, the receiver coalesces pending frame IDs per neighbor
//     and flushes them as one AckBatch — when Config.AckBatchSize are
//     pending, when Config.AckFlushInterval expires, or piggybacked on any
//     writer flush that is happening anyway.
//
// Both directions are negotiated per link through wire.CapRelayBatch in the
// Hello exchange: a peer that never advertised the capability keeps the
// legacy one-frame-per-packet, one-ack-per-frame protocol, bit for bit.
// Coalescing is safe because custody is frame-level: the flush interval
// sits far inside the sender's ACK timeout (2*alpha + AckGuard), and a
// retransmission triggered by an unlucky flush is absorbed by the
// receiver's frame dedup — delayed ACKs cost at most gamma estimate noise,
// never correctness.

const (
	// dataBatchMaxFrames caps how many Data frames one DataBatch carries;
	// a writer flush emits several batches when more are queued.
	dataBatchMaxFrames = 64
	// legacyAckFrameBytes is the encoded size of a legacy Ack frame
	// (4-byte length + type + 8-byte frame ID) — the RelayBytesSaved
	// reference cost per coalesced ACK.
	legacyAckFrameBytes = 13
)

// legacyDataBytes is the encoded size of d as a standalone legacy Data
// frame: 4-byte length + type byte, 40 bytes of fixed header fields, two
// 2-byte node counts plus 4 bytes per node, 4-byte payload length plus the
// payload — the RelayBytesSaved reference cost per batched DATA.
func legacyDataBytes(d *wire.Data) int {
	return 53 + 4*(len(d.Dests)+len(d.Path)) + len(d.Payload)
}

// helloName is the Name field of this broker's Hello to a neighbor: a
// label plus the relay-batch token when this configuration batches.
func (b *Broker) helloName() string {
	if b.cfg.DisableRelayBatch {
		return "broker"
	}
	return wire.AddCap("broker", wire.CapRelayBatch)
}

// batchTo reports whether relay frames to this neighbor may use the batch
// framing: aggregation enabled locally and the current peer advertised the
// capability. Nil-safe so client writer pipelines can ask too.
func (nc *neighborConn) batchTo(b *Broker) bool {
	return nc != nil && !b.cfg.DisableRelayBatch && nc.peerBatch.Load()
}

// ackData acknowledges one received DATA frame hop-by-hop: immediately
// with a legacy Ack frame, or — when the link negotiated relay batching —
// through the neighbor's ACK coalescer.
func (b *Broker) ackData(nc *neighborConn, frameID uint64) {
	if !nc.batchTo(b) {
		_ = nc.send(&wire.Ack{FrameID: frameID})
		return
	}
	nc.queueAck(b, frameID)
}

// queueAck adds one frame ID to the neighbor's pending coalesced ACKs. The
// first pending ACK arms the flush timer; reaching AckBatchSize kicks the
// writer immediately. Either way the writer drains the set on its next
// flush, so ACKs also piggyback on outbound traffic for free.
func (nc *neighborConn) queueAck(b *Broker, frameID uint64) {
	nc.ackMu.Lock()
	nc.pendingAcks = append(nc.pendingAcks, frameID)
	n := len(nc.pendingAcks)
	if n == 1 {
		if nc.ackFlushTimer == nil {
			nc.ackFlushTimer = time.AfterFunc(b.cfg.AckFlushInterval, nc.kickWriter)
		} else {
			nc.ackFlushTimer.Reset(b.cfg.AckFlushInterval)
		}
	}
	nc.ackMu.Unlock()
	if n >= b.cfg.AckBatchSize {
		nc.kickWriter()
	}
}

// takeAcks moves the pending coalesced ACKs into dst (reused storage) and
// clears the set. Called by the writer goroutine on every flush.
func (nc *neighborConn) takeAcks(dst []uint64) []uint64 {
	nc.ackMu.Lock()
	dst = append(dst[:0], nc.pendingAcks...)
	nc.pendingAcks = nc.pendingAcks[:0]
	nc.ackMu.Unlock()
	return dst
}

// kickWriter wakes the neighbor's writer pipeline so it drains the pending
// coalesced ACKs even when no other traffic is queued.
func (nc *neighborConn) kickWriter() {
	nc.mu.Lock()
	w := nc.w
	nc.mu.Unlock()
	if w != nil {
		w.kick()
	}
}

// resetRelay clears the per-link aggregation state when a connection is
// replaced or closed: the next peer may be legacy, so pending coalesced
// ACKs must not leak onto its stream (the peer retransmits unACKed frames
// and the receiver's frame dedup absorbs the duplicates) and the
// capability is re-learned from its Hello.
func (nc *neighborConn) resetRelay() {
	nc.peerBatch.Store(false)
	nc.ackMu.Lock()
	nc.pendingAcks = nc.pendingAcks[:0]
	if nc.ackFlushTimer != nil {
		nc.ackFlushTimer.Stop()
	}
	nc.ackMu.Unlock()
	// Probe and ACK samples in flight on the old connection must not leak
	// into the new one's estimates; alpha itself carries over.
	nc.mu.Lock()
	nc.probeTok = 0
	clear(nc.dataSend)
	nc.mu.Unlock()
}

// appendAckBatch encodes the coalesced ACK set as one AckBatch frame onto
// the writer buffer. IDs are sorted ascending first: the encoding is
// consecutive deltas, and in-order frame IDs from one shard differ by one.
func (b *Broker) appendAckBatch(buf []byte, label string, ids []uint64) []byte {
	slices.Sort(ids)
	ab := wire.AckBatch{FrameIDs: ids}
	base := len(buf)
	buf = b.appendFrameChecked(buf, label, &ab)
	b.ackBatches.Add(1)
	b.ackFramesCoalesced.Add(uint64(len(ids)))
	if sz := len(buf) - base; sz > 0 && len(ids)*legacyAckFrameBytes > sz {
		b.relayBytesSaved.Add(uint64(len(ids)*legacyAckFrameBytes - sz))
	}
	return buf
}

// Writer-path messages. A message that carries a packet body borrows the
// bytes of a payload (forward.go) and holds one reference to it from a
// successful send until the writer has encoded it; the wrappers below add
// that reference to the wire structs, whose methods they promote, so the
// queue still holds plain wire.Messages. The two built per packet — the
// DATA of a relay send and the MuxDeliver of a (topic, session) delivery —
// have exactly one owner at all times and are pooled: the producer takes one,
// the writer returns it after encoding (releaseMsg), a failed send returns it
// on the spot. The legacy Deliver is shared by every legacy subscriber's
// writer, so it is not pooled and holds one payload reference per writer.
type (
	dataMsg struct {
		wire.Data
		payload *payload
	}
	muxMsg struct {
		wire.MuxDeliver
		payload *payload
	}
	deliverMsg struct {
		wire.Deliver
		payload *payload
	}
)

var (
	muxMsgPool  = sync.Pool{New: func() any { return new(muxMsg) }}
	dataMsgPool = sync.Pool{New: func() any { return new(dataMsg) }}
)

// releaseMsg gives up a writer-path message after its last use: once the
// writer has encoded it, or when it could not be (or was never) queued. It
// drops the message's payload reference and recycles the pooled structs.
// Slice fields that alias longer-lived state (payload bytes, snapshot ID
// lists) are dropped so the pool cannot pin them; the Data node lists are
// producer-filled scratch and keep their capacity.
func releaseMsg(m wire.Message) {
	switch t := m.(type) {
	case *muxMsg:
		t.payload.Release()
		t.payload, t.SubIDs, t.Payload = nil, nil, nil
		muxMsgPool.Put(t)
	case *dataMsg:
		t.payload.Release()
		t.payload, t.Payload = nil, nil
		t.Dests = t.Dests[:0]
		t.Path = t.Path[:0]
		dataMsgPool.Put(t)
	case *deliverMsg:
		t.payload.Release()
	}
}
