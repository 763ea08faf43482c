package broker

import (
	"slices"
	"sync"
	"time"

	"repro/internal/wire"
)

// Relay-plane link aggregation: the engine's decisions are untouched, but
// the wire between brokers is cheap in both directions.
//
//   - Outbound DATA: the writer pipeline packs consecutive DATA messages
//     bound for one neighbor into a single wire.DataBatch frame with
//     delta-compressed headers (see runWriter); a lone packet goes out as a
//     batch of one.
//   - Hop-by-hop ACKs: instead of answering every received DATA with its
//     own frame, the receiver coalesces pending frame IDs per neighbor and
//     flushes them as one AckBatch — when Config.AckBatchSize are pending,
//     when Config.AckFlushInterval expires, or piggybacked on any writer
//     flush that is happening anyway.
//
// Every link speaks this one framing; there is nothing to negotiate (the
// Hello carries a protocol version instead, see handleInbound). Coalescing
// is safe because custody is frame-level: the flush interval sits far inside
// the sender's ACK timeout (2*alpha + AckGuard), and a retransmission
// triggered by an unlucky flush is absorbed by the receiver's frame dedup —
// delayed ACKs cost at most gamma estimate noise, never correctness.

// dataBatchMaxFrames caps how many DATA messages one DataBatch carries; a
// writer flush emits several batches when more are queued.
const dataBatchMaxFrames = 64

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
// replaced or closed: pending coalesced ACKs belong to the old connection
// (the peer retransmits unACKed frames and the receiver's frame dedup
// absorbs the duplicates).
func (nc *neighborConn) resetRelay() {
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

// appendAckBatch encodes the coalesced ACK set ab.FrameIDs as one AckBatch
// frame onto the writer buffer; ab is the writer's own, reused every flush.
// IDs are sorted ascending first: the encoding is consecutive deltas, and
// in-order frame IDs from one shard differ by one.
func (b *Broker) appendAckBatch(buf []byte, label string, ab *wire.AckBatch) []byte {
	slices.Sort(ab.FrameIDs)
	buf = b.appendFrameChecked(buf, label, ab)
	b.ackBatches.Add(1)
	b.ackFramesCoalesced.Add(uint64(len(ab.FrameIDs)))
	return buf
}

// Writer-path messages. A message that carries a packet body borrows the
// bytes of a payload (forward.go) and holds one reference to it from a
// successful send until the writer has encoded it; the wrappers below add
// that reference to the wire structs, whose methods they promote, so the
// queue still holds plain wire.Messages. Both — the DATA of a relay send and
// the MuxDeliver of a (topic, session) delivery — have exactly one owner at
// all times and are pooled: the producer takes one, the writer returns it
// after encoding (releaseMsg), a failed send returns it on the spot.
type (
	dataMsg struct {
		wire.Data
		payload *payload
	}
	muxMsg struct {
		wire.MuxDeliver
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
	case *floodMsg:
		t.release()
	case *dataMsg:
		t.payload.Release()
		t.payload, t.Payload = nil, nil
		t.Dests = t.Dests[:0]
		t.Path = t.Path[:0]
		dataMsgPool.Put(t)
	}
}
