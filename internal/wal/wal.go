// Package wal is the broker's crash-durable custody journal: an append-only,
// CRC-framed, segmented log of every packet the broker has taken hop-by-hop
// responsibility for (§III persistency extended to node loss — Theorem 2's
// exactly-once surviving a crashed broker, not just a failed link).
//
// On-disk format. A segment is a stream of records; each record is
//
//	uint32  CRC-32C (Castagnoli) over the wire frame that follows
//	...     one wire-codec frame: uint32 length | uint8 type | body
//
// The frame payload reuses the zero-alloc wire codec (internal/wire) as the
// record format, so recovery is the standard pooled frame decoder plus a
// checksum:
//
//	WAL_CUSTODY  the full Data frame custody was taken for (FrameID 0 for
//	             locally published packets)
//	WAL_CLEAR    destinations settled (downstream ACK or drop); empty list
//	             means all
//	WAL_DELIVER  packet delivered to this broker's local subscribers
//	WAL_META     incarnation number (bumped each Open; seeds ID minting)
//
// Group commit. Appenders encode into an in-memory pending buffer and return
// immediately; a single committer goroutine writes and fsyncs the whole
// buffer at once, then fires the registered durability callbacks (the broker
// sends the upstream hop-by-hop ACK from that callback — the ACK is the
// durability promise). Many custody records therefore share one fdatasync.
//
// Checkpointing. When more than SegmentBytes have been appended since the
// last checkpoint the committer writes a compacted snapshot — meta, every
// still-outstanding custody record and the delivered-packet set — into a
// fresh segment and deletes the old ones. Records whose destinations all
// settled vanish entirely.
//
// Recovery. Open scans the segments in order, tolerating a torn tail
// (truncated or CRC-corrupt records stop the scan of that segment), rebuilds
// the outstanding-custody state, writes it as a fresh compacted segment
// under a bumped incarnation, and returns the undelivered flights for the
// broker to replay into its shard engines.
package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/seen"
	"repro/internal/wire"
)

const (
	// DefaultSegmentBytes is the segment-rotation threshold when
	// Config.SegmentBytes is unset.
	DefaultSegmentBytes = 64 << 20
	// maxPendingBytes bounds the un-flushed group-commit buffer; appenders
	// block (backpressure onto the connection read loops) when it fills.
	maxPendingBytes = 4 << 20
	// incarnationBits is how many low bits of the incarnation counter the
	// broker folds into the top of its frame/packet minting counters.
	incarnationBits = 10
	// maxKeptRec caps the record buffer a freed slot keeps for reuse (the
	// connection writers' rule): one giant payload must not pin its memory.
	maxKeptRec = 4 << 10
	noSlot     = -1 // ends a slot chain: a packet's records, or the free list
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// testDisableSync skips the real fsyncs (counters still advance). Set only
// by tests whose throughput would otherwise be fsync-bound (the recovery
// fuzzer); never set in production code.
var testDisableSync bool

// Config parameterizes Open.
type Config struct {
	// Dir is the per-broker data directory; segments live directly in it.
	Dir string
	// NodeID is the owning broker's overlay ID (delivered packets clear the
	// broker's own entry from a custody record's destination set).
	NodeID int
	// SegmentBytes is the rotation threshold: the bytes appended after the
	// last checkpoint (DefaultSegmentBytes if 0).
	SegmentBytes int64
	// Horizon is how long the log remembers custody frame and delivered
	// packet IDs (seen.Horizon(seen.DefaultMaxLifetime) if 0).
	Horizon time.Duration
	// OnDurable, if set, is invoked by the committer after the fsync that
	// made a custody record durable, once per AppendCustody call that
	// supplied from >= 0. The broker sends the upstream hop-by-hop ACK
	// here. Must not block and must not call back into the Log.
	OnDurable func(frameID uint64, from int)
	// BeforeFlush, if set, is invoked by the committer before each write+
	// fsync batch — a test hook: blocking it withholds durability (and so
	// ACKs) while appends keep accumulating.
	BeforeFlush func()
	// Logf, if set, receives diagnostics (recovery truncation, IO errors).
	Logf func(format string, args ...any)
}

// Stats is a snapshot of the log's activity counters.
type Stats struct {
	Appends     uint64 // records appended
	Fsyncs      uint64 // group-commit flushes (many appends per fsync)
	Bytes       uint64 // record bytes written
	Checkpoints uint64 // segment-rotation compactions
}

// Flight is one undelivered custody record recovered from the log. Rec's
// FrameID is the original inbound relay frame (0 for a locally published
// packet) and Rec.Dests holds only the still-outstanding destinations.
type Flight struct {
	Rec wire.Data
}

// Recovered is what Open salvaged from the directory.
type Recovered struct {
	// Incarnation is the bumped restart counter now recorded in the fresh
	// segment; the broker folds it into its frame/packet ID minting so IDs
	// are never reused across restarts.
	Incarnation uint64
	// Flights are the custody records with outstanding destinations, in log
	// order.
	Flights []Flight
	// Delivered are packet IDs already delivered to local subscribers; the
	// broker preloads its delivery dedup so replay cannot deliver twice.
	Delivered []uint64
}

// entry is one slot of the custody slab: one custody record's live state. A
// freed slot keeps its buffers, so the record reusing it allocates nothing.
type entry struct {
	frameID     uint64
	next        int32   // next slot of the packet's chain, or of the free list
	rec         []byte  // encoded record (CRC + frame), rewritten at checkpoint
	outstanding []int32 // dests not yet cleared
	cleared     []int32 // dests cleared (checkpoint emits these as one WAL_CLEAR)
}

// durableCB is one ACK release awaiting the next fsync.
type durableCB struct {
	frameID uint64
	from    int
}

// Log is an open custody journal. Appends are safe for concurrent use; one
// committer goroutine owns the file.
type Log struct {
	cfg Config

	appends     atomic.Uint64
	fsyncs      atomic.Uint64
	bytesW      atomic.Uint64
	checkpoints atomic.Uint64

	mu      sync.Mutex
	space   sync.Cond // appenders waiting for the pending buffer to drain
	pending []byte
	cbs     []durableCB
	closed  bool
	discard bool
	broken  bool // an IO error voided durability; stop accepting work

	// Live custody state, mutated under mu: a slab of entries recycled through
	// a free list, indexed by packet ID → first slot of its chain (log order).
	live      map[uint64]int32
	slots     []entry
	free      int32     // first free slot, or noSlot
	frames    *seen.Set // custody frame IDs (dup suppression)
	delivered *seen.Set // locally delivered packet IDs
	start     time.Time

	f           *os.File
	seq         uint64
	segBytes    int64 // appended since the segment's checkpoint
	incarnation uint64

	// Encode scratch, reused under mu so appends don't allocate messages.
	custodyMsg   wire.WalCustody
	clearMsg     wire.WalClear
	deliveredMsg wire.WalDeliver

	kick chan struct{}
	done chan struct{}
}

// segPath names segment i in dir.
func segPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016d.log", seq))
}

// Open recovers whatever the directory holds, compacts it into a fresh
// segment under a bumped incarnation, and returns the running log plus the
// recovered state for the broker to replay. The directory is created if
// missing.
func Open(cfg Config) (*Log, *Recovered, error) {
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = DefaultSegmentBytes
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = seen.Horizon(seen.DefaultMaxLifetime)
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{
		cfg:       cfg,
		live:      make(map[uint64]int32),
		free:      noSlot,
		frames:    seen.New(cfg.Horizon),
		delivered: seen.New(cfg.Horizon),
		start:     time.Now(),
		kick:      make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	l.space.L = &l.mu

	seqs, err := listSegments(cfg.Dir)
	if err != nil {
		return nil, nil, err
	}
	var rr records
	maxInc := uint64(0)
	for _, seq := range seqs {
		data, err := os.ReadFile(segPath(cfg.Dir, seq))
		if err != nil {
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
		inc := l.applySegment(&rr, data)
		if inc > maxInc {
			maxInc = inc
		}
		if seq >= l.seq {
			l.seq = seq
		}
	}
	l.incarnation = maxInc + 1

	rec := &Recovered{Incarnation: l.incarnation}
	for _, pid := range sortedKeys(l.live) {
		for i := l.live[pid]; i != noSlot; i = l.slots[i].next {
			rec.Flights = append(rec.Flights, l.slots[i].flight(&rr))
		}
	}
	rec.Delivered = l.delivered.IDs()

	// Write the compacted state as a fresh segment, then drop the old ones:
	// recovery work is never repeated, and the bumped incarnation is durable
	// before any new ID minted from it can reach a peer.
	if err := l.checkpointLocked(seqs); err != nil {
		return nil, nil, err
	}

	go l.committer()
	return l, rec, nil
}

// listSegments returns the segment sequence numbers in dir, ascending.
func listSegments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var seqs []uint64
	for _, de := range ents {
		var seq uint64
		if n, _ := fmt.Sscanf(de.Name(), "wal-%d.log", &seq); n == 1 {
			seqs = append(seqs, seq)
		}
	}
	slices.Sort(seqs)
	return seqs, nil
}

// now is the dedup sets' clock, read under mu: time since Open, so recovery
// inserts at ≈ 0 and a recovered ID lasts a full horizon after a restart.
func (l *Log) now() time.Duration { return time.Since(l.start) }

// sortedKeys returns a packet-ID map's keys ascending, so recovery output
// and checkpoints are deterministic.
func sortedKeys[V any](m map[uint64]V) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// records decodes CRC-checked records through one pooled wire.Reader, over a
// bytes.Reader reset per record. What it returns is valid only until the
// next record, so anything kept longer is copied.
type records struct {
	src bytes.Reader
	rd  *wire.Reader
}

func (r *records) decode(frame []byte) (wire.Message, error) {
	if r.rd == nil {
		r.rd = wire.NewReader(&r.src)
	}
	r.src.Reset(frame)
	return r.rd.Next()
}

// flight rebuilds an entry's custody record for replay, with only the
// still-outstanding destinations and every slice copied out of the reader.
// The record was either CRC-verified at recovery or encoded by this process,
// so decode errors are impossible; a zero Data is returned defensively anyway.
func (e *entry) flight(rr *records) Flight {
	var d wire.Data
	msg, _ := rr.decode(e.rec[4:]) // nil on error
	if wc, ok := msg.(*wire.WalCustody); ok {
		d = wc.Data
		d.Path, d.Payload = slices.Clone(d.Path), slices.Clone(d.Payload)
	}
	d.Dests = slices.Clone(e.outstanding)
	return Flight{Rec: d}
}

// applySegment replays one segment's records into the live state, stopping
// at the first torn or corrupt record (torn-tail tolerance). It returns the
// highest incarnation seen.
func (l *Log) applySegment(rr *records, data []byte) (maxInc uint64) {
	off := 0
	for {
		rec, n, ok := nextRecord(rr, data[off:])
		if !ok {
			if off != len(data) {
				l.logf("segment scan stopped at offset %d of %d (torn or corrupt tail)", off, len(data))
			}
			return maxInc
		}
		recBytes := data[off : off+n]
		off += n
		switch m := rec.(type) {
		case *wire.WalMeta:
			if m.Incarnation > maxInc {
				maxInc = m.Incarnation
			}
		case *wire.WalCustody:
			l.applyCustody(m, recBytes)
		case *wire.WalClear:
			l.applyClear(m.PacketID, m.Dests)
		case *wire.WalDeliver:
			l.applyDeliver(m.PacketID)
		default:
			// A valid frame of a non-WAL type has no business here; treat it
			// like corruption and stop trusting the rest of the segment.
			l.logf("segment holds unexpected %v record; stopping scan", rec.Type())
			return maxInc
		}
	}
}

// nextRecord parses one record (CRC + frame) from buf, returning the decoded
// message (rr's until the next record) and the record's total length. ok is
// false for a torn, truncated or corrupt record.
func nextRecord(rr *records, buf []byte) (msg wire.Message, n int, ok bool) {
	if len(buf) < 8 {
		return nil, 0, false
	}
	want := binary.BigEndian.Uint32(buf)
	size := binary.BigEndian.Uint32(buf[4:])
	if size == 0 || size > wire.MaxFrameSize || uint64(len(buf)) < 8+uint64(size) {
		return nil, 0, false
	}
	frame := buf[4 : 8+size]
	if crc32.Checksum(frame, castagnoli) != want {
		return nil, 0, false
	}
	m, err := rr.decode(frame)
	if err != nil {
		return nil, 0, false
	}
	return m, int(8 + size), true
}

// applyCustody inserts one custody record into the live state, suppressing
// duplicates (retransmissions logged twice, or a checkpoint raced by a
// crash leaving both the snapshot and the original segment on disk). m is
// the recovery reader's, so the slot copies what it keeps.
func (l *Log) applyCustody(m *wire.WalCustody, recBytes []byte) {
	if m.FrameID != 0 {
		if l.frames.Seen(m.FrameID, l.now()) {
			return
		}
	} else if head, ok := l.live[m.PacketID]; ok {
		// Origin custody (no relay frame): at most one record per packet.
		for i := head; i != noSlot; i = l.slots[i].next {
			if l.slots[i].frameID == 0 {
				return
			}
		}
	}
	i := l.newSlot(m.FrameID, recBytes, m.Dests)
	if l.delivered.Has(m.PacketID) {
		l.slots[i].clearDest(int32(l.cfg.NodeID))
	}
	if len(l.slots[i].outstanding) == 0 {
		l.freeSlot(i) // nothing left to replay
		return
	}
	l.link(m.PacketID, i)
}

// newSlot copies one custody record and its dests into a free slot (the slab
// grows only when none is free), on no chain yet: link or freeSlot it next.
func (l *Log) newSlot(frameID uint64, rec []byte, dests []int32) int32 {
	i := l.free
	if i == noSlot {
		i = int32(len(l.slots))
		l.slots = append(l.slots, entry{next: noSlot})
	}
	e := &l.slots[i]
	l.free = e.next
	e.frameID, e.next = frameID, noSlot
	e.rec = append(e.rec[:0], rec...)
	e.outstanding = append(e.outstanding[:0], dests...)
	e.cleared = e.cleared[:0]
	return i
}

// link appends slot i to the end of pid's chain, keeping log order.
func (l *Log) link(pid uint64, i int32) {
	tail, ok := l.live[pid]
	if !ok {
		l.live[pid] = i
		return
	}
	for l.slots[tail].next != noSlot {
		tail = l.slots[tail].next
	}
	l.slots[tail].next = i
}

// freeSlot returns slot i to the free list, keeping its buffers unless the
// record outgrew maxKeptRec.
func (l *Log) freeSlot(i int32) {
	e := &l.slots[i]
	if cap(e.rec) > maxKeptRec {
		e.rec = nil
	}
	e.next, l.free = l.free, i
}

// clearDest moves one destination from outstanding to cleared.
func (e *entry) clearDest(d int32) {
	for i, o := range e.outstanding {
		if o == d {
			e.outstanding[i] = e.outstanding[len(e.outstanding)-1]
			e.outstanding = e.outstanding[:len(e.outstanding)-1]
			e.cleared = append(e.cleared, d)
			return
		}
	}
}

// applyClear settles destinations for a packet's custody entries, freeing
// the slots left with nothing outstanding; an empty dests list settles
// everything.
func (l *Log) applyClear(pid uint64, dests []int32) {
	head, ok := l.live[pid]
	if !ok {
		return
	}
	at := &head // the link pointing at slot i
	for i := head; i != noSlot; i = *at {
		e := &l.slots[i]
		for _, d := range dests {
			e.clearDest(d)
		}
		if len(dests) > 0 && len(e.outstanding) > 0 {
			at = &e.next
			continue
		}
		*at = e.next
		l.freeSlot(i)
	}
	if head == noSlot {
		delete(l.live, pid)
	} else {
		l.live[pid] = head
	}
}

// applyDeliver marks a packet locally delivered and settles this broker's
// own destination entry in its custody records.
func (l *Log) applyDeliver(pid uint64) {
	l.delivered.Seen(pid, l.now())
	l.applyClear(pid, []int32{int32(l.cfg.NodeID)})
}

// AppendCustody journals custody of one inbound Data frame (or a local
// publish when d.FrameID is 0) and, for from >= 0, schedules OnDurable to
// fire once the record has been fsynced — the broker's cue to send the
// upstream ACK. Duplicate frames (upstream retransmissions) are not
// journaled twice but still get their durability callback, since the
// original record is durable by (or with) the next flush. d and its slices
// are copied before return.
func (l *Log) AppendCustody(d *wire.Data, from int) {
	l.mu.Lock()
	if l.unusableLocked() {
		l.mu.Unlock()
		return
	}
	dup := d.FrameID != 0 && l.frames.Seen(d.FrameID, l.now())
	if !dup {
		base := len(l.pending)
		l.custodyMsg.Data = *d
		l.appendRecordLocked(&l.custodyMsg)
		l.custodyMsg.Data = wire.Data{}
		l.link(d.PacketID, l.newSlot(d.FrameID, l.pending[base:], d.Dests))
	}
	if from >= 0 && l.cfg.OnDurable != nil {
		l.cbs = append(l.cbs, durableCB{frameID: d.FrameID, from: from})
	}
	l.kickLocked()
	l.waitSpaceLocked()
	l.mu.Unlock()
}

// AppendClear journals that dests of a packet have settled (downstream ACK
// transferred custody, or the destination was dropped); nil dests settles
// every destination.
func (l *Log) AppendClear(pid uint64, dests []int) {
	l.mu.Lock()
	if l.unusableLocked() {
		l.mu.Unlock()
		return
	}
	if _, tracked := l.live[pid]; !tracked {
		// Nothing outstanding (entry already settled, or custody predates
		// this incarnation's horizon): the record would be noise.
		l.mu.Unlock()
		return
	}
	l.clearMsg.PacketID = pid
	l.clearMsg.Dests = l.clearMsg.Dests[:0]
	for _, d := range dests {
		l.clearMsg.Dests = append(l.clearMsg.Dests, int32(d))
	}
	l.appendRecordLocked(&l.clearMsg)
	l.applyClear(pid, l.clearMsg.Dests)
	l.kickLocked()
	l.mu.Unlock()
}

// AppendDeliver journals a local subscriber delivery. Durability is
// group-committed, not awaited: a crash inside the flush window may
// re-deliver to a directly attached subscriber on replay (downstream
// brokers are still protected by their packet-level dedup).
func (l *Log) AppendDeliver(pid uint64) {
	l.mu.Lock()
	if l.unusableLocked() {
		l.mu.Unlock()
		return
	}
	l.deliveredMsg.PacketID = pid
	l.appendRecordLocked(&l.deliveredMsg)
	l.applyDeliver(pid)
	l.kickLocked()
	l.mu.Unlock()
}

// unusableLocked reports whether the log can no longer accept appends.
func (l *Log) unusableLocked() bool { return l.closed || l.broken }

// appendRecordLocked encodes one record into the pending buffer and counts
// it.
func (l *Log) appendRecordLocked(msg wire.Message) {
	l.pending = appendRecord(l.pending, msg)
	l.appends.Add(1)
}

// appendRecord appends one record (CRC + wire frame) to buf.
func appendRecord(buf []byte, msg wire.Message) []byte {
	base := len(buf)
	buf = wire.AppendFrame(append(buf, 0, 0, 0, 0), msg)
	binary.BigEndian.PutUint32(buf[base:], crc32.Checksum(buf[base+4:], castagnoli))
	return buf
}

// kickLocked nudges the committer (buffered; coalesces).
func (l *Log) kickLocked() {
	select {
	case l.kick <- struct{}{}:
	default:
	}
}

// waitSpaceLocked blocks the appender while the pending buffer is over
// budget — group-commit backpressure onto the producers.
func (l *Log) waitSpaceLocked() {
	for len(l.pending) > maxPendingBytes && !l.closed && !l.broken {
		l.space.Wait()
	}
}

// committer is the group-commit goroutine: one write+fsync per kick batch.
// The callback list it fires and the one appenders fill are two buffers
// swapped per flush, so neither is reallocated.
func (l *Log) committer() {
	defer close(l.done)
	var spare []durableCB
	for range l.kick {
		spare = l.flushOnce(spare)
	}
}

// flushOnce writes and fsyncs everything pending, fires the durability
// callbacks, and rotates the segment when it is over budget. spare becomes
// the appenders' next callback list; the returned buffer is the next spare.
func (l *Log) flushOnce(spare []durableCB) []durableCB {
	l.mu.Lock()
	work := len(l.pending) > 0 || len(l.cbs) > 0
	l.mu.Unlock()
	if !work {
		return spare
	}
	if l.cfg.BeforeFlush != nil {
		l.cfg.BeforeFlush()
	}

	l.mu.Lock()
	if l.discard || l.broken {
		// Discard simulates lost page cache (tests): drop the batch and its
		// callbacks — durability was never promised. A broken log likewise
		// must never promise anything again.
		l.pending = l.pending[:0]
		l.cbs = l.cbs[:0]
		l.space.Broadcast()
		l.mu.Unlock()
		return spare
	}
	if len(l.pending) > 0 {
		if err := l.writeBatchLocked(l.pending); err != nil {
			l.failLocked(err)
			l.mu.Unlock()
			return spare
		}
		l.pending = l.pending[:0]
	}
	cbs := l.cbs
	l.cbs = spare[:0]
	l.space.Broadcast()
	if l.segBytes >= l.cfg.SegmentBytes {
		if err := l.checkpointLocked(nil); err != nil {
			// The batch itself was fsynced, but a log that cannot rotate is
			// voided — withhold the ACKs rather than promise on a dying disk.
			l.failLocked(err)
			cbs = cbs[:0]
		} else {
			l.checkpoints.Add(1)
		}
	}
	l.mu.Unlock()

	for _, cb := range cbs {
		l.cfg.OnDurable(cb.frameID, cb.from)
	}
	return cbs[:0]
}

// writeBatchLocked appends one batch to the live segment and fsyncs it.
func (l *Log) writeBatchLocked(batch []byte) error {
	if _, err := l.f.Write(batch); err != nil {
		return err
	}
	if err := l.sync(l.f); err != nil {
		return err
	}
	l.segBytes += int64(len(batch))
	l.bytesW.Add(uint64(len(batch)))
	l.fsyncs.Add(1)
	return nil
}

// failLocked voids the log after an IO error: no further appends, no further
// durability promises. Upstream brokers keep retransmitting unACKed frames
// and fail over per Algorithm 2, so custody routes around this node.
func (l *Log) failLocked(err error) {
	l.broken = true
	l.pending = l.pending[:0]
	l.cbs = l.cbs[:0]
	l.space.Broadcast()
	l.logf("disabled after IO error: %v", err)
}

// checkpointLocked writes the compacted live state (meta, outstanding
// custody, delivered set) into a fresh segment, fsyncs it, and deletes the
// superseded segments (oldSeqs at Open; every seq below the new one at
// runtime rotation).
func (l *Log) checkpointLocked(oldSeqs []uint64) error {
	buf := appendRecord(nil, &wire.WalMeta{Incarnation: l.incarnation})
	for _, pid := range sortedKeys(l.live) {
		for i := l.live[pid]; i != noSlot; i = l.slots[i].next {
			e := &l.slots[i]
			buf = append(buf, e.rec...)
			if len(e.cleared) > 0 {
				buf = appendRecord(buf, &wire.WalClear{PacketID: pid, Dests: e.cleared})
			}
		}
	}
	for _, pid := range l.delivered.IDs() {
		buf = appendRecord(buf, &wire.WalDeliver{PacketID: pid})
	}

	newSeq := l.seq + 1
	f, err := os.OpenFile(segPath(l.cfg.Dir, newSeq), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := l.sync(f); err != nil {
		f.Close()
		return err
	}
	syncDir(l.cfg.Dir)

	old := l.f
	oldSeq := l.seq
	l.f = f
	l.seq = newSeq
	l.segBytes = 0
	l.bytesW.Add(uint64(len(buf)))
	l.fsyncs.Add(1)
	if old != nil {
		old.Close()
		oldSeqs = append(oldSeqs, oldSeq)
	}
	removed := false
	for _, seq := range oldSeqs {
		if seq != newSeq && os.Remove(segPath(l.cfg.Dir, seq)) == nil {
			removed = true
		}
	}
	if removed { // a fresh Open removes nothing and skips this second sync
		syncDir(l.cfg.Dir)
	}
	return nil
}

// sync fsyncs one file unless tests disabled real syncs.
func (l *Log) sync(f *os.File) error {
	if testDisableSync {
		return nil
	}
	return f.Sync()
}

// syncDir fsyncs a directory so segment creation/removal is durable
// (best-effort; not all platforms support it).
func syncDir(dir string) {
	if testDisableSync {
		return
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// Close flushes whatever is pending, fires the remaining durability
// callbacks and closes the segment. Safe to call once all appenders have
// stopped.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.space.Broadcast()
	l.mu.Unlock()
	close(l.kick)
	<-l.done

	l.mu.Lock()
	var cbs []durableCB
	var err error
	if !l.discard && !l.broken {
		if len(l.pending) > 0 {
			err = l.writeBatchLocked(l.pending)
		}
		if err == nil {
			l.pending = l.pending[:0]
			cbs = l.cbs // closed: no appender adds to it any more
		}
	}
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
	l.mu.Unlock()
	for _, cb := range cbs {
		l.cfg.OnDurable(cb.frameID, cb.from)
	}
	return err
}

// CloseDiscard closes the log abandoning everything not yet fsynced —
// pending records are dropped and their durability callbacks never fire.
// It simulates the page cache lost to a power failure, so crash tests can
// assert that nothing un-fsynced was ever promised (ACKed). It does not
// wait for the committer: a committer blocked in BeforeFlush will observe
// the discard flag when released and drop its batch.
func (l *Log) CloseDiscard() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.discard = true
	l.closed = true
	l.pending = l.pending[:0]
	l.cbs = l.cbs[:0]
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
	l.space.Broadcast()
	l.mu.Unlock()
	close(l.kick)
}

// Stats snapshots the activity counters.
func (l *Log) Stats() Stats {
	return Stats{
		Appends:     l.appends.Load(),
		Fsyncs:      l.fsyncs.Load(),
		Bytes:       l.bytesW.Load(),
		Checkpoints: l.checkpoints.Load(),
	}
}

// logf writes a diagnostic when a logger is configured.
func (l *Log) logf(format string, args ...any) {
	if l.cfg.Logf != nil {
		l.cfg.Logf("wal %s: "+format, append([]any{l.cfg.Dir}, args...)...)
	}
}
