package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/wire"
)

// testData builds a custody Data frame.
func testData(frameID, pid uint64, dests ...int32) *wire.Data {
	return &wire.Data{
		FrameID:     frameID,
		PacketID:    pid,
		Topic:       3,
		Source:      1,
		PublishedAt: time.Unix(100, 500).UTC(),
		Deadline:    150 * time.Millisecond,
		Dests:       dests,
		Path:        []int32{1, 2},
		Payload:     []byte("payload"),
	}
}

// openT opens a log in dir, failing the test on error.
func openT(t *testing.T, cfg Config) (*Log, *Recovered) {
	t.Helper()
	l, rec, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, rec
}

// flightDests returns the recovered outstanding dests for one packet ID,
// sorted, merged across entries.
func flightDests(rec *Recovered, pid uint64) []int32 {
	var ds []int32
	for _, f := range rec.Flights {
		if f.Rec.PacketID == pid {
			ds = append(ds, f.Rec.Dests...)
		}
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds
}

func TestRecoverOutstandingFlights(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, NodeID: 4}

	l, rec := openT(t, cfg)
	if rec.Incarnation != 1 {
		t.Fatalf("fresh dir incarnation = %d, want 1", rec.Incarnation)
	}
	if len(rec.Flights) != 0 || len(rec.Delivered) != 0 {
		t.Fatalf("fresh dir recovered %d flights, %d delivered", len(rec.Flights), len(rec.Delivered))
	}
	l.AppendCustody(testData(10, 100, 2, 5, 4), 1) // relayed, incl. our own dest
	l.AppendCustody(testData(0, 200, 7), -1)       // origin publish
	l.AppendCustody(testData(11, 300, 9), 1)
	l.AppendClear(100, []int{5}) // dest 5 handed off
	l.AppendDeliver(100)         // our own dest delivered
	l.AppendClear(300, nil)      // fully settled
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, rec2 := openT(t, cfg)
	defer l2.Close()
	if rec2.Incarnation != 2 {
		t.Errorf("incarnation = %d, want 2", rec2.Incarnation)
	}
	if got := flightDests(rec2, 100); !reflect.DeepEqual(got, []int32{2}) {
		t.Errorf("packet 100 outstanding = %v, want [2]", got)
	}
	if got := flightDests(rec2, 200); !reflect.DeepEqual(got, []int32{7}) {
		t.Errorf("packet 200 outstanding = %v, want [7]", got)
	}
	if got := flightDests(rec2, 300); got != nil {
		t.Errorf("packet 300 outstanding = %v, want none", got)
	}
	if !reflect.DeepEqual(rec2.Delivered, []uint64{100}) {
		t.Errorf("delivered = %v, want [100]", rec2.Delivered)
	}
	// The full original frame must survive for replay.
	for _, f := range rec2.Flights {
		if f.Rec.PacketID != 100 {
			continue
		}
		if f.Rec.FrameID != 10 || f.Rec.Topic != 3 || string(f.Rec.Payload) != "payload" ||
			!reflect.DeepEqual(f.Rec.Path, []int32{1, 2}) {
			t.Errorf("recovered frame mangled: %+v", f.Rec)
		}
	}
}

func TestIncarnationMonotonic(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, NodeID: 0}
	for want := uint64(1); want <= 4; want++ {
		l, rec := openT(t, cfg)
		if rec.Incarnation != want {
			t.Fatalf("open %d: incarnation %d", want, rec.Incarnation)
		}
		l.Close()
	}
}

func TestDuplicateCustodySuppressed(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, Config{Dir: dir, NodeID: 0})
	l.AppendCustody(testData(10, 100, 2), 1)
	l.AppendCustody(testData(10, 100, 2), 1) // upstream retransmission
	l.Close()

	_, rec := openT(t, Config{Dir: dir, NodeID: 0})
	if got := flightDests(rec, 100); !reflect.DeepEqual(got, []int32{2}) {
		t.Errorf("outstanding = %v, want [2] (one entry)", got)
	}
	if len(rec.Flights) != 1 {
		t.Errorf("recovered %d flights, want 1", len(rec.Flights))
	}
}

// seg returns the single current segment's path and contents.
func seg(t *testing.T, dir string) (string, []byte) {
	t.Helper()
	seqs, err := listSegments(dir)
	if err != nil || len(seqs) == 0 {
		t.Fatalf("listSegments: %v (%d segments)", err, len(seqs))
	}
	p := segPath(dir, seqs[len(seqs)-1])
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	return p, data
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, Config{Dir: dir, NodeID: 0})
	l.AppendCustody(testData(10, 100, 2), -1)
	l.AppendCustody(testData(11, 200, 3), -1)
	l.Close()

	// Chop the tail mid-record: the last record is lost, the prefix survives.
	p, data := seg(t, dir)
	if err := os.WriteFile(p, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec := openT(t, Config{Dir: dir, NodeID: 0})
	if got := flightDests(rec, 100); !reflect.DeepEqual(got, []int32{2}) {
		t.Errorf("packet 100 outstanding = %v, want [2]", got)
	}
	if got := flightDests(rec, 200); got != nil {
		t.Errorf("torn packet 200 resurrected: %v", got)
	}
}

func TestCorruptCRCStopsScan(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, Config{Dir: dir, NodeID: 0})
	l.AppendCustody(testData(10, 100, 2), -1)
	l.AppendCustody(testData(11, 200, 3), -1)
	l.Close()

	// Flip one payload byte of the LAST record (the meta record leads the
	// segment, then custody 100, then custody 200).
	p, data := seg(t, dir)
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec := openT(t, Config{Dir: dir, NodeID: 0})
	if got := flightDests(rec, 100); !reflect.DeepEqual(got, []int32{2}) {
		t.Errorf("packet 100 outstanding = %v, want [2]", got)
	}
	if got := flightDests(rec, 200); got != nil {
		t.Errorf("corrupt packet 200 survived CRC: %v", got)
	}
}

func TestReplayAfterCheckpoint(t *testing.T) {
	dir := t.TempDir()
	// A tiny segment budget forces rotations mid-stream.
	l, _ := openT(t, Config{Dir: dir, NodeID: 0, SegmentBytes: 2048})
	for pid := uint64(1); pid <= 100; pid++ {
		l.AppendCustody(testData(pid, pid, 2), -1)
		if pid%2 == 0 {
			l.AppendClear(pid, []int{2}) // half settle immediately
		}
	}
	// Wait for the committer to have rotated at least once.
	deadline := time.Now().Add(5 * time.Second)
	for l.Stats().Checkpoints == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if l.Stats().Checkpoints == 0 {
		t.Fatal("no checkpoint despite tiny segment budget")
	}
	l.Close()

	_, rec := openT(t, Config{Dir: dir, NodeID: 0, SegmentBytes: 2048})
	got := map[uint64]bool{}
	for _, f := range rec.Flights {
		got[f.Rec.PacketID] = true
	}
	for pid := uint64(1); pid <= 100; pid++ {
		want := pid%2 == 1
		if got[pid] != want {
			t.Errorf("packet %d recovered=%v, want %v", pid, got[pid], want)
		}
	}
	// Compaction must leave only the fresh segment plus at most the
	// just-written recovery snapshot's predecessor cleanup.
	seqs, _ := listSegments(dir)
	if len(seqs) != 1 {
		t.Errorf("%d segments after recovery compaction, want 1", len(seqs))
	}
}

func TestDurableCallbackAfterFsync(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	acks := make(chan durableCB, 16)
	l, _ := openT(t, Config{
		Dir:    dir,
		NodeID: 0,
		OnDurable: func(frameID uint64, from int) {
			acks <- durableCB{frameID: frameID, from: from}
		},
		BeforeFlush: func() { <-gate },
	})
	base := l.Stats().Fsyncs // Open's recovery compaction counts one
	l.AppendCustody(testData(10, 100, 2), 7)
	select {
	case cb := <-acks:
		t.Fatalf("callback %+v fired before fsync", cb)
	case <-time.After(50 * time.Millisecond):
	}
	if got := l.Stats().Fsyncs; got != base {
		t.Fatalf("fsync happened while flush gate held (%d -> %d)", base, got)
	}
	close(gate)
	select {
	case cb := <-acks:
		if cb.frameID != 10 || cb.from != 7 {
			t.Fatalf("callback = %+v, want {10 7}", cb)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("callback never fired after gate release")
	}
	if l.Stats().Fsyncs == 0 || l.Stats().Appends == 0 || l.Stats().Bytes == 0 {
		t.Errorf("stats not counting: %+v", l.Stats())
	}
	l.Close()
}

func TestDuplicateFrameStillGetsCallback(t *testing.T) {
	dir := t.TempDir()
	acks := make(chan uint64, 16)
	l, _ := openT(t, Config{
		Dir:       dir,
		NodeID:    0,
		OnDurable: func(frameID uint64, _ int) { acks <- frameID },
	})
	defer l.Close()
	l.AppendCustody(testData(10, 100, 2), 1)
	l.AppendCustody(testData(10, 100, 2), 1) // retransmission: not re-journaled, still ACKed
	for i := 0; i < 2; i++ {
		select {
		case id := <-acks:
			if id != 10 {
				t.Fatalf("ack for frame %d, want 10", id)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("ack %d never fired", i+1)
		}
	}
}

func TestCloseDiscardLosesUnflushed(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	fired := make(chan struct{}, 16)
	l, _ := openT(t, Config{
		Dir:         dir,
		NodeID:      0,
		OnDurable:   func(uint64, int) { fired <- struct{}{} },
		BeforeFlush: func() { <-gate },
	})
	l.AppendCustody(testData(10, 100, 2), 1)
	l.CloseDiscard()
	close(gate) // release the committer; it must drop the batch

	select {
	case <-fired:
		t.Fatal("durability callback fired for a discarded batch")
	case <-time.After(50 * time.Millisecond):
	}
	<-l.done // committer exited

	_, rec := openT(t, Config{Dir: dir, NodeID: 0})
	if len(rec.Flights) != 0 {
		t.Fatalf("discarded custody resurrected: %d flights", len(rec.Flights))
	}
}

func TestDeliverPreventsLocalReplay(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, NodeID: 4}
	l, _ := openT(t, cfg)
	l.AppendCustody(testData(10, 100, 4), 1) // destined only to us
	l.AppendDeliver(100)
	l.Close()

	_, rec := openT(t, cfg)
	if len(rec.Flights) != 0 {
		t.Fatalf("delivered-only packet came back as %d flights: %+v", len(rec.Flights), rec.Flights)
	}
	if !reflect.DeepEqual(rec.Delivered, []uint64{100}) {
		t.Fatalf("delivered = %v, want [100]", rec.Delivered)
	}
}

func TestRecoveryIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, rec := openT(t, Config{Dir: dir, NodeID: 0})
	defer l.Close()
	if len(rec.Flights) != 0 {
		t.Fatalf("foreign file produced flights")
	}
}

func TestGarbageSegment(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(segPath(dir, 1), bytes.Repeat([]byte{0xAB}, 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	l, rec := openT(t, Config{Dir: dir, NodeID: 0})
	defer l.Close()
	if len(rec.Flights) != 0 || len(rec.Delivered) != 0 {
		t.Fatalf("garbage recovered state: %+v", rec)
	}
}

// TestWriteFailureVoidsTheLog: a batch the disk refuses voids the log. No
// durability callback fires for that batch or anything after it, later
// appends are refused, Close promises nothing, and a reopen recovers exactly
// what was fsynced before the failure. The live segment is swapped for a
// read-only handle on the same file, so its next write fails the way a full
// disk's would.
func TestWriteFailureVoidsTheLog(t *testing.T) {
	dir := t.TempDir()
	acks := make(chan uint64, 16)
	cfg := Config{Dir: dir, NodeID: 0, OnDurable: func(frameID uint64, _ int) { acks <- frameID }}
	l, _ := openT(t, cfg)
	l.AppendCustody(testData(10, 100, 2), 1)
	select {
	case id := <-acks:
		if id != 10 {
			t.Fatalf("ack for frame %d, want 10", id)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the durable batch was never ACKed")
	}

	l.mu.Lock()
	ro, err := os.Open(l.f.Name())
	if err != nil {
		l.mu.Unlock()
		t.Fatal(err)
	}
	l.f.Close()
	l.f = ro
	l.mu.Unlock()

	l.AppendCustody(testData(11, 200, 2), 1)
	broken := func() bool {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.broken
	}
	for deadline := time.Now().Add(5 * time.Second); !broken(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the failed write did not void the log")
		}
	}
	appends := l.Stats().Appends
	l.AppendCustody(testData(12, 300, 2), 1)
	l.AppendClear(100, nil)
	l.AppendDeliver(100)
	if got := l.Stats().Appends; got != appends {
		t.Errorf("a voided log accepted %d more records", got-appends)
	}
	if err := l.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	select {
	case id := <-acks:
		t.Errorf("durability callback for frame %d after the write failure", id)
	default:
	}

	l2, rec := openT(t, cfg)
	defer l2.Close()
	if len(rec.Flights) != 1 || !reflect.DeepEqual(flightDests(rec, 100), []int32{2}) {
		t.Errorf("recovered %d flights (packet 100 dests %v), want exactly the fsynced one", len(rec.Flights), flightDests(rec, 100))
	}
	if len(rec.Delivered) != 0 {
		t.Errorf("recovered deliveries %v, want none", rec.Delivered)
	}
}

// TestRetransmissionInsideHorizonNotRejournaled: a frame whose custody has
// settled is not journaled again when its retransmission arrives 100,000
// frames later — 10 s at the relay benchmark's 10k pps, well inside the
// horizon — so a reopen does not bring it back as a flight.
func TestRetransmissionInsideHorizonNotRejournaled(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, NodeID: 0}
	l, _ := openT(t, cfg)
	const upstream = uint64(1)<<48 | 1<<42 // one upstream shard's frame IDs
	first := testData(upstream|1, 1, 2)
	l.AppendCustody(first, -1)
	l.AppendClear(1, nil)
	for i := uint64(2); i <= 100_001; i++ {
		l.AppendCustody(testData(upstream|i, i, 2), -1)
	}
	appends := l.Stats().Appends
	l.AppendCustody(first, -1) // the retransmission
	if got := l.Stats().Appends; got != appends {
		t.Errorf("the retransmitted frame was journaled again (%d records)", got-appends)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec := openT(t, cfg)
	defer l2.Close()
	if got := flightDests(rec, 1); got != nil {
		t.Errorf("settled packet 1 came back as a flight to %v", got)
	}
	if len(rec.Flights) != 100_000 {
		t.Errorf("recovered %d flights, want 100000", len(rec.Flights))
	}
}

// TestDeliveryInsideHorizonSurvivesCheckpoint: a delivery followed by
// 100,000 others, all inside the horizon, is still in the delivered set a
// checkpoint writes, and so in Recovered.Delivered after a reopen. The flush
// is held until every record is pending, so the checkpoint comes after the
// last delivery.
func TestDeliveryInsideHorizonSurvivesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	cfg := Config{Dir: dir, NodeID: 0, SegmentBytes: 1 << 20, BeforeFlush: func() { <-gate }}
	l, _ := openT(t, cfg)
	const origin = uint64(3) << 48
	for i := uint64(1); i <= 100_001; i++ {
		l.AppendDeliver(origin | i)
	}
	close(gate)
	for deadline := time.Now().Add(5 * time.Second); l.Stats().Checkpoints == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint after 100,001 deliveries over a 1 MiB segment budget")
		}
	}
	// The checkpoint is bigger than SegmentBytes; the next flush must not
	// take that for a full segment and checkpoint again.
	fsyncs := l.Stats().Fsyncs
	l.AppendDeliver(origin | 100_002)
	for deadline := time.Now().Add(5 * time.Second); l.Stats().Fsyncs == fsyncs; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the delivery after the checkpoint was never flushed")
		}
	}
	l.mu.Lock() // the flush's checkpoint decision is made under mu
	l.mu.Unlock()
	if n := l.Stats().Checkpoints; n != 1 {
		t.Errorf("%d checkpoints, want 1: a checkpoint larger than SegmentBytes triggered the next", n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	cfg.BeforeFlush = nil
	l2, rec := openT(t, cfg)
	defer l2.Close()
	if len(rec.Delivered) == 0 || rec.Delivered[0] != origin|1 {
		t.Errorf("the first delivery is missing from the %d recovered", len(rec.Delivered))
	}
	if len(rec.Delivered) != 100_002 {
		t.Errorf("recovered %d deliveries, want 100002", len(rec.Delivered))
	}
}
