package wal

import (
	"os"
	"testing"
	"time"

	"repro/internal/wire"
)

// record encodes one CRC-framed WAL record, as the committer would.
func record(msg wire.Message) []byte { return appendRecord(nil, msg) }

// FuzzWAL feeds arbitrary bytes to recovery as a segment file. Recovery must
// never panic, and — the exactly-once property — must never hand back a
// flight that re-delivers a packet the log says was already delivered
// locally.
func FuzzWAL(f *testing.F) {
	const nodeID = 4
	testDisableSync = true // recovery logic under test, not the disk

	var valid []byte
	valid = append(valid, record(&wire.WalMeta{Incarnation: 3})...)
	valid = append(valid, record(&wire.WalCustody{Data: wire.Data{
		FrameID: 10, PacketID: 100, Topic: 1, Source: 0,
		PublishedAt: time.Unix(50, 0), Deadline: time.Second,
		Dests: []int32{2, nodeID}, Path: []int32{0}, Payload: []byte("p"),
	}})...)
	valid = append(valid, record(&wire.WalClear{PacketID: 100, Dests: []int32{2}})...)
	valid = append(valid, record(&wire.WalDeliver{PacketID: 100})...)
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40 // corrupt middle
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(record(&wire.Probe{Token: 9})) // valid frame, wrong record type

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(segPath(dir, 1), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, rec, err := Open(Config{Dir: dir, NodeID: nodeID})
		if err != nil {
			return // IO-level refusal is fine; panics are not
		}
		defer l.Close()
		delivered := make(map[uint64]bool, len(rec.Delivered))
		for _, pid := range rec.Delivered {
			delivered[pid] = true
		}
		for _, fl := range rec.Flights {
			if len(fl.Rec.Dests) == 0 {
				t.Fatalf("flight with no outstanding dests: %+v", fl.Rec)
			}
			if !delivered[fl.Rec.PacketID] {
				continue
			}
			for _, d := range fl.Rec.Dests {
				if d == nodeID {
					t.Fatalf("delivered packet %d resurrected with local dest: %+v",
						fl.Rec.PacketID, fl.Rec)
				}
			}
		}
		// Recovery's compacted rewrite must itself recover to the same state.
		l.Close()
		l2, rec2, err := Open(Config{Dir: dir, NodeID: nodeID})
		if err != nil {
			t.Fatalf("reopen of compacted state failed: %v", err)
		}
		defer l2.Close()
		if len(rec2.Flights) != len(rec.Flights) || len(rec2.Delivered) != len(rec.Delivered) {
			t.Fatalf("compacted state drifted: %d/%d flights, %d/%d delivered",
				len(rec2.Flights), len(rec.Flights), len(rec2.Delivered), len(rec.Delivered))
		}
	})
}
