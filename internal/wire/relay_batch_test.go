package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"
)

// TestAckBatchRoundTripExtremes pins the wrapping-delta encoding: unsorted,
// duplicated and boundary frame IDs all survive a round trip.
func TestAckBatchRoundTripExtremes(t *testing.T) {
	cases := [][]uint64{
		{0},
		{math.MaxUint64},
		{math.MaxUint64, 0, math.MaxUint64}, // wraps both directions
		{5, 5, 5},                           // duplicates
		{1 << 63, 1, 1 << 62},               // wildly out of order
		{1, 2, 3, 4, 5, 6, 7, 8},            // the common sorted run
	}
	for _, ids := range cases {
		msg := &AckBatch{FrameIDs: ids}
		got, err := next(AppendFrame(nil, msg))
		if err != nil {
			t.Fatalf("decode %v: %v", ids, err)
		}
		if !reflect.DeepEqual(msg, got) {
			t.Errorf("round trip changed %v into %#v", ids, got)
		}
	}
}

// TestBatchDecodeRejectsHostile pins the decoder's defenses for the batch
// frames: empty batches, counts exceeding the body, overlong varints and
// reconstructed values outside int32 must all error, never panic or
// over-allocate.
func TestBatchDecodeRejectsHostile(t *testing.T) {
	// frame wraps a hand-built body (type byte included) in a length header.
	frame := func(body ...byte) []byte {
		return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
	}
	overlong := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}
	nodeOverflow := append([]byte{byte(TypeDataBatch), 1, 0, 0, 0, 0, 0, 0, 1},
		binary.AppendVarint(nil, int64(math.MaxInt32)+1)...)
	nodeOverflow = append(nodeOverflow, 0, 0)
	topicOverflow := []byte{byte(TypeDataBatch), 1, 0, 0}
	topicOverflow = binary.AppendVarint(topicOverflow, int64(math.MaxInt32)+1)
	topicOverflow = append(topicOverflow, 0, 0, 0, 0, 0, 0)
	cases := map[string][]byte{
		"empty ack batch":        frame(byte(TypeAckBatch), 0),
		"ack count exceeds body": frame(byte(TypeAckBatch), 0xC8, 0x01),
		"ack delta overlong":     frame(append([]byte{byte(TypeAckBatch), 1}, overlong...)...),
		"empty data batch":       frame(byte(TypeDataBatch), 0),
		"data count exceeds":     frame(byte(TypeDataBatch), 0xC8, 0x01),
		"data node overflows":    frame(nodeOverflow...),
		"data topic overflows":   frame(topicOverflow...),
	}
	for name, raw := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := next(raw); err == nil {
				t.Error("Reader accepted hostile frame")
			}
		})
	}
	// A well-formed count with a missing tail must surface as truncation.
	if _, err := next(frame(byte(TypeAckBatch), 2, 2)); !errors.Is(err, ErrTruncated) {
		t.Errorf("short ack batch: err = %v, want ErrTruncated", err)
	}
}

// TestBatchFramesAreSmaller pins the point of batching: same-flow traffic in
// one batch costs a small fraction of the same entries sent as batches of one
// (what an idle link's flushes carry) or as standalone Data frames.
func TestBatchFramesAreSmaller(t *testing.T) {
	const n = 64
	ab := &AckBatch{}
	single := 0
	for i := uint64(0); i < n; i++ {
		id := uint64(3)<<48 | i // one broker's consecutive frame IDs
		ab.FrameIDs = append(ab.FrameIDs, id)
		single += len(AppendFrame(nil, &AckBatch{FrameIDs: []uint64{id}}))
	}
	batched := len(AppendFrame(nil, ab))
	if batched*4 > single {
		t.Errorf("AckBatch of %d = %dB, want <1/4 of %dB as batches of one", n, batched, single)
	}

	db := &DataBatch{}
	standalone := 0
	at := time.Unix(0, 1720000000123456789)
	for i := 0; i < 16; i++ {
		d := Data{
			FrameID: 3<<48 | uint64(i), PacketID: 7<<48 | uint64(i),
			Topic: 4, Source: 7, PublishedAt: at.Add(time.Duration(i) * time.Millisecond),
			Deadline: 150 * time.Millisecond,
			Dests:    []int32{2, 5, 9}, Path: []int32{7, 3},
			Payload: bytes.Repeat([]byte("x"), 32),
		}
		db.Frames = append(db.Frames, d)
		standalone += len(AppendFrame(nil, &d))
	}
	if batched := len(AppendFrame(nil, db)); batched*2 > standalone {
		t.Errorf("DataBatch of 16 = %dB, want <1/2 of %dB as standalone Data frames", batched, standalone)
	}
}

// TestHelloVersion pins the handshake contract: the codec writes
// ProtocolVersion right after BrokerID (which stays at body offset 0, where
// frame classifiers read it), the caller never sets it, and the decoder
// refuses any other version and a Hello cut inside the version field.
func TestHelloVersion(t *testing.T) {
	frame := AppendFrame(nil, &Hello{BrokerID: 3, Name: "broker-3"})
	if id := int32(binary.BigEndian.Uint32(frame[5:])); id != 3 {
		t.Errorf("BrokerID at body offset 0 = %d, want 3", id)
	}
	if v := binary.BigEndian.Uint16(frame[9:]); v != ProtocolVersion {
		t.Errorf("version on the wire = %d, want %d", v, ProtocolVersion)
	}
	got, err := next(frame)
	if err != nil {
		t.Fatal(err)
	}
	if h := got.(*Hello); h.BrokerID != 3 || h.Name != "broker-3" {
		t.Errorf("round trip = %+v", h)
	}

	other := append([]byte(nil), frame...)
	binary.BigEndian.PutUint16(other[9:], ProtocolVersion+1)
	if _, err := next(other); !errors.Is(err, ErrVersion) {
		t.Errorf("Hello of version %d: err = %v, want ErrVersion", ProtocolVersion+1, err)
	}
	cut := append([]byte(nil), frame[:10]...) // one byte of the version
	binary.BigEndian.PutUint32(cut, uint32(len(cut)-4))
	if _, err := next(cut); !errors.Is(err, ErrTruncated) {
		t.Errorf("Hello cut inside the version: err = %v, want ErrTruncated", err)
	}
}
