package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

// roundTrip encodes a message with AppendFrame and decodes it through a
// fresh Reader, returning the decoded message (owned by that Reader).
func roundTrip(t *testing.T, msg Message) Message {
	t.Helper()
	got, err := NewReader(bytes.NewReader(AppendFrame(nil, msg))).Next()
	if err != nil {
		t.Fatalf("decode %v: %v", msg.Type(), err)
	}
	return got
}

func TestRoundTripAllTypes(t *testing.T) {
	at := time.Unix(0, 1720000000123456789)
	tests := []Message{
		&Hello{BrokerID: 7, Name: "broker-7"},
		&Hello{BrokerID: -1, Name: ""},
		&Data{
			FrameID:     42,
			PacketID:    99,
			Topic:       3,
			Source:      1,
			PublishedAt: at,
			Deadline:    150 * time.Millisecond,
			Dests:       []int32{2, 5, 9},
			Path:        []int32{1, 4, 1},
			Payload:     []byte("position report"),
		},
		&Data{FrameID: 1, PacketID: 2, PublishedAt: time.Unix(0, 0)},
		&Publish{Topic: 4, Deadline: time.Second, Payload: []byte{0, 1, 2, 255}},
		&Publish{Topic: 0, Payload: nil},
		&StatsRequest{Token: 31337},
		&StatsReply{
			Token: 31337, BrokerID: 2,
			Published: 10, Delivered: 20, Forwarded: 30, Dropped: 1,
			QueueDrops: 6, Redials: 4, Reconnects: 2,
			Sessions: 64, Subscriptions: 100000,
			AckBatches: 12, AckFramesCoalesced: 700,
			Neighbors: []NeighborStat{
				{ID: 1, Connected: true, Alpha: 12 * time.Millisecond, Gamma: 0.97},
				{ID: 5, Connected: false, Alpha: 30 * time.Millisecond, Gamma: 0.4},
			},
			Routes: []RouteStat{
				{Topic: 3, Sub: 1, D: 45 * time.Millisecond, R: 0.93, ListLen: 2},
			},
			Shards: []ShardStat{
				{Depth: 0, Enqueued: 1000, Processed: 1000, Inflight: 0},
				{Depth: 12, Enqueued: 5000, Processed: 4988, Inflight: 37},
			},
			Links: []LinkStat{
				{From: 2, To: 1, Alpha: 11 * time.Millisecond, Gamma: 0.98, Epoch: 40},
				{From: 5, To: 2, Alpha: 33 * time.Millisecond, Gamma: 0.5, Epoch: 12},
			},
			Ctrl: CtrlStat{
				Epoch: 41, Version: 19,
				Rebuilds: 7, Noops: 30, TablesBuilt: 21,
				LinkStatesSent: 88, LinkStatesRecv: 90, StaleDrops: 2,
				ProbesSent: 14, ProbeReplies: 13,
			},
			Wal: WalStat{
				Enabled: true, Appends: 1000, Fsyncs: 40, Bytes: 1 << 20,
				ReplayedFlights: 3, Checkpoints: 2,
			},
		},
		&StatsReply{Token: 1, BrokerID: 0},
		&SessionHello{Subscribers: 100000},
		&SessionHello{},
		&SessionSub{SubID: 12345, Topic: 7, Deadline: 250 * time.Millisecond},
		&SessionUnsub{SubID: 12345, Topic: 7},
		&MuxDeliver{
			Topic: 4, PacketID: 77, Source: 2, PublishedAt: at,
			SubIDs:  []uint32{0, 1, 127, 128, 1<<14 - 1, 1 << 14, 1 << 20, 1<<32 - 1},
			Payload: []byte("shared payload"),
		},
		&MuxDeliver{PacketID: 1, PublishedAt: time.Unix(0, 0)},
		&AckBatch{FrameIDs: []uint64{7}},
		&AckBatch{FrameIDs: []uint64{9, 5, 9, 1 << 63, 0}}, // unsorted, dup, wrap
		&DataBatch{Frames: []Data{
			{
				FrameID: 100, PacketID: 50, Topic: 2, Source: 0,
				PublishedAt: at, Deadline: time.Second,
				Dests: []int32{1, 3}, Path: []int32{0},
				Payload: []byte("a"),
			},
			{
				FrameID: 101, PacketID: 51, Topic: 2, Source: 0,
				PublishedAt: at.Add(time.Microsecond), Deadline: time.Second,
				Dests: []int32{1, 3}, Path: []int32{0},
				Payload: []byte("bb"),
			},
			{
				FrameID: 90, PacketID: 2, Topic: -1, Source: 7,
				PublishedAt: time.Unix(0, 0), Deadline: -time.Millisecond,
				Dests:   []int32{-2147483648, 2147483647},
				Payload: []byte{0xFF},
			},
		}},
		&DataBatch{Frames: []Data{{PublishedAt: time.Unix(0, 0)}}},
		&LinkState{Origin: 4, Epoch: 1720000000, Links: []LinkRecord{
			{To: 0, Alpha: 5 * time.Millisecond, Gamma: 0.999},
			{To: 7, Alpha: 80 * time.Millisecond, Gamma: 0.25},
			{To: 2, Alpha: 0, Gamma: 0}, // withdrawn link
		}},
		&LinkState{Origin: -1, Epoch: 0},
		&LinkState{Origin: 2, Epoch: 9, Members: []MemberRecord{
			{Topic: 7, Deadline: 250 * time.Millisecond},
			{Topic: -2147483648, Deadline: 0},
			{Topic: 2147483647, Deadline: 1<<63 - 1},
		}},
		&Probe{Token: 1 << 63},
		&Probe{Token: 0, Reply: true},
		&WalCustody{Data: Data{
			FrameID: 42, PacketID: 99, Topic: 3, Source: 1,
			PublishedAt: at, Deadline: 150 * time.Millisecond,
			Dests: []int32{2, 5}, Path: []int32{1},
			Payload: []byte("custody"),
		}},
		&WalCustody{Data: Data{PublishedAt: time.Unix(0, 0)}},
		&WalClear{PacketID: 99, Dests: []int32{2, 5}},
		&WalClear{PacketID: 0},
		&WalDeliver{PacketID: 1 << 63},
		&WalMeta{Incarnation: 7},
	}
	for _, msg := range tests {
		t.Run(msg.Type().String(), func(t *testing.T) {
			got := roundTrip(t, msg)
			if !reflect.DeepEqual(msg, got) {
				t.Errorf("round trip mismatch:\n sent %#v\n got  %#v", msg, got)
			}
		})
	}
}

func TestMultipleFramesOnOneStream(t *testing.T) {
	msgs := []Message{
		&Probe{Token: 1},
		&AckBatch{FrameIDs: []uint64{2}},
		&Hello{BrokerID: 3, Name: "x"},
	}
	var stream []byte
	for _, m := range msgs {
		stream = AppendFrame(stream, m)
	}
	rd := NewReader(bytes.NewReader(stream))
	for i, want := range msgs {
		got, err := rd.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("frame %d mismatch: %#v vs %#v", i, want, got)
		}
	}
	if _, err := rd.Next(); err != io.EOF {
		t.Errorf("after last frame err = %v, want io.EOF", err)
	}
}

// next decodes the first frame of raw through a fresh Reader.
func next(raw []byte) (Message, error) {
	return NewReader(bytes.NewReader(raw)).Next()
}

func TestReadRejectsUnknownType(t *testing.T) {
	if _, err := next([]byte{0, 0, 0, 1, 200}); !errors.Is(err, ErrUnknownType) { // length 1, type 200
		t.Errorf("err = %v, want ErrUnknownType", err)
	}
	// A retired tag is as unknown as one never assigned.
	if _, err := next([]byte{0, 0, 0, 9, 3, 0, 0, 0, 0, 0, 0, 0, 9}); !errors.Is(err, ErrUnknownType) {
		t.Errorf("retired ACK tag: err = %v, want ErrUnknownType", err)
	}
}

func TestReadRejectsOversizedFrame(t *testing.T) {
	if _, err := next([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1}); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadRejectsEmptyFrame(t *testing.T) {
	if _, err := next([]byte{0, 0, 0, 0}); !errors.Is(err, ErrTruncated) {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
}

func TestReadRejectsTruncatedBody(t *testing.T) {
	raw := AppendFrame(nil, &Data{FrameID: 1, PacketID: 2, PublishedAt: time.Unix(0, 0), Payload: []byte("hello")})
	// Chop the body but fix the length header to the chopped size so the
	// decoder (not ReadFull) sees the truncation.
	for cut := 6; cut < len(raw)-1; cut += 7 {
		chopped := append([]byte(nil), raw[:cut]...)
		bodyLen := cut - 4
		chopped[0], chopped[1], chopped[2], chopped[3] = 0, 0, byte(bodyLen>>8), byte(bodyLen)
		if _, err := next(chopped); err == nil {
			t.Errorf("cut at %d: truncated frame accepted", cut)
		}
	}
}

func TestReadRejectsTrailingGarbage(t *testing.T) {
	raw := AppendFrame(nil, &Probe{Token: 9})
	// Extend the body by one byte and bump the length.
	raw = append(raw, 0xAA)
	raw[3]++
	if _, err := next(raw); err == nil {
		t.Error("frame with trailing bytes accepted")
	}
}

// TestLinkStateMembershipRejectsHostile pins the membership section's
// bounds: a topic count is checked against the body before anything is
// allocated, overlong varints and int32-overflowing topics are rejected, and
// so is a negative deadline.
func TestLinkStateMembershipRejectsHostile(t *testing.T) {
	// members wraps a membership section behind a zero-link LinkState header.
	members := func(tail ...byte) []byte {
		body := append([]byte{byte(TypeLinkState), 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0}, tail...)
		return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
	}
	cases := map[string][]byte{
		"count exceeds body": members(0xC8, 0x01),
		"overlong topic":     members(1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02, 0),
		"topic overflows":    members(binary.AppendVarint(binary.AppendVarint([]byte{1}, math.MaxInt32+1), 0)...),
		"negative deadline":  members(binary.AppendVarint(binary.AppendVarint([]byte{1}, 7), -1)...),
	}
	for name, raw := range cases {
		if _, err := next(raw); err == nil {
			t.Errorf("%s: Reader accepted hostile frame", name)
		}
	}
	if _, err := next(members(1, 7)); !errors.Is(err, ErrTruncated) {
		t.Errorf("membership cut mid record: err = %v, want ErrTruncated", err)
	}
}

func TestTypeStrings(t *testing.T) {
	for ty, want := range map[Type]string{
		TypeHello: "HELLO", TypeData: "DATA", TypePublish: "PUBLISH",
		TypeStatsRequest: "STATS_REQUEST", TypeStatsReply: "STATS_REPLY",
		TypeSessionHello: "SESSION_HELLO", TypeSessionSub: "SESSION_SUB",
		TypeSessionUnsub: "SESSION_UNSUB", TypeMuxDeliver: "MUX_DELIVER",
		TypeAckBatch: "ACK_BATCH", TypeDataBatch: "DATA_BATCH",
		TypeLinkState: "LINK_STATE", TypeProbe: "PROBE",
		TypeWalCustody: "WAL_CUSTODY", TypeWalClear: "WAL_CLEAR",
		TypeWalDeliver: "WAL_DELIVER", TypeWalMeta: "WAL_META",
	} {
		if ty.String() != want {
			t.Errorf("%d.String() = %q, want %q", ty, ty.String(), want)
		}
	}
	if Type(99).String() != "Type(99)" {
		t.Errorf("unknown type string = %q", Type(99).String())
	}
	// Retired tags stay holes: every later tag keeps its byte value,
	// including the WAL record types already on disk.
	for _, retired := range []Type{3, 4, 5, 6, 7, 8, 10} {
		if s := retired.String(); s != fmt.Sprintf("Type(%d)", uint8(retired)) {
			t.Errorf("retired tag %d string = %q", uint8(retired), s)
		}
	}
	for ty, want := range map[Type]uint8{
		TypeHello: 1, TypeData: 2, TypePublish: 9,
		TypeStatsRequest: 11, TypeStatsReply: 12,
		TypeSessionHello: 13, TypeSessionSub: 14, TypeSessionUnsub: 15, TypeMuxDeliver: 16,
		TypeAckBatch: 17, TypeDataBatch: 18, TypeLinkState: 19, TypeProbe: 20,
		TypeWalCustody: 21, TypeWalClear: 22, TypeWalDeliver: 23, TypeWalMeta: 24,
	} {
		if uint8(ty) != want {
			t.Errorf("%v = %d, want %d", ty, uint8(ty), want)
		}
	}
}

// Property: Data frames with arbitrary content survive a round trip.
func TestDataRoundTripProperty(t *testing.T) {
	f := func(frameID, pktID uint64, topic, source int32, ns int64, dl int64, dests, path []int32, payload []byte) bool {
		if len(dests) > 1000 {
			dests = dests[:1000]
		}
		if len(path) > 1000 {
			path = path[:1000]
		}
		in := &Data{
			FrameID:     frameID,
			PacketID:    pktID,
			Topic:       topic,
			Source:      source,
			PublishedAt: time.Unix(0, ns),
			Deadline:    time.Duration(dl),
			Dests:       dests,
			Path:        path,
			Payload:     payload,
		}
		out, err := next(AppendFrame(nil, in))
		if err != nil {
			return false
		}
		got, ok := out.(*Data)
		if !ok {
			return false
		}
		if got.FrameID != in.FrameID || got.PacketID != in.PacketID ||
			got.Topic != in.Topic || got.Source != in.Source ||
			!got.PublishedAt.Equal(in.PublishedAt) || got.Deadline != in.Deadline {
			return false
		}
		if len(got.Dests) != len(in.Dests) || len(got.Path) != len(in.Path) || len(got.Payload) != len(in.Payload) {
			return false
		}
		for i := range in.Dests {
			if got.Dests[i] != in.Dests[i] {
				return false
			}
		}
		for i := range in.Path {
			if got.Path[i] != in.Path[i] {
				return false
			}
		}
		return bytes.Equal(got.Payload, in.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDataRoundTrip(b *testing.B) {
	msg := &Data{
		FrameID: 1, PacketID: 2, Topic: 3, Source: 4,
		PublishedAt: time.Unix(0, 12345),
		Deadline:    100 * time.Millisecond,
		Dests:       []int32{1, 2, 3, 4},
		Path:        []int32{0, 5, 0},
		Payload:     bytes.Repeat([]byte("x"), 256),
	}
	b.ReportAllocs()
	var buf []byte
	src := bytes.NewReader(nil)
	rd := NewReader(src)
	for i := 0; i < b.N; i++ {
		buf = AppendFrame(buf[:0], msg)
		src.Reset(buf)
		if _, err := rd.Next(); err != nil {
			b.Fatal(err)
		}
	}
}
