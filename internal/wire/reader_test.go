package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
	"time"
)

// allTypesCorpus is one representative message per wire type.
func allTypesCorpus() []Message {
	at := time.Unix(0, 1720000000123456789)
	return []Message{
		&Hello{BrokerID: 7, Name: "broker-7"},
		&Hello{BrokerID: -1, Name: ""},
		&Data{
			FrameID: 42, PacketID: 99, Topic: 3, Source: 1,
			PublishedAt: at, Deadline: 150 * time.Millisecond,
			Dests: []int32{2, 5, 9}, Path: []int32{1, 4, 1},
			Payload: []byte("position report"),
		},
		&Data{FrameID: 1, PacketID: 2, PublishedAt: time.Unix(0, 0)},
		&Publish{Topic: 4, Deadline: time.Second, Payload: []byte{0, 1, 2, 255}},
		&Publish{},
		&StatsRequest{Token: 31337},
		&StatsReply{
			Token: 31337, BrokerID: 2,
			Published: 10, Delivered: 20, Forwarded: 30, Dropped: 1,
			Neighbors: []NeighborStat{
				{ID: 1, Connected: true, Alpha: 12 * time.Millisecond, Gamma: 0.97},
			},
			Routes: []RouteStat{
				{Topic: 3, Sub: 1, D: 45 * time.Millisecond, R: 0.93, ListLen: 2},
			},
			Shards: []ShardStat{
				{Depth: 2, Enqueued: 64, Processed: 62, Inflight: 5},
			},
			Sessions: 8, Subscriptions: 1000,
			AckBatches: 5, AckFramesCoalesced: 320,
		},
		&StatsReply{Token: 1},
		&SessionHello{Subscribers: 1000},
		&SessionSub{SubID: 42, Topic: 4, Deadline: 200 * time.Millisecond},
		&SessionUnsub{SubID: 42, Topic: 4},
		&MuxDeliver{
			Topic: 4, PacketID: 78, Source: 2, PublishedAt: at,
			SubIDs: []uint32{3, 17, 300}, Payload: []byte("agg"),
		},
		&AckBatch{FrameIDs: []uint64{12345678901234}},
		&AckBatch{FrameIDs: []uint64{1, 2, 3, 900, 1 << 60}},
		&DataBatch{Frames: []Data{
			{
				FrameID: 42, PacketID: 99, Topic: 3, Source: 1,
				PublishedAt: at, Deadline: 150 * time.Millisecond,
				Dests: []int32{2, 5, 9}, Path: []int32{1, 4, 1},
				Payload: []byte("position report"),
			},
			{
				FrameID: 43, PacketID: 100, Topic: 3, Source: 1,
				PublishedAt: at.Add(time.Millisecond), Deadline: 150 * time.Millisecond,
				Dests: []int32{2, 5, 9}, Path: []int32{1, 4, 1},
				Payload: []byte("p2"),
			},
		}},
		&DataBatch{Frames: []Data{{FrameID: 1, PacketID: 2, PublishedAt: time.Unix(0, 0)}}},
		&LinkState{Origin: 3, Epoch: 17, Links: []LinkRecord{
			{To: 1, Alpha: 12 * time.Millisecond, Gamma: 0.97},
			{To: 9, Alpha: 40 * time.Millisecond, Gamma: 0}, // withdrawal
		}, Members: []MemberRecord{
			{Topic: 4, Deadline: 200 * time.Millisecond},
			{Topic: -1, Deadline: time.Second},
		}},
		&LinkState{Origin: 0, Epoch: 1}, // zero records: withdraws all links and topics
		&Probe{Token: 0xDEAD},
		&Probe{Token: 0xDEAD, Reply: true},
	}
}

// TestAppendFrameAppends verifies AppendFrame extends dst in place so
// multiple frames coalesce into one valid stream.
func TestAppendFrameAppends(t *testing.T) {
	msgs := []Message{&Probe{Token: 1}, &AckBatch{FrameIDs: []uint64{2}}, &Hello{BrokerID: 3, Name: "x"}}
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

// TestReaderRoundTripAllTypes decodes every message type through the pooled
// Reader and compares against the original.
func TestReaderRoundTripAllTypes(t *testing.T) {
	for _, msg := range allTypesCorpus() {
		t.Run(msg.Type().String(), func(t *testing.T) {
			rd := NewReader(bytes.NewReader(AppendFrame(nil, msg)))
			got, err := rd.Next()
			if err != nil {
				t.Fatalf("Next: %v", err)
			}
			if !reflect.DeepEqual(msg, got) {
				t.Errorf("round trip mismatch:\n sent %#v\n got  %#v", msg, got)
			}
		})
	}
}

// TestReaderReusesStructs verifies the ownership contract: the message
// returned by Next is recycled, so frame N's content overwrites frame N-1's,
// and slice fields shrink correctly between frames.
func TestReaderReusesStructs(t *testing.T) {
	big := &Data{
		FrameID: 1, PacketID: 1, PublishedAt: time.Unix(0, 1),
		Dests: []int32{1, 2, 3, 4, 5}, Path: []int32{9, 8, 7},
		Payload: bytes.Repeat([]byte("A"), 512),
	}
	small := &Data{
		FrameID: 2, PacketID: 2, PublishedAt: time.Unix(0, 2),
		Dests: []int32{6}, Payload: []byte("b"),
	}
	stream := AppendFrame(AppendFrame(nil, big), small)
	rd := NewReader(bytes.NewReader(stream))

	first, err := rd.Next()
	if err != nil {
		t.Fatal(err)
	}
	d1, ok := first.(*Data)
	if !ok {
		t.Fatalf("first frame is %T", first)
	}
	if len(d1.Dests) != 5 || len(d1.Payload) != 512 {
		t.Fatalf("first decode wrong: %d dests, %d payload", len(d1.Dests), len(d1.Payload))
	}
	second, err := rd.Next()
	if err != nil {
		t.Fatal(err)
	}
	d2, ok := second.(*Data)
	if !ok {
		t.Fatalf("second frame is %T", second)
	}
	if d2 != d1 {
		t.Error("Reader handed out distinct Data structs; expected recycling")
	}
	if d2.FrameID != 2 || len(d2.Dests) != 1 || d2.Dests[0] != 6 ||
		string(d2.Payload) != "b" || len(d2.Path) != 0 {
		t.Errorf("second decode carries stale state: %+v", d2)
	}
}

// TestReaderZeroAllocSteadyState pins the headline property: after warm-up,
// decoding frames through a Reader does not allocate.
func TestReaderZeroAllocSteadyState(t *testing.T) {
	msg := &Data{
		FrameID: 1, PacketID: 2, Topic: 3, Source: 4,
		PublishedAt: time.Unix(0, 12345), Deadline: time.Second,
		Dests: []int32{1, 2, 3}, Path: []int32{0, 5},
		Payload: bytes.Repeat([]byte("x"), 256),
	}
	frame := AppendFrame(nil, msg)
	src := &loopFrames{frames: frame}
	rd := NewReader(src)
	if _, err := rd.Next(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := rd.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Reader.Next allocates %.1f objects/frame in steady state, want 0", allocs)
	}
	encodeAllocs := testing.AllocsPerRun(100, func() {
		frame = AppendFrame(frame[:0], msg)
	})
	if encodeAllocs != 0 {
		t.Errorf("AppendFrame allocates %.1f objects/frame with a warm buffer, want 0", encodeAllocs)
	}
}

// TestReaderRejectsMalformed is the table form of the TestReadRejects*
// cases.
func TestReaderRejectsMalformed(t *testing.T) {
	cases := map[string]struct {
		raw  []byte
		want error
	}{
		"unknown type": {[]byte{0, 0, 0, 1, 200}, ErrUnknownType},
		"oversized":    {[]byte{0xFF, 0xFF, 0xFF, 0xFF, 1}, ErrFrameTooLarge},
		"empty frame":  {[]byte{0, 0, 0, 0}, ErrTruncated},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			rd := NewReader(bytes.NewReader(tc.raw))
			if _, err := rd.Next(); !errors.Is(err, tc.want) {
				t.Errorf("err = %v, want %v", err, tc.want)
			}
		})
	}
	t.Run("trailing bytes", func(t *testing.T) {
		raw := AppendFrame(nil, &Probe{Token: 9})
		raw = append(raw, 0xAA)
		raw[3]++
		rd := NewReader(bytes.NewReader(raw))
		if _, err := rd.Next(); err == nil {
			t.Error("frame with trailing bytes accepted")
		}
	})
	t.Run("truncated body", func(t *testing.T) {
		raw := AppendFrame(nil, &Data{FrameID: 1, PacketID: 2, PublishedAt: time.Unix(0, 0), Payload: []byte("hello")})
		for cut := 6; cut < len(raw)-1; cut += 7 {
			chopped := append([]byte(nil), raw[:cut]...)
			bodyLen := cut - 4
			chopped[0], chopped[1], chopped[2], chopped[3] = 0, 0, byte(bodyLen>>8), byte(bodyLen)
			rd := NewReader(bytes.NewReader(chopped))
			if _, err := rd.Next(); err == nil {
				t.Errorf("cut at %d: truncated frame accepted", cut)
			}
		}
	})
}

// TestReadThenReaderOnSameStream models the broker handshake: the Hello is
// read through the Reader that then serves the connection's remaining
// frames, so whatever the peer sent right behind its Hello (already in the
// Reader's buffer) is not lost at the switch to the read loop.
func TestReadThenReaderOnSameStream(t *testing.T) {
	var stream []byte
	stream = AppendFrame(stream, &Hello{BrokerID: 4, Name: "b"})
	stream = AppendFrame(stream, &Probe{Token: 77})
	rd := NewReader(bufio.NewReader(bytes.NewReader(stream)))
	first, err := rd.Next()
	if err != nil {
		t.Fatal(err)
	}
	if h, ok := first.(*Hello); !ok || h.BrokerID != 4 {
		t.Fatalf("first frame = %#v", first)
	}
	second, err := rd.Next()
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := second.(*Probe); !ok || p.Token != 77 {
		t.Fatalf("second frame = %#v", second)
	}
}

// TestWriteRejectsOversizedFrame pins the bound every writer checks before
// it puts an encoded frame on a connection.
func TestWriteRejectsOversizedFrame(t *testing.T) {
	buf := AppendFrame([]byte("prefix"), &Publish{Payload: make([]byte, MaxFrameSize+1)})
	if FrameFits(buf, len("prefix")) {
		t.Error("FrameFits accepted a frame over MaxFrameSize")
	}
	if buf = AppendFrame(buf[:0], &Publish{Payload: make([]byte, 64)}); !FrameFits(buf, 0) {
		t.Error("FrameFits refused a small frame")
	}
}
