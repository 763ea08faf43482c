package wire

import (
	"bytes"
	"testing"
	"time"
)

// benchData is a representative broker-to-broker frame: a routed packet copy
// with a few destinations, a short path and a 256-byte payload.
func benchData() *Data {
	return &Data{
		FrameID: 1, PacketID: 2, Topic: 3, Source: 4,
		PublishedAt: time.Unix(0, 12345),
		Deadline:    100 * time.Millisecond,
		Dests:       []int32{1, 2, 3, 4},
		Path:        []int32{0, 5, 0},
		Payload:     bytes.Repeat([]byte("x"), 256),
	}
}

// BenchmarkWireEncode measures the encode path the broker data plane uses to
// put one Data frame on the wire: AppendFrame into a reused buffer.
func BenchmarkWireEncode(b *testing.B) {
	msg := benchData()
	buf := AppendFrame(nil, msg) // pre-grow
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendFrame(buf[:0], msg)
	}
	if len(buf) == 0 {
		b.Fatal("empty frame")
	}
}

// loopFrames replays a pre-encoded frame stream forever, so decode
// benchmarks never run out of input.
type loopFrames struct {
	frames []byte
	off    int
}

func (l *loopFrames) Read(p []byte) (int, error) {
	if l.off == len(l.frames) {
		l.off = 0
	}
	n := copy(p, l.frames[l.off:])
	l.off += n
	return n, nil
}

// BenchmarkWireDecode measures the decode path the broker data plane uses to
// take one Data frame off the wire: Reader.Next with recycled message
// structs and body buffer.
func BenchmarkWireDecode(b *testing.B) {
	frame := AppendFrame(nil, benchData())
	rd := NewReader(&loopFrames{frames: frame})
	if _, err := rd.Next(); err != nil { // warm the reused buffers
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rd.Next(); err != nil {
			b.Fatal(err)
		}
	}
}
