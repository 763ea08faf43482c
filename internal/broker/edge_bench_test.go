package broker

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// BenchmarkEdgeFanout measures what the edge tier exists to optimize: the
// wire cost of fanning one published packet out to many local subscribers —
// 100 logical subscribers over 4 sessions, one MuxDeliver per (topic,
// session) carrying the payload once plus the subscriber-ID varint list.
//
// bytes/delivery and frames/delivery come from the broker's writer-path
// egress counters; TestEdgeFanoutAggregationGain holds both to a ceiling.
func BenchmarkEdgeFanout(b *testing.B) {
	b.Run("mux", benchEdgeFanout)
}

func benchEdgeFanout(b *testing.B) {
	const (
		subscribers = 100
		sessions    = 4
		topic       = int32(2)
	)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	bk, err := New(Config{ID: 1, Listen: ln.Addr().String(), Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer bk.Close()
	if err := bk.StartListener(ln); err != nil {
		b.Fatal(err)
	}

	// got counts logical deliveries observed by the subscribers, without
	// any lossy buffering, so the benchmark can wait for exactly
	// b.N * subscribers.
	var got atomic.Uint64
	perSession := subscribers / sessions
	for s := 0; s < sessions; s++ {
		sess, err := DialSession(ln.Addr().String(), fmt.Sprintf("mux-%d", s), uint32(perSession),
			func(m *wire.MuxDeliver) { got.Add(uint64(len(m.SubIDs))) })
		if err != nil {
			b.Fatal(err)
		}
		defer sess.Close()
		for j := 0; j < perSession; j++ {
			if err := sess.Subscribe(uint32(j), topic, time.Second); err != nil {
				b.Fatal(err)
			}
		}
		if err := sess.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	waitDeadline := time.Now().Add(10 * time.Second)
	for bk.localLedger(topic).subscribers() != subscribers {
		if time.Now().After(waitDeadline) {
			b.Fatalf("only %d/%d subscribers registered", bk.localLedger(topic).subscribers(), subscribers)
		}
		time.Sleep(5 * time.Millisecond)
	}

	pub, err := Dial(ln.Addr().String(), "bench-pub")
	if err != nil {
		b.Fatal(err)
	}
	defer pub.Close()

	payload := make([]byte, 256)
	// Cap in-flight packets well under the per-connection send queue
	// (default 1024): an unpaced publisher overruns the bounded writer
	// queues and the broker — correctly, it's a QoS system — drops the
	// excess, which would make the exact delivery accounting below fail.
	const maxInflight = 256
	b.ReportAllocs()
	b.ResetTimer()
	frames0, bytes0 := bk.wireFrames.Load(), bk.wireBytes.Load()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if err := pub.Publish(topic, time.Second, payload); err != nil {
			b.Fatal(err)
		}
		for uint64(i+1)*subscribers-got.Load() > maxInflight*subscribers {
			time.Sleep(50 * time.Microsecond)
		}
	}
	want := uint64(b.N) * subscribers
	doneBy := time.Now().Add(30 * time.Second)
	for got.Load() < want {
		if time.Now().After(doneBy) {
			b.Fatalf("received %d/%d deliveries", got.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
	elapsed := time.Since(start)
	b.StopTimer()
	frames := bk.wireFrames.Load() - frames0
	bytes := bk.wireBytes.Load() - bytes0
	b.ReportMetric(float64(bytes)/float64(want), "bytes/delivery")
	b.ReportMetric(float64(frames)/float64(want), "frames/delivery")
	b.ReportMetric(float64(want)/elapsed.Seconds(), "deliveries/sec")
}

// Edge wire cost per logical delivery in BenchmarkEdgeFanout, about 25 %
// over what GOMAXPROCS 2 and 8 measure. One frame per subscriber would cost
// 1 frame and about 290 bytes (a 256-byte payload plus headers).
const (
	// edgeFramesCeiling: 0.040 frames/delivery measured at GOMAXPROCS 2
	// and 8 (one MuxDeliver per session, 4 sessions of 25).
	edgeFramesCeiling = 0.05
	// edgeBytesCeiling: 12.6 bytes/delivery measured at GOMAXPROCS 2 and 8.
	edgeBytesCeiling = 15.8
)

// TestEdgeFanoutAggregationGain pins what session aggregation buys outside
// the benchmark harness: at 100 subscribers per topic over 4 sessions, frames
// and encoded bytes per delivered message stay under their ceilings.
func TestEdgeFanoutAggregationGain(t *testing.T) {
	res := testing.Benchmark(benchEdgeFanout)
	bytesPer, framesPer := res.Extra["bytes/delivery"], res.Extra["frames/delivery"]
	t.Logf("%.1f bytes/delivery, %.3f frames/delivery over %d packets", bytesPer, framesPer, res.N)
	if bytesPer <= 0 || framesPer <= 0 {
		t.Fatalf("fan-out reported no wire traffic")
	}
	if framesPer > edgeFramesCeiling {
		t.Errorf("%.3f frames/delivery, ceiling %.3f", framesPer, edgeFramesCeiling)
	}
	if bytesPer > edgeBytesCeiling {
		t.Errorf("%.1f bytes/delivery, ceiling %.1f", bytesPer, edgeBytesCeiling)
	}
}
