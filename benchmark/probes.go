package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/algo1"
	"repro/internal/algo2"
	"repro/internal/topology"
	"repro/internal/wal"
	"repro/internal/wire"
)

// The probes are timed loops over each layer's public API, with the
// workload's own frame shapes: one relay DATA frame of a 2-hop path with a
// 64 B payload, and one MuxDeliver with the workload's subscribers per
// publish. They run before the traced window, on an otherwise idle process.

const (
	probeIters  = 20000
	probeRounds = 5
	batchLen    = 32
)

var probeSink int // keeps the measured calls' results alive

// timeLoop times fn in probeRounds rounds of iters/probeRounds calls after a
// short warm-up and returns the best round's ns per call (a host stall only
// ever adds time) and heap allocations per call over all rounds.
func timeLoop(iters int, fn func(i int)) (nsPerOp, allocsPerOp float64) {
	per := max(iters/probeRounds, 1)
	for i := 0; i < per/2+1; i++ {
		fn(i)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	best := time.Duration(1<<63 - 1)
	for r := 0; r < probeRounds; r++ {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			fn(i)
		}
		best = min(best, time.Since(t0))
	}
	runtime.ReadMemStats(&m1)
	return float64(best.Nanoseconds()) / float64(per), float64(m1.Mallocs-m0.Mallocs) / float64(per*probeRounds)
}

func probeData(i int, payload []byte) wire.Data {
	return wire.Data{
		FrameID:     uint64(1)<<48 | uint64(i+1),
		PacketID:    uint64(i + 1),
		Topic:       topicBase,
		Source:      0,
		PublishedAt: time.Unix(1700000000, int64(i)*25000),
		Deadline:    10 * time.Millisecond,
		Dests:       []int32{2},
		Path:        []int32{0},
		Payload:     payload,
	}
}

// probeWire times the codec: AppendFrame and Reader.Next on a single relay
// DATA frame, on a DATA_BATCH of 32, and on a MuxDeliver.
func probeWire(w *workload, m map[string]float64) error {
	payload := make([]byte, payloadBytes)
	d := probeData(0, payload)
	var buf []byte
	encNs, encAllocs := timeLoop(probeIters, func(i int) {
		d.FrameID++
		buf = wire.AppendFrame(buf[:0], &d)
	})
	probeSink += len(buf)

	// Decode: one stream of probeIters frames read back through one Reader.
	decode := func(frame []byte, n int) (float64, float64, error) {
		stream := bytes.Repeat(frame, 2*n+probeRounds)
		rd := wire.NewReader(bytes.NewReader(stream))
		var err error
		ns, allocs := timeLoop(n, func(int) {
			if _, e := rd.Next(); e != nil && err == nil {
				err = e
			}
		})
		return ns, allocs, err
	}
	decNs, decAllocs, err := decode(buf, probeIters)
	if err != nil {
		return fmt.Errorf("wire probe: decode data: %w", err)
	}
	m["wire.encode_data_ns"] = encNs
	m["wire.decode_data_ns"] = decNs
	m["wire.allocs_per_frame"] = encAllocs + decAllocs

	batch := wire.DataBatch{Frames: make([]wire.Data, batchLen)}
	for i := range batch.Frames {
		batch.Frames[i] = probeData(i, payload)
	}
	var bbuf []byte
	bEnc, _ := timeLoop(probeIters/batchLen, func(int) { bbuf = wire.AppendFrame(bbuf[:0], &batch) })
	bDec, _, err := decode(bbuf, probeIters/batchLen)
	if err != nil {
		return fmt.Errorf("wire probe: decode batch: %w", err)
	}
	m["wire.encode_batch_ns_per_pkt"] = bEnc / batchLen
	m["wire.decode_batch_ns_per_pkt"] = bDec / batchLen

	mux := wire.MuxDeliver{Topic: topicBase, PacketID: 1, PublishedAt: d.PublishedAt, Payload: payload}
	for i := 0; i < w.subsPerPublish(); i++ {
		mux.SubIDs = append(mux.SubIDs, uint32(i*w.topics))
	}
	var mbuf []byte
	mEnc, _ := timeLoop(probeIters, func(int) { mbuf = wire.AppendFrame(mbuf[:0], &mux) })
	mDec, _, err := decode(mbuf, probeIters)
	if err != nil {
		return fmt.Errorf("wire probe: decode mux: %w", err)
	}
	m["wire.encode_mux_ns"] = mEnc
	m["wire.decode_mux_ns"] = mDec
	return nil
}

// engineStub is the benchmark-owned algo2.Deps: one neighbor per role, no
// clock, no I/O. Timers are never armed, so every flight stays in flight
// until the probe ACKs it.
type engineStub struct {
	now     time.Duration
	frameID uint64
	list    []int
	sent    []uint64 // frame IDs handed to Send, in order
}

var _ algo2.Deps[int] = (*engineStub)(nil)

func (s *engineStub) Now() time.Duration                          { return s.now }
func (s *engineStub) AfterFunc(time.Duration, func(any), any) int { return 0 }
func (s *engineStub) CancelTimer(int)                             {}
func (s *engineStub) NextFrameID() uint64                         { s.frameID++; return s.frameID }
func (s *engineStub) AckWait(int) (time.Duration, bool)           { return 100 * time.Microsecond, true }
func (s *engineStub) Send(f *algo2.Frame)                         { s.sent = append(s.sent, f.ID) }
func (s *engineStub) SendingList(int32, int) []int                { return s.list }
func (s *engineStub) LinkUp(int) bool                             { return true }
func (s *engineStub) Deliver(*algo2.Packet, int)                  {}
func (s *engineStub) Drop(*algo2.Packet, []int, algo2.DropReason) {}
func (s *engineStub) AckTimedOut(int)                             {}
func (s *engineStub) NextRetryAt(now time.Duration) time.Duration { return now + time.Second }

// probeAlgo2 times the engine's three fast-path entry points in bursts of
// window packets: Publish at the origin, HandleData at a relay, and the
// HandleAck that resolves each flight.
func probeAlgo2(m map[string]float64) {
	payload := make([]byte, payloadBytes)
	cfg := algo2.Config{M: 2, AckGuard: 20 * time.Millisecond, Persistent: true}
	rounds := probeIters / window

	run := func(node int, list []int, inject func(e *algo2.Engine[int], id uint64)) (opNs, ackNs, allocs float64) {
		stub := &engineStub{list: list}
		cfg.NodeID = node
		eng := algo2.NewEngine[int](cfg, stub, algo2.NewPools[int](6))
		var opTotal, ackTotal time.Duration
		var m0, m1 runtime.MemStats
		id := uint64(0)
		for r := -rounds / 10; r < rounds; r++ { // negative rounds warm the pools
			if r == 0 {
				opTotal, ackTotal = 0, 0
				runtime.ReadMemStats(&m0)
			}
			stub.sent = stub.sent[:0]
			t0 := time.Now()
			for k := 0; k < window; k++ {
				id++
				inject(eng, id)
			}
			t1 := time.Now()
			for _, fid := range stub.sent {
				eng.HandleAck(fid)
			}
			opTotal += t1.Sub(t0)
			ackTotal += time.Since(t1)
			stub.now += time.Millisecond
		}
		runtime.ReadMemStats(&m1)
		ops := float64(rounds * window)
		probeSink += eng.InflightCount()
		return float64(opTotal.Nanoseconds()) / ops, float64(ackTotal.Nanoseconds()) / ops, float64(m1.Mallocs-m0.Mallocs) / (2 * ops)
	}

	dests := []int{2}
	pubNs, ackNs, pubAllocs := run(0, []int{1, 3, 5}, func(e *algo2.Engine[int], id uint64) {
		e.Publish(algo2.Packet{ID: id, Topic: topicBase, Deadline: 10 * time.Millisecond, Payload: payload}, dests)
	})
	path := []int{0}
	dataNs, _, dataAllocs := run(1, []int{2, 0}, func(e *algo2.Engine[int], id uint64) {
		e.HandleData(algo2.Inbound{
			FrameID: id, From: 0,
			Pkt:   algo2.Packet{ID: id, Topic: topicBase, Deadline: 10 * time.Millisecond, Payload: payload},
			Dests: dests, Path: path,
		})
	})
	m["algo2.publish_ns"] = pubNs
	m["algo2.handle_data_ns"] = dataNs
	m["algo2.handle_ack_ns"] = ackNs
	m["algo2.allocs_per_op"] = (pubAllocs + dataAllocs) / 2
}

// lsdbStub is the benchmark-owned algo1.Deps: a fixed estimate per link and
// one link whose gamma the probe flips to dirty an epoch.
type lsdbStub struct {
	version uint64
	flipped bool
}

var _ algo1.Deps = (*lsdbStub)(nil)

func (s *lsdbStub) EstimateVersion() uint64 { return s.version }
func (s *lsdbStub) AppendChangedLinks(_, _ uint64, dst [][2]int) [][2]int {
	return append(dst, [2]int{0, 1}, [2]int{1, 0})
}
func (s *lsdbStub) LinkEstimate(u, v int) (time.Duration, float64, bool) {
	if s.flipped && (u == 0 && v == 1 || u == 1 && v == 0) {
		return 100 * time.Microsecond, 0.5, true
	}
	return 100 * time.Microsecond, 0.99, true
}

// probeAlgo1 times Driver.Rebuild on the 6-broker chord ring: a quiet epoch
// (estimate version unchanged, a pointer-identity no-op) and a dirty one
// (one link's gamma changed, affected pairs warm-started).
func probeAlgo1(w *workload, m map[string]float64) error {
	const n = 6
	g := topology.NewGraph(n)
	for i := 0; i < n; i++ {
		if err := g.AddLink(i, (i+1)%n, time.Millisecond); err != nil {
			return err
		}
	}
	for i := 0; i < n/2; i++ {
		if err := g.AddLink(i, i+n/2, time.Millisecond); err != nil {
			return err
		}
	}
	db := &lsdbStub{}
	drv := algo1.NewDriver(g, db, algo1.DriverOptions{Build: algo1.BuildOptions{M: 2}})
	budget := make([]time.Duration, n)
	for i := range budget {
		budget[i] = w.deadline
	}
	drv.SetPair(algo1.PairKey{Topic: topicBase, Sub: 2}, 2, budget)
	drv.Rebuild()
	quietNs, _ := timeLoop(probeIters, func(int) {
		if drv.Rebuild() {
			probeSink++
		}
	})
	dirtyNs, _ := timeLoop(probeIters/10, func(int) {
		db.version++
		db.flipped = !db.flipped
		if drv.Rebuild() {
			probeSink++
		}
	})
	m["algo1.epoch_quiet_ns"] = quietNs
	m["algo1.epoch_dirty_us"] = dirtyNs / 1e3
	return nil
}

// probeWal times the custody journal's group commit in isolation:
// AppendCustody → OnDurable at 10,000 appends per second for one second (or
// a tenth in quick mode), the rate relay_durable offers each broker.
func probeWal(m map[string]float64, length time.Duration) error {
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(scratchRoot, "walprobe-")
	if err != nil {
		return err
	}
	defer func() {
		_ = os.RemoveAll(dir)
		_ = os.Remove(scratchRoot)
	}()

	const perMs = 10
	total := int(length/time.Millisecond) * perMs
	appended := make([]time.Time, total+1)
	lat := make([]int64, 0, total)
	var mu sync.Mutex
	log, _, err := wal.Open(wal.Config{Dir: dir, NodeID: 1, OnDurable: func(frameID uint64, _ int) {
		now := time.Now()
		mu.Lock()
		lat = append(lat, now.Sub(appended[frameID]).Nanoseconds())
		mu.Unlock()
	}})
	if err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	payload := make([]byte, payloadBytes)
	start := time.Now()
	for i := 0; i < total; i += perMs {
		sleepUntil(start.Add(time.Duration(i/perMs) * time.Millisecond))
		for k := 0; k < perMs; k++ {
			d := probeData(i+k, payload)
			d.FrameID = uint64(i + k + 1)
			mu.Lock()
			appended[d.FrameID] = time.Now()
			mu.Unlock()
			log.AppendCustody(&d, 0)
		}
	}
	if err := log.Close(); err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	if len(lat) == 0 {
		return fmt.Errorf("wal probe: no append became durable")
	}
	slices.Sort(lat)
	m["wal.append_durable_p50_us"] = float64(percentile(lat, 0.50)) / 1e3
	m["wal.append_durable_p99_us"] = float64(percentile(lat, 0.99)) / 1e3
	return nil
}
