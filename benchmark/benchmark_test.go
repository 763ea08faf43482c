package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/wire"
)

// The slice median must hold still when one slice swallows a host stall,
// and a packet that never arrived must count as late.
func TestSliceMedianPercentiles(t *testing.T) {
	const perSlice = 1000
	lat := make([]int32, 5*perSlice)
	for s := 0; s < 5; s++ {
		for i := 0; i < perSlice; i++ {
			// Slice s: latencies (i+1) µs scaled by (s+1), so p50 = 500(s+1) µs
			// and p99 = 990(s+1) µs by nearest rank.
			lat[s*perSlice+i] = int32((i + 1) * (s + 1) * 1000)
		}
	}
	st := summarize(lat, perSlice, time.Second)
	if got, want := st.medP50ms, 1.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("median of slice p50s = %v ms, want %v", got, want)
	}
	if got, want := st.medP99ms, 2.97; math.Abs(got-want) > 1e-9 {
		t.Errorf("median of slice p99s = %v ms, want %v", got, want)
	}
	if st.samples != perSlice || len(st.p50ms) != 5 || st.arrived != 5*perSlice || st.onTime != 5*perSlice {
		t.Errorf("counts: %+v", st)
	}

	// A 150 ms stall in one of five alike slices moves that slice's p99 (and
	// would move a whole-window p99), not the median over slices.
	alike := make([]int32, 5*perSlice)
	for i := range alike {
		alike[i] = int32((i%perSlice + 1) * 1000)
	}
	for i := 0; i < 50; i++ {
		alike[2*perSlice+i] = 150e6
	}
	st2 := summarize(alike, perSlice, time.Second)
	if st2.p99ms[2] != 150 {
		t.Errorf("stalled slice p99 = %v ms, want the stall to show", st2.p99ms[2])
	}
	if st2.medP99ms != 0.99 || st2.medP50ms != 0.5 {
		t.Errorf("slice medians moved to p50 %v p99 %v under a single stall", st2.medP50ms, st2.medP99ms)
	}

	// Missing counts as late: 2% of a slice never arrives, so its p99 is the
	// missing marker and on-time drops by exactly those packets.
	missing := append([]int32(nil), lat...)
	for i := 0; i < 20; i++ {
		missing[i] = -1
	}
	st3 := summarize(missing, perSlice, time.Second)
	if st3.p99ms[0] != float64(missingLat)/1e6 {
		t.Errorf("slice with 2%% missing has p99 %v ms, want the missing marker", st3.p99ms[0])
	}
	if st3.arrived != 5*perSlice-20 || st3.onTime != 5*perSlice-20 || st3.attempted != 5*perSlice {
		t.Errorf("missing packets miscounted: %+v", st3)
	}

	// Deadline: only first copies within it are on time.
	if got := summarize(lat, perSlice, 500*time.Microsecond).onTime; got != 500+250+166+125+100 {
		t.Errorf("on-time count under a 500 µs deadline = %d", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []int64{10, 20, 30, 40}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 20}, {0.51, 30}, {0.99, 40}, {0.25, 10}, {0, 10}, {1, 40}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentile([]int64(nil), 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d", got)
	}
}

// Same seed and rate ⇒ identical due times, seqs, topics and payloads.
func TestTickScheduleDeterministic(t *testing.T) {
	a := schedule(40000, 2*time.Second, 1000)
	b := schedule(40000, 2*time.Second, 1000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same arguments gave different schedules")
	}
	if len(a) != 400 {
		t.Fatalf("2 s of 5 ms ticks = %d ticks, want 400", len(a))
	}
	next := uint64(1000)
	for i, tk := range a {
		if tk.due != time.Duration(i)*tickInterval || tk.count != 200 || tk.firstSeq != next {
			t.Fatalf("tick %d = %+v, want due %v count 200 firstSeq %d", i, tk, time.Duration(i)*tickInterval, next)
		}
		next += uint64(tk.count)
	}

	w, _ := findWorkload("edge_fanout")
	t1, t2, t3 := newTraffic(w, 7), newTraffic(w, 7), newTraffic(w, 8)
	seen := make(map[int32]bool)
	differs := false
	var p1, p2 [payloadBytes]byte
	for seq := uint64(0); seq < 64; seq++ {
		if t1.topicIndex(seq) != t2.topicIndex(seq) {
			t.Fatalf("same seed, different topic for seq %d", seq)
		}
		differs = differs || t1.topicIndex(seq) != t3.topicIndex(seq)
		seen[t1.topicIndex(seq)] = true
		t1.fillPayload(p1[:], seq, 12345)
		t2.fillPayload(p2[:], seq, 12345)
		if p1 != p2 {
			t.Fatalf("same seed, different payload for seq %d", seq)
		}
		if !t1.payloadOK(p1[:], seq) || t3.payloadOK(p1[:], seq) || t1.payloadOK(p1[:], seq+1) {
			t.Fatalf("payload echo check wrong for seq %d", seq)
		}
	}
	if len(seen) != w.topics {
		t.Errorf("topic order covers %d of %d topics", len(seen), w.topics)
	}
	if !differs {
		t.Errorf("seeds 7 and 8 gave the same topic order")
	}
}

// deliver feeds the receiver one frame for seq, as the broker would build it.
func deliver(r *receiver, seq uint64, mutate func(*wire.MuxDeliver)) {
	var p [payloadBytes]byte
	r.tr.fillPayload(p[:], seq, int64(time.Since(r.base)))
	t := r.tr.topicIndex(seq)
	m := &wire.MuxDeliver{Topic: topicBase + t, PacketID: seq + 1, Payload: p[:]}
	for i := 0; i < r.tr.subs; i++ {
		m.SubIDs = append(m.SubIDs, uint32(int(t)+i*r.tr.topics))
	}
	if mutate != nil {
		mutate(m)
	}
	r.handle(m)
}

func TestExactlyOnceChecker(t *testing.T) {
	for _, name := range []string{"relay_clean", "edge_fanout"} {
		w, _ := findWorkload(name)
		per := int64(w.subsPerPublish())
		fresh := func() *receiver { return newReceiver(newTraffic(w, 3), time.Now(), 100) }

		t.Run(name+"/reordered", func(t *testing.T) {
			r := fresh()
			for _, seq := range []uint64{5, 0, 9, 3, 1, 2, 8, 4, 7, 6} {
				deliver(r, seq, nil)
			}
			if v := r.check(10); v != (verdict{attempted: 10}) {
				t.Errorf("reordered but complete: %+v", v)
			}
			if r.delivered.Load() != 10 {
				t.Errorf("delivered = %d", r.delivered.Load())
			}
		})
		t.Run(name+"/missing", func(t *testing.T) {
			r := fresh()
			for seq := uint64(0); seq < 10; seq++ {
				if seq != 4 && seq != 7 {
					deliver(r, seq, nil)
				}
			}
			v := r.check(10)
			if v.failed != 2 || v.missing != 2*per || v.dups != 0 {
				t.Errorf("two seqs missing: %+v", v)
			}
		})
		t.Run(name+"/duplicate", func(t *testing.T) {
			r := fresh()
			for seq := uint64(0); seq < 10; seq++ {
				deliver(r, seq, nil)
			}
			deliver(r, 6, nil)
			v := r.check(10)
			if v.failed != 1 || v.dups != per || v.missing != 0 {
				t.Errorf("one seq delivered twice: %+v", v)
			}
			if r.delivered.Load() != 10 {
				t.Errorf("a duplicate counted as a first copy: delivered = %d", r.delivered.Load())
			}
		})
		t.Run(name+"/payload", func(t *testing.T) {
			r := fresh()
			deliver(r, 0, func(m *wire.MuxDeliver) { m.Payload[40] ^= 1 })
			deliver(r, 1, nil)
			if v := r.check(2); v.failed != 1 || v.other != 1 {
				t.Errorf("corrupted payload: %+v", v)
			}
		})
	}

	// A logical subscriber dropped from the list is a missing delivery.
	w, _ := findWorkload("edge_fanout")
	r := newReceiver(newTraffic(w, 3), time.Now(), 10)
	deliver(r, 0, func(m *wire.MuxDeliver) { m.SubIDs = m.SubIDs[:len(m.SubIDs)-1] })
	if v := r.check(1); v.failed != 1 || v.missing != 1 {
		t.Errorf("short subscriber list: %+v", v)
	}

	// Set-up probes are recognised and not accounted.
	r = newReceiver(newTraffic(w, 3), time.Now(), 10)
	for k := uint64(0); k < uint64(w.topics); k++ {
		select {
		case <-r.probed:
			t.Fatalf("probed after %d of %d topics", k, w.topics)
		default:
		}
		deliver(r, probeSeq+k, nil)
	}
	select {
	case <-r.probed:
	default:
		t.Error("every topic echoed a probe, yet set-up is not complete")
	}
	if r.delivered.Load() != 0 || r.frames != 0 {
		t.Error("probes were accounted as traffic")
	}
}

func ev(at int64, kind trace.Kind, node, peer int) traceEvent {
	return traceEvent{at: at, kind: kind, pkt: 64, node: node, peer: peer, first: kind == trace.Send}
}

// Spans cut from a synthetic timeline must sum to the end-to-end latency.
func TestSpanReconciliation(t *testing.T) {
	t.Run("clean two hops", func(t *testing.T) {
		evs := []traceEvent{
			ev(150, trace.Publish, 0, -1),
			ev(160, trace.Send, 0, 1),
			ev(400, trace.Send, 1, 2),
			ev(450, trace.Handoff, 0, 1),
			ev(700, trace.Deliver, 2, 1),
			ev(900, trace.Handoff, 1, 2),
		}
		ps, ok := reconstruct(0, 100, 1000, evs, 0, 2)
		if !ok {
			t.Fatal("chain did not close")
		}
		want := packetSpans{pubWait: 100, ingress: 50, origin: 10, hops: []int64{300, 240}, edgeDeliver: 300, custody: []int64{290, 500}, e2e: 1000}
		if !reflect.DeepEqual(ps, want) {
			t.Errorf("spans = %+v\nwant    %+v", ps, want)
		}
		if ps.sum() != ps.e2e || ps.gapRatio() != 0 {
			t.Errorf("Σ spans = %d, e2e = %d", ps.sum(), ps.e2e)
		}
	})

	t.Run("timeout then failover", func(t *testing.T) {
		// 0 sends to 1 twice (both lost), fails over to 3, 3 delivers to 2.
		retry := ev(20160, trace.Send, 0, 1)
		retry.first = false
		evs := []traceEvent{
			ev(150, trace.Publish, 0, -1),
			ev(160, trace.Send, 0, 1),
			ev(20160, trace.Timeout, 0, 1),
			retry,
			ev(40160, trace.Timeout, 0, 1),
			ev(40161, trace.Failover, 0, 1),
			ev(40170, trace.Send, 0, 3),
			ev(40400, trace.Send, 3, 2),
			ev(40700, trace.Deliver, 2, 3),
		}
		ps, ok := reconstruct(0, 100, 41000, evs, 0, 2)
		if !ok {
			t.Fatal("chain did not close")
		}
		if ps.timeouts != 2 || ps.origin != 10 || ps.recovery != 40010 {
			t.Errorf("timeouts %d origin %d recovery %d, want 2, 10, 40010", ps.timeouts, ps.origin, ps.recovery)
		}
		if !reflect.DeepEqual(ps.hops, []int64{300, 230}) {
			t.Errorf("hops = %v: the chain must follow the copy that was delivered (via 3)", ps.hops)
		}
		if ps.sum() != ps.e2e {
			t.Errorf("Σ spans = %d, e2e = %d", ps.sum(), ps.e2e)
		}
	})

	t.Run("same broker", func(t *testing.T) {
		ps, ok := reconstruct(0, 60, 500, []traceEvent{ev(200, trace.Publish, 0, -1)}, 0, 0)
		if !ok || ps.pubWait != 60 || ps.ingress != 140 || ps.edgeDeliver != 300 || len(ps.hops) != 0 || ps.sum() != 500 {
			t.Errorf("spans = %+v ok=%v", ps, ok)
		}
	})

	t.Run("boundary out of order shows as a gap", func(t *testing.T) {
		// The engine saw the publish before the burst's write returned: the
		// ingress span clamps to zero and the sum overshoots by the overlap.
		ps, ok := reconstruct(0, 300, 1000, []traceEvent{ev(200, trace.Publish, 0, -1)}, 0, 0)
		if !ok || ps.ingress != 0 {
			t.Fatalf("spans = %+v ok=%v", ps, ok)
		}
		if got, want := ps.gapRatio(), 0.1; math.Abs(got-want) > 1e-9 {
			t.Errorf("gap ratio = %v, want %v", got, want)
		}
	})

	t.Run("open chain", func(t *testing.T) {
		if _, ok := reconstruct(0, 100, 1000, []traceEvent{ev(150, trace.Publish, 0, -1), ev(160, trace.Send, 0, 1)}, 0, 2); ok {
			t.Error("a chain with no delivery closed")
		}
		if _, ok := reconstruct(0, 100, 1000, []traceEvent{ev(700, trace.Deliver, 2, 1)}, 0, 2); ok {
			t.Error("a chain with no publish closed")
		}
	})
}

func TestRecorderSamplesAndCounts(t *testing.T) {
	r := &recorder{base: time.Now()}
	r.Record(trace.Event{Kind: trace.Send, Packet: 64, Note: "attempt 1"}) // off: ignored
	r.on.Store(true)
	for pkt := uint64(0); pkt < 2*traceSample; pkt++ {
		r.Record(trace.Event{Kind: trace.Send, Packet: pkt, Node: 0, Peer: 1, Note: "attempt 1"})
		r.Record(trace.Event{Kind: trace.Send, Packet: pkt, Node: 0, Peer: 1, Note: "attempt 2"})
		r.Record(trace.Event{Kind: trace.Send, Packet: pkt, Node: 1, Peer: 0, Note: "attempt 1 (upstream)"})
		r.Record(trace.Event{Kind: trace.Timeout, Packet: pkt})
	}
	if got := r.counts[trace.Send].Load(); got != 6*traceSample {
		t.Errorf("SEND count = %d", got)
	}
	if got := r.firstSends.Load(); got != 4*traceSample {
		t.Errorf("first-transmission count = %d, want %d", got, 4*traceSample)
	}
	if got := r.counts[trace.Timeout].Load(); got != 2*traceSample {
		t.Errorf("TIMEOUT count = %d", got)
	}
	by := r.byPacket()
	if len(by) != 2 || len(by[0]) != 4 || len(by[traceSample]) != 4 {
		t.Errorf("kept packets %d, want packets 0 and %d with 4 events each", len(by), traceSample)
	}
}

func TestWindowValid(t *testing.T) {
	quiet := make([]float64, 20)
	for i := range quiet {
		quiet[i] = 0.2
	}
	flat := make([]int64, 20)
	if ok, why := windowValid(quiet, flat, 40000); !ok {
		t.Errorf("quiet window rejected: %s", why)
	}
	// Six stalled slices of twenty are within a third; seven are not.
	stalled := append([]float64(nil), quiet...)
	for i := 0; i < 6; i++ {
		stalled[i] = 25
	}
	if ok, _ := windowValid(stalled, flat, 40000); !ok {
		t.Error("six stalled slices of twenty rejected")
	}
	stalled[6] = 25
	if ok, _ := windowValid(stalled, flat, 40000); ok {
		t.Error("seven stalled slices of twenty accepted")
	}
	// A backlog growing over the last five slices to more than 50 ms of
	// traffic means the rate is unsustainable; a large but level one, or a
	// growing but tiny one, does not.
	growing := append([]int64(nil), flat...)
	for i := 14; i < 20; i++ {
		growing[i] = int64(i-13) * 1000
	}
	if ok, _ := windowValid(quiet, growing, 40000); ok {
		t.Error("growing backlog accepted")
	}
	tiny := append([]int64(nil), flat...)
	for i := 14; i < 20; i++ {
		tiny[i] = int64(i - 13)
	}
	if ok, _ := windowValid(quiet, tiny, 40000); !ok {
		t.Error("a backlog of a few packets rejected")
	}
	level := append([]int64(nil), flat...)
	for i := range level {
		level[i] = 5000
	}
	if ok, _ := windowValid(quiet, level, 40000); !ok {
		t.Error("a level backlog rejected")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, med, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("quartiles of three = %v %v %v", q1, med, q3)
	}
	if q1, med, q3 := quartiles([]float64{3}); q1 != 3 || med != 3 || q3 != 3 {
		t.Errorf("quartiles of one = %v %v %v", q1, med, q3)
	}
}

func TestBoundComparator(t *testing.T) {
	lower := metricSpec{name: "latency_p50_ms", better: "lower", bound: 0.10}
	higher := metricSpec{name: "capacity_pps", better: "higher", bound: 0.10}
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c * 1.005, c * 0.995} }
	cases := []struct {
		name string
		spec metricSpec
		a, b []float64
		want string
	}{
		{"within bound", lower, tight(1.0), tight(1.05), same},
		{"worse beyond bound", lower, tight(1.0), tight(1.2), worse},
		{"better beyond bound", lower, tight(1.0), tight(0.8), better},
		{"higher is better: drop is worse", higher, tight(100), tight(80), worse},
		{"higher is better: rise is better", higher, tight(100), tight(125), better},
		{"higher is better: small drop is same", higher, tight(100), tight(95), same},
		{"spread wider than bound", lower, []float64{0.5, 1.0, 1.5, 0.7, 1.3}, tight(1.05), unresolved},
		{"wide spread but every run better", lower, []float64{0.5, 1.0, 1.5, 0.7, 1.3}, tight(0.3), better},
		{"wide spread, higher better, every run better", higher, []float64{50, 100, 150, 70, 130}, tight(200), better},
		{"no runs on one side", lower, tight(1.0), nil, unresolved},
		{"single runs", lower, []float64{1.0}, []float64{1.3}, worse},
		{"zero baseline, zero change", lower, []float64{0, 0}, []float64{0, 0}, same},
		{"zero baseline, any change", lower, []float64{0, 0}, []float64{1, 1}, unresolved},
	}
	for _, c := range cases {
		if got := judge(c.spec, c.a, c.b); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50s []float64, valid bool) string {
		path := dir + "/" + name
		for i, v := range p50s {
			rec := record{Workload: "relay_clean", Seed: uint64(i), Valid: valid, Correct: true,
				Metrics: map[string]float64{"latency_p50_ms": v, "capacity_pps": 150000}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a := write("a.jsonl", []float64{1.50, 1.52, 1.49, 1.51}, true)
	b := write("b.jsonl", []float64{1.90, 1.92, 1.89, 1.91}, true)
	var sb strings.Builder
	anyWorse, err := compareFiles(a, b, &sb)
	if err != nil || !anyWorse {
		t.Fatalf("a 27%% slower median not reported worse: err=%v\n%s", err, sb.String())
	}
	anyWorse, err = compareFiles(a, a, &sb)
	if err != nil || anyWorse {
		t.Fatalf("a file against itself reported worse: err=%v", err)
	}
	// Runs the validity guards rejected are left out.
	inv := write("inv.jsonl", []float64{9, 9, 9, 9}, false)
	if anyWorse, _ = compareFiles(a, inv, &sb); anyWorse {
		t.Error("invalid runs were compared")
	}
}

// BENCHMARK.json is what the driver reads; the tables in metrics.go and
// workload.go are what the program reports. They must say the same.
func TestBenchmarkJSONMatchesTable(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jm `json:"end_to_end"`
		PerLayer   []jm `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", bj.Paths)
	}
	if bj.RunSeconds != 20 {
		t.Errorf("run_seconds = %d: the fixed-rate window must keep 20 slices", bj.RunSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, bj.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
		if w.rate%ticksPerSec != 0 || w.subs%w.topics != 0 {
			t.Errorf("workload %s: rate must divide into ticks and subscribers into topics", w.name)
		}
	}
	check := func(kind string, got []jm, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, s := range want {
			g := got[i]
			if g.Name != s.name || g.Unit != s.unit || g.Better != s.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", kind, i, g, s)
			}
			if bounded && (g.Bound == nil || *g.Bound != s.bound || s.bound <= 0 || s.bound > 0.25) {
				t.Errorf("%s %s: bound mismatch or outside (0, 0.25]", kind, s.name)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, s.name)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
}
