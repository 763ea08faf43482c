// Benchmarks that regenerate every figure of the paper's evaluation
// (Fig. 2–8) at laptop scale, plus micro-benchmarks for the hot paths of
// each routing approach. Each figure benchmark reports, alongside the usual
// ns/op, the headline metric of that figure as custom benchmark units so a
// `go test -bench=Figure` run doubles as a reproduction report.
//
// Scale note: benchmark iterations use short simulated durations and one
// topology per cell (the paper uses 2 h x 10); `cmd/dcrdsim -figure N -full`
// runs the full-scale version. The qualitative shapes are identical.
package repro

import (
	"math/rand/v2"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/pubsub"
	"repro/internal/topology"
)

// benchOptions is the laptop-scale setting used by every figure benchmark.
func benchOptions() experiment.FigureOptions {
	return experiment.FigureOptions{Duration: "10s", Topologies: 1, Seed: 1}
}

// reportSeries attaches a figure's series endpoints as custom metrics:
// "<label>_last" is the series value at the largest x (the most stressed
// operating point of the sweep).
func reportSeries(b *testing.B, tables []experiment.FigureTable) {
	b.Helper()
	if len(tables) == 0 {
		return
	}
	// Report the first panel (delivery or QoS ratio), last x.
	t := tables[0]
	for _, s := range t.Series {
		if len(s.Values) == 0 {
			continue
		}
		b.ReportMetric(s.Values[len(s.Values)-1], sanitizeUnit(s.Label))
	}
}

// sanitizeUnit turns a series label into a benchmark unit string.
func sanitizeUnit(label string) string {
	out := make([]rune, 0, len(label)+5)
	for _, r := range label {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out) + "_last"
}

func benchFigure(b *testing.B, fn func(experiment.FigureOptions) ([]experiment.FigureTable, error)) {
	b.Helper()
	var tables []experiment.FigureTable
	var err error
	for i := 0; i < b.N; i++ {
		tables, err = fn(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, tables)
}

// BenchmarkFigure2 regenerates Fig. 2: delivery ratio, QoS delivery ratio
// and packets/subscriber vs failure probability on a 20-node full mesh.
func BenchmarkFigure2(b *testing.B) { benchFigure(b, experiment.Figure2) }

// BenchmarkFigure3 regenerates Fig. 3: the same three metrics on a degree-5
// overlay.
func BenchmarkFigure3(b *testing.B) { benchFigure(b, experiment.Figure3) }

// BenchmarkFigure4 regenerates Fig. 4: the three metrics vs node degree
// 3–10 at Pf = 0.06.
func BenchmarkFigure4(b *testing.B) { benchFigure(b, experiment.Figure4) }

// BenchmarkFigure5 regenerates Fig. 5: the three metrics vs network size
// {10,20,40,80,120,160} at degree 8, Pf = 0.06.
func BenchmarkFigure5(b *testing.B) { benchFigure(b, experiment.Figure5) }

// BenchmarkFigure6 regenerates Fig. 6: QoS delivery ratio vs deadline
// multiplication factor at degree 8, Pf = 0.06.
func BenchmarkFigure6(b *testing.B) { benchFigure(b, experiment.Figure6) }

// BenchmarkFigure7 regenerates Fig. 7: the CDF of delay/deadline among
// DCRD's deadline-missing packets (full mesh and degree 8).
func BenchmarkFigure7(b *testing.B) { benchFigure(b, experiment.Figure7) }

// BenchmarkFigure8 regenerates Fig. 8: QoS delivery ratio vs packet loss
// rate for m = 1, 2 at degree 8, Pf = 0.01.
func BenchmarkFigure8(b *testing.B) { benchFigure(b, experiment.Figure8) }

// benchApproach measures end-to-end simulator throughput for one approach
// on the paper's default 20-node mesh at Pf = 0.06.
func benchApproach(b *testing.B, a experiment.Approach) {
	b.Helper()
	s := experiment.DefaultScenario()
	s.Pf = 0.06
	s.Duration = 10 * time.Second
	s.Drain = 5 * time.Second
	s.Topologies = 1
	b.ReportAllocs()
	b.ResetTimer()
	var onTime float64
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunOne(s, a, i)
		if err != nil {
			b.Fatal(err)
		}
		onTime = res.QoSDeliveryRatio()
	}
	b.ReportMetric(onTime, "qos_ratio")
}

// BenchmarkAblationOrdering runs the Theorem-1 ordering ablation: DCRD's
// QoS ratio under d/r, delay-only, reliability-only and arbitrary
// sending-list orders.
func BenchmarkAblationOrdering(b *testing.B) { benchFigure(b, experiment.AblationOrdering) }

// BenchmarkExtensionNodeFailures runs the node-failure extension (the
// paper's §V future work): all five approaches under per-epoch broker
// outages.
func BenchmarkExtensionNodeFailures(b *testing.B) { benchFigure(b, experiment.ExtensionNodeFailures) }

// BenchmarkExtensionPersistency runs the §III persistency-mode ablation on
// a sparse overlay under heavy failures.
func BenchmarkExtensionPersistency(b *testing.B) { benchFigure(b, experiment.ExtensionPersistency) }

// BenchmarkExtensionCongestion runs the congestion extension: the five
// approaches under swept per-link bandwidth with a bounded transmit queue.
func BenchmarkExtensionCongestion(b *testing.B) { benchFigure(b, experiment.ExtensionCongestion) }

// BenchmarkExtensionMonitoring runs the monitoring-quality extension:
// DCRD under sample-based link estimates of decreasing fidelity.
func BenchmarkExtensionMonitoring(b *testing.B) { benchFigure(b, experiment.ExtensionMonitoring) }

// BenchmarkExtensionBursts runs the correlated-outage extension: fixed
// stationary Pf with Gilbert–Elliott bursts of increasing mean length.
func BenchmarkExtensionBursts(b *testing.B) { benchFigure(b, experiment.ExtensionBursts) }

// newRebuildBench wires a DCRD router over an n-node degree-8 overlay with
// 10 topics and measurement-based monitoring at the paper's scale: 5-minute
// windows (§IV) probed at 1 Hz, i.e. 300 samples per link per window.
func newRebuildBench(b *testing.B, n int) (*des.Simulator, *core.Router) {
	b.Helper()
	rng := rand.New(rand.NewPCG(uint64(n), 0xbe9c))
	g, err := topology.RandomRegular(n, 8, topology.DefaultDelayRange(), rng)
	if err != nil {
		b.Fatal(err)
	}
	w, err := pubsub.Generate(g, pubsub.Config{
		Topics:          10,
		PublishInterval: time.Second,
		SubProbMin:      0.2,
		SubProbMax:      0.6,
		DeadlineFactor:  3,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	sim := des.New(uint64(n))
	net, err := netsim.New(sim, g, netsim.Config{
		LossRate:        0.001,
		FailureProb:     0.06,
		FailureEpoch:    time.Second,
		MonitorInterval: 5 * time.Minute,
		MonitorSamples:  300,
	}, uint64(n)^0xfa17)
	if err != nil {
		b.Fatal(err)
	}
	r, err := core.NewRouter(net, w, metrics.NewCollector(), core.RouterOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return sim, r
}

// BenchmarkRebuild measures one monitoring-epoch route-table refresh per
// iteration (the simulated clock advances one window each time, so every
// iteration faces fresh sampled estimates and every pair rebuilds): cold is
// the per-pair-snapshot oracle, driver the path simulations take (one
// snapshot shared by all pairs).
func BenchmarkRebuild(b *testing.B) {
	for _, n := range []int{20, 160} {
		for _, mode := range []struct {
			name    string
			rebuild func(*core.Router)
		}{
			{"cold", (*core.Router).RebuildCold},
			{"driver", (*core.Router).Rebuild},
		} {
			b.Run(benchName(mode.name, n), func(b *testing.B) {
				sim, r := newRebuildBench(b, n)
				at := 5 * time.Minute
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					sim.RunUntil(at)
					at += 5 * time.Minute
					b.StartTimer()
					mode.rebuild(r)
				}
			})
		}
	}
}

// benchName labels a BenchmarkRebuild variant.
func benchName(mode string, n int) string {
	return mode + "/n=" + strconv.Itoa(n)
}

func BenchmarkApproachDCRD(b *testing.B)      { benchApproach(b, experiment.DCRD) }
func BenchmarkApproachRTree(b *testing.B)     { benchApproach(b, experiment.RTree) }
func BenchmarkApproachDTree(b *testing.B)     { benchApproach(b, experiment.DTree) }
func BenchmarkApproachOracle(b *testing.B)    { benchApproach(b, experiment.Oracle) }
func BenchmarkApproachMultipath(b *testing.B) { benchApproach(b, experiment.Multipath) }
