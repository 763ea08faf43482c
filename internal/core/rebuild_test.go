package core

import (
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/algo1"
	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/pubsub"
	"repro/internal/topology"
)

// newRebuildEnv wires a full multi-topic DCRD deployment over a random
// 16-node overlay with measurement-based monitoring. Construction is a pure
// function of the seed, so two calls with equal seeds yield identical
// networks, workloads and routers — the basis for the driver-vs-cold
// cross-checks below.
func newRebuildEnv(t *testing.T, seed uint64, samples int, opts RouterOptions) (*des.Simulator, *netsim.Network, *Router) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	g, err := topology.RandomRegular(16, 4, topology.DefaultDelayRange(), rng)
	if err != nil {
		t.Fatal(err)
	}
	w, err := pubsub.Generate(g, pubsub.Config{
		Topics:          5,
		PublishInterval: time.Second,
		SubProbMin:      0.2,
		SubProbMax:      0.5,
		DeadlineFactor:  3,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	sim := des.New(seed)
	net, err := netsim.New(sim, g, netsim.Config{
		LossRate:        0.01,
		FailureProb:     0.1,
		FailureEpoch:    time.Second,
		MonitorInterval: time.Minute,
		MonitorSamples:  samples,
	}, seed^0xfa17)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(net, w, metrics.NewCollector(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return sim, net, r
}

// snapshotTables records the router's current table pointers.
func snapshotTables(r *Router) map[algo1.PairKey]*algo1.Table {
	out := make(map[algo1.PairKey]*algo1.Table)
	r.drv.Pairs(func(key algo1.PairKey, t *algo1.Table) { out[key] = t })
	return out
}

// TestRebuildUnchangedEstimatesIsNoOp pins the fast path: while the
// monitoring estimates have not changed, Rebuild must reuse every prior
// table object (pointer identity, not just equal contents).
func TestRebuildUnchangedEstimatesIsNoOp(t *testing.T) {
	sim, _, r := newRebuildEnv(t, 7, 20, RouterOptions{})
	before := snapshotTables(r)

	// Same monitoring window: the estimate version is unchanged.
	sim.RunUntil(30 * time.Second)
	r.Rebuild()
	after := snapshotTables(r)
	for key, tab := range before {
		if after[key] != tab {
			t.Fatalf("pair %+v: table replaced within one monitoring window", key)
		}
	}
}

// TestRebuildExactEstimatesIsNoOp covers the MonitorSamples = 0 regime:
// estimates are exact and time-invariant, so every post-construction
// Rebuild — at any simulated time — must be a no-op.
func TestRebuildExactEstimatesIsNoOp(t *testing.T) {
	sim, _, r := newRebuildEnv(t, 11, 0, RouterOptions{})
	before := snapshotTables(r)
	for _, at := range []time.Duration{time.Minute, time.Hour} {
		sim.RunUntil(at)
		r.Rebuild()
		after := snapshotTables(r)
		for key, tab := range before {
			if after[key] != tab {
				t.Fatalf("pair %+v: table replaced under exact estimates", key)
			}
		}
	}
}

// TestRebuildMatchesColdAcrossWindows is the end-to-end cross-check: a
// router rebuilding through the driver (one shared snapshot per window)
// stepped through many monitoring windows must hold exactly the tables the
// per-pair-snapshot oracle produces at every window.
func TestRebuildMatchesColdAcrossWindows(t *testing.T) {
	const seed, samples = 3, 10 // few samples => noisy, frequently-changing estimates
	simInc, _, inc := newRebuildEnv(t, seed, samples, RouterOptions{})
	simCold, _, cold := newRebuildEnv(t, seed, samples, RouterOptions{})

	for w := 1; w <= 12; w++ {
		at := time.Duration(w) * time.Minute
		simInc.RunUntil(at)
		simCold.RunUntil(at)
		inc.Rebuild()
		cold.RebuildCold()
		cold.drv.Pairs(func(key algo1.PairKey, want *algo1.Table) {
			if got := inc.drv.Table(key); !got.Equal(want) {
				t.Fatalf("window %d pair %+v: driver table diverged from cold rebuild", w, key)
			}
		})
	}
}
