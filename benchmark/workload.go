package main

import (
	"fmt"
	"time"

	"repro/internal/chaos"
)

// The generator ticks every 5 ms; every publish of a tick is due at the tick
// instant and is timed from it, so a stalled generator shows as latency
// instead of hiding (an open loop timed from when the request was due).
const (
	tickInterval = 5 * time.Millisecond
	ticksPerSec  = int(time.Second / tickInterval)
	payloadBytes = 64
	// window is the closed loop's outstanding-publish budget in the capacity
	// phase, and refill the smallest burst it writes (one frame per write
	// would measure the generator's syscalls, not the overlay).
	window = 256
	refill = 32
	// chaosEpoch is the partition epoch of relay_faulty. Its open-loop
	// windows start on a fixed epoch index, so one seed replays one
	// partition bit string against the same traffic; the index leaves room
	// for set-up and warm-up.
	chaosEpoch       = 200 * time.Millisecond
	windowStartEpoch = 10
	// traceSample keeps one packet in 64 of the traced run.
	traceSample = 64
)

// workload is one traffic mix. Each stresses a different layer; the why
// string is printed and recorded in BENCHMARK.json.
type workload struct {
	name string
	why  string
	// brokers is the overlay size: 6 is the dcrd-chaos chord ring (links
	// i—i+1 mod 6 and i—i+3), 1 is a lone edge broker.
	brokers int
	// subAt is the broker the subscriber session attaches to; the publisher
	// always attaches to broker 0.
	subAt int
	// topics and subs: subs logical subscribers striped over topics, all in
	// one session, so every publish reaches subs/topics of them.
	topics int
	subs   int
	// rate is the fixed-rate phase's offered load in publishes per second.
	rate     int
	deadline time.Duration
	// durable gives every broker a DataDir (ACK after fsync).
	durable bool
	// faults, when non-nil, puts every broker listener behind internal/chaos.
	faults *chaos.Faults
}

func (w *workload) subsPerPublish() int { return w.subs / w.topics }
func (w *workload) perTick() int        { return w.rate / ticksPerSec }

// plannedLoss is the share of chaos-seen frames the fault plan drops when
// frames are spread evenly over epochs: a frame survives only if its link is
// up this epoch and it is not individually dropped.
func (w *workload) plannedLoss() float64 {
	if w.faults == nil {
		return 0
	}
	return 1 - (1-w.faults.PartitionProb)*(1-w.faults.DropProb)
}

var workloads = []*workload{
	{
		name:    "relay_clean",
		why:     "2-hop relay at 40k pps, no faults, memory custody: per-packet cost of wire, conn writers, shard mailboxes and the algo2 fast path",
		brokers: 6, subAt: 2, topics: 1, subs: 1,
		rate: 40000, deadline: 10 * time.Millisecond,
	},
	{
		name:    "relay_faulty",
		why:     "the paper's experiment: same overlay behind chaos (Pf 0.1 per 200ms epoch, Pl 0.05) at 2k pps; timeouts, failover and re-sorting decide it, codec speed does not",
		brokers: 6, subAt: 2, topics: 1, subs: 1,
		rate: 2000, deadline: 30 * time.Millisecond,
		// Delay stays 0: the chaos pump sleeps per frame in series, so 1 ms
		// caps a link below 1,000 frames/s and the overlay collapses.
		faults: &chaos.Faults{PartitionProb: 0.1, DropProb: 0.05},
	},
	{
		name:    "relay_durable",
		why:     "relay_clean with a WAL per broker at 10k pps: ACK-after-fsync, so wal group commit dominates and is absent everywhere else",
		brokers: 6, subAt: 2, topics: 1, subs: 1,
		rate: 10000, deadline: 20 * time.Millisecond,
		durable: true,
	},
	{
		name:    "edge_fanout",
		why:     "one broker, 4096 logical subscribers in one session (256 per publish) at 40k pps: edge ledger and MuxDeliver codec, no relay link, so relay gains must read no change",
		brokers: 1, subAt: 0, topics: 16, subs: 4096,
		rate: 40000, deadline: 10 * time.Millisecond,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// plan is the phase lengths of one run.
type plan struct {
	setups   int           // cold set-ups; setup_s is their median
	warmup   time.Duration // fixed-rate traffic, discarded
	capacity time.Duration // closed loop
	fixed    time.Duration // open loop, one-second slices
	drain    time.Duration // longest wait for stragglers
	// The traced pass: an untraced reference window (for the overhead
	// ratio) a quarter as long as the fixed-rate window, then the traced
	// window, half as long, on a fresh overlay.
	traceRef time.Duration
	traced   time.Duration
}

// newPlan sizes the phases around a fixed-rate window of the given length.
// ISSUE 12 asked for a 2 s warm-up, an 8 s capacity phase and a 30 s window;
// 92 driver runs must fit 3420 s, so the window is 20 slices and the
// warm-up and capacity phases are halved.
func newPlan(seconds int, quick bool) plan {
	p := plan{
		setups:   5,
		warmup:   time.Second,
		capacity: 4 * time.Second,
		fixed:    time.Duration(seconds) * time.Second,
		drain:    2 * time.Second,
	}
	p.traced = max(p.fixed/2, time.Second)
	p.traceRef = max(p.fixed/4, time.Second)
	if quick {
		p.setups = 2
		p.warmup /= 10
		p.capacity /= 10
		p.fixed = max(p.fixed/10, time.Second)
		p.traced = time.Second
		p.traceRef = time.Second
	}
	return p
}
