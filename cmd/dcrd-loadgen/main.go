// Command dcrd-loadgen drives a massive-subscriber edge load against a live
// DCRD broker: N simulated subscribers (default 100k) spread over M
// multiplexed sessions, an open-loop publisher, and publish→deliver latency
// percentiles from log-bucketed histograms.
//
//	dcrd-loadgen -broker localhost:7000 -subscribers 100000 -sessions 100 -rate 1000 -duration 10s
//	dcrd-loadgen -spawn -subscribers 1000 -sessions 8 -duration 2s -rate 200 -strict
//
// The summary line on stdout is testing.B-compatible and feeds benchjson:
//
//	BenchmarkEdgeLoadgen/subs=100000/sessions=100 1 812345 ns/op 1593201.0 deliveries/sec 0.61 p50_ms ...
//
// Open-loop means the publisher paces itself by wall clock alone: a broker
// that falls behind accumulates latency instead of silently slowing the
// generator down (closed-loop coordinated omission would hide exactly the
// tail this tool exists to measure).
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"time"

	"repro/internal/broker"
	"repro/internal/wire"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dcrd-loadgen: ")
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// lat histograms are log-bucketed: bucket i covers latencies around
// latBase^i nanoseconds, so every bucket is ~5% wide — enough resolution
// for percentile reporting without per-sample storage.
const (
	latBase    = 1.05
	latBuckets = 700 // latBase^700 ns ≈ 2 years; effectively unbounded
)

// hist is one goroutine's latency histogram (no locking; merge at the end).
type hist struct {
	buckets [latBuckets]uint64
	count   uint64
}

func (h *hist) add(d time.Duration, weight uint64) {
	ns := float64(d.Nanoseconds())
	if ns < 1 {
		ns = 1
	}
	i := int(math.Log(ns) / math.Log(latBase))
	if i < 0 {
		i = 0
	}
	if i >= latBuckets {
		i = latBuckets - 1
	}
	h.buckets[i] += weight
	h.count += weight
}

func (h *hist) merge(o *hist) {
	for i := range o.buckets {
		h.buckets[i] += o.buckets[i]
	}
	h.count += o.count
}

// quantile returns the latency at fraction q (0..1): the geometric midpoint
// of the bucket holding the q-th sample.
func (h *hist) quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	target := uint64(q * float64(h.count))
	if target >= h.count {
		target = h.count - 1
	}
	var seen uint64
	for i, n := range h.buckets {
		seen += n
		if seen > target {
			return time.Duration(math.Pow(latBase, float64(i)+0.5))
		}
	}
	return time.Duration(math.Pow(latBase, latBuckets))
}

// sessionStats is one session's delivery accounting, written only by that
// session's read goroutine while the run is live.
type sessionStats struct {
	hist      hist
	delivered uint64
	frames    uint64
	_         [64]byte // pad out false sharing between sessions
}

func run(args []string) error {
	fs := flag.NewFlagSet("dcrd-loadgen", flag.ContinueOnError)
	var (
		addr        = fs.String("broker", "localhost:7000", "broker address")
		spawn       = fs.Bool("spawn", false, "run an in-process broker instead of dialing one (self-contained smoke runs)")
		subscribers = fs.Int("subscribers", 100000, "simulated logical subscribers")
		sessions    = fs.Int("sessions", 100, "multiplexed sessions to spread subscribers over")
		topics      = fs.Int("topics", 16, "distinct topics, striped across every session")
		rate        = fs.Int("rate", 1000, "publishes per second (open loop)")
		duration    = fs.Duration("duration", 10*time.Second, "publishing window")
		payload     = fs.Int("payload", 128, "payload bytes per publish")
		deadline    = fs.Duration("deadline", time.Second, "QoS delay requirement for subscriptions and publishes")
		drain       = fs.Duration("drain", time.Second, "post-run wait for in-flight deliveries")
		strict      = fs.Bool("strict", false, "exit non-zero unless >=99% of expected deliveries arrived")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *subscribers < 1 || *sessions < 1 || *topics < 1 || *rate < 1 {
		return fmt.Errorf("subscribers, sessions, topics and rate must all be >= 1")
	}
	if *sessions > *subscribers {
		*sessions = *subscribers
	}

	if *spawn {
		b, err := broker.New(broker.Config{ID: 0, Listen: "127.0.0.1:0"})
		if err != nil {
			return err
		}
		if err := b.Start(); err != nil {
			return err
		}
		defer b.Close()
		*addr = b.Addr()
		log.Printf("spawned in-process broker at %s", *addr)
	}

	// Register N logical subscribers over M sessions: subscriber i lands in
	// session i%M with the session-local ID i/M (dense IDs keep the
	// broker's per-session bitsets small) on topic (i/M)%T — striping by
	// the session-local index, not i, so every session holds subscribers on
	// every topic and each publish genuinely fans out across all sessions.
	stats := make([]*sessionStats, *sessions)
	ss := make([]*broker.Session, *sessions)
	start := time.Now()
	for s := 0; s < *sessions; s++ {
		st := &sessionStats{}
		stats[s] = st
		sess, err := broker.DialSession(*addr, fmt.Sprintf("loadgen-%d", s),
			uint32(*subscribers / *sessions + 1), func(m *wire.MuxDeliver) {
				n := uint64(len(m.SubIDs))
				st.hist.add(time.Since(m.PublishedAt), n)
				st.delivered += n
				st.frames++
			})
		if err != nil {
			return fmt.Errorf("session %d: %w", s, err)
		}
		defer sess.Close()
		ss[s] = sess
	}
	subsPerTopic := make([]uint64, *topics)
	for i := 0; i < *subscribers; i++ {
		topic := (i / *sessions) % *topics
		subsPerTopic[topic]++
		if err := ss[i%*sessions].Subscribe(uint32(i / *sessions), int32(topic), *deadline); err != nil {
			return fmt.Errorf("subscribe %d: %w", i, err)
		}
	}
	for _, sess := range ss {
		if err := sess.Flush(); err != nil {
			return err
		}
	}

	// Wait until the broker's subscription gauge covers the registration
	// (works against remote brokers too), then give the snapshot flusher a
	// beat to publish the final ledger.
	mon, err := broker.Dial(*addr, "loadgen-mon")
	if err != nil {
		return err
	}
	defer mon.Close()
	regDeadline := time.Now().Add(60 * time.Second)
	for {
		reply, err := mon.Stats(5 * time.Second)
		if err != nil {
			return err
		}
		if reply.Subscriptions >= uint64(*subscribers) {
			break
		}
		if time.Now().After(regDeadline) {
			return fmt.Errorf("only %d/%d subscriptions registered after 60s", reply.Subscriptions, *subscribers)
		}
		time.Sleep(50 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)
	log.Printf("registered %d subscribers over %d sessions in %v",
		*subscribers, *sessions, time.Since(start).Round(time.Millisecond))

	// Open-loop publishing: every tick, catch up to rate*elapsed publishes
	// regardless of how the broker is doing.
	pub, err := broker.Dial(*addr, "loadgen-pub")
	if err != nil {
		return err
	}
	defer pub.Close()
	body := make([]byte, *payload)
	var published uint64
	var expected uint64 // logical deliveries the publishes so far imply
	pubStart := time.Now()
	ticker := time.NewTicker(5 * time.Millisecond)
	defer ticker.Stop()
	var sendErrs uint64
	for now := range ticker.C {
		elapsed := now.Sub(pubStart)
		if elapsed > *duration {
			break
		}
		due := uint64(elapsed.Seconds() * float64(*rate))
		for ; published < due; published++ {
			topic := int32(published % uint64(*topics))
			if err := pub.Publish(topic, *deadline, body); err != nil {
				sendErrs++
				if sendErrs > 100 {
					return fmt.Errorf("publish: %w", err)
				}
				continue
			}
			expected += subsPerTopic[topic]
		}
	}
	pubElapsed := time.Since(pubStart)
	time.Sleep(*drain)

	// Close the sessions before reading their stats: each read goroutine
	// ends, so the per-session histograms are quiescent.
	for _, sess := range ss {
		_ = sess.Close()
	}
	var merged hist
	var delivered, frames uint64
	for _, st := range stats {
		merged.merge(&st.hist)
		delivered += st.delivered
		frames += st.frames
	}

	ratio := 1.0
	if expected > 0 {
		ratio = float64(delivered) / float64(expected)
	}
	dps := float64(delivered) / pubElapsed.Seconds()
	ms := func(q float64) float64 { return float64(merged.quantile(q)) / 1e6 }
	log.Printf("published %d packets in %v (%d send errors); %d logical deliveries over %d frames (%.2f subscribers/frame), ratio %.4f",
		published, pubElapsed.Round(time.Millisecond), sendErrs, delivered, frames,
		float64(delivered)/math.Max(float64(frames), 1), ratio)

	// The testing.B-compatible summary, ingestible by cmd/benchjson. ns/op
	// is the MEAN publish→deliver latency (approximated from the histogram
	// midpoints), the percentiles carry the tail.
	var meanNs float64
	if merged.count > 0 {
		var sum float64
		for i, n := range merged.buckets {
			sum += float64(n) * math.Pow(latBase, float64(i)+0.5)
		}
		meanNs = sum / float64(merged.count)
	}
	fmt.Printf("BenchmarkEdgeLoadgen/subs=%d/sessions=%d 1 %.0f ns/op %.1f deliveries/sec %.3f p50_ms %.3f p90_ms %.3f p99_ms %.3f p999_ms %.4f delivered_ratio\n",
		*subscribers, *sessions, meanNs, dps, ms(0.50), ms(0.90), ms(0.99), ms(0.999), ratio)

	if *strict {
		if delivered == 0 {
			return fmt.Errorf("strict: no deliveries arrived")
		}
		if ratio < 0.99 {
			return fmt.Errorf("strict: delivered ratio %.4f < 0.99 (%d of %d expected)", ratio, delivered, expected)
		}
	}
	return nil
}
