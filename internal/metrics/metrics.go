// Package metrics implements the paper's three performance metrics (§IV-C)
// — delivery ratio, QoS delivery ratio and packets sent per subscriber —
// plus the deadline-miss delay statistics behind Fig. 7.
//
// All ratios are computed over (packet, subscriber) pairs: a packet with k
// subscribers contributes k expectations, so "100% delivery ratio means all
// subscribers received the packet successfully".
package metrics

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/pubsub"
	"repro/internal/stats"
)

// key identifies one (packet, subscriber node) delivery expectation.
type key struct {
	pkt  uint64
	node int
}

// Collector accumulates per-delivery records during one simulation run.
// The zero value is not usable; construct with NewCollector.
type Collector struct {
	expected  map[key]expectation
	delivered map[key]time.Duration // end-to-end latency of first delivery
	drops     uint64                // explicit protocol give-ups
	published uint64                // packets published
}

type expectation struct {
	publishedAt time.Duration
	deadline    time.Duration
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		expected:  make(map[key]expectation),
		delivered: make(map[key]time.Duration),
	}
}

// Publish registers a published packet and its subscriber set.
func (c *Collector) Publish(pkt *pubsub.Packet, subs []pubsub.Subscription) {
	c.published++
	for _, s := range subs {
		c.expected[key{pkt: pkt.ID, node: s.Node}] = expectation{
			publishedAt: pkt.PublishedAt,
			deadline:    s.Deadline,
		}
	}
}

// Deliver records that pkt reached subscriber node at virtual time now. It
// reports whether this was the first delivery of that pair (duplicates from
// multipath copies or retransmissions are counted once). Deliveries for
// pairs never registered via Publish are ignored.
func (c *Collector) Deliver(pktID uint64, node int, now time.Duration) bool {
	k := key{pkt: pktID, node: node}
	exp, ok := c.expected[k]
	if !ok {
		return false
	}
	if _, dup := c.delivered[k]; dup {
		return false
	}
	c.delivered[k] = now - exp.publishedAt
	return true
}

// Drop records that a protocol gave up on delivering pkt to node (e.g. DCRD
// exhausting the publisher's sending list). Purely diagnostic: undelivered
// pairs already count against the ratios.
func (c *Collector) Drop(pktID uint64, node int) {
	c.drops++
}

// Result summarizes one run.
type Result struct {
	// Expected is the number of (packet, subscriber) pairs published.
	Expected int
	// Delivered is how many pairs received the packet at all.
	Delivered int
	// OnTime is how many pairs received the packet within the deadline.
	OnTime int
	// DataTransmissions is the run's total data-frame sends, supplied by
	// the caller from the network counters.
	DataTransmissions uint64
	// Drops counts explicit protocol give-ups.
	Drops uint64
	// Published is the number of packets published.
	Published uint64
	// LateFactors holds (latency / deadline) for every delivered pair that
	// missed its deadline — the Fig. 7 sample (values > 1 by construction).
	LateFactors []float64
	// Latencies holds the end-to-end latency of every delivered pair.
	Latencies []time.Duration
}

// DeliveryRatio is Delivered / Expected.
func (r Result) DeliveryRatio() float64 {
	if r.Expected == 0 {
		return 0
	}
	return float64(r.Delivered) / float64(r.Expected)
}

// QoSDeliveryRatio is OnTime / Expected.
func (r Result) QoSDeliveryRatio() float64 {
	if r.Expected == 0 {
		return 0
	}
	return float64(r.OnTime) / float64(r.Expected)
}

// PacketsPerSubscriber is the paper's traffic metric: total data
// transmissions divided by the number of (packet, subscriber) pairs.
func (r Result) PacketsPerSubscriber() float64 {
	if r.Expected == 0 {
		return 0
	}
	return float64(r.DataTransmissions) / float64(r.Expected)
}

// LateCDF builds the Fig. 7 empirical CDF over (latency / deadline) of
// deadline-missing deliveries.
func (r Result) LateCDF() *stats.CDF {
	return stats.NewCDF(r.LateFactors)
}

// MeanLatency averages the end-to-end latency of delivered pairs
// (0 when nothing was delivered).
func (r Result) MeanLatency() time.Duration {
	if len(r.Latencies) == 0 {
		return 0
	}
	var sum time.Duration
	for _, l := range r.Latencies {
		sum += l
	}
	return sum / time.Duration(len(r.Latencies))
}

// String summarizes the result in one line.
func (r Result) String() string {
	return fmt.Sprintf("delivered %d/%d (%.2f%%), on-time %.2f%%, %.2f pkts/sub, mean latency %v",
		r.Delivered, r.Expected, 100*r.DeliveryRatio(), 100*r.QoSDeliveryRatio(),
		r.PacketsPerSubscriber(), r.MeanLatency().Round(time.Microsecond))
}

// Result finalizes the collector against the run's data-transmission count.
// Latencies and LateFactors come out in (packet, node) order so two runs
// with identical deliveries produce byte-identical Results — the
// determinism regression tests compare them with reflect.DeepEqual.
func (c *Collector) Result(dataTransmissions uint64) Result {
	res := Result{
		Expected:          len(c.expected),
		Delivered:         len(c.delivered),
		DataTransmissions: dataTransmissions,
		Drops:             c.drops,
		Published:         c.published,
	}
	keys := make([]key, 0, len(c.delivered))
	for k := range c.delivered {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b key) int {
		if a.pkt != b.pkt {
			if a.pkt < b.pkt {
				return -1
			}
			return 1
		}
		return a.node - b.node
	})
	for _, k := range keys {
		latency := c.delivered[k]
		exp := c.expected[k]
		res.Latencies = append(res.Latencies, latency)
		if latency <= exp.deadline {
			res.OnTime++
		} else if exp.deadline > 0 {
			res.LateFactors = append(res.LateFactors, float64(latency)/float64(exp.deadline))
		}
	}
	return res
}
