package metrics

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/pubsub"
)

func pkt(id uint64, at time.Duration) *pubsub.Packet {
	return &pubsub.Packet{ID: id, Topic: 0, Source: 0, PublishedAt: at}
}

func subs(deadline time.Duration, nodes ...int) []pubsub.Subscription {
	out := make([]pubsub.Subscription, len(nodes))
	for i, n := range nodes {
		out[i] = pubsub.Subscription{Topic: 0, Node: n, Deadline: deadline}
	}
	return out
}

func TestEmptyCollector(t *testing.T) {
	c := NewCollector()
	res := c.Result(0)
	if res.Expected != 0 || res.Delivered != 0 {
		t.Errorf("empty result = %+v", res)
	}
	if res.DeliveryRatio() != 0 || res.QoSDeliveryRatio() != 0 || res.PacketsPerSubscriber() != 0 {
		t.Error("ratios on empty collector should be 0")
	}
}

func TestDeliverOnTimeAndLate(t *testing.T) {
	c := NewCollector()
	c.Publish(pkt(1, 0), subs(100*time.Millisecond, 1, 2))
	if !c.Deliver(1, 1, 80*time.Millisecond) {
		t.Error("first delivery should report true")
	}
	if !c.Deliver(1, 2, 150*time.Millisecond) {
		t.Error("late delivery still counts as delivered")
	}
	res := c.Result(5)
	if res.Expected != 2 || res.Delivered != 2 || res.OnTime != 1 {
		t.Fatalf("result = %+v", res)
	}
	if res.DeliveryRatio() != 1 {
		t.Errorf("delivery ratio = %v", res.DeliveryRatio())
	}
	if res.QoSDeliveryRatio() != 0.5 {
		t.Errorf("QoS ratio = %v", res.QoSDeliveryRatio())
	}
	if res.PacketsPerSubscriber() != 2.5 {
		t.Errorf("packets/subscriber = %v", res.PacketsPerSubscriber())
	}
	if len(res.LateFactors) != 1 || math.Abs(res.LateFactors[0]-1.5) > 1e-9 {
		t.Errorf("late factors = %v, want [1.5]", res.LateFactors)
	}
}

func TestDeadlineBoundaryIsOnTime(t *testing.T) {
	c := NewCollector()
	c.Publish(pkt(1, 0), subs(100*time.Millisecond, 1))
	c.Deliver(1, 1, 100*time.Millisecond)
	res := c.Result(0)
	if res.OnTime != 1 {
		t.Error("delivery exactly at the deadline must count as on time")
	}
}

func TestDuplicateDeliveryCountedOnce(t *testing.T) {
	c := NewCollector()
	c.Publish(pkt(1, 0), subs(time.Second, 1))
	if !c.Deliver(1, 1, 10*time.Millisecond) {
		t.Error("first delivery should be true")
	}
	if c.Deliver(1, 1, 20*time.Millisecond) {
		t.Error("duplicate delivery should be false")
	}
	res := c.Result(0)
	if res.Delivered != 1 {
		t.Errorf("delivered = %d, want 1", res.Delivered)
	}
	// First delivery's latency wins.
	if res.Latencies[0] != 10*time.Millisecond {
		t.Errorf("latency = %v, want 10ms", res.Latencies[0])
	}
}

func TestUnknownDeliveryIgnored(t *testing.T) {
	c := NewCollector()
	c.Publish(pkt(1, 0), subs(time.Second, 1))
	if c.Deliver(2, 1, time.Millisecond) {
		t.Error("unknown packet delivery should be ignored")
	}
	if c.Deliver(1, 9, time.Millisecond) {
		t.Error("unknown subscriber delivery should be ignored")
	}
	if res := c.Result(0); res.Delivered != 0 {
		t.Errorf("delivered = %d, want 0", res.Delivered)
	}
}

func TestLatencyRelativeToPublishTime(t *testing.T) {
	c := NewCollector()
	c.Publish(pkt(1, 5*time.Second), subs(time.Second, 1))
	c.Deliver(1, 1, 5*time.Second+200*time.Millisecond)
	res := c.Result(0)
	if res.Latencies[0] != 200*time.Millisecond {
		t.Errorf("latency = %v, want 200ms", res.Latencies[0])
	}
	if res.OnTime != 1 {
		t.Error("200ms < 1s deadline should be on time")
	}
}

func TestDropsTracked(t *testing.T) {
	c := NewCollector()
	c.Publish(pkt(1, 0), subs(time.Second, 1, 2))
	c.Drop(1, 1)
	c.Drop(1, 2)
	res := c.Result(0)
	if res.Drops != 2 {
		t.Errorf("drops = %d, want 2", res.Drops)
	}
	if res.Delivered != 0 {
		t.Errorf("delivered = %d, want 0", res.Delivered)
	}
}

func TestPublishedCount(t *testing.T) {
	c := NewCollector()
	c.Publish(pkt(1, 0), subs(time.Second, 1))
	c.Publish(pkt(2, time.Second), subs(time.Second, 1, 2))
	res := c.Result(0)
	if res.Published != 2 {
		t.Errorf("published = %d, want 2", res.Published)
	}
	if res.Expected != 3 {
		t.Errorf("expected = %d, want 3", res.Expected)
	}
}

func TestLateCDF(t *testing.T) {
	c := NewCollector()
	c.Publish(pkt(1, 0), subs(100*time.Millisecond, 1, 2, 3))
	c.Deliver(1, 1, 125*time.Millisecond) // factor 1.25
	c.Deliver(1, 2, 150*time.Millisecond) // factor 1.5
	c.Deliver(1, 3, 50*time.Millisecond)  // on time, excluded
	res := c.Result(0)
	cdf := res.LateCDF()
	if cdf.Len() != 2 {
		t.Fatalf("late CDF over %d samples, want 2", cdf.Len())
	}
	if got := cdf.At(1.25); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("CDF(1.25) = %v, want 0.5", got)
	}
	if got := cdf.At(1.5); got != 1 {
		t.Errorf("CDF(1.5) = %v, want 1", got)
	}
}

func TestLatencyStatistics(t *testing.T) {
	c := NewCollector()
	c.Publish(pkt(1, 0), subs(time.Second, 1, 2, 3, 4))
	c.Deliver(1, 1, 10*time.Millisecond)
	c.Deliver(1, 2, 20*time.Millisecond)
	c.Deliver(1, 3, 30*time.Millisecond)
	c.Deliver(1, 4, 40*time.Millisecond)
	res := c.Result(0)
	if got := res.MeanLatency(); got != 25*time.Millisecond {
		t.Errorf("mean latency = %v, want 25ms", got)
	}
	if (Result{}).MeanLatency() != 0 {
		t.Error("empty result mean latency != 0")
	}
}

func TestResultString(t *testing.T) {
	c := NewCollector()
	c.Publish(pkt(1, 0), subs(time.Second, 1))
	c.Deliver(1, 1, 5*time.Millisecond)
	s := c.Result(3).String()
	for _, want := range []string{"delivered 1/1", "100.00%", "3.00 pkts/sub", "5ms"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestZeroDeadlineNeverLate(t *testing.T) {
	// Deadline 0 with a late delivery must not divide by zero.
	c := NewCollector()
	c.Publish(pkt(1, 0), []pubsub.Subscription{{Topic: 0, Node: 1, Deadline: 0}})
	c.Deliver(1, 1, time.Millisecond)
	res := c.Result(0)
	if len(res.LateFactors) != 0 {
		t.Errorf("late factors = %v, want none for zero deadline", res.LateFactors)
	}
	if res.OnTime != 0 {
		t.Errorf("on time = %d, want 0 (1ms > 0 deadline)", res.OnTime)
	}
}
