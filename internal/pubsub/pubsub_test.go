package pubsub

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/topology"
)

func testRng(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x5555))
}

func testGraph(t *testing.T, seed uint64) *topology.Graph {
	t.Helper()
	g, err := topology.FullMesh(20, topology.DefaultDelayRange(), testRng(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGenerateBasics(t *testing.T) {
	g := testGraph(t, 1)
	w, err := Generate(g, DefaultConfig(), testRng(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Topics()) != 10 {
		t.Fatalf("topics = %d, want 10", len(w.Topics()))
	}
	for _, topic := range w.Topics() {
		if topic.Publisher < 0 || topic.Publisher >= g.N() {
			t.Errorf("topic %d publisher %d out of range", topic.ID, topic.Publisher)
		}
		if len(topic.Subscribers) == 0 {
			t.Errorf("topic %d has no subscribers", topic.ID)
		}
		for _, s := range topic.Subscribers {
			if s.Node == topic.Publisher {
				t.Errorf("topic %d subscriber on publisher node", topic.ID)
			}
			if s.Topic != topic.ID {
				t.Errorf("subscription topic mismatch: %d vs %d", s.Topic, topic.ID)
			}
			if s.Deadline <= 0 {
				t.Errorf("topic %d deadline %v not positive", topic.ID, s.Deadline)
			}
		}
	}
}

func TestDeadlineIsFactorTimesShortestPath(t *testing.T) {
	g := testGraph(t, 3)
	cfg := DefaultConfig()
	cfg.DeadlineFactor = 3
	w, err := Generate(g, cfg, testRng(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, topic := range w.Topics() {
		tree := topology.Dijkstra(g, topic.Publisher, nil)
		for _, s := range topic.Subscribers {
			want := 3 * tree.Dist[s.Node]
			if s.Deadline != want {
				t.Errorf("topic %d sub %d deadline = %v, want %v", topic.ID, s.Node, s.Deadline, want)
			}
			got, ok := w.Deadline(topic.ID, s.Node)
			if !ok || got != want {
				t.Errorf("Deadline lookup (%v, %v) mismatch for topic %d sub %d", got, ok, topic.ID, s.Node)
			}
		}
	}
}

func TestDeadlineLookupMissing(t *testing.T) {
	g := testGraph(t, 5)
	w, err := Generate(g, DefaultConfig(), testRng(6))
	if err != nil {
		t.Fatal(err)
	}
	topic := w.Topic(0)
	if _, ok := w.Deadline(0, topic.Publisher); ok {
		t.Error("publisher node should not be a subscriber")
	}
}

func TestDestinationsMatchSubscribers(t *testing.T) {
	g := testGraph(t, 7)
	w, err := Generate(g, DefaultConfig(), testRng(8))
	if err != nil {
		t.Fatal(err)
	}
	for _, topic := range w.Topics() {
		dests := w.Destinations(topic.ID)
		if len(dests) != len(topic.Subscribers) {
			t.Fatalf("topic %d destinations %d != subscribers %d", topic.ID, len(dests), len(topic.Subscribers))
		}
		for i, s := range topic.Subscribers {
			if dests[i] != s.Node {
				t.Errorf("topic %d dest[%d] = %d, want %d", topic.ID, i, dests[i], s.Node)
			}
		}
	}
}

func TestPublisherTree(t *testing.T) {
	g := testGraph(t, 9)
	w, err := Generate(g, DefaultConfig(), testRng(10))
	if err != nil {
		t.Fatal(err)
	}
	for _, topic := range w.Topics() {
		tree := w.PublisherTree(topic.ID)
		if tree.Source != topic.Publisher {
			t.Errorf("topic %d tree rooted at %d, want %d", topic.ID, tree.Source, topic.Publisher)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	g := testGraph(t, 13)
	w1, err := Generate(g, DefaultConfig(), testRng(14))
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Generate(g, DefaultConfig(), testRng(14))
	if err != nil {
		t.Fatal(err)
	}
	for i := range w1.Topics() {
		a, b := w1.Topic(i), w2.Topic(i)
		if a.Publisher != b.Publisher || len(a.Subscribers) != len(b.Subscribers) {
			t.Fatalf("topic %d differs across identical seeds", i)
		}
		for j := range a.Subscribers {
			if a.Subscribers[j] != b.Subscribers[j] {
				t.Fatalf("topic %d subscriber %d differs", i, j)
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	g := testGraph(t, 15)
	rng := testRng(16)
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{name: "zero topics", mutate: func(c *Config) { c.Topics = 0 }},
		{name: "zero interval", mutate: func(c *Config) { c.PublishInterval = 0 }},
		{name: "bad prob range", mutate: func(c *Config) { c.SubProbMin = 0.7; c.SubProbMax = 0.3 }},
		{name: "prob > 1", mutate: func(c *Config) { c.SubProbMax = 1.5 }},
		{name: "negative prob", mutate: func(c *Config) { c.SubProbMin = -0.1 }},
		{name: "zero factor", mutate: func(c *Config) { c.DeadlineFactor = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if _, err := Generate(g, cfg, rng); err == nil {
				t.Errorf("config %+v should be rejected", cfg)
			}
		})
	}
	if _, err := Generate(topology.NewGraph(1), DefaultConfig(), rng); err == nil {
		t.Error("1-node graph should be rejected")
	}
}

// Property: for any valid seed, every topic has >= 1 subscriber, none on the
// publisher, and deadlines scale linearly with the factor.
func TestGenerateInvariantsProperty(t *testing.T) {
	f := func(seed uint64, factorRaw uint8) bool {
		factor := 1.5 + float64(factorRaw%10)*0.5
		g, err := topology.FullMesh(12, topology.DefaultDelayRange(), testRng(seed))
		if err != nil {
			return false
		}
		cfg := DefaultConfig()
		cfg.Topics = 4
		cfg.DeadlineFactor = factor
		w, err := Generate(g, cfg, testRng(seed+1))
		if err != nil {
			return false
		}
		for _, topic := range w.Topics() {
			if len(topic.Subscribers) == 0 {
				return false
			}
			tree := topology.Dijkstra(g, topic.Publisher, nil)
			for _, s := range topic.Subscribers {
				if s.Node == topic.Publisher {
					return false
				}
				want := time.Duration(factor * float64(tree.Dist[s.Node]))
				if s.Deadline != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
