package pubsub

import (
	"testing"
	"time"

	"repro/internal/topology"
)

func staticGraph(t *testing.T) *topology.Graph {
	t.Helper()
	g := topology.NewGraph(4)
	for _, l := range [][2]int{{0, 1}, {1, 2}, {2, 3}} {
		if err := g.AddLink(l[0], l[1], 10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestNewStaticBasic(t *testing.T) {
	g := staticGraph(t)
	w, err := NewStatic(g, DefaultConfig(), []Topic{
		{Publisher: 0, Subscribers: []Subscription{{Node: 2}, {Node: 3}}},
		{Publisher: 3, Subscribers: []Subscription{{Node: 0}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Topics()) != 2 {
		t.Fatalf("topics = %d", len(w.Topics()))
	}
	// Topic IDs rewritten to indices.
	if w.Topic(0).ID != 0 || w.Topic(1).ID != 1 {
		t.Error("topic IDs not rewritten")
	}
	// Zero deadlines filled as factor x shortest path: node 2 is 20ms from
	// publisher 0, factor 3 -> 60ms.
	d, ok := w.Deadline(0, 2)
	if !ok || d != 60*time.Millisecond {
		t.Errorf("deadline(0,2) = %v, %v; want 60ms", d, ok)
	}
}

func TestNewStaticKeepsExplicitDeadline(t *testing.T) {
	g := staticGraph(t)
	w, err := NewStatic(g, DefaultConfig(), []Topic{
		{Publisher: 0, Subscribers: []Subscription{{Node: 1, Deadline: 123 * time.Millisecond}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := w.Deadline(0, 1); d != 123*time.Millisecond {
		t.Errorf("deadline = %v, want 123ms", d)
	}
}

func TestNewStaticValidation(t *testing.T) {
	g := staticGraph(t)
	tests := []struct {
		name   string
		topics []Topic
	}{
		{name: "publisher out of range", topics: []Topic{{Publisher: 9, Subscribers: []Subscription{{Node: 1}}}}},
		{name: "negative publisher", topics: []Topic{{Publisher: -1, Subscribers: []Subscription{{Node: 1}}}}},
		{name: "no subscribers", topics: []Topic{{Publisher: 0}}},
		{name: "subscriber out of range", topics: []Topic{{Publisher: 0, Subscribers: []Subscription{{Node: 7}}}}},
		{name: "duplicate subscriber", topics: []Topic{{Publisher: 0, Subscribers: []Subscription{{Node: 1}, {Node: 1}}}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewStatic(g, DefaultConfig(), tt.topics); err == nil {
				t.Error("invalid static workload accepted")
			}
		})
	}
	// Bad config also rejected.
	cfg := DefaultConfig()
	cfg.Topics = 0
	if _, err := NewStatic(g, cfg, []Topic{{Publisher: 0, Subscribers: []Subscription{{Node: 1}}}}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestNewStaticUnreachableSubscriber(t *testing.T) {
	g := topology.NewGraph(3)
	if err := g.AddLink(0, 1, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Node 2 is disconnected; a zero deadline cannot be derived.
	if _, err := NewStatic(g, DefaultConfig(), []Topic{
		{Publisher: 0, Subscribers: []Subscription{{Node: 2}}},
	}); err == nil {
		t.Error("unreachable subscriber with derived deadline accepted")
	}
	// With an explicit deadline it is allowed (the route may appear later
	// in live deployments).
	if _, err := NewStatic(g, DefaultConfig(), []Topic{
		{Publisher: 0, Subscribers: []Subscription{{Node: 2, Deadline: time.Second}}},
	}); err != nil {
		t.Errorf("explicit deadline for unreachable subscriber rejected: %v", err)
	}
}

func TestNewStaticPublisherTreeAndDestinations(t *testing.T) {
	g := staticGraph(t)
	w, err := NewStatic(g, DefaultConfig(), []Topic{
		{Publisher: 1, Subscribers: []Subscription{{Node: 3}, {Node: 0}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tree := w.PublisherTree(0); tree.Source != 1 {
		t.Errorf("tree source = %d, want 1", tree.Source)
	}
	dests := w.Destinations(0)
	if len(dests) != 2 || dests[0] != 3 || dests[1] != 0 {
		t.Errorf("destinations = %v", dests)
	}
}
