// Package pubsub models the publish/subscribe workload layer of the paper's
// evaluation: topics, publisher placement, probabilistic subscriber
// placement, per-pair QoS delay requirements and the published-packet model.
//
// The paper's setup (§IV-A): 10 topics with one publisher each on randomly
// chosen broker nodes, each publishing 1 packet/s (an ADS-B-like rate); for
// every topic a subscription probability Ps is drawn uniformly from
// [0.2, 0.6] and each broker node subscribes with probability Ps; the delay
// requirement for a (publisher, subscriber) pair is a multiple (3x by
// default, swept in Fig. 6) of the shortest-path delay between them.
package pubsub

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/topology"
)

// Packet is one published message. Destinations and deadlines are carried by
// the Workload (they are properties of the subscription set, not the
// packet), so routing layers attach their own per-copy state.
type Packet struct {
	// ID is unique across the run.
	ID uint64
	// Topic identifies the subscription set the packet fans out to.
	Topic int
	// Source is the broker node hosting the publisher.
	Source int
	// PublishedAt is the virtual publish time.
	PublishedAt time.Duration
}

// Subscription is one (topic, broker node) subscriber with its QoS delay
// requirement D_PS relative to the topic's publisher.
type Subscription struct {
	Topic    int
	Node     int
	Deadline time.Duration
}

// Topic groups a publisher with its subscribers.
type Topic struct {
	ID          int
	Publisher   int
	Subscribers []Subscription
}

// Config parameterizes workload generation.
type Config struct {
	// Topics is the number of topics; each gets exactly one publisher
	// (10 in the paper).
	Topics int
	// PublishInterval is the time between packets of one publisher
	// (1 s in the paper).
	PublishInterval time.Duration
	// SubProbMin/SubProbMax bound the per-topic subscription probability
	// Ps ~ U[SubProbMin, SubProbMax] ([0.2, 0.6] in the paper).
	SubProbMin, SubProbMax float64
	// DeadlineFactor multiplies the shortest-path delay to form the QoS
	// requirement (3 in the paper; swept in Fig. 6).
	DeadlineFactor float64
}

// DefaultConfig returns the paper's workload parameters.
func DefaultConfig() Config {
	return Config{
		Topics:          10,
		PublishInterval: time.Second,
		SubProbMin:      0.2,
		SubProbMax:      0.6,
		DeadlineFactor:  3,
	}
}

func (c Config) validate() error {
	if c.Topics <= 0 {
		return errors.New("pubsub: Topics must be positive")
	}
	if c.PublishInterval <= 0 {
		return errors.New("pubsub: PublishInterval must be positive")
	}
	if c.SubProbMin < 0 || c.SubProbMax > 1 || c.SubProbMin > c.SubProbMax {
		return fmt.Errorf("pubsub: invalid subscription probability range [%v,%v]",
			c.SubProbMin, c.SubProbMax)
	}
	if c.DeadlineFactor <= 0 {
		return errors.New("pubsub: DeadlineFactor must be positive")
	}
	return nil
}

// Workload is a concrete draw of publishers, subscribers and deadlines over
// a given overlay topology.
type Workload struct {
	cfg    Config
	topics []Topic
	// deadline[topic][node] = D_PS for the topic's publisher P and
	// subscriber node.
	deadline []map[int]time.Duration
	// spDelay[topic] is the shortest-path delay tree rooted at the topic's
	// publisher, used for D_XS computation by DCRD and for deadline setup.
	spDelay []*topology.ShortestPathTree
}

// Generate draws a workload over g. Every topic's publisher is placed
// uniformly at random; subscribers are placed per the paper's Ps process;
// topics with no subscriber (or whose only subscribers sit on the publisher
// itself, which would make the delay requirement degenerate) are redrawn.
func Generate(g *topology.Graph, cfg Config, rng *rand.Rand) (*Workload, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if g.N() < 2 {
		return nil, errors.New("pubsub: need at least 2 broker nodes")
	}
	w := &Workload{
		cfg:      cfg,
		topics:   make([]Topic, 0, cfg.Topics),
		deadline: make([]map[int]time.Duration, cfg.Topics),
		spDelay:  make([]*topology.ShortestPathTree, cfg.Topics),
	}
	for t := 0; t < cfg.Topics; t++ {
		topic, tree, deadlines, err := drawTopic(g, t, cfg, rng)
		if err != nil {
			return nil, err
		}
		w.topics = append(w.topics, topic)
		w.spDelay[t] = tree
		w.deadline[t] = deadlines
	}
	return w, nil
}

// drawTopic retries subscriber placement until the topic has at least one
// subscriber on a node other than its publisher.
func drawTopic(g *topology.Graph, id int, cfg Config, rng *rand.Rand) (Topic, *topology.ShortestPathTree, map[int]time.Duration, error) {
	const maxAttempts = 1000
	for attempt := 0; attempt < maxAttempts; attempt++ {
		pub := rng.IntN(g.N())
		ps := cfg.SubProbMin + rng.Float64()*(cfg.SubProbMax-cfg.SubProbMin)
		var subNodes []int
		for node := 0; node < g.N(); node++ {
			if node == pub {
				continue
			}
			if rng.Float64() < ps {
				subNodes = append(subNodes, node)
			}
		}
		if len(subNodes) == 0 {
			continue
		}
		tree := topology.Dijkstra(g, pub, nil)
		topic := Topic{ID: id, Publisher: pub}
		deadlines := make(map[int]time.Duration, len(subNodes))
		ok := true
		for _, node := range subNodes {
			if tree.Dist[node] == topology.Infinite {
				ok = false // disconnected draw; topology generators prevent this
				break
			}
			d := time.Duration(cfg.DeadlineFactor * float64(tree.Dist[node]))
			topic.Subscribers = append(topic.Subscribers, Subscription{
				Topic:    id,
				Node:     node,
				Deadline: d,
			})
			deadlines[node] = d
		}
		if !ok {
			continue
		}
		return topic, tree, deadlines, nil
	}
	return Topic{}, nil, nil, fmt.Errorf("pubsub: could not place subscribers for topic %d", id)
}

// NewStatic builds a workload from explicit topics instead of random
// placement — used by tests, examples and the live middleware. Subscriptions
// with a zero Deadline get cfg.DeadlineFactor × shortest-path delay; an
// explicit Deadline is kept as-is. Topic IDs are rewritten to slice indices.
func NewStatic(g *topology.Graph, cfg Config, topics []Topic) (*Workload, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	w := &Workload{
		cfg:      cfg,
		topics:   make([]Topic, 0, len(topics)),
		deadline: make([]map[int]time.Duration, len(topics)),
		spDelay:  make([]*topology.ShortestPathTree, len(topics)),
	}
	for id, in := range topics {
		if in.Publisher < 0 || in.Publisher >= g.N() {
			return nil, fmt.Errorf("pubsub: topic %d publisher %d out of range", id, in.Publisher)
		}
		if len(in.Subscribers) == 0 {
			return nil, fmt.Errorf("pubsub: topic %d has no subscribers", id)
		}
		tree := topology.Dijkstra(g, in.Publisher, nil)
		topic := Topic{ID: id, Publisher: in.Publisher}
		deadlines := make(map[int]time.Duration, len(in.Subscribers))
		for _, s := range in.Subscribers {
			if s.Node < 0 || s.Node >= g.N() {
				return nil, fmt.Errorf("pubsub: topic %d subscriber %d out of range", id, s.Node)
			}
			if _, dup := deadlines[s.Node]; dup {
				return nil, fmt.Errorf("pubsub: topic %d duplicate subscriber %d", id, s.Node)
			}
			d := s.Deadline
			if d == 0 {
				if tree.Dist[s.Node] == topology.Infinite {
					return nil, fmt.Errorf("pubsub: topic %d subscriber %d unreachable", id, s.Node)
				}
				d = time.Duration(cfg.DeadlineFactor * float64(tree.Dist[s.Node]))
			}
			topic.Subscribers = append(topic.Subscribers, Subscription{
				Topic:    id,
				Node:     s.Node,
				Deadline: d,
			})
			deadlines[s.Node] = d
		}
		w.topics = append(w.topics, topic)
		w.spDelay[id] = tree
		w.deadline[id] = deadlines
	}
	return w, nil
}

// Config returns the generation parameters.
func (w *Workload) Config() Config { return w.cfg }

// Topics returns all topics. The slice is owned by the workload.
func (w *Workload) Topics() []Topic { return w.topics }

// Topic returns topic t.
func (w *Workload) Topic(t int) Topic { return w.topics[t] }

// Destinations returns the subscriber broker nodes of topic t.
func (w *Workload) Destinations(t int) []int {
	subs := w.topics[t].Subscribers
	dests := make([]int, len(subs))
	for i, s := range subs {
		dests[i] = s.Node
	}
	return dests
}

// Deadline returns the QoS delay requirement D_PS for topic t's publisher
// and subscriber node, and whether that node subscribes to t.
func (w *Workload) Deadline(t, node int) (time.Duration, bool) {
	d, ok := w.deadline[t][node]
	return d, ok
}

// PublisherTree returns the shortest-delay tree rooted at topic t's
// publisher. DCRD uses it to derive per-node delay budgets
// D_XS = D_PS - SP(P, X).
func (w *Workload) PublisherTree(t int) *topology.ShortestPathTree {
	return w.spDelay[t]
}
