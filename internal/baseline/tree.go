// Package baseline implements the four comparison approaches of the paper's
// evaluation (§IV-B):
//
//   - R-Tree: a routing tree using the shortest-hop-count path between each
//     publisher and subscriber (most reliable tree).
//   - D-Tree: a routing tree using the shortest-delay path.
//   - ORACLE: the performance upper bound — shortest-delay routing that
//     avoids any link failed at transmission time, since the oracle knows
//     the whole network's instantaneous condition.
//   - Multipath: duplicate copies per subscriber over the shortest-delay
//     path and the least-overlapping of the top-5 shortest-delay paths.
//
// All approaches use hop-by-hop ACKs with m transmissions per link (Fig. 8
// varies m), but none of them — except ORACLE's per-hop recomputation —
// reroutes around failures; that is precisely the gap DCRD fills.
//
// The trees and Multipath are therefore sending-list policies on DCRD's own
// Algorithm-2 engines (core.FixedRouter): a one-entry list naming the
// route's successor, and no upstream reroute, so a link that stays failed
// through m transmissions drops the copy. ORACLE recomputes its route after
// every timeout and keeps no failed set or path, which Algorithm 2 cannot
// express, so it keeps its own forwarding.
package baseline

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/pubsub"
	"repro/internal/topology"
)

// TreeKind selects which fixed routing tree a TreeRouter uses.
type TreeKind int

// Tree kinds per the paper's §IV-B.
const (
	// ReliableTree (R-Tree) routes over the shortest-hop-count path between
	// each publisher and subscriber, maximizing robustness to per-link
	// failures by minimizing the number of links traversed.
	ReliableTree TreeKind = iota + 1
	// DelayTree (D-Tree) routes over the shortest-delay path.
	DelayTree
)

// String returns the paper's name for the tree kind.
func (k TreeKind) String() string {
	switch k {
	case ReliableTree:
		return "R-Tree"
	case DelayTree:
		return "D-Tree"
	default:
		return fmt.Sprintf("TreeKind(%d)", int(k))
	}
}

// successors is the sending-list policy of the fixed-route baselines:
// next[key*n+dest][node] is node's successor toward dest under routing key
// key, or -1 off the route.
type successors struct {
	n    int
	next [][]int
}

func newSuccessors(n, keys int) *successors {
	return &successors{n: n, next: make([][]int, keys*n)}
}

// add routes key's copies toward path's last node along path.
func (s *successors) add(key int, path []int) {
	succ := make([]int, s.n)
	for i := range succ {
		succ[i] = -1
	}
	for i := 0; i+1 < len(path); i++ {
		succ[path[i]] = path[i+1]
	}
	s.next[key*s.n+path[len(path)-1]] = succ
}

// SendingList returns node's successor as a one-entry list sliced from the
// table, so forwarding allocates nothing.
func (s *successors) SendingList(node int, key int32, dest int) []int {
	succ := s.next[int(key)*s.n+dest]
	if succ == nil || succ[node] < 0 {
		return nil
	}
	return succ[node : node+1]
}

// TreeRouter forwards packets along a fixed per-publisher routing tree with
// hop-by-hop ACKs and m transmissions per link. It never reroutes: when a
// link stays failed through all m attempts, the affected subtree's
// destinations are dropped — exactly the weakness the paper attributes to
// tree-based approaches.
type TreeRouter struct {
	fixed *core.FixedRouter
	w     *pubsub.Workload
	kind  TreeKind
}

// NewTreeRouter builds the per-topic routing trees and installs handlers on
// every node. m is the number of transmissions per link (>=1).
func NewTreeRouter(net *netsim.Network, w *pubsub.Workload, col *metrics.Collector, kind TreeKind, m int) (*TreeRouter, error) {
	if kind != ReliableTree && kind != DelayTree {
		return nil, fmt.Errorf("baseline: unknown tree kind %d", int(kind))
	}
	g := net.Graph()
	lists := newSuccessors(g.N(), len(w.Topics()))
	for _, t := range w.Topics() {
		var tree *topology.ShortestPathTree
		switch kind {
		case ReliableTree:
			tree = topology.BFS(g, t.Publisher)
		case DelayTree:
			tree = topology.Dijkstra(g, t.Publisher, nil)
		}
		for _, s := range t.Subscribers {
			path, err := tree.PathTo(s.Node)
			if err != nil {
				return nil, fmt.Errorf("baseline: %v tree for topic %d cannot reach %d: %w",
					kind, t.ID, s.Node, err)
			}
			lists.add(t.ID, path)
		}
	}
	return &TreeRouter{fixed: core.NewFixedRouter(net, col, m, lists), w: w, kind: kind}, nil
}

// Name identifies the approach in experiment output.
func (r *TreeRouter) Name() string { return r.kind.String() }

// Publish injects a packet at its source broker, routed by its topic.
func (r *TreeRouter) Publish(pkt pubsub.Packet) {
	r.fixed.Publish(pkt, int32(pkt.Topic), r.w.Destinations(pkt.Topic))
}
