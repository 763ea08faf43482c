package baseline

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/pubsub"
	"repro/internal/topology"
)

// MultipathRouter implements the paper's multipath baseline (§IV-B.4):
// "publishers send duplicate packets for every subscriber to increase the
// chance of successful delivery ... through two paths: one shortest delay
// path and another path selected from the top 5 shortest delay paths that
// has the fewest overlapping links with the shortest delay path."
//
// Routes are fixed at setup. Each copy is its own single-destination publish
// routed under key 2×topic + route index, whose sending list at a node is
// that route's successor; a link that stays failed through m transmissions
// drops the copy.
type MultipathRouter struct {
	fixed *core.FixedRouter
	w     *pubsub.Workload
	// routes[topic][dest] holds one or two node paths from the publisher.
	routes []map[int][]topology.Path
	dest   [1]int // Publish's destination list (the engine copies it)
}

// MultipathFanout is how many candidate shortest paths the second route is
// chosen from (the paper's "top 5").
const MultipathFanout = 5

// NewMultipathRouter precomputes the two routes per (publisher, subscriber)
// pair via Yen's k-shortest-paths and installs handlers on every node.
func NewMultipathRouter(net *netsim.Network, w *pubsub.Workload, col *metrics.Collector, m int) (*MultipathRouter, error) {
	g := net.Graph()
	r := &MultipathRouter{w: w, routes: make([]map[int][]topology.Path, len(w.Topics()))}
	lists := newSuccessors(g.N(), 2*len(w.Topics()))
	for _, t := range w.Topics() {
		r.routes[t.ID] = make(map[int][]topology.Path, len(t.Subscribers))
		for _, s := range t.Subscribers {
			candidates, err := topology.KShortestPaths(g, t.Publisher, s.Node, MultipathFanout)
			if err != nil {
				return nil, fmt.Errorf("baseline: multipath routes for topic %d dest %d: %w",
					t.ID, s.Node, err)
			}
			routes := []topology.Path{candidates[0]}
			if second := leastOverlapping(candidates); second != nil {
				routes = append(routes, second)
			}
			for i, route := range routes {
				lists.add(2*t.ID+i, route)
			}
			r.routes[t.ID][s.Node] = routes
		}
	}
	r.fixed = core.NewFixedRouter(net, col, m, lists)
	return r, nil
}

// leastOverlapping picks, among candidates[1:], the path sharing the fewest
// links with candidates[0]; ties go to the shorter-delay (earlier) path.
// It returns nil when only one candidate exists.
func leastOverlapping(candidates []topology.Path) topology.Path {
	if len(candidates) < 2 {
		return nil
	}
	best := candidates[1]
	bestShared := candidates[0].SharedLinks(candidates[1])
	for _, c := range candidates[2:] {
		if shared := candidates[0].SharedLinks(c); shared < bestShared {
			best, bestShared = c, shared
		}
	}
	return best
}

// Name identifies the approach in experiment output.
func (r *MultipathRouter) Name() string { return "Multipath" }

// Routes exposes the selected paths for a (topic, dest) pair, for tests.
func (r *MultipathRouter) Routes(topic, dest int) []topology.Path {
	return r.routes[topic][dest]
}

// Publish sends one copy of the packet per (subscriber, route).
func (r *MultipathRouter) Publish(pkt pubsub.Packet) {
	for _, dest := range r.w.Destinations(pkt.Topic) {
		r.dest[0] = dest
		for i := range r.routes[pkt.Topic][dest] {
			r.fixed.Publish(pkt, int32(2*pkt.Topic+i), r.dest[:])
		}
	}
}
