package algo1

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/topology"
)

// LinkStatsFunc reports the monitored single-transmission <alpha, gamma>
// estimate for overlay link (u,v). ok is false when no such link exists.
type LinkStatsFunc func(u, v int) (alpha time.Duration, gamma float64, ok bool)

// Table holds, for one (publisher, subscriber) pair, every node's sending
// list (Theorem-1 ordered eligible neighbors) and its <d, r> parameters.
//
// Sending lists are per pair rather than per subscriber because Algorithm 1
// admits a neighbor only when its expected delay fits the node's residual
// delay budget D_XS = D_PS − SP(P, X), which depends on the publisher.
type Table struct {
	Subscriber int
	// Params[x] is node x's <d_x, r_x> from Eq. (3).
	Params []DR
	// Lists[x] is node x's ordered sending list toward the subscriber.
	Lists [][]int
	// Budget[x] is D_XS, the residual delay requirement at node x.
	// Negative budgets mean the node cannot possibly meet the deadline.
	Budget []time.Duration
	// Rounds is how many synchronous recomputation rounds the distributed
	// fixpoint ran: until it stabilized, cycled, or hit the MaxRounds cap.
	Rounds int
}

// Ordering selects how a node sorts its sending list. RatioOrder is the
// paper's Theorem-1 policy; the others exist for ablation: they answer
// "how much does the proven ordering actually buy?"
type Ordering int

// Sending-list orderings.
const (
	// RatioOrder sorts by d/r ascending — Theorem 1, provably minimizing
	// the expected delay. The default.
	RatioOrder Ordering = iota
	// DelayOrder sorts by the via-delay d ascending, ignoring reliability.
	DelayOrder
	// ReliabilityOrder sorts by the via-delivery-ratio r descending,
	// ignoring delay.
	ReliabilityOrder
	// ArbitraryOrder keeps neighbor-ID order — no intelligence at all.
	ArbitraryOrder
)

// String names the ordering for experiment output.
func (o Ordering) String() string {
	switch o {
	case RatioOrder:
		return "d/r (Theorem 1)"
	case DelayOrder:
		return "delay-only"
	case ReliabilityOrder:
		return "reliability-only"
	case ArbitraryOrder:
		return "arbitrary"
	default:
		return fmt.Sprintf("Ordering(%d)", int(o))
	}
}

// sortList orders the parallel (via, ids) slices under the policy.
func (o Ordering) sortList(via []DR, ids []int) {
	switch o {
	case DelayOrder:
		sort.Stable(byKey{entries: via, ids: ids, key: func(p DR) float64 {
			if !p.Reachable() {
				return math.Inf(1)
			}
			return float64(p.D)
		}})
	case ReliabilityOrder:
		sort.Stable(byKey{entries: via, ids: ids, key: func(p DR) float64 { return -p.R }})
	case ArbitraryOrder:
		sort.Stable(byKey{entries: via, ids: ids, key: func(DR) float64 { return 0 }})
	default:
		SortByRatio(via, ids)
	}
}

// byKey sorts parallel slices by a scalar key with ID tie-break.
type byKey struct {
	entries []DR
	ids     []int
	key     func(DR) float64
}

func (s byKey) Len() int { return len(s.entries) }

func (s byKey) Less(i, j int) bool {
	ki, kj := s.key(s.entries[i]), s.key(s.entries[j])
	if ki != kj {
		return ki < kj
	}
	return s.ids[i] < s.ids[j]
}

func (s byKey) Swap(i, j int) {
	s.entries[i], s.entries[j] = s.entries[j], s.entries[i]
	s.ids[i], s.ids[j] = s.ids[j], s.ids[i]
}

// BuildOptions tunes table construction.
type BuildOptions struct {
	// M is the number of transmissions tried per neighbor before declaring
	// failure (the paper's m; default 1).
	M int
	// MaxRounds caps the synchronous fixpoint. Zero means 2*N+10. The
	// iteration normally stops much earlier, at the first round that
	// changes no parameter exactly; near-ties can flicker by one
	// nanosecond forever (the float math under D's integer rounding has
	// limit cycles), so the cap also serves as the deterministic
	// tie-break for inputs that never reach an exact fixpoint.
	MaxRounds int
	// Ordering is the sending-list policy (RatioOrder unless overridden
	// for ablation).
	Ordering Ordering
}

// Snapshot is the dense (from, to) table of per-link m-transmission
// statistics shared by every (publisher, subscriber) pair of one rebuild
// epoch: link statistics do not depend on the subscriber, so Driver.Rebuild
// materializes this O(n²) table once and hands it to every
// BuildFromSnapshot call instead of once per pair.
type Snapshot struct {
	n int
	m int
	// linkDR[u*n+v] is the m-transmission <d, r> of directed link (u, v);
	// missing links stay Unreachable, which the admission filter skips.
	linkDR []DR
}

// NewSnapshot materializes the m-transmission link statistics of every
// directed link under the supplied monitoring estimates. m < 1 is treated
// as 1 (matching BuildOptions.M).
func NewSnapshot(g *topology.Graph, stats LinkStatsFunc, m int) *Snapshot {
	s := new(Snapshot)
	s.fill(g, stats, m)
	return s
}

// fill rematerializes the snapshot in place, reusing its storage: a Driver
// keeps one Snapshot for all of its epochs.
func (s *Snapshot) fill(g *topology.Graph, stats LinkStatsFunc, m int) {
	if m < 1 {
		m = 1
	}
	n := g.N()
	s.n, s.m = n, m
	if cap(s.linkDR) < n*n {
		s.linkDR = make([]DR, n*n)
	}
	s.linkDR = s.linkDR[:n*n]
	for i := range s.linkDR {
		s.linkDR[i] = Unreachable()
	}
	for u := 0; u < n; u++ {
		for _, e := range g.Neighbors(u) {
			alpha, gamma, ok := stats(u, e.To)
			if !ok {
				continue
			}
			s.linkDR[u*n+e.To] = LinkStats(alpha, gamma, m)
		}
	}
}

// M returns the transmissions-per-neighbor count the snapshot was built for.
func (s *Snapshot) M() int { return s.m }

// Link returns the m-transmission statistics of directed link (u, v).
func (s *Snapshot) Link(u, v int) DR { return s.linkDR[u*s.n+v] }

// BuildTable runs Algorithm 1 to a fixpoint for one (publisher, subscriber)
// pair: every node receives its neighbors' <d, r> parameters, admits the
// neighbors whose expected delay fits within the node's residual budget,
// orders them by the Theorem-1 d/r ratio, and recomputes its own <d, r> via
// Eq. (3). The paper runs this as an asynchronous distributed protocol; a
// synchronous Jacobi iteration reaches the same fixpoint deterministically.
//
// budget[x] must hold D_XS = D_PS − SP(P, x) (see Workload.PublisherTree);
// the subscriber's own parameters are pinned at <0, 1>.
func BuildTable(g *topology.Graph, stats LinkStatsFunc, sub int, budget []time.Duration, opts BuildOptions) *Table {
	return BuildFromSnapshot(g, NewSnapshot(g, stats, opts.M), sub, budget, opts)
}

// BuildFromSnapshot is BuildTable against a shared per-epoch Snapshot. The
// iteration always starts from all-Unreachable and is cut at the MaxRounds
// cap, which makes the table a deterministic function of (snapshot, budgets,
// options) alone. That is the canonical output: the float dynamics are not
// monotone (near-ties can creep or flicker by 1 ns for longer than the cap
// and more than one attractor can exist), so a trajectory started anywhere
// else may settle on a table this one never visits.
//
// The snapshot must have been built with the same M as opts.
func BuildFromSnapshot(g *topology.Graph, snap *Snapshot, sub int, budget []time.Duration, opts BuildOptions) *Table {
	var (
		b builder
		s tableSet
	)
	b.run(g, snap, sub, budget, opts)
	t := s.add(&b, nil, sub, budget)
	s.commit()
	return t
}

// builder is the storage of one Algorithm-1 fixpoint: the three Jacobi
// parameter vectors and every node's admitted neighbor IDs and Via
// parameters. A Driver keeps one builder for all of its pairs and epochs;
// nothing a builder holds is ever handed out (tableSet copies what it keeps).
type builder struct {
	cur, next, prev2 []DR
	ids              [][]int
	via              [][]DR
	sub              int
	rounds           int
}

// run computes the fixpoint for one (subscriber, budget) pair into b: the
// final parameters in b.cur and every node's sending list in b.ids.
//
// Triple-buffered Jacobi iteration: cur holds the previous round's
// parameters, next receives this round's, prev2 the round before cur. Every
// round recomputes every node into its per-node list buffers; the last
// round's contents are the sending lists.
//
// Period-2 cycle detection: near-ties can flicker forever between two states
// one nanosecond apart (float math under D's integer rounding); a plain loop
// would burn the whole MaxRounds cap and emit whichever phase the cap's
// parity lands on. Once next equals prev2 and differs from cur, the
// remaining trajectory is a proven alternation, so the build stops and keeps
// the phase the capped loop would have kept.
func (b *builder) run(g *topology.Graph, snap *Snapshot, sub int, budget []time.Duration, opts BuildOptions) {
	n := g.N()
	if opts.M < 1 {
		opts.M = 1
	}
	if snap.m != opts.M || snap.n != n {
		panic(fmt.Sprintf("algo1: snapshot built for (n=%d, m=%d), table wants (n=%d, m=%d)",
			snap.n, snap.m, n, opts.M))
	}
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = 2*n + 10
	}
	if len(b.cur) != n {
		b.cur, b.next, b.prev2 = make([]DR, n), make([]DR, n), make([]DR, n)
		b.ids, b.via = make([][]int, n), make([][]DR, n)
		for x := 0; x < n; x++ {
			b.ids[x] = make([]int, 0, g.Degree(x))
			b.via[x] = make([]DR, 0, g.Degree(x))
		}
	}
	for x := range b.cur {
		b.cur[x] = Unreachable()
	}
	b.cur[sub] = DR{D: 0, R: 1}
	b.sub, b.rounds = sub, 0
	for b.rounds < opts.MaxRounds {
		changed, cycle := b.round(g, snap, budget, opts.Ordering)
		if !changed {
			break
		}
		if cycle {
			// The trajectory now alternates between cur and prev2 until the
			// cap; keep the phase the cap would emit. An extra round lands on
			// the other phase when the distance to the cap is odd.
			if (opts.MaxRounds-b.rounds)%2 == 1 {
				b.round(g, snap, budget, opts.Ordering)
			}
			break
		}
	}
}

// round runs one Jacobi round over every node and reports whether any
// parameter changed and whether the state entered a period-2 cycle (prev2 is
// valid from round 2 on).
func (b *builder) round(g *topology.Graph, snap *Snapshot, budget []time.Duration, order Ordering) (changed, cycle bool) {
	b.rounds++
	sub, cur, next := b.sub, b.cur, b.next
	next[sub] = cur[sub]
	cycle = b.rounds >= 2
	for x := range cur {
		if x == sub {
			continue
		}
		ids, via := admit(g, x, cur, snap.linkDR, snap.n, budget[x], b.ids[x][:0], b.via[x][:0])
		b.ids[x], b.via[x] = ids, via
		order.sortList(via, ids)
		next[x] = Combine(via)
		changed = changed || next[x] != cur[x]
		cycle = cycle && next[x] == b.prev2[x]
	}
	b.prev2, b.cur, b.next = cur, next, b.prev2
	return changed, cycle && changed
}

// list is node x's sending list in the last fixpoint (none for the
// subscriber itself).
func (b *builder) list(x int) []int {
	if x == b.sub {
		return nil
	}
	return b.ids[x]
}

// tableSet turns fixpoints into route tables. A table is immutable once
// returned (readers hold tables and their lists without a lock), so a
// changed result is a new table, which shares each of the old table's
// Budget and Lists[x] that is unchanged. What a new table costs:
//   - the Table and its Params, the Params shared with the old table when
//     unchanged;
//   - the new sending lists of every table added between two commits share
//     one slab, and their Lists headers share another.
//
// Between add and commit a new table's Lists is not yet filled.
type tableSet struct {
	pending []pendingTable
	spans   []listSpan // len(Params) per pending table, in order
	ints    []int      // staged contents of the new lists
}

// pendingTable is a new table whose Lists the next commit fills.
type pendingTable struct{ t, old *Table }

// listSpan locates one new list in tableSet.ints; off < 0 keeps the old
// table's list.
type listSpan struct{ off, n int32 }

// add returns the fixpoint in b as the route table for budget: old itself
// (the pair's current table, or nil) when the result is Equal to it, else a
// new table. Nothing reachable from old is written.
func (s *tableSet) add(b *builder, old *Table, sub int, budget []time.Duration) *Table {
	n := len(b.cur)
	if old != nil && (old.Subscriber != sub || len(old.Params) != n || len(old.Lists) != n) {
		old = nil
	}
	sameParams := old != nil && slices.Equal(old.Params, b.cur)
	sameBudget := old != nil && slices.Equal(old.Budget, budget)
	sameLists := old != nil
	for x := 0; sameLists && x < n; x++ {
		sameLists = slices.Equal(old.Lists[x], b.list(x))
	}
	if sameParams && sameBudget && sameLists {
		return old
	}
	t := &Table{Subscriber: sub, Rounds: b.rounds}
	if sameParams {
		t.Params = old.Params
	} else {
		t.Params = slices.Clone(b.cur)
	}
	if sameBudget {
		t.Budget = old.Budget
	} else {
		t.Budget = slices.Clone(budget)
	}
	if sameLists {
		t.Lists = old.Lists
		return t
	}
	for x := 0; x < n; x++ {
		l := b.list(x)
		if old != nil && slices.Equal(old.Lists[x], l) {
			s.spans = append(s.spans, listSpan{off: -1})
			continue
		}
		s.spans = append(s.spans, listSpan{off: int32(len(s.ints)), n: int32(len(l))})
		s.ints = append(s.ints, l...)
	}
	s.pending = append(s.pending, pendingTable{t: t, old: old})
	return t
}

// commit fills the Lists of every table added since the last commit.
func (s *tableSet) commit() {
	if len(s.pending) == 0 {
		return
	}
	// Every table of one commit has the same node count.
	n := len(s.spans) / len(s.pending)
	outer := make([][]int, len(s.spans))
	ints := slices.Clone(s.ints)
	for i, pd := range s.pending {
		lists := outer[i*n : (i+1)*n : (i+1)*n]
		pd.t.Lists = lists
		for x, sp := range s.spans[i*n : (i+1)*n] {
			switch {
			case sp.off < 0:
				lists[x] = pd.old.Lists[x]
			case sp.n > 0:
				lists[x] = ints[sp.off : sp.off+sp.n : sp.off+sp.n]
			}
		}
	}
	clear(s.pending)
	s.pending, s.spans, s.ints = s.pending[:0], s.spans[:0], s.ints[:0]
}

// admit applies the Algorithm-1 admission filter at node x: a neighbor i
// joins the sending list only if its own expected delay d_i is strictly
// within x's residual budget D_XS and both the link and the neighbor are
// reachable. It appends the admitted neighbor IDs and their Eq.-2 Via
// parameters (unsorted) to the supplied buffers.
func admit(g *topology.Graph, x int, params []DR, linkDR []DR, n int, budget time.Duration, ids []int, via []DR) ([]int, []DR) {
	for _, e := range g.Neighbors(x) {
		p := params[e.To]
		if !p.Reachable() || p.D >= budget {
			continue
		}
		link := linkDR[x*n+e.To]
		if !link.Reachable() {
			continue
		}
		v := Via(link, p)
		if !v.Reachable() {
			continue
		}
		ids = append(ids, e.To)
		via = append(via, v)
	}
	return ids, via
}

// List returns node x's sending list. The slice is owned by the table.
func (t *Table) List(x int) []int { return t.Lists[x] }

// Equal compares everything a table exposes to forwarding: the <d, r>
// parameters, the ordered sending lists and the budgets. Rounds is
// diagnostics and is excluded. The cross-checks (driver vs oracle, sim vs
// live) demand this bitwise equality.
func (t *Table) Equal(o *Table) bool {
	if t == nil || o == nil {
		return t == o
	}
	if t.Subscriber != o.Subscriber || len(t.Params) != len(o.Params) {
		return false
	}
	for i := range t.Params {
		if t.Params[i] != o.Params[i] || t.Budget[i] != o.Budget[i] {
			return false
		}
		if len(t.Lists[i]) != len(o.Lists[i]) {
			return false
		}
		for j := range t.Lists[i] {
			if t.Lists[i][j] != o.Lists[i][j] {
				return false
			}
		}
	}
	return true
}

// BudgetsFromTree derives per-node residual delay budgets
// D_XS = D_PS − SP(P, x) from a shortest-delay tree rooted at the
// publisher. Unreachable nodes get a negative budget (never admitted).
func BudgetsFromTree(tree *topology.ShortestPathTree, deadline time.Duration) []time.Duration {
	budgets := make([]time.Duration, len(tree.Dist))
	for x, d := range tree.Dist {
		if d == topology.Infinite {
			budgets[x] = -1
			continue
		}
		budgets[x] = deadline - d
	}
	return budgets
}
