package algo1

import (
	"slices"
	"time"

	"repro/internal/topology"
)

// Deps is the monitoring substrate a Driver rebuilds route tables from.
// The driver never samples links itself; it asks the environment for a
// version counter and the current single-transmission <alpha, gamma>
// estimate of a directed link. The simulator backs this with netsim's
// deterministic monitoring windows; the live broker backs it with a
// gossip-fed link-state database measured from real traffic.
type Deps interface {
	// EstimateVersion is a counter that advances only when an estimate may
	// have changed. Equal versions guarantee equal estimates, which is what
	// makes an unchanged version a pointer-identity no-op.
	EstimateVersion() uint64
	// LinkEstimate reports the current single-transmission <alpha, gamma>
	// estimate of directed link (u, v). ok is false when the link is
	// unknown or down.
	LinkEstimate(u, v int) (alpha time.Duration, gamma float64, ok bool)
}

// PairKey names one (publisher topic, subscriber node) route-table pair.
type PairKey struct {
	Topic int32
	Sub   int32
}

// DriverOptions tunes a Driver.
type DriverOptions struct {
	// Build tunes the per-pair Algorithm-1 fixpoint.
	Build BuildOptions
}

// pairState is one registered (topic, subscriber) pair: its authoritative
// budget vector, its current table (nil before the first build) and a dirty
// mark forcing a rebuild under an unchanged estimate version (new
// registration or a changed budget/graph).
type pairState struct {
	sub    int
	budget []time.Duration
	table  *Table
	dirty  bool
}

// Driver owns the route tables for a set of registered (topic, subscriber)
// pairs and refreshes them from its Deps on demand. Rebuild is the whole
// contract, and every table it holds is a pure function of (graph, current
// estimates, pair budget, options): no table depends on the tables or the
// estimates that came before it, so two drivers that see the same estimates
// hold equal tables whatever order the changes arrived in (RebuildCold is
// the oracle tests cross-check that against).
//
// A Driver is not safe for concurrent use; both shells call it from a
// single goroutine (the simulator's event loop, the broker's control loop).
type Driver struct {
	g    *topology.Graph
	deps Deps
	opts DriverOptions

	pairs map[PairKey]*pairState
	order []PairKey // registration order: deterministic build order

	estVer uint64 // version the clean pairs' tables were built from
	nDirty int

	// snap, build and tables are the storage every Rebuild reuses: the
	// epoch's link statistics, refilled in place, the fixpoint buffers every
	// pair's build runs in, and the staging of new sending lists. Tables
	// never alias any of them.
	snap   Snapshot
	build  builder
	tables tableSet

	// Rebuild outcome counters (diagnostics, exported via Stats).
	epochs  uint64
	noops   uint64
	rebuilt uint64
}

// NewDriver creates a driver over the supplied overlay graph and
// monitoring substrate, with no pairs registered.
func NewDriver(g *topology.Graph, deps Deps, opts DriverOptions) *Driver {
	if opts.Build.M < 1 {
		opts.Build.M = 1
	}
	return &Driver{g: g, deps: deps, opts: opts, pairs: make(map[PairKey]*pairState)}
}

// Graph returns the overlay graph the driver currently builds against.
func (d *Driver) Graph() *topology.Graph { return d.g }

// SetGraph replaces the overlay graph (live topologies grow and shrink as
// gossip reveals brokers). Every pair is marked dirty.
func (d *Driver) SetGraph(g *topology.Graph) {
	d.g = g
	for _, key := range d.order {
		p := d.pairs[key]
		if !p.dirty {
			p.dirty = true
			d.nDirty++
		}
	}
}

// SetPair registers (or refreshes) one (topic, subscriber) pair. sub is the
// subscriber's node index in the graph; budget[x] is node x's residual
// delay requirement D_XS (see BudgetsFromTree; a uniform deadline vector
// reproduces the live broker's flat admission rule). Re-registering with an
// identical subscriber and budget is a cheap no-op, so callers may sync
// their full pair set every epoch.
func (d *Driver) SetPair(key PairKey, sub int, budget []time.Duration) {
	if p, ok := d.pairs[key]; ok {
		if p.sub == sub && slices.Equal(p.budget, budget) {
			return
		}
		p.sub = sub
		p.budget = append(p.budget[:0], budget...)
		if !p.dirty {
			p.dirty = true
			d.nDirty++
		}
		return
	}
	d.pairs[key] = &pairState{sub: sub, budget: append([]time.Duration(nil), budget...), dirty: true}
	d.order = append(d.order, key)
	d.nDirty++
}

// RemovePair drops a pair and its table.
func (d *Driver) RemovePair(key PairKey) {
	p, ok := d.pairs[key]
	if !ok {
		return
	}
	if p.dirty {
		d.nDirty--
	}
	delete(d.pairs, key)
	if i := slices.Index(d.order, key); i >= 0 {
		d.order = slices.Delete(d.order, i, i+1)
	}
}

// Table returns the pair's current route table (nil before the first
// Rebuild or for an unregistered pair).
func (d *Driver) Table(key PairKey) *Table {
	p, ok := d.pairs[key]
	if !ok {
		return nil
	}
	return p.table
}

// Pairs calls fn for every registered pair in registration order with its
// current table (nil before the first build).
func (d *Driver) Pairs(fn func(key PairKey, t *Table)) {
	for _, key := range d.order {
		fn(key, d.pairs[key].table)
	}
}

// DriverStats counts rebuild outcomes.
type DriverStats struct {
	// Epochs is the number of Rebuild calls.
	Epochs uint64
	// Noops is how many of them were pointer-identity no-ops (version
	// unchanged and no pair dirty).
	Noops uint64
	// TablesBuilt is the total number of per-pair fixpoint builds.
	TablesBuilt uint64
	// EstimateVersion is the version the current tables were built from.
	EstimateVersion uint64
}

// Stats returns rebuild-outcome counters.
func (d *Driver) Stats() DriverStats {
	return DriverStats{Epochs: d.epochs, Noops: d.noops, TablesBuilt: d.rebuilt, EstimateVersion: d.estVer}
}

// Rebuild refreshes the route tables from the monitoring estimates current
// at the Deps and reports whether any table may have changed. An unchanged
// estimate version with no dirty pair is a no-op reusing every prior table;
// a changed version rebuilds every pair; otherwise only the dirty pairs are
// rebuilt. Each build starts cold against one Snapshot shared by the call.
//
// A rebuilt pair whose result is Equal to its current table keeps that
// table; otherwise it gets a new one sharing every unchanged slice of the
// old. A table once returned is never written, so callers may keep reading
// it (or slices of it) across later Rebuilds. Once the driver's storage has
// grown to the graph, an epoch whose tables all come out equal allocates
// nothing.
func (d *Driver) Rebuild() bool {
	d.epochs++
	ver := d.deps.EstimateVersion()
	all := ver != d.estVer
	if !all && d.nDirty == 0 {
		d.noops++
		return false
	}
	d.estVer = ver
	n := d.g.N()
	d.snap.fill(d.g, d.deps.LinkEstimate, d.opts.Build.M)
	for _, key := range d.order {
		p := d.pairs[key]
		if len(p.budget) != n || p.sub < 0 || p.sub >= n {
			// The graph moved under the pair and the caller has not refreshed
			// its budgets yet; building would index out of bounds. Skip — the
			// pair stays dirty and builds on the next epoch after a SetPair.
			continue
		}
		if !all && !p.dirty {
			continue
		}
		d.build.run(d.g, &d.snap, p.sub, p.budget, d.opts.Build)
		p.table = d.tables.add(&d.build, p.table, p.sub, p.budget)
		d.rebuilt++
		if p.dirty {
			p.dirty = false
			d.nDirty--
		}
	}
	d.tables.commit()
	return true
}

// RebuildCold re-runs Algorithm 1 for every registered pair whatever the
// estimate version, each pair paying for its own link-stats snapshot. It is
// the oracle tests and benchmarks cross-check Rebuild's tables against.
func (d *Driver) RebuildCold() {
	n := d.g.N()
	for _, key := range d.order {
		p := d.pairs[key]
		if len(p.budget) != n || p.sub < 0 || p.sub >= n {
			continue
		}
		p.table = BuildTable(d.g, d.deps.LinkEstimate, p.sub, p.budget, d.opts.Build)
		if p.dirty {
			p.dirty = false
			d.nDirty--
		}
	}
	d.estVer = d.deps.EstimateVersion()
}
