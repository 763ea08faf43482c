package broker

// The live Algorithm-1 control plane: the second shell over the
// transport-agnostic engine in internal/algo1 (the DES router in
// internal/core is the first).
//
// Every broker measures its own links from real traffic — alpha from ping
// and ACK round trips, gamma from hop-by-hop ACK outcomes, with a low-rate
// PROBE exchange covering links no data currently crosses — and floods the
// measured record set to its neighbors as a wire.LinkState frame whenever
// an estimate moves. Floods carry an origin-local, strictly increasing
// epoch; receivers drop stale replays, re-flood newer records to their
// other capable neighbors, and fold the records into a link-state database
// (linkStateDB) that implements algo1.Deps. Applying a flood diffs it
// against the origin's previous record set, so the estimate version moves
// only when the gossip actually changed something: a quiet control epoch
// is a pointer-identity no-op, and a link death re-sorts the Theorem-1
// sending lists within about one LinkStateInterval of the flood arriving.
//
// The resulting sending lists are published copy-on-write (ctrlSnapshot)
// and consulted by the data plane ahead of the advert-plane lists
// (shardShell.SendingList); destination membership (which brokers
// subscribe to a topic) stays advert-driven, so a mixed overlay where some
// brokers never advertise wire.CapLinkState keeps routing exactly as
// before on the legacy links.

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algo1"
	"repro/internal/topology"
	"repro/internal/wire"
)

const (
	// ctrlMaxNodeID bounds broker IDs accepted from gossip. The frame-ID
	// encoding already caps overlay IDs at 16 bits; enforcing the same
	// bound here keeps a hostile flood from inflating the overlay graph.
	ctrlMaxNodeID = 1 << 16
	// ctrlAlphaTolerance / ctrlGammaTolerance are how far a local estimate
	// must move before the broker re-floods it (mirrors advertTolerance).
	ctrlAlphaTolerance = time.Millisecond
	ctrlGammaTolerance = 0.01
	// ctrlRefreshEvery re-floods unchanged local estimates every N control
	// intervals anyway, repairing floods lost to link churn.
	ctrlRefreshEvery = 10
	// maxDataSamples bounds the per-link map of outbound frame send times
	// kept for ACK-derived alpha sampling.
	maxDataSamples = 32
)

// ctrlLink is one directed link estimate as gossip reported it.
type ctrlLink struct {
	alpha time.Duration
	gamma float64
}

// ctrlOrigin is one broker's latest flooded record set.
type ctrlOrigin struct {
	epoch uint64
	links map[int32]ctrlLink
}

// linkStateDB is the gossip-fed monitoring substrate: each origin's latest
// record set under its flood epoch, plus an estimate version that advances
// only when an applied flood actually moved an estimate. It implements
// algo1.Deps for the rebuild driver.
//
// A crashed broker's own records linger (nobody floods on its behalf), but
// they are harmless: reaching it requires a live inbound link, and its
// neighbors withdraw those from their own record sets as soon as the TCP
// connection drops.
type linkStateDB struct {
	mu      sync.Mutex
	origins map[int32]*ctrlOrigin
	version uint64
	// topoVer advances when the link or node SET changes (not mere
	// estimate drift) — the driver's graph must be rebuilt then.
	topoVer uint64
}

func newLinkStateDB() *linkStateDB {
	return &linkStateDB{origins: make(map[int32]*ctrlOrigin)}
}

// apply folds one flood into the database. newer reports whether the epoch
// advanced (the flood should be re-flooded); changed whether any estimate
// actually moved (the driver has table work).
func (db *linkStateDB) apply(origin int32, epoch uint64, recs []wire.LinkRecord) (newer, changed bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	os := db.origins[origin]
	if os != nil && epoch <= os.epoch {
		return false, false
	}
	if os == nil {
		os = &ctrlOrigin{links: make(map[int32]ctrlLink)}
		db.origins[origin] = os
	}
	os.epoch = epoch
	next := make(map[int32]ctrlLink, len(recs))
	for _, r := range recs {
		if r.Gamma <= 0 {
			continue // an explicit withdrawal: simply absent from the new set
		}
		next[r.To] = ctrlLink{alpha: r.Alpha, gamma: r.Gamma}
	}
	// The link set changed iff a link appeared or the count differs (then
	// one vanished); an estimate moved iff that, or a surviving link differs.
	topo := len(next) != len(os.links)
	for to, nl := range next {
		ol, had := os.links[to]
		if !had {
			topo = true
		} else if ol != nl {
			changed = true
		}
	}
	os.links = next
	if topo {
		db.topoVer++
		changed = true
	}
	if changed {
		db.version++
	}
	return true, changed
}

// topoVersion returns the current topology-change counter.
func (db *linkStateDB) topoVersion() uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.topoVer
}

// buildGraph materializes the overlay graph the database currently
// describes: one node per broker ID up to the highest seen, one undirected
// edge per link either endpoint reports. Edge delays are cosmetic (the
// rebuild snapshot reads estimates through LinkEstimate).
func (db *linkStateDB) buildGraph() *topology.Graph {
	db.mu.Lock()
	defer db.mu.Unlock()
	maxID := -1
	for o, os := range db.origins {
		for to := range os.links {
			if int(o) > maxID {
				maxID = int(o)
			}
			if int(to) > maxID {
				maxID = int(to)
			}
		}
	}
	g := topology.NewGraph(maxID + 1)
	for o, os := range db.origins {
		for to, l := range os.links {
			if o == to || g.HasLink(int(o), int(to)) {
				continue
			}
			_ = g.AddLink(int(o), int(to), l.alpha)
		}
	}
	return g
}

// EstimateVersion implements algo1.Deps.
func (db *linkStateDB) EstimateVersion() uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.version
}

// LinkEstimate implements algo1.Deps: the directed estimate the link's
// origin last flooded.
func (db *linkStateDB) LinkEstimate(u, v int) (time.Duration, float64, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	os := db.origins[int32(u)]
	if os == nil {
		return 0, 0, false
	}
	l, ok := os.links[int32(v)]
	if !ok {
		return 0, 0, false
	}
	return l.alpha, l.gamma, true
}

// linkStats snapshots the database for monitoring, sorted by (from, to).
func (db *linkStateDB) linkStats() []wire.LinkStat {
	db.mu.Lock()
	defer db.mu.Unlock()
	var out []wire.LinkStat
	for o, os := range db.origins {
		for to, l := range os.links {
			out = append(out, wire.LinkStat{
				From: o, To: to, Alpha: l.alpha, Gamma: l.gamma, Epoch: os.epoch,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// snapshotFloods renders every origin's current record set as LinkState
// frames — the full-database sync sent to a capable neighbor on attach so
// a restarted broker converges without waiting out every origin's next
// refresh.
func (db *linkStateDB) snapshotFloods() []*wire.LinkState {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]*wire.LinkState, 0, len(db.origins))
	for o, os := range db.origins {
		ls := &wire.LinkState{Origin: o, Epoch: os.epoch, Links: make([]wire.LinkRecord, 0, len(os.links))}
		for to, l := range os.links {
			ls.Links = append(ls.Links, wire.LinkRecord{To: to, Alpha: l.alpha, Gamma: l.gamma})
		}
		slices.SortFunc(ls.Links, func(a, b wire.LinkRecord) int { return int(a.To) - int(b.To) })
		out = append(out, ls)
	}
	return out
}

// ctrlSnapshot is the data plane's copy-on-write view of the control
// plane's Theorem-1 sending lists; the contained slices are table-owned
// and never mutated after publication.
type ctrlSnapshot struct {
	lists map[routeKey][]int
}

// ctrlPlane owns the broker's gossip-fed control state: the link-state
// database, the rebuild driver and the flood/probe schedule.
// All mutable non-atomic state is confined to the control goroutine
// (loop); other goroutines interact through the database's own lock, the
// kick channel and the atomic counters.
type ctrlPlane struct {
	b    *Broker
	db   *linkStateDB
	drv  *algo1.Driver
	kick chan struct{}

	// epoch is this broker's own flood epoch: wall-clock seeded so a
	// restarted broker's floods always outrank its previous incarnation's,
	// then incremented per flood.
	epoch      uint64
	lastFlood  []wire.LinkRecord
	sinceFlood int
	topoVer    uint64 // db.topoVer the driver's graph currently reflects
	probeTok   uint64 // probe token allocator (control goroutine only)
	// budgets caches the uniform deadline vector of every deadline a
	// current pair uses (syncPairs).
	budgets map[time.Duration][]time.Duration

	// Counters mirrored for Stats/statsReply (read from any goroutine).
	sent, recv, stale          atomic.Uint64
	probes, probeReplies       atomic.Uint64
	epochA, versionA           atomic.Uint64
	rebuildsA, noopsA, tablesA atomic.Uint64
}

func newCtrlPlane(b *Broker) *ctrlPlane {
	db := newLinkStateDB()
	return &ctrlPlane{
		b:     b,
		db:    db,
		drv:   algo1.NewDriver(topology.NewGraph(0), db, algo1.DriverOptions{Build: algo1.BuildOptions{M: b.cfg.M}}),
		kick:  make(chan struct{}, 1),
		epoch: uint64(time.Now().UnixNano()),
	}
}

// kickCtrl nudges the control loop to run a step ahead of its ticker —
// after gossip changed an estimate, a capable peer attached, or a link
// dropped. Best-effort: a pending kick already guarantees a prompt step.
func (c *ctrlPlane) kickCtrl() {
	if c == nil {
		return
	}
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// loop is the control goroutine: one step per LinkStateInterval, sooner
// when kicked.
func (c *ctrlPlane) loop() {
	ticker := time.NewTicker(c.b.cfg.LinkStateInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.b.done:
			return
		case <-ticker.C:
		case <-c.kick:
		}
		c.step()
	}
}

// step runs one control epoch: re-measure and maybe flood the local
// links, probe idle ones, sync the pair set from the advert plane, rebuild
// and publish the new sending lists.
func (c *ctrlPlane) step() {
	now := time.Now()
	c.floodLocal(now)
	c.probeIdle(now)
	c.syncPairs()
	if c.drv.Rebuild() {
		c.publish()
	}
	st := c.drv.Stats()
	c.versionA.Store(st.EstimateVersion)
	c.rebuildsA.Store(st.Epochs - st.Noops)
	c.noopsA.Store(st.Noops)
	c.tablesA.Store(st.TablesBuilt)
}

// localRecords measures this broker's connected links, sorted by neighbor.
func (c *ctrlPlane) localRecords() []wire.LinkRecord {
	b := c.b
	ids := make([]int, 0, len(b.neighbors))
	for id := range b.neighbors {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	recs := make([]wire.LinkRecord, 0, len(ids))
	for _, id := range ids {
		nc := b.neighbors[id]
		if !nc.connected() {
			continue
		}
		alpha, gamma := nc.estimate()
		recs = append(recs, wire.LinkRecord{To: int32(id), Alpha: alpha, Gamma: gamma})
	}
	return recs
}

// recordsClose reports whether two record sets agree within the re-flood
// tolerances (same links, estimates barely moved).
func recordsClose(a, b []wire.LinkRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].To != b[i].To {
			return false
		}
		da := a[i].Alpha - b[i].Alpha
		if da < 0 {
			da = -da
		}
		dg := a[i].Gamma - b[i].Gamma
		if dg < 0 {
			dg = -dg
		}
		if da > ctrlAlphaTolerance || dg > ctrlGammaTolerance {
			return false
		}
	}
	return true
}

// floodLocal refreshes this broker's own record set: when an estimate
// moved past tolerance (or the periodic repair is due), the set is applied
// to the local database under a fresh epoch and flooded to every capable
// neighbor. Applying the flooded values — not the raw estimates — keeps
// every database in the overlay converging on identical content, so every
// broker computes identical tables.
func (c *ctrlPlane) floodLocal(now time.Time) {
	recs := c.localRecords()
	c.sinceFlood++
	if recordsClose(recs, c.lastFlood) && c.sinceFlood < ctrlRefreshEvery {
		return
	}
	c.sinceFlood = 0
	c.lastFlood = recs
	c.epoch++
	c.epochA.Store(c.epoch)
	self := int32(c.b.cfg.ID)
	c.db.apply(self, c.epoch, recs)
	c.flood(&wire.LinkState{Origin: self, Epoch: c.epoch, Links: recs}, -1)
}

// flood sends one LinkState to every connected capable neighbor except
// `except` (the peer it arrived from) and the origin itself. The message
// is shared read-only across writer pipelines, like the legacy Deliver.
func (c *ctrlPlane) flood(ls *wire.LinkState, except int) {
	for id, nc := range c.b.neighbors {
		if id == except || id == int(ls.Origin) || !nc.linkStateTo(c.b) {
			continue
		}
		if nc.send(ls) == nil {
			c.sent.Add(1)
		}
	}
}

// syncTo pushes the full database to one freshly attached capable
// neighbor, then schedules a step so local estimates re-flood promptly.
func (c *ctrlPlane) syncTo(nc *neighborConn) {
	if c == nil {
		return
	}
	for _, ls := range c.db.snapshotFloods() {
		if nc.send(ls) == nil {
			c.sent.Add(1)
		}
	}
	c.kickCtrl()
}

// handleLinkState folds one received flood into the database, re-floods
// newer records onward and wakes the control loop when an estimate moved.
// m is recycled by the caller's Reader after return, so records are copied
// before they are retained or re-flooded.
func (b *Broker) handleLinkState(nc *neighborConn, m *wire.LinkState) {
	c := b.ctrl
	if c == nil {
		return // link-state disabled: we never advertised the capability
	}
	c.recv.Add(1)
	if m.Origin < 0 || m.Origin >= ctrlMaxNodeID || m.Origin == int32(b.cfg.ID) {
		return // invalid origin, or our own flood reflected back
	}
	for _, r := range m.Links {
		if r.To < 0 || r.To >= ctrlMaxNodeID {
			b.logf("neighbor %d: link-state origin %d names node %d, dropping flood", nc.id, m.Origin, r.To)
			return
		}
	}
	recs := slices.Clone(m.Links)
	newer, changed := c.db.apply(m.Origin, m.Epoch, recs)
	if !newer {
		c.stale.Add(1)
		return
	}
	c.flood(&wire.LinkState{Origin: m.Origin, Epoch: m.Epoch, Links: recs}, nc.id)
	if changed {
		c.kickCtrl()
	}
}

// probeIdle keeps gamma live on links no data currently crosses: one
// outstanding PROBE per capable neighbor whose delivery estimate has had
// no signal for a ping interval. An unanswered probe decays gamma exactly
// like a missed ACK; the echo feeds alpha (RTT/2) and nudges gamma up.
func (c *ctrlPlane) probeIdle(now time.Time) {
	b := c.b
	for _, nc := range b.neighbors {
		if !nc.linkStateTo(b) || !nc.connected() {
			continue
		}
		if tok, at := nc.probeState(); tok != 0 {
			alpha, _ := nc.estimate()
			if now.Sub(at) <= 2*alpha+b.cfg.AckGuard {
				continue // still within its ACK-equivalent timeout
			}
			if nc.probeExpire(tok) {
				nc.ackTimedOut()
			}
		}
		if now.Sub(nc.gammaSignalAt()) < b.cfg.PingInterval {
			continue
		}
		c.probeTok++
		tok := c.probeTok
		nc.probeStart(tok, now)
		if nc.send(&wire.Probe{Token: tok}) == nil {
			c.probes.Add(1)
		} else {
			nc.probeExpire(tok)
		}
	}
}

// handleProbe answers a neighbor's probe or folds its echo into the link
// estimate.
func (b *Broker) handleProbe(nc *neighborConn, m *wire.Probe) {
	if !m.Reply {
		_ = nc.send(&wire.Probe{Token: m.Token, Reply: true})
		return
	}
	if c := b.ctrl; c != nil && nc.probeReply(m.Token, time.Now()) {
		c.probeReplies.Add(1)
	}
}

// syncPairs mirrors the advert plane's (topic, subscriber) set into the
// driver. Budgets are uniform deadline vectors — every node's residual
// D_XS is the subscription deadline — reproducing the live admission rule
// (publishers are decoupled, so per-publisher residuals are unknowable;
// see the package comment in broker.go). Identical re-registration is a
// driver no-op, so the full sync per epoch costs nothing at steady state.
func (c *ctrlPlane) syncPairs() {
	b := c.b
	type pairSpec struct {
		key      routeKey
		deadline time.Duration
	}
	b.mu.Lock()
	specs := make([]pairSpec, 0, len(b.routes))
	for key, rs := range b.routes {
		dl := rs.deadline
		if dl <= 0 {
			dl = b.cfg.DefaultDeadline
		}
		specs = append(specs, pairSpec{key, dl})
	}
	b.mu.Unlock()
	sort.Slice(specs, func(i, j int) bool {
		if specs[i].key.topic != specs[j].key.topic {
			return specs[i].key.topic < specs[j].key.topic
		}
		return specs[i].key.sub < specs[j].key.sub
	})

	if tv := c.db.topoVersion(); tv != c.topoVer {
		c.drv.SetGraph(c.db.buildGraph())
		c.topoVer = tv
	}
	n := c.drv.Graph().N()
	current := make(map[algo1.PairKey]bool, len(specs))
	// Deadlines arrive from outside (client subscriptions, neighbor adverts),
	// so the vector cache keeps only those a current pair uses.
	budgets := make(map[time.Duration][]time.Duration, len(c.budgets))
	for _, sp := range specs {
		if int(sp.key.sub) >= n || sp.key.sub < 0 {
			continue // subscriber not in the gossiped topology yet
		}
		budget := budgets[sp.deadline]
		if budget == nil {
			if budget = c.budgets[sp.deadline]; len(budget) != n {
				budget = make([]time.Duration, n)
				for i := range budget {
					budget[i] = sp.deadline
				}
			}
			budgets[sp.deadline] = budget
		}
		key := algo1.PairKey{Topic: sp.key.topic, Sub: sp.key.sub}
		c.drv.SetPair(key, int(sp.key.sub), budget)
		current[key] = true
	}
	c.budgets = budgets
	var gone []algo1.PairKey
	c.drv.Pairs(func(key algo1.PairKey, _ *algo1.Table) {
		if !current[key] {
			gone = append(gone, key)
		}
	})
	for _, key := range gone {
		c.drv.RemovePair(key)
	}
}

// publish swaps in a fresh copy-on-write snapshot of this broker's own
// sending lists (Lists[self] of each pair's table).
func (c *ctrlPlane) publish() {
	self := c.b.cfg.ID
	snap := &ctrlSnapshot{lists: make(map[routeKey][]int)}
	c.drv.Pairs(func(key algo1.PairKey, t *algo1.Table) {
		if t == nil || self >= len(t.Lists) {
			return
		}
		if l := t.Lists[self]; len(l) > 0 {
			snap.lists[routeKey{topic: key.Topic, sub: key.Sub}] = l
		}
	})
	c.b.ctrlSnap.Store(snap)
}

// ctrlStats snapshots the control plane for Stats and wire.StatsReply.
func (b *Broker) ctrlStats() (wire.CtrlStat, []wire.LinkStat) {
	c := b.ctrl
	if c == nil {
		return wire.CtrlStat{}, nil
	}
	return wire.CtrlStat{
		Enabled:        true,
		Epoch:          c.epochA.Load(),
		Version:        c.versionA.Load(),
		Rebuilds:       c.rebuildsA.Load(),
		Noops:          c.noopsA.Load(),
		TablesBuilt:    c.tablesA.Load(),
		LinkStatesSent: c.sent.Load(),
		LinkStatesRecv: c.recv.Load(),
		StaleDrops:     c.stale.Load(),
		ProbesSent:     c.probes.Load(),
		ProbeReplies:   c.probeReplies.Load(),
	}, c.db.linkStats()
}

// linkStateTo reports whether control-plane frames may be sent to this
// neighbor: link state enabled locally and the current peer advertised the
// capability.
func (nc *neighborConn) linkStateTo(b *Broker) bool {
	return nc != nil && !b.cfg.DisableLinkState && nc.peerLinkState.Load()
}
