package broker

// The live Algorithm-1 control plane, and the broker's only routing plane:
// the second shell over the transport-agnostic engine in internal/algo1 (the
// DES router in internal/core is the first).
//
// Every broker measures its own links from real traffic — alpha from probe
// echoes and DATA→ACK round trips, gamma from hop-by-hop ACK outcomes, with
// a low-rate PROBE exchange covering links no data currently crosses — and
// states its own topic membership: one record per topic with local
// subscribers. It floods both record sets to its neighbors as one
// wire.LinkState frame whenever either moves. Floods carry an origin-local,
// strictly increasing epoch; receivers drop stale replays, re-flood newer
// records to their other neighbors, and fold the records into a link-state
// database (linkStateDB) that implements algo1.Deps. Applying a flood diffs
// it against the origin's previous record set, so the estimate version
// moves only when the gossip actually changed an estimate: a quiet control
// epoch is a pointer-identity no-op, and a link death re-sorts the
// Theorem-1 sending lists within about one LinkStateInterval of the flood
// arriving. A topic missing from an origin's newer set is a withdraw, and
// since each broker states only its own membership, nothing is derived from
// a neighbor's view and nothing can count to infinity.
//
// The database is the one source of (topic, subscriber broker, deadline)
// pairs. Each step registers them with the driver, rebuilds, and publishes
// the sending lists together with every topic's destination brokers as one
// copy-on-write ctrlSnapshot, which is all the data plane reads
// (shardShell.SendingList, publishLocal).

import (
	"cmp"
	"maps"
	"slices"
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
	// must move before the broker re-floods it.
	ctrlAlphaTolerance = time.Millisecond
	ctrlGammaTolerance = 0.01
	// ctrlRefreshEvery re-floods unchanged local records every N control
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

// ctrlOrigin is one broker's latest flooded record set: its links and its
// membership (topic → deadline).
type ctrlOrigin struct {
	epoch   uint64
	links   map[int32]ctrlLink
	members map[int32]time.Duration
}

// linkStateDB is the gossip-fed monitoring substrate: each origin's latest
// record set under its flood epoch, plus an estimate version that advances
// only when an applied flood actually moved an estimate. It implements
// algo1.Deps for the rebuild driver.
//
// A crashed broker's own records linger (nobody floods on its behalf), but
// they are harmless: reaching it requires a live inbound link, and its
// neighbors withdraw those from their own record sets as soon as the TCP
// connection drops. The same withdrawal retires its membership (see
// members).
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

// apply folds one flood into the database; ls must not be mutated
// afterwards. newer reports whether the epoch advanced (the flood should be
// re-flooded); changed whether any estimate or membership actually moved
// (the control loop has work).
func (db *linkStateDB) apply(ls *wire.LinkState) (newer, changed bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	os := db.origins[ls.Origin]
	if os != nil && ls.Epoch <= os.epoch {
		return false, false
	}
	if os == nil {
		os = &ctrlOrigin{}
		db.origins[ls.Origin] = os
	}
	os.epoch = ls.Epoch
	next := make(map[int32]ctrlLink, len(ls.Links))
	for _, r := range ls.Links {
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
	// Membership is not an estimate: it changes the pair set, not the
	// version every pair's table is built from.
	members := make(map[int32]time.Duration, len(ls.Members))
	for _, m := range ls.Members {
		members[m.Topic] = m.Deadline
	}
	if !maps.Equal(members, os.members) {
		changed = true
	}
	os.members = members
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
			maxID = max(maxID, int(o), int(to))
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

// member is one (topic, subscriber broker) pair with its deadline.
type member struct {
	key      routeKey
	deadline time.Duration
}

// members lists the pairs the overlay currently subscribes, sorted. An
// origin's membership counts only while some other origin floods a link to
// it — the evidence buildGraph needs to route to it at all. A closed broker
// cannot withdraw its own records, but its neighbors withdraw their links to
// it, and with them it stops being a destination: its lingering topics must
// not hold every Persistent publish for a full lifetime.
func (db *linkStateDB) members() []member {
	db.mu.Lock()
	defer db.mu.Unlock()
	linked := make(map[int32]bool, len(db.origins))
	for o, os := range db.origins {
		for to := range os.links {
			if to != o {
				linked[to] = true
			}
		}
	}
	var out []member
	for o, os := range db.origins {
		if !linked[o] {
			continue
		}
		for topic, dl := range os.members {
			out = append(out, member{routeKey{topic: topic, sub: o}, dl})
		}
	}
	slices.SortFunc(out, func(a, b member) int {
		return cmp.Or(cmp.Compare(a.key.topic, b.key.topic), cmp.Compare(a.key.sub, b.key.sub))
	})
	return out
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
	slices.SortFunc(out, func(a, b wire.LinkStat) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
	return out
}

// snapshotFloods renders every origin's current record set as LinkState
// frames — the full-database sync sent to a neighbor on attach so a
// restarted broker converges without waiting out every origin's next
// refresh.
func (db *linkStateDB) snapshotFloods() []*wire.LinkState {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]*wire.LinkState, 0, len(db.origins))
	for o, os := range db.origins {
		ls := &wire.LinkState{Origin: o, Epoch: os.epoch}
		for to, l := range os.links {
			ls.Links = append(ls.Links, wire.LinkRecord{To: to, Alpha: l.alpha, Gamma: l.gamma})
		}
		for topic, dl := range os.members {
			ls.Members = append(ls.Members, wire.MemberRecord{Topic: topic, Deadline: dl})
		}
		slices.SortFunc(ls.Links, func(a, b wire.LinkRecord) int { return cmp.Compare(a.To, b.To) })
		slices.SortFunc(ls.Members, func(a, b wire.MemberRecord) int { return cmp.Compare(a.Topic, b.Topic) })
		out = append(out, ls)
	}
	return out
}

// ctrlSnapshot is the data plane's copy-on-write view of the control plane:
// this broker's Theorem-1 sending list per (topic, subscriber broker) pair,
// every topic's destination brokers for publishes (sorted, this broker
// excluded), and each pair's own <d, r> for monitoring. Lists are
// table-owned; nothing in a snapshot is mutated after publication.
type ctrlSnapshot struct {
	lists  map[routeKey][]int
	dests  map[int32][]int
	routes []wire.RouteStat
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
	epoch       uint64
	lastFlood   []wire.LinkRecord
	lastMembers []wire.MemberRecord
	sinceFlood  int
	topoVer     uint64 // db.topoVer the driver's graph currently reflects
	probeTok    uint64 // probe token allocator (control goroutine only)
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
// after gossip changed the database, a peer attached, a link dropped or got
// its first alpha sample, or local membership changed. Best-effort: a
// pending kick already guarantees a prompt step.
func (c *ctrlPlane) kickCtrl() {
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

// step runs one control epoch: re-measure and maybe flood the local links
// and membership, probe idle links, sync the pair set from the database,
// rebuild and publish the new snapshot.
func (c *ctrlPlane) step() {
	now := time.Now()
	c.floodLocal()
	c.probeIdle(now)
	removed := c.syncPairs()
	if rebuilt := c.drv.Rebuild(); rebuilt || removed {
		c.publish()
	}
	st := c.drv.Stats()
	c.versionA.Store(st.EstimateVersion)
	c.rebuildsA.Store(st.Epochs - st.Noops)
	c.noopsA.Store(st.Noops)
	c.tablesA.Store(st.TablesBuilt)
}

// localRecords measures this broker's connected, sampled links, sorted by
// neighbor.
func (c *ctrlPlane) localRecords() []wire.LinkRecord {
	recs := make([]wire.LinkRecord, 0, len(c.b.neighbors))
	for _, nc := range c.b.neighbors {
		if r, ok := nc.record(); ok {
			recs = append(recs, r)
		}
	}
	slices.SortFunc(recs, func(a, b wire.LinkRecord) int { return cmp.Compare(a.To, b.To) })
	return recs
}

// localMembers states this broker's membership: one record per topic with
// local subscribers, carrying the loosest deadline among them (the budget
// Algorithm 1 admits against), sorted by topic. Subscriptions still waiting
// for the coalescing flusher are published first: a topic must not reach
// the publishers before its delivery ledger does, or the first packets
// routed here would find no one to deliver to.
func (c *ctrlPlane) localMembers() []wire.MemberRecord {
	b := c.b
	b.mu.Lock()
	b.flushSubsLocked()
	out := make([]wire.MemberRecord, 0, len(b.topics))
	for topic, ts := range b.topics {
		if ts.occupied() {
			out = append(out, wire.MemberRecord{Topic: topic, Deadline: ts.maxDeadline()})
		}
	}
	b.mu.Unlock()
	slices.SortFunc(out, func(a, b wire.MemberRecord) int { return cmp.Compare(a.Topic, b.Topic) })
	return out
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
// moved past tolerance, the membership changed at all, or the periodic
// repair is due, the set is applied to the local database under a fresh
// epoch and flooded to every neighbor. Applying the flooded values — not
// the raw estimates — keeps every database in the overlay converging on
// identical content, so every broker computes identical tables.
func (c *ctrlPlane) floodLocal() {
	recs, members := c.localRecords(), c.localMembers()
	c.sinceFlood++
	if recordsClose(recs, c.lastFlood) && slices.Equal(members, c.lastMembers) && c.sinceFlood < ctrlRefreshEvery {
		return
	}
	c.sinceFlood = 0
	c.lastFlood, c.lastMembers = recs, members
	c.epoch++
	c.epochA.Store(c.epoch)
	ls := &wire.LinkState{Origin: int32(c.b.cfg.ID), Epoch: c.epoch, Links: recs, Members: members}
	c.db.apply(ls)
	c.flood(ls, -1)
}

// flood sends one LinkState to every connected neighbor except `except`
// (the peer it arrived from) and the origin itself. The message is shared
// read-only across writer pipelines.
func (c *ctrlPlane) flood(ls *wire.LinkState, except int) {
	for id, nc := range c.b.neighbors {
		if id == except || id == int(ls.Origin) {
			continue
		}
		if nc.send(ls) == nil {
			c.sent.Add(1)
		}
	}
}

// syncTo pushes the full database to one freshly attached neighbor, then
// schedules a step so local records re-flood promptly.
func (c *ctrlPlane) syncTo(nc *neighborConn) {
	for _, ls := range c.db.snapshotFloods() {
		if nc.send(ls) == nil {
			c.sent.Add(1)
		}
	}
	c.kickCtrl()
}

// handleLinkState folds one received flood into the database, re-floods
// newer records onward and wakes the control loop when the flood changed
// something. m is recycled by the caller's Reader after return, so records
// are copied before they are retained or re-flooded.
func (b *Broker) handleLinkState(nc *neighborConn, m *wire.LinkState) {
	c := b.ctrl
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
	ls := &wire.LinkState{Origin: m.Origin, Epoch: m.Epoch, Links: slices.Clone(m.Links), Members: slices.Clone(m.Members)}
	newer, changed := c.db.apply(ls)
	if !newer {
		c.stale.Add(1)
		return
	}
	c.flood(ls, nc.id)
	if changed {
		c.kickCtrl()
	}
}

// probeIdle keeps gamma live on links no data currently crosses: one
// outstanding PROBE per neighbor whose delivery estimate has had no signal
// for a ping interval. An unanswered probe decays gamma exactly like a
// missed ACK; the echo feeds alpha (RTT/2) and nudges gamma up. A link
// with no alpha sample has had no signal at all, so it is probed at the
// first step after it attaches.
func (c *ctrlPlane) probeIdle(now time.Time) {
	b := c.b
	for _, nc := range b.neighbors {
		if !nc.connected() {
			continue
		}
		if tok, at, wait := nc.probeState(b.cfg.AckGuard, b.cfg.PingInterval); tok != 0 {
			if now.Sub(at) <= wait {
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
// estimate; an echo that is the link's first alpha sample kicks the control
// loop, so the link joins the flooded records without waiting for a tick.
//
// The echo is held for AckFlushInterval: that is what the coalesced ACK of a
// lone DATA frame waits, so a probed idle link and a busy link sampled from
// DATA→ACK report the same round trip. Answered at once, probes made idle
// links look several times faster than busy ones on a fast network, and
// Algorithm 1 moved traffic onto longer idle paths.
func (b *Broker) handleProbe(nc *neighborConn, m *wire.Probe) {
	if !m.Reply {
		reply := &wire.Probe{Token: m.Token, Reply: true}
		time.AfterFunc(b.cfg.AckFlushInterval, func() { _ = nc.send(reply) })
		return
	}
	matched, first := nc.probeReply(m.Token, time.Now())
	if matched {
		b.ctrl.probeReplies.Add(1)
	}
	if first {
		b.ctrl.kickCtrl()
	}
}

// syncPairs registers one driver pair per member the database holds and
// drops the pairs whose member is gone. It reports whether it dropped any:
// a removal alone leaves Rebuild nothing to do, yet the published
// destinations must lose the pair. Budgets are uniform deadline vectors —
// every node's residual D_XS is the subscription deadline — reproducing the
// live admission rule (publishers are decoupled, so per-publisher residuals
// are unknowable; see the package comment in broker.go). Identical
// re-registration is a driver no-op, so the full sync per epoch costs
// nothing at steady state.
func (c *ctrlPlane) syncPairs() (removed bool) {
	if tv := c.db.topoVersion(); tv != c.topoVer {
		c.drv.SetGraph(c.db.buildGraph())
		c.topoVer = tv
	}
	n := c.drv.Graph().N()
	members := c.db.members()
	current := make(map[algo1.PairKey]bool, len(members))
	// Deadlines arrive from outside (every broker's subscribers), so the
	// vector cache keeps only those a current pair uses.
	budgets := make(map[time.Duration][]time.Duration, len(c.budgets))
	for _, m := range members {
		if int(m.key.sub) >= n {
			continue // a flood landed after the graph was built; the next step has it
		}
		budget := budgets[m.deadline]
		if budget == nil {
			if budget = c.budgets[m.deadline]; len(budget) != n {
				budget = make([]time.Duration, n)
				for i := range budget {
					budget[i] = m.deadline
				}
			}
			budgets[m.deadline] = budget
		}
		key := algo1.PairKey{Topic: m.key.topic, Sub: m.key.sub}
		c.drv.SetPair(key, int(m.key.sub), budget)
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
	return len(gone) > 0
}

// publish swaps in a fresh snapshot: for every registered pair, this
// broker's own sending list and <d, r> (Lists[self] and Params[self] of the
// pair's table), and the pair's subscriber as a destination of its topic.
func (c *ctrlPlane) publish() {
	self := c.b.cfg.ID
	snap := &ctrlSnapshot{lists: make(map[routeKey][]int), dests: make(map[int32][]int)}
	c.drv.Pairs(func(key algo1.PairKey, t *algo1.Table) {
		if int(key.Sub) != self {
			snap.dests[key.Topic] = append(snap.dests[key.Topic], int(key.Sub))
		}
		if t == nil || self >= len(t.Lists) {
			return
		}
		if l := t.Lists[self]; len(l) > 0 {
			snap.lists[routeKey{topic: key.Topic, sub: key.Sub}] = l
		}
		snap.routes = append(snap.routes, wire.RouteStat{
			Topic: key.Topic, Sub: key.Sub,
			D: t.Params[self].D, R: t.Params[self].R, ListLen: int32(len(t.Lists[self])),
		})
	})
	for _, d := range snap.dests {
		slices.Sort(d)
	}
	slices.SortFunc(snap.routes, func(a, b wire.RouteStat) int {
		return cmp.Or(cmp.Compare(a.Topic, b.Topic), cmp.Compare(a.Sub, b.Sub))
	})
	c.b.ctrlSnap.Store(snap)
}

// ctrlStats snapshots the control plane for Stats and wire.StatsReply.
func (b *Broker) ctrlStats() (wire.CtrlStat, []wire.LinkStat) {
	c := b.ctrl
	return wire.CtrlStat{
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
