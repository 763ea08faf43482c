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

// ctrlOrigin is one broker's latest flooded record set: its links (gamma >
// 0) sorted by neighbor and its membership sorted by topic, at most one
// record per neighbor and per topic. The database owns both slices and
// rewrites them in place: each newer flood is filled into the spare pair and
// swapped in.
type ctrlOrigin struct {
	epoch        uint64
	links        []wire.LinkRecord
	members      []wire.MemberRecord
	spareLinks   []wire.LinkRecord
	spareMembers []wire.MemberRecord
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
// appendMembers).
type linkStateDB struct {
	mu      sync.Mutex
	origins map[int32]*ctrlOrigin
	version uint64
	// topoVer advances when the link or node SET changes (not mere
	// estimate drift) — the driver's graph must be rebuilt then.
	topoVer uint64
	// memberVer advances when some origin's membership changes.
	memberVer uint64
	// linked is appendMembers' scratch set.
	linked map[int32]bool
}

func newLinkStateDB() *linkStateDB {
	return &linkStateDB{origins: make(map[int32]*ctrlOrigin), linked: make(map[int32]bool)}
}

// apply folds one flood into the database. It copies what it keeps, so ls
// may be reused once it returns, and a stale flood is dropped before
// anything is copied. newer reports whether the epoch advanced (the flood
// should be re-flooded); changed whether any estimate or membership actually
// moved (the control loop has work).
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
	next := os.spareLinks[:0]
	for _, r := range ls.Links {
		if r.Gamma > 0 { // an explicit withdrawal is simply absent from the new set
			next = append(next, r)
		}
	}
	next = sortedLastWins(next, func(r wire.LinkRecord) int32 { return r.To })
	// The link set changed iff the neighbors differ; an estimate moved iff
	// that, or a surviving link's record differs.
	topo := len(next) != len(os.links)
	for i := 0; !topo && i < len(next); i++ {
		topo = next[i].To != os.links[i].To
		changed = changed || next[i] != os.links[i]
	}
	os.spareLinks, os.links = os.links, next
	if topo {
		db.topoVer++
		changed = true
	}
	if changed {
		db.version++
	}
	// Membership is not an estimate: it changes the pair set, not the
	// version every pair's table is built from.
	members := sortedLastWins(append(os.spareMembers[:0], ls.Members...),
		func(m wire.MemberRecord) int32 { return m.Topic })
	if !slices.Equal(members, os.members) {
		db.memberVer++
		changed = true
	}
	os.spareMembers, os.members = os.members, members
	return true, changed
}

// sortedLastWins sorts recs by key in place and keeps the last of each run
// of equal keys, as a map filled in input order would.
func sortedLastWins[T any](recs []T, key func(T) int32) []T {
	slices.SortStableFunc(recs, func(a, b T) int { return cmp.Compare(key(a), key(b)) })
	w := 0
	for _, r := range recs {
		if w > 0 && key(recs[w-1]) == key(r) {
			w--
		}
		recs[w] = r
		w++
	}
	return recs[:w]
}

// versions returns the topology and membership change counters.
func (db *linkStateDB) versions() (topo, members uint64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.topoVer, db.memberVer
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
		for _, l := range os.links {
			maxID = max(maxID, int(o), int(l.To))
		}
	}
	g := topology.NewGraph(maxID + 1)
	for o, os := range db.origins {
		for _, l := range os.links {
			if o == l.To || g.HasLink(int(o), int(l.To)) {
				continue
			}
			_ = g.AddLink(int(o), int(l.To), l.Alpha)
		}
	}
	return g
}

// member is one (topic, subscriber broker) pair with its deadline.
type member struct {
	key      routeKey
	deadline time.Duration
}

// appendMembers appends the pairs the overlay currently subscribes to dst,
// sorted. An origin's membership counts only while some other origin floods
// a link to it — the evidence buildGraph needs to route to it at all. A
// closed broker cannot withdraw its own records, but its neighbors withdraw
// their links to it, and with them it stops being a destination: its
// lingering topics must not hold every Persistent publish for a full
// lifetime.
func (db *linkStateDB) appendMembers(dst []member) []member {
	db.mu.Lock()
	defer db.mu.Unlock()
	clear(db.linked)
	for o, os := range db.origins {
		for _, l := range os.links {
			if l.To != o {
				db.linked[l.To] = true
			}
		}
	}
	start := len(dst)
	for o, os := range db.origins {
		if !db.linked[o] {
			continue
		}
		for _, m := range os.members {
			dst = append(dst, member{routeKey{topic: m.Topic, sub: o}, m.Deadline})
		}
	}
	slices.SortFunc(dst[start:], func(a, b member) int {
		return cmp.Or(cmp.Compare(a.key.topic, b.key.topic), cmp.Compare(a.key.sub, b.key.sub))
	})
	return dst
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
	i, ok := slices.BinarySearchFunc(os.links, int32(v), func(l wire.LinkRecord, to int32) int { return cmp.Compare(l.To, to) })
	if !ok {
		return 0, 0, false
	}
	return os.links[i].Alpha, os.links[i].Gamma, true
}

// linkStats snapshots the database for monitoring, sorted by (from, to).
func (db *linkStateDB) linkStats() []wire.LinkStat {
	db.mu.Lock()
	defer db.mu.Unlock()
	var out []wire.LinkStat
	for o, os := range db.origins {
		for _, l := range os.links {
			out = append(out, wire.LinkStat{
				From: o, To: l.To, Alpha: l.Alpha, Gamma: l.Gamma, Epoch: os.epoch,
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
		out = append(out, &wire.LinkState{
			Origin: o, Epoch: os.epoch, Links: slices.Clone(os.links), Members: slices.Clone(os.members),
		})
	}
	return out
}

// ctrlSnapshot is the data plane's copy-on-write view of the control plane:
// this broker's Theorem-1 sending list per (topic, subscriber broker) pair
// and every topic's destination brokers for publishes (sorted, this broker
// excluded). Lists are table-owned; nothing in a snapshot is mutated after
// publication, and a new one is swapped in only when a list or a
// destination set changed.
type ctrlSnapshot struct {
	lists map[routeKey][]int
	dests map[int32][]int
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
	memberVer   uint64 // db.memberVer the driver's pairs currently reflect
	probeTok    uint64 // probe token allocator (control goroutine only)
	// budgets caches the uniform deadline vector of every deadline a
	// current pair uses; syncPairs refills spareBudgets and swaps the two.
	budgets, spareBudgets map[time.Duration][]time.Duration

	// Scratch reused by every step: the measured local records
	// (floodLocal) and the pair sync's member list, key set and removals.
	recs    []wire.LinkRecord
	members []wire.MemberRecord
	pairs   []member
	current map[algo1.PairKey]bool
	gone    []algo1.PairKey

	// routes is every pair's <d, r> at this broker, sorted, for
	// wire.StatsReply: refilled by publish, copied out by routeStats.
	routesMu sync.Mutex
	routes   []wire.RouteStat

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

		budgets:      make(map[time.Duration][]time.Duration),
		spareBudgets: make(map[time.Duration][]time.Duration),
		current:      make(map[algo1.PairKey]bool),
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

// appendLocalRecords appends this broker's connected, sampled links to
// dst, sorted by neighbor.
func (c *ctrlPlane) appendLocalRecords(dst []wire.LinkRecord) []wire.LinkRecord {
	start := len(dst)
	for _, nc := range c.b.neighbors {
		if r, ok := nc.record(); ok {
			dst = append(dst, r)
		}
	}
	slices.SortFunc(dst[start:], func(a, b wire.LinkRecord) int { return cmp.Compare(a.To, b.To) })
	return dst
}

// appendLocalMembers appends this broker's membership to dst: one record
// per topic with local subscribers, carrying the loosest deadline among them
// (the budget Algorithm 1 admits against), sorted by topic. Subscriptions
// still waiting for the coalescing flusher are published first: a topic must
// not reach the publishers before its delivery ledger does, or the first
// packets routed here would find no one to deliver to.
func (c *ctrlPlane) appendLocalMembers(dst []wire.MemberRecord) []wire.MemberRecord {
	b := c.b
	start := len(dst)
	b.mu.Lock()
	b.flushSubsLocked()
	for topic, ts := range b.topics {
		if ts.occupied() {
			dst = append(dst, wire.MemberRecord{Topic: topic, Deadline: ts.maxDeadline()})
		}
	}
	b.mu.Unlock()
	slices.SortFunc(dst[start:], func(a, b wire.MemberRecord) int { return cmp.Compare(a.Topic, b.Topic) })
	return dst
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
	c.recs = c.appendLocalRecords(c.recs[:0])
	c.members = c.appendLocalMembers(c.members[:0])
	c.sinceFlood++
	if recordsClose(c.recs, c.lastFlood) && slices.Equal(c.members, c.lastMembers) && c.sinceFlood < ctrlRefreshEvery {
		return
	}
	c.sinceFlood = 0
	c.lastFlood = append(c.lastFlood[:0], c.recs...)
	c.lastMembers = append(c.lastMembers[:0], c.members...)
	c.epoch++
	c.epochA.Store(c.epoch)
	m := newFloodMsg(int32(c.b.cfg.ID), c.epoch, c.recs, c.members)
	c.db.apply(&m.LinkState)
	c.flood(m, -1)
	m.release()
}

// flood queues one LinkState to every connected neighbor except `except`
// (the peer it arrived from) and the origin itself. Every queued copy is
// the same message, read-only to the writers, holding one reference.
func (c *ctrlPlane) flood(m *floodMsg, except int) {
	for id, nc := range c.b.neighbors {
		if id == except || id == int(m.Origin) {
			continue
		}
		m.refs.Add(1)
		if nc.send(m) == nil {
			c.sent.Add(1)
		} else {
			m.release()
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
// something. m is recycled by the caller's Reader after return: the database
// copies what it keeps, and the re-flood is a pooled copy.
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
	newer, changed := c.db.apply(m)
	if !newer {
		c.stale.Add(1)
		return
	}
	fm := newFloodMsg(m.Origin, m.Epoch, m.Links, m.Members)
	c.flood(fm, nc.id)
	fm.release()
	if changed {
		c.kickCtrl()
	}
}

// floodMsg is a LinkState on its way to several writers at once: pooled,
// and counting one reference per queued copy plus the producer's own while
// it fans the message out. The last release recycles it.
type floodMsg struct {
	wire.LinkState
	refs atomic.Int32
}

var floodMsgPool = sync.Pool{New: func() any { return new(floodMsg) }}

// newFloodMsg takes a pooled flood holding one reference and copies of the
// record sets.
func newFloodMsg(origin int32, epoch uint64, links []wire.LinkRecord, members []wire.MemberRecord) *floodMsg {
	m := floodMsgPool.Get().(*floodMsg)
	m.Origin, m.Epoch = origin, epoch
	m.Links = append(m.Links[:0], links...)
	m.Members = append(m.Members[:0], members...)
	m.refs.Store(1)
	return m
}

// release drops one reference.
func (m *floodMsg) release() {
	if m.refs.Add(-1) == 0 {
		floodMsgPool.Put(m)
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
// are unknowable; see the package comment in broker.go). When neither the
// topology nor any membership moved since the last complete sync, the pair
// set cannot have changed and the sync returns at once.
func (c *ctrlPlane) syncPairs() (removed bool) {
	tv, mv := c.db.versions()
	if tv == c.topoVer && mv == c.memberVer {
		return false
	}
	if tv != c.topoVer {
		c.drv.SetGraph(c.db.buildGraph())
		c.topoVer = tv
	}
	n := c.drv.Graph().N()
	c.pairs = c.db.appendMembers(c.pairs[:0])
	clear(c.current)
	// Deadlines arrive from outside (every broker's subscribers), so the
	// vector cache keeps only those a current pair uses.
	clear(c.spareBudgets)
	complete := true
	for _, m := range c.pairs {
		if int(m.key.sub) >= n {
			// A flood landed after the graph was built; the next step has
			// it, so this sync does not count as done.
			complete = false
			continue
		}
		budget := c.spareBudgets[m.deadline]
		if budget == nil {
			if budget = c.budgets[m.deadline]; len(budget) != n {
				budget = make([]time.Duration, n)
				for i := range budget {
					budget[i] = m.deadline
				}
			}
			c.spareBudgets[m.deadline] = budget
		}
		key := algo1.PairKey{Topic: m.key.topic, Sub: m.key.sub}
		c.drv.SetPair(key, int(m.key.sub), budget)
		c.current[key] = true
	}
	c.budgets, c.spareBudgets = c.spareBudgets, c.budgets
	c.gone = c.gone[:0]
	c.drv.Pairs(func(key algo1.PairKey, _ *algo1.Table) {
		if !c.current[key] {
			c.gone = append(c.gone, key)
		}
	})
	for _, key := range c.gone {
		c.drv.RemovePair(key)
	}
	if complete {
		c.memberVer = mv
	}
	return len(c.gone) > 0
}

// publish refreshes the route stats — every registered pair's <d, r> at
// this broker — and swaps in a fresh snapshot when the data plane's view
// moved: for every pair, this broker's own sending list (Lists[self] of the
// pair's table), and the pair's subscriber as a destination of its topic.
// A rebuild that re-sorted none of this broker's lists and moved no
// destination publishes nothing.
func (c *ctrlPlane) publish() {
	self := c.b.cfg.ID
	cur := c.b.ctrlSnap.Load()
	moved := false
	lists, dests := 0, 0
	c.routesMu.Lock()
	c.routes = c.routes[:0]
	c.drv.Pairs(func(key algo1.PairKey, t *algo1.Table) {
		if int(key.Sub) != self {
			dests++
			_, found := slices.BinarySearch(cur.dests[key.Topic], int(key.Sub))
			moved = moved || !found
		}
		if t == nil || self >= len(t.Lists) {
			return
		}
		if l := t.Lists[self]; len(l) > 0 {
			lists++
			moved = moved || !slices.Equal(cur.lists[routeKey{topic: key.Topic, sub: key.Sub}], l)
		}
		c.routes = append(c.routes, wire.RouteStat{
			Topic: key.Topic, Sub: key.Sub,
			D: t.Params[self].D, R: t.Params[self].R, ListLen: int32(len(t.Lists[self])),
		})
	})
	slices.SortFunc(c.routes, func(a, b wire.RouteStat) int {
		return cmp.Or(cmp.Compare(a.Topic, b.Topic), cmp.Compare(a.Sub, b.Sub))
	})
	c.routesMu.Unlock()
	for _, d := range cur.dests {
		dests -= len(d)
	}
	if !moved && lists == len(cur.lists) && dests == 0 {
		return
	}
	snap := &ctrlSnapshot{lists: make(map[routeKey][]int, lists), dests: make(map[int32][]int)}
	c.drv.Pairs(func(key algo1.PairKey, t *algo1.Table) {
		if int(key.Sub) != self {
			snap.dests[key.Topic] = append(snap.dests[key.Topic], int(key.Sub))
		}
		if t != nil && self < len(t.Lists) && len(t.Lists[self]) > 0 {
			snap.lists[routeKey{topic: key.Topic, sub: key.Sub}] = t.Lists[self]
		}
	})
	for _, d := range snap.dests {
		slices.Sort(d)
	}
	c.b.ctrlSnap.Store(snap)
}

// routeStats copies the route stats the last publish left.
func (c *ctrlPlane) routeStats() []wire.RouteStat {
	c.routesMu.Lock()
	defer c.routesMu.Unlock()
	return slices.Clone(c.routes)
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
