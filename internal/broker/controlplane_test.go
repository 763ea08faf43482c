package broker

import (
	"fmt"
	"math/rand/v2"
	"net"
	"slices"
	"testing"
	"time"

	"repro/internal/algo1"
	"repro/internal/des"
	"repro/internal/netsim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/wire"
)

// TestLinkStateDBStaleEpochReplay pins the database's replay defense:
// per-origin epochs are strictly increasing, so replayed or reordered
// floods are dropped without touching estimates or the version.
func TestLinkStateDBStaleEpochReplay(t *testing.T) {
	db := newLinkStateDB()
	recs := []wire.LinkRecord{{To: 1, Alpha: 10 * time.Millisecond, Gamma: 0.9}}
	if newer, changed := db.apply(&wire.LinkState{Origin: 0, Epoch: 5, Links: recs}); !newer || !changed {
		t.Fatalf("first flood: newer=%v changed=%v, want true/true", newer, changed)
	}
	// Same epoch replayed, then an older one: both stale.
	for _, epoch := range []uint64{5, 4} {
		if newer, _ := db.apply(&wire.LinkState{Origin: 0, Epoch: epoch, Links: []wire.LinkRecord{{To: 1, Alpha: time.Hour, Gamma: 0.1}}}); newer {
			t.Fatalf("epoch %d accepted after epoch 5", epoch)
		}
	}
	if a, g, ok := db.LinkEstimate(0, 1); !ok || a != 10*time.Millisecond || g != 0.9 {
		t.Fatalf("estimate = (%v, %v, %v), stale flood leaked through", a, g, ok)
	}
	// A newer epoch with identical records advances the epoch but is not a
	// change — the driver must see a quiet version.
	ver := db.EstimateVersion()
	if newer, changed := db.apply(&wire.LinkState{Origin: 0, Epoch: 6, Links: recs}); !newer || changed {
		t.Fatalf("identical re-flood: newer=%v changed=%v, want true/false", newer, changed)
	}
	if db.EstimateVersion() != ver {
		t.Fatal("identical re-flood bumped the estimate version")
	}
}

// linkedPair floods a two-broker overlay into db: 0 and 1 linked both ways
// under epoch 1, so each one's membership counts.
func linkedPair(db *linkStateDB) {
	for o := int32(0); o < 2; o++ {
		db.apply(&wire.LinkState{Origin: o, Epoch: 1, Links: []wire.LinkRecord{{To: 1 - o, Alpha: time.Millisecond, Gamma: 1}}})
	}
}

// memberSet renders db.appendMembers as "topic@sub:deadline" strings.
func memberSet(db *linkStateDB) []string {
	var out []string
	for _, m := range db.appendMembers(nil) {
		out = append(out, fmt.Sprintf("%d@%d:%v", m.key.topic, m.key.sub, m.deadline))
	}
	return out
}

// TestLinkStateDBMembershipWithdraw: an origin's membership is its latest
// set, so a topic absent from a newer epoch is withdrawn — and stating it
// changes the database (the control loop must run) without moving the
// estimate version (no table depends on it).
func TestLinkStateDBMembershipWithdraw(t *testing.T) {
	db := newLinkStateDB()
	linkedPair(db)
	links := []wire.LinkRecord{{To: 0, Alpha: time.Millisecond, Gamma: 1}}
	ver := db.EstimateVersion()
	newer, changed := db.apply(&wire.LinkState{Origin: 1, Epoch: 2, Links: links, Members: []wire.MemberRecord{
		{Topic: 4, Deadline: time.Second}, {Topic: 9, Deadline: 2 * time.Second},
	}})
	if !newer || !changed || db.EstimateVersion() != ver {
		t.Fatalf("join: newer=%v changed=%v version %d→%d, want true/true/unmoved", newer, changed, ver, db.EstimateVersion())
	}
	if got, want := memberSet(db), []string{"4@1:1s", "9@1:2s"}; !slices.Equal(got, want) {
		t.Fatalf("members = %v, want %v", got, want)
	}
	if _, changed := db.apply(&wire.LinkState{Origin: 1, Epoch: 3, Links: links, Members: []wire.MemberRecord{{Topic: 9, Deadline: 2 * time.Second}}}); !changed {
		t.Error("withdrawing topic 4 reported no change")
	}
	if got, want := memberSet(db), []string{"9@1:2s"}; !slices.Equal(got, want) {
		t.Errorf("after the withdraw members = %v, want %v", got, want)
	}
}

// TestLinkStateDBMembershipStaleEpoch: a replayed or reordered flood's
// membership is dropped with the rest of it.
func TestLinkStateDBMembershipStaleEpoch(t *testing.T) {
	db := newLinkStateDB()
	linkedPair(db)
	links := []wire.LinkRecord{{To: 0, Alpha: time.Millisecond, Gamma: 1}}
	db.apply(&wire.LinkState{Origin: 1, Epoch: 5, Links: links, Members: []wire.MemberRecord{{Topic: 2, Deadline: time.Second}}})
	for _, epoch := range []uint64{5, 4} {
		if newer, _ := db.apply(&wire.LinkState{Origin: 1, Epoch: epoch, Links: links, Members: []wire.MemberRecord{{Topic: 3, Deadline: time.Second}}}); newer {
			t.Fatalf("epoch %d accepted after epoch 5", epoch)
		}
	}
	if got, want := memberSet(db), []string{"2@1:1s"}; !slices.Equal(got, want) {
		t.Errorf("members = %v, want %v: a stale flood's membership leaked through", got, want)
	}
}

// TestLinkStateDBMembershipRestartedOrigin: a restarted broker seeds its
// epoch from the wall clock, so its first flood outranks everything its
// previous incarnation sent and replaces that membership wholesale.
func TestLinkStateDBMembershipRestartedOrigin(t *testing.T) {
	db := newLinkStateDB()
	linkedPair(db)
	links := []wire.LinkRecord{{To: 0, Alpha: time.Millisecond, Gamma: 1}}
	old := newCtrlPlane(&Broker{cfg: Config{ID: 1}.withDefaults()})
	old.epoch += 1000 // the old incarnation flooded a thousand times
	db.apply(&wire.LinkState{Origin: 1, Epoch: old.epoch, Links: links, Members: []wire.MemberRecord{{Topic: 1, Deadline: time.Second}, {Topic: 2, Deadline: time.Second}}})
	time.Sleep(time.Millisecond) // a restart takes far longer than a thousand floods' worth of nanoseconds
	restarted := newCtrlPlane(&Broker{cfg: Config{ID: 1}.withDefaults()})
	if newer, _ := db.apply(&wire.LinkState{Origin: 1, Epoch: restarted.epoch + 1, Links: links, Members: []wire.MemberRecord{{Topic: 3, Deadline: 5 * time.Second}}}); !newer {
		t.Fatal("the restarted origin's first flood was dropped as stale")
	}
	if got, want := memberSet(db), []string{"3@1:5s"}; !slices.Equal(got, want) {
		t.Errorf("members = %v, want %v", got, want)
	}
}

// TestLinkStateArrivalOrderIndependence is DESIGN.md §15's claim: brokers
// whose link-state databases received the same floods hold identical
// estimates and bitwise-equal tables, whatever order the floods arrived in
// (each origin's own epochs stay ordered, as one TCP stream keeps them) and
// however often the broker rebuilt along the way — and the same pair set,
// since membership rides in the same floods.
func TestLinkStateArrivalOrderIndependence(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewPCG(0x0a11, seed))
		g, err := topology.RandomRegular(10, 4, topology.DefaultDelayRange(), rng)
		if err != nil {
			t.Fatal(err)
		}
		// floods[o] is origin o's flood sequence in epoch order; a link
		// left out of a record set is withdrawn and may return later.
		floods := make([][]*wire.LinkState, g.N())
		for o := range floods {
			for epoch := uint64(1); epoch <= 5; epoch++ {
				ls := &wire.LinkState{Origin: int32(o), Epoch: epoch}
				for _, e := range g.Neighbors(o) {
					if rng.Float64() < 0.15 {
						continue
					}
					ls.Links = append(ls.Links, wire.LinkRecord{
						To:    int32(e.To),
						Alpha: time.Duration(1+rng.IntN(30)) * time.Millisecond,
						Gamma: 0.4 + rng.Float64()*0.6,
					})
				}
				for topic := int32(0); topic < 4; topic++ {
					if rng.Float64() < 0.3 {
						ls.Members = append(ls.Members, wire.MemberRecord{
							Topic: topic, Deadline: time.Duration(100+rng.IntN(400)) * time.Millisecond,
						})
					}
				}
				floods[o] = append(floods[o], ls)
			}
		}
		// feed applies every flood in an order drawn from stream, rebuilding
		// after each one when eager and once at the end either way.
		feed := func(stream uint64, eager bool) (*linkStateDB, *algo1.Driver) {
			order := rand.New(rand.NewPCG(seed, stream))
			db := newLinkStateDB()
			drv := algo1.NewDriver(g, db, algo1.DriverOptions{Build: algo1.BuildOptions{M: 2}})
			budget := make([]time.Duration, g.N())
			for i := range budget {
				budget[i] = 400 * time.Millisecond
			}
			for p := 0; p < 3; p++ {
				sub := (int(seed) + 3*p) % g.N()
				drv.SetPair(algo1.PairKey{Topic: int32(p), Sub: int32(sub)}, sub, budget)
			}
			next := make([]int, g.N())
			for left := g.N() * 5; left > 0; left-- {
				o := order.IntN(g.N())
				for next[o] == len(floods[o]) {
					o = (o + 1) % g.N()
				}
				ls := floods[o][next[o]]
				next[o]++
				db.apply(ls)
				if eager {
					drv.Rebuild()
				}
			}
			drv.Rebuild()
			return db, drv
		}
		dbA, drvA := feed(1, true)
		dbB, drvB := feed(2, false)
		for u := 0; u < g.N(); u++ {
			for _, e := range g.Neighbors(u) {
				aA, gA, okA := dbA.LinkEstimate(u, e.To)
				aB, gB, okB := dbB.LinkEstimate(u, e.To)
				if aA != aB || gA != gB || okA != okB {
					t.Fatalf("seed %d link %d->%d: databases disagree after the same floods", seed, u, e.To)
				}
			}
		}
		drvA.Pairs(func(key algo1.PairKey, want *algo1.Table) {
			if got := drvB.Table(key); want == nil || !got.Equal(want) {
				t.Fatalf("seed %d pair %+v: equal databases, different tables", seed, key)
			}
		})
		if a, b := memberSet(dbA), memberSet(dbB); !slices.Equal(a, b) {
			t.Fatalf("seed %d: same floods, different pair sets:\n %v\n %v", seed, a, b)
		}
	}
}

// TestSyncPairsDropsUnusedBudgets pins the bound on the per-deadline budget
// cache: deadlines come from every broker's subscribers, so after 100
// memberships with distinct deadlines have come and gone through the
// database on a stable topology the cache holds exactly the vectors the live
// pairs use.
func TestSyncPairsDropsUnusedBudgets(t *testing.T) {
	c := newCtrlPlane(&Broker{cfg: Config{}.withDefaults()})
	flood := func(origin int32, epoch uint64, members ...wire.MemberRecord) {
		c.db.apply(&wire.LinkState{Origin: origin, Epoch: epoch, Members: members,
			Links: []wire.LinkRecord{{To: 1 - origin, Alpha: time.Millisecond, Gamma: 1}}})
	}
	flood(0, 1, wire.MemberRecord{Topic: 1, Deadline: time.Second})
	steady := wire.MemberRecord{Topic: 2, Deadline: 2 * time.Second}
	for i := 1; i <= 100; i++ {
		flood(1, uint64(2*i), steady, wire.MemberRecord{Topic: 3, Deadline: time.Duration(i) * time.Millisecond})
		c.syncPairs()
		flood(1, uint64(2*i+1), steady)
		if !c.syncPairs() {
			t.Fatalf("round %d: the withdrawn pair was not reported removed", i)
		}
	}
	if len(c.budgets) != 2 {
		t.Fatalf("budget cache holds %d vectors for 2 live deadlines", len(c.budgets))
	}
	live := 0
	c.drv.Pairs(func(algo1.PairKey, *algo1.Table) { live++ })
	if live != 2 {
		t.Fatalf("driver holds %d pairs, want 2", live)
	}
}

// simDeps adapts a netsim.Network's monitoring windows to algo1.Deps — the
// same substrate the DES router shell builds tables from.
type simDeps struct {
	net *netsim.Network
	now time.Duration
}

func (s *simDeps) EstimateVersion() uint64 { return s.net.EstimateVersion(s.now) }
func (s *simDeps) LinkEstimate(u, v int) (time.Duration, float64, bool) {
	est, ok := s.net.EstimateAt(u, v, s.now)
	if !ok {
		return 0, 0, false
	}
	return est.Alpha, est.Gamma, true
}

// TestControlPlaneDifferential is the sim-vs-live fidelity pin for the
// control plane: the same monitoring estimates, delivered once directly
// (the DES shell's substrate) and once through LinkState gossip into a
// linkStateDB (the live shell's substrate), must drive the shared engine
// to bitwise-identical route tables at every monitoring window. The gossip payloads are built exactly as a live
// broker builds them — per-origin record sets under increasing epochs.
func TestControlPlaneDifferential(t *testing.T) {
	for scenario := uint64(0); scenario < 4; scenario++ {
		rng := rand.New(rand.NewPCG(0xC7A1, scenario))
		g, err := topology.RandomRegular(10, 4, topology.DefaultDelayRange(), rng)
		if err != nil {
			t.Fatal(err)
		}
		sim := des.New(1)
		net, err := netsim.New(sim, g, netsim.Config{
			LossRate:        0.05,
			FailureEpoch:    time.Second,
			MonitorInterval: 100 * time.Millisecond,
			MonitorSamples:  40,
		}, 0xD1F+scenario)
		if err != nil {
			t.Fatal(err)
		}

		deps := &simDeps{net: net}
		simDrv := algo1.NewDriver(g, deps, algo1.DriverOptions{Build: algo1.BuildOptions{M: 2}})
		db := newLinkStateDB()
		liveDrv := algo1.NewDriver(g, db, algo1.DriverOptions{Build: algo1.BuildOptions{M: 2}})
		budget := make([]time.Duration, g.N())
		for i := range budget {
			budget[i] = 400 * time.Millisecond
		}
		for p := 0; p < 3; p++ {
			sub := (int(scenario)*3 + p*2) % g.N()
			key := algo1.PairKey{Topic: int32(p), Sub: int32(sub)}
			simDrv.SetPair(key, sub, budget)
			liveDrv.SetPair(key, sub, budget)
		}

		for window := 0; window < 6; window++ {
			deps.now = time.Duration(window) * 100 * time.Millisecond
			// Gossip: every node floods its measured record set for this
			// window, exactly as ctrlPlane.floodLocal renders it.
			for u := 0; u < g.N(); u++ {
				var recs []wire.LinkRecord
				for _, e := range g.Neighbors(u) {
					est, ok := net.EstimateAt(u, e.To, deps.now)
					if !ok {
						continue
					}
					recs = append(recs, wire.LinkRecord{To: int32(e.To), Alpha: est.Alpha, Gamma: est.Gamma})
				}
				db.apply(&wire.LinkState{Origin: int32(u), Epoch: uint64(window) + 1, Links: recs})
			}
			simDrv.Rebuild()
			liveDrv.Rebuild()
			simDrv.Pairs(func(key algo1.PairKey, want *algo1.Table) {
				if want == nil {
					t.Fatalf("scenario %d window %d pair %+v: sim driver built no table", scenario, window, key)
				}
				if got := liveDrv.Table(key); !got.Equal(want) {
					t.Fatalf("scenario %d window %d pair %+v: gossip-fed table diverged from sim table",
						scenario, window, key)
				}
			})
		}
	}
}

// ctrlList reads broker b's published sending list for (topic, sub), nil
// when it has none.
func ctrlList(b *Broker, topic, sub int32) []int {
	return b.ctrlSnap.Load().lists[routeKey{topic: topic, sub: sub}]
}

// ctrlDests reads broker b's published destination brokers for a topic.
func ctrlDests(b *Broker, topic int32) []int {
	return b.ctrlSnap.Load().dests[topic]
}

// memberTopics lists the topics broker b's database holds for origin, sorted,
// whether or not the membership currently counts.
func memberTopics(b *Broker, origin int32) []int32 {
	db := b.ctrl.db
	db.mu.Lock()
	defer db.mu.Unlock()
	var out []int32
	if os := db.origins[origin]; os != nil {
		for _, m := range os.members {
			out = append(out, m.Topic)
		}
	}
	return out
}

// TestControlPlaneConvergence is the tentpole's live pin: on a diamond
// overlay (0-1, 0-2, 1-3, 2-3) with a subscriber behind broker 3, broker
// 0's gossip-fed sending list for the pair must converge to both
// disjoint routes {1, 2}; killing broker 1 mid-traffic must re-sort it to
// {2} within roughly one monitoring window (the detach kick makes the
// withdrawal flood immediately).
func TestControlPlaneConvergence(t *testing.T) {
	o := newOverlay(t, 4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	sub, err := Dial(o.addrs[3], "sub")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Subscribe(7, time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "control plane to admit both routes", func() bool {
		l := ctrlList(o.brokers[0], 7, 3)
		return len(l) == 2
	})
	l := ctrlList(o.brokers[0], 7, 3)
	if !((l[0] == 1 && l[1] == 2) || (l[0] == 2 && l[1] == 1)) {
		t.Fatalf("sending list = %v, want {1, 2}", l)
	}
	st := o.brokers[0].Stats()
	if st.Ctrl.LinkStatesRecv == 0 || len(st.Links) == 0 {
		t.Fatalf("control plane idle: %+v", st.Ctrl)
	}

	// Kill broker 1 mid-traffic: its neighbors withdraw their links to it,
	// the floods propagate, and 0's list drops the dead route.
	_ = o.brokers[1].Close()
	waitFor(t, 5*time.Second, "sending list to re-sort around dead broker", func() bool {
		l := ctrlList(o.brokers[0], 7, 3)
		return len(l) == 1 && l[0] == 2
	})

	// The re-sorted route still delivers: publish through broker 0.
	pub, err := Dial(o.addrs[0], "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Publish(7, time.Second, []byte("via the survivor")); err != nil {
		t.Fatal(err)
	}
	if d := receiveOne(t, sub, 3*time.Second); string(d.Payload) != "via the survivor" {
		t.Fatalf("delivery = %+v", d)
	}
}

// TestClosedSubscriberBrokerLeavesDestinations: a closed broker cannot
// withdraw its own membership, and its last flood lingers in every database.
// Its neighbors' link withdrawals must still take it out of the publisher
// broker's destinations; otherwise every Persistent publish to its topic
// would be held for a whole lifetime.
func TestClosedSubscriberBrokerLeavesDestinations(t *testing.T) {
	tr := &lockedTrace{}
	o := newOverlayConfig(t, 3, [][2]int{{0, 1}, {1, 2}}, func(cfg *Config) {
		cfg.Persistent = true
		if cfg.ID == 0 {
			cfg.Tracer = tr
		}
	})
	sub, err := Dial(o.addrs[2], "sub")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Subscribe(8, time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "broker 2 to become a destination at broker 0", func() bool {
		return slices.Equal(ctrlDests(o.brokers[0], 8), []int{2}) && len(ctrlList(o.brokers[0], 8, 2)) > 0
	})
	_ = o.brokers[2].Close()
	waitFor(t, 5*time.Second, "broker 2 to leave broker 0's destinations", func() bool {
		return ctrlDests(o.brokers[0], 8) == nil && ctrlList(o.brokers[0], 8, 2) == nil
	})
	if got := memberTopics(o.brokers[0], 2); !slices.Equal(got, []int32{8}) {
		t.Fatalf("broker 2's last flood = %v, want it to linger as [8]", got)
	}
	// A publish now has nobody to hold a copy for.
	pub, err := Dial(o.addrs[0], "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Publish(8, time.Second, []byte("nobody home")); err != nil {
		t.Fatal(err)
	}
	var published []trace.Event
	waitFor(t, 3*time.Second, "the publish to reach broker 0's engine", func() bool {
		published = published[:0]
		for _, e := range tr.snapshot() {
			if e.Kind == trace.Publish {
				published = append(published, e)
			}
		}
		return len(published) > 0
	})
	if d := published[0].Dests; len(d) != 0 {
		t.Errorf("publish routed to %v after broker 2 closed", d)
	}
}

// TestControlPlaneAllocBudget holds the control plane to its allocation
// budget on the middle broker of a converged 3-broker chain 0 — 1 — 2 with a
// subscriber behind broker 2. A flood that moves one estimate, plus the
// control step it triggers, costs the rebuilt pair's new table (one object
// on a graph this small, two on a large one) and nothing else: the database diffs records in place, the re-flood is a
// pooled message, the pair sync returns at once and no sending list moved,
// so no snapshot is swapped in. A stale duplicate of that flood costs
// nothing. Writers are stood in for by draining each link's queue after
// every step, releasing what it holds as a writer does.
func TestControlPlaneAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a quarter of what is put back")
	}
	b := &Broker{cfg: Config{ID: 1}.withDefaults(), neighbors: map[int]*neighborConn{0: newNeighborConn(0), 2: newNeighborConn(2)}}
	b.ctrl = newCtrlPlane(b)
	b.ctrlSnap.Store(&ctrlSnapshot{})
	for _, nc := range b.neighbors {
		near, far := net.Pipe()
		t.Cleanup(func() { _ = near.Close(); _ = far.Close() })
		nc.conn, nc.w = near, newConnWriter(near, 16, nil)
		nc.alpha, nc.sampled = time.Millisecond, true
		nc.gammaAt = time.Now().Add(time.Hour) // no idle probes during the test
	}
	drain := func() {
		for _, nc := range b.neighbors {
			nc.w.releaseQueued()
		}
	}
	c := b.ctrl
	alpha := time.Millisecond
	// One recycled frame per origin, as a connection's Reader hands them
	// over, so the test itself allocates nothing per flood.
	frames := map[int32]*wire.LinkState{
		0: {Origin: 0, Links: []wire.LinkRecord{{To: 1, Gamma: 0.99}}},
		2: {Origin: 2, Links: []wire.LinkRecord{{To: 1, Gamma: 0.99}}, Members: []wire.MemberRecord{{Topic: 1, Deadline: time.Second}}},
	}
	flood := func(origin int32, fresh bool) *wire.LinkState {
		ls := frames[origin]
		if fresh {
			ls.Epoch++
		}
		ls.Links[0].Alpha = alpha
		return ls
	}
	b.handleLinkState(b.neighbors[0], flood(0, true))
	b.handleLinkState(b.neighbors[2], flood(2, true))
	c.step()
	drain()
	if got := ctrlList(b, 1, 2); len(got) == 0 || got[0] != 2 {
		t.Fatalf("sending list toward broker 2 = %v, want [2 ...]", got)
	}
	snap := b.ctrlSnap.Load()

	changed := func() {
		alpha ^= time.Microsecond // 1ms ↔ 1.001ms: the estimate moves, no list does
		b.handleLinkState(b.neighbors[0], flood(0, true))
		c.step()
		drain()
	}
	for i := 0; i < 2*ctrlRefreshEvery; i++ { // pools, scratch and the periodic re-flood warmed up
		changed()
	}
	rebuilds := c.rebuildsA.Load()
	perChange := testing.AllocsPerRun(100, changed)
	if got := c.rebuildsA.Load() - rebuilds; got < 100 {
		t.Fatalf("%d rebuilds over 101 changed floods; the test must rebuild every step", got)
	}
	if b.ctrlSnap.Load() != snap {
		t.Fatal("a rebuild that moved no sending list swapped the snapshot")
	}
	t.Logf("%.1f objects per changed flood and step", perChange)
	if perChange > 4 {
		t.Errorf("a changed flood and its step allocate %.1f objects, want at most 4 (the rebuilt pair's "+
			"new table): records are diffed in place, re-floods are pooled, an unmoved pair set is "+
			"not re-synced, and an unmoved list publishes nothing", perChange)
	}

	stale := flood(0, false)
	recv := c.stale.Load()
	if perStale := testing.AllocsPerRun(100, func() { b.handleLinkState(b.neighbors[0], stale) }); perStale != 0 {
		t.Errorf("a stale duplicate flood allocates %.1f objects, want 0", perStale)
	}
	if c.stale.Load()-recv != 101 {
		t.Fatalf("stale drops moved by %d over 101 duplicate floods", c.stale.Load()-recv)
	}
}
