package broker

import (
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/algo1"
	"repro/internal/des"
	"repro/internal/netsim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// TestLinkStateDBStaleEpochReplay pins the database's replay defense:
// per-origin epochs are strictly increasing, so replayed or reordered
// floods are dropped without touching estimates or the version.
func TestLinkStateDBStaleEpochReplay(t *testing.T) {
	db := newLinkStateDB()
	recs := []wire.LinkRecord{{To: 1, Alpha: 10 * time.Millisecond, Gamma: 0.9}}
	if newer, changed := db.apply(0, 5, recs); !newer || !changed {
		t.Fatalf("first flood: newer=%v changed=%v, want true/true", newer, changed)
	}
	// Same epoch replayed, then an older one: both stale.
	for _, epoch := range []uint64{5, 4} {
		if newer, _ := db.apply(0, epoch, []wire.LinkRecord{{To: 1, Alpha: time.Hour, Gamma: 0.1}}); newer {
			t.Fatalf("epoch %d accepted after epoch 5", epoch)
		}
	}
	if a, g, ok := db.LinkEstimate(0, 1); !ok || a != 10*time.Millisecond || g != 0.9 {
		t.Fatalf("estimate = (%v, %v, %v), stale flood leaked through", a, g, ok)
	}
	// A newer epoch with identical records advances the epoch but is not a
	// change — the driver must see a quiet version.
	ver := db.EstimateVersion()
	if newer, changed := db.apply(0, 6, recs); !newer || changed {
		t.Fatalf("identical re-flood: newer=%v changed=%v, want true/false", newer, changed)
	}
	if db.EstimateVersion() != ver {
		t.Fatal("identical re-flood bumped the estimate version")
	}
}

// TestLinkStateArrivalOrderIndependence is DESIGN.md §15's claim: brokers
// whose link-state databases received the same floods hold identical
// estimates and bitwise-equal tables, whatever order the floods arrived in
// (each origin's own epochs stay ordered, as one TCP stream keeps them) and
// however often the broker rebuilt along the way.
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
				db.apply(ls.Origin, ls.Epoch, ls.Links)
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
	}
}

// TestSyncPairsDropsUnusedBudgets pins the bound on the per-deadline budget
// cache: deadlines come from clients and neighbors, so after 100 pairs with
// distinct deadlines have come and gone on a stable topology the cache holds
// exactly the vectors the live pairs use.
func TestSyncPairsDropsUnusedBudgets(t *testing.T) {
	b := &Broker{cfg: Config{}.withDefaults(), routes: make(map[routeKey]*routeState)}
	c := newCtrlPlane(b)
	rec := func(to int32) []wire.LinkRecord {
		return []wire.LinkRecord{{To: to, Alpha: time.Millisecond, Gamma: 1}}
	}
	c.db.apply(0, 1, rec(1))
	c.db.apply(1, 1, rec(0))

	b.routes[routeKey{topic: 1, sub: 0}] = &routeState{deadline: time.Second}
	b.routes[routeKey{topic: 2, sub: 1}] = &routeState{deadline: 2 * time.Second}
	churn := routeKey{topic: 3, sub: 1}
	for i := 1; i <= 100; i++ {
		b.routes[churn] = &routeState{deadline: time.Duration(i) * time.Millisecond}
		c.syncPairs()
		delete(b.routes, churn)
		c.syncPairs()
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
				db.apply(int32(u), uint64(window)+1, recs)
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

// ctrlList reads broker b's current control-plane sending list for
// (topic, sub), nil when none has been published.
func ctrlList(b *Broker, topic, sub int32) []int {
	cs := b.ctrlSnap.Load()
	if cs == nil {
		return nil
	}
	return cs.lists[routeKey{topic: topic, sub: sub}]
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
	if !st.Ctrl.Enabled || st.Ctrl.LinkStatesRecv == 0 || len(st.Links) == 0 {
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

// TestControlPlaneLegacyInterop pins mixed-topology safety: on a chain
// 0 - 1 - 2 where the middle broker runs with DisableLinkState, zero
// LINK_STATE frames cross either link, the legacy broker's routing is
// byte-for-byte the advert plane's, and delivery still works end to end.
func TestControlPlaneLegacyInterop(t *testing.T) {
	o := newOverlayConfig(t, 3, [][2]int{{0, 1}, {1, 2}}, func(cfg *Config) {
		if cfg.ID == 1 {
			cfg.DisableLinkState = true
		}
	})
	sub, err := Dial(o.addrs[2], "sub")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Subscribe(9, time.Second); err != nil {
		t.Fatal(err)
	}
	pub, err := Dial(o.addrs[0], "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	waitFor(t, 5*time.Second, "advert route 0->2", func() bool {
		b := o.brokers[0]
		b.mu.Lock()
		defer b.mu.Unlock()
		return len(b.sendingListLocked(9, 2)) > 0
	})
	if err := pub.Publish(9, time.Second, []byte("across the legacy hop")); err != nil {
		t.Fatal(err)
	}
	if d := receiveOne(t, sub, 3*time.Second); string(d.Payload) != "across the legacy hop" {
		t.Fatalf("delivery = %+v", d)
	}

	// Give the control loops a few intervals to have done whatever they
	// would wrongly do, then assert total silence on the legacy links.
	time.Sleep(5 * o.brokers[0].cfg.LinkStateInterval)
	for _, id := range []int{0, 2} {
		st := o.brokers[id].Stats()
		if st.Ctrl.LinkStatesSent != 0 || st.Ctrl.ProbesSent != 0 {
			t.Errorf("broker %d sent %d LINK_STATE / %d PROBE frames to a legacy peer",
				id, st.Ctrl.LinkStatesSent, st.Ctrl.ProbesSent)
		}
		if st.Ctrl.LinkStatesRecv != 0 {
			t.Errorf("broker %d received %d LINK_STATE frames from a legacy peer", id, st.Ctrl.LinkStatesRecv)
		}
	}
	st := o.brokers[1].Stats()
	if st.Ctrl.Enabled {
		t.Error("DisableLinkState broker reports an enabled control plane")
	}
	if ctrlList(o.brokers[1], 9, 2) != nil {
		t.Error("legacy broker published a control-plane sending list")
	}
}
