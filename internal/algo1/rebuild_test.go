package algo1

import (
	mrand "math/rand"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/topology"
)

// fakeMonitor is a deterministic Deps for driver tests: a versioned table
// of per-directed-link estimates, the shape a gossip-fed link-state
// database presents.
type fakeMonitor struct {
	n       int
	alpha   []time.Duration
	gamma   []float64
	version uint64
}

func newFakeMonitor(g *topology.Graph) *fakeMonitor {
	n := g.N()
	m := &fakeMonitor{n: n, alpha: make([]time.Duration, n*n), gamma: make([]float64, n*n), version: 1}
	for u := 0; u < n; u++ {
		for _, e := range g.Neighbors(u) {
			m.alpha[u*n+e.To] = e.Delay
			m.gamma[u*n+e.To] = 1
		}
	}
	return m
}

// set mutates the listed directed links' estimates under a fresh version.
func (m *fakeMonitor) set(links [][2]int, mut func(u, v int) (time.Duration, float64)) {
	for _, l := range links {
		u, v := l[0], l[1]
		m.alpha[u*m.n+v], m.gamma[u*m.n+v] = mut(u, v)
	}
	m.version++
}

func (m *fakeMonitor) EstimateVersion() uint64 { return m.version }

func (m *fakeMonitor) LinkEstimate(u, v int) (time.Duration, float64, bool) {
	gm := m.gamma[u*m.n+v]
	if gm <= 0 {
		return 0, 0, false
	}
	return m.alpha[u*m.n+v], gm, true
}

// deltaStream is a seeded gossip-shaped scenario: a random regular graph,
// three registered pairs and a stream of sparse per-epoch estimate deltas
// (quiet epochs, degraded, dead and resurrected links) — what the live
// broker's link-state gossip feeds a Driver.
type deltaStream struct {
	g     *topology.Graph
	mon   *fakeMonitor
	opts  DriverOptions
	rng   *rand.Rand
	links [][2]int
	pairs []PairKey
}

func newDeltaStream(t *testing.T, seed uint64) *deltaStream {
	t.Helper()
	return newDeltaStreamN(t, seed, 8+int(seed%9)) // 8..16 nodes
}

// newDeltaStreamN is newDeltaStream on an n-node graph.
func newDeltaStreamN(t *testing.T, seed uint64, n int) *deltaStream {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0x11ec))
	degree := 3 + int(seed%2)
	if n*degree%2 != 0 {
		degree--
	}
	g, err := topology.RandomRegular(n, degree, topology.DefaultDelayRange(), rng)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	s := &deltaStream{
		g:    g,
		mon:  newFakeMonitor(g),
		opts: DriverOptions{Build: BuildOptions{M: 1 + int(seed>>4)%2}},
		rng:  rng,
	}
	for p := 0; p < 3; p++ {
		s.pairs = append(s.pairs, PairKey{Topic: int32(p), Sub: int32(int(seed>>(8+4*p)) % n)})
	}
	for u := 0; u < n; u++ {
		for _, e := range g.Neighbors(u) {
			s.links = append(s.links, [2]int{u, e.To})
		}
	}
	return s
}

// driver returns a fresh Driver over the stream's monitor with every pair
// registered under a uniform 400 ms budget.
func (s *deltaStream) driver() *Driver {
	d := NewDriver(s.g, s.mon, s.opts)
	budget := make([]time.Duration, s.g.N())
	for x := range budget {
		budget[x] = 400 * time.Millisecond
	}
	for _, key := range s.pairs {
		d.SetPair(key, int(key.Sub), budget)
	}
	return d
}

// step applies one epoch's delta to the monitor: nothing at all on a quiet
// epoch, otherwise a sparse random subset of links re-estimated, each with
// a one-in-ten chance of dying (a dead link drawn again later resurrects).
func (s *deltaStream) step(epoch int) {
	if epoch > 0 && s.rng.Float64() < 0.25 {
		return
	}
	k := 1 + s.rng.IntN(4)
	var batch [][2]int
	for i := 0; i < k; i++ {
		batch = append(batch, s.links[s.rng.IntN(len(s.links))])
	}
	s.mon.set(batch, func(u, v int) (time.Duration, float64) {
		if s.rng.Float64() < 0.1 {
			return 0, 0 // link death
		}
		return time.Duration(1+s.rng.IntN(30)) * time.Millisecond, 0.4 + s.rng.Float64()*0.6
	})
}

// sameTables reports whether got holds, for every pair, a table Equal to
// want's, logging each divergence.
func sameTables(t *testing.T, what string, got, want *Driver) bool {
	t.Helper()
	ok := true
	want.Pairs(func(key PairKey, tab *Table) {
		if !got.Table(key).Equal(tab) {
			t.Logf("%s: pair %+v diverged", what, key)
			ok = false
		}
	})
	return ok
}

// pinnedSeeds replay delta streams on which a driver that seeds a build
// from the pair's previous table ends up holding a table other than the
// cold oracle's: the seed, and the epoch the divergence shows at.
var pinnedSeeds = []struct {
	seed  uint64
	epoch int
}{
	{1790828196317381846, 3},
	{90767271602995916, 2},
	{9831135285338678077, 5},
	{2466859211378385858, 2},
	{13044967003124706590, 3},
	{5604888490516756034, 2},
}

// checkSeeds runs a seeded property over the pinned regression seeds, a
// fixed quick.Check sample (so tier-1 is deterministic) and one seed taken
// from the clock and logged, so fresh inputs keep arriving.
func checkSeeds(t *testing.T, property func(seed uint64, epochs int) bool) {
	t.Helper()
	for _, c := range pinnedSeeds {
		if !property(c.seed, c.epoch+1) {
			t.Errorf("pinned seed %d failed", c.seed)
		}
	}
	cfg := &quick.Config{MaxCount: 30, Rand: mrand.New(mrand.NewSource(0x11ec))}
	if err := quick.Check(func(seed uint64) bool { return property(seed, 8) }, cfg); err != nil {
		t.Error(err)
	}
	seed := uint64(time.Now().UnixNano())
	t.Logf("clock seed %d", seed)
	if !property(seed, 8) {
		t.Errorf("clock seed %d failed", seed)
	}
}

// TestDriverEqualsColdProperty: a Driver stepped through a random delta
// stream must hold, at every epoch, tables bitwise identical to the oracle's
// from-scratch RebuildCold of the same estimates.
func TestDriverEqualsColdProperty(t *testing.T) {
	checkSeeds(t, func(seed uint64, epochs int) bool {
		s := newDeltaStream(t, seed)
		drv, oracle := s.driver(), s.driver()
		for epoch := 0; epoch < epochs; epoch++ {
			s.step(epoch)
			drv.Rebuild()
			oracle.RebuildCold()
			if !sameTables(t, "driver vs oracle", drv, oracle) {
				t.Logf("seed %d epoch %d", seed, epoch)
				return false
			}
		}
		return true
	})
}

// TestDriverHistoryIndependence pins that a table is a function of the
// current estimates alone: driver A rebuilds after every delta of a stream,
// driver B first looks once the stream has ended, and both must hold the
// oracle's tables. Converged link-state databases giving identical tables
// overlay-wide (DESIGN.md §15) is this property.
func TestDriverHistoryIndependence(t *testing.T) {
	checkSeeds(t, func(seed uint64, epochs int) bool {
		s := newDeltaStream(t, seed)
		a, b, oracle := s.driver(), s.driver(), s.driver()
		for epoch := 0; epoch < epochs; epoch++ {
			s.step(epoch)
			a.Rebuild()
		}
		b.Rebuild()
		oracle.RebuildCold()
		if !sameTables(t, "every-delta vs final-only", a, b) || !sameTables(t, "every-delta vs oracle", a, oracle) {
			t.Logf("seed %d after %d epochs", seed, epochs)
			return false
		}
		return true
	})
}

// TestDriverQuietEpochIsNoOp pins the pointer-identity fast path: a Rebuild
// under an unchanged estimate version must reuse every prior table object.
func TestDriverQuietEpochIsNoOp(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 0))
	g, err := topology.RandomRegular(12, 4, topology.DefaultDelayRange(), rng)
	if err != nil {
		t.Fatal(err)
	}
	mon := newFakeMonitor(g)
	d := NewDriver(g, mon, DriverOptions{})
	budget := make([]time.Duration, g.N())
	for x := range budget {
		budget[x] = 300 * time.Millisecond
	}
	for sub := 0; sub < 4; sub++ {
		d.SetPair(PairKey{Topic: 0, Sub: int32(sub)}, sub, budget)
	}
	if !d.Rebuild() {
		t.Fatal("initial Rebuild reported no work")
	}
	before := make(map[PairKey]*Table)
	d.Pairs(func(key PairKey, tab *Table) { before[key] = tab })

	for i := 0; i < 2; i++ {
		if d.Rebuild() {
			t.Fatalf("step %d: Rebuild reported work without estimate changes", i)
		}
	}
	d.Pairs(func(key PairKey, tab *Table) {
		if before[key] != tab {
			t.Fatalf("pair %+v: table replaced on a quiet epoch", key)
		}
	})
	st := d.Stats()
	if st.Noops != 2 || st.Epochs != 3 {
		t.Fatalf("stats = %+v, want 2 noops of 3 epochs", st)
	}

	// A delta must rebuild and leave the version consistent.
	mon.set([][2]int{{0, g.Neighbors(0)[0].To}}, func(u, v int) (time.Duration, float64) {
		return 25 * time.Millisecond, 0.5
	})
	if !d.Rebuild() {
		t.Fatal("Rebuild ignored a changed link")
	}
	if got := d.Stats().EstimateVersion; got != mon.version {
		t.Fatalf("driver at version %d, monitor at %d", got, mon.version)
	}
}

// TestDriverSetPairAndRemove pins live registration churn: adding a pair on
// a quiet epoch builds exactly that pair; removing it drops its table.
func TestDriverSetPairAndRemove(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 1))
	g, err := topology.RandomRegular(10, 4, topology.DefaultDelayRange(), rng)
	if err != nil {
		t.Fatal(err)
	}
	mon := newFakeMonitor(g)
	d := NewDriver(g, mon, DriverOptions{})
	budget := make([]time.Duration, g.N())
	for x := range budget {
		budget[x] = 200 * time.Millisecond
	}
	a := PairKey{Topic: 1, Sub: 2}
	d.SetPair(a, 2, budget)
	d.Rebuild()
	at := d.Table(a)
	if at == nil {
		t.Fatal("pair a has no table")
	}

	// Re-registering identically is a no-op; the next Rebuild keeps the
	// table object.
	d.SetPair(a, 2, budget)
	if d.Rebuild() {
		t.Fatal("identical re-registration caused a rebuild")
	}

	b := PairKey{Topic: 1, Sub: 5}
	d.SetPair(b, 5, budget)
	if !d.Rebuild() {
		t.Fatal("new pair did not trigger a build")
	}
	if d.Table(a) != at {
		t.Fatal("adding pair b rebuilt pair a on a quiet epoch")
	}
	if d.Table(b) == nil {
		t.Fatal("pair b has no table")
	}
	d.RemovePair(b)
	if d.Table(b) != nil {
		t.Fatal("removed pair still has a table")
	}
}

// deepCopy returns a table that shares no storage with t.
func deepCopy(t *Table) *Table {
	c := &Table{Subscriber: t.Subscriber, Params: slices.Clone(t.Params), Budget: slices.Clone(t.Budget), Lists: make([][]int, len(t.Lists))}
	for x, l := range t.Lists {
		c.Lists[x] = slices.Clone(l)
	}
	return c
}

// TestDriverHeldTablesImmutable pins what the live broker's shards rely on
// when they read a sending list without a lock: a table Rebuild has
// returned is never written again. Every table ever returned is held across
// a delta stream with budget changes and a graph swap mixed in (the driver's
// build storage and its sharing of unchanged lists under test), and each
// must still match, bit for bit, the copy taken when it was returned, and
// the current tables must match a cold rebuild at every epoch.
func TestDriverHeldTablesImmutable(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		s := newDeltaStreamN(t, seed, 12+int(seed))
		d, oracle := s.driver(), s.driver()
		type held struct{ live, copy *Table }
		var all []held
		seenTab := make(map[*Table]bool)
		collect := func() {
			d.Pairs(func(_ PairKey, tab *Table) {
				if tab != nil && !seenTab[tab] {
					seenTab[tab] = true
					all = append(all, held{tab, deepCopy(tab)})
				}
			})
		}
		for epoch := 0; epoch < 40; epoch++ {
			s.step(epoch)
			switch epoch % 10 {
			case 3: // a budget moves: that pair rebuilds under a quiet version
				budget := make([]time.Duration, s.g.N())
				for x := range budget {
					budget[x] = time.Duration(150+s.rng.IntN(300)) * time.Millisecond
				}
				key := s.pairs[epoch%len(s.pairs)]
				d.SetPair(key, int(key.Sub), budget)
				oracle.SetPair(key, int(key.Sub), budget)
			case 7: // an equal graph swapped in: every pair rebuilds
				d.SetGraph(s.g)
			}
			d.Rebuild()
			oracle.RebuildCold()
			if !sameTables(t, "driver vs oracle", d, oracle) {
				t.Fatalf("seed %d epoch %d: the driver's tables left the cold rebuild's", seed, epoch)
			}
			collect()
			for _, h := range all {
				if !slices.Equal(h.live.Params, h.copy.Params) || !slices.Equal(h.live.Budget, h.copy.Budget) ||
					!slices.EqualFunc(h.live.Lists, h.copy.Lists, slices.Equal[[]int]) {
					t.Fatalf("seed %d epoch %d: a table returned earlier was written", seed, epoch)
				}
			}
		}
		if len(all) < 20 {
			t.Fatalf("seed %d: only %d distinct tables over 40 epochs; the stream did not exercise rebuilds", seed, len(all))
		}
	}
}

// TestDriverRebuildAllocs holds a Rebuild to its allocation budget: a quiet
// epoch, and one whose tables all come out Equal, allocate nothing, and an
// estimate change that moves <d, r> but no sending list costs at most a new
// Table and its Params per pair. Line graphs have no ties, so a microsecond on one link re-sorts
// nothing.
func TestDriverRebuildAllocs(t *testing.T) {
	for _, n := range []int{7, 32} {
		delays := make([]time.Duration, n-1)
		for i := range delays {
			delays[i] = time.Duration(2+i%5) * time.Millisecond
		}
		rebuildAllocs(t, lineGraph(t, delays...))
	}
}

// rebuildAllocs runs TestDriverRebuildAllocs on one graph.
func rebuildAllocs(t *testing.T, g *topology.Graph) {
	t.Helper()
	mon := newFakeMonitor(g)
	d := NewDriver(g, mon, DriverOptions{Build: BuildOptions{M: 2}})
	const pairs = 4
	for p := 0; p < pairs; p++ {
		d.SetPair(PairKey{Topic: int32(p), Sub: int32(2 * p)}, 2*p, bigBudgets(g.N()))
	}
	d.Rebuild()
	if quiet := testing.AllocsPerRun(100, func() { d.Rebuild() }); quiet != 0 {
		t.Errorf("%d nodes: a quiet Rebuild allocates %.1f objects, want 0", g.N(), quiet)
	}

	// A version bump that moves no estimate rebuilds every pair into an
	// Equal table: each keeps its pointer, and nothing is allocated.
	link := [][2]int{{2, 3}}
	held := make(map[PairKey]*Table)
	d.Pairs(func(key PairKey, tab *Table) { held[key] = tab })
	built := d.Stats().TablesBuilt
	same := testing.AllocsPerRun(100, func() {
		mon.set(link, func(u, v int) (time.Duration, float64) { return mon.alpha[u*mon.n+v], mon.gamma[u*mon.n+v] })
		d.Rebuild()
	})
	if got := d.Stats().TablesBuilt - built; got != 101*pairs {
		t.Fatalf("%d nodes: %d builds over 101 version bumps of %d pairs", g.N(), got, pairs)
	}
	d.Pairs(func(key PairKey, tab *Table) {
		if tab != held[key] {
			t.Errorf("%d nodes, pair %+v: an Equal rebuild replaced the table", g.N(), key)
		}
	})
	if same != 0 {
		t.Errorf("%d nodes: a Rebuild whose tables all come out Equal allocates %.1f objects, want 0", g.N(), same)
	}

	lists := make(map[PairKey][][]int)
	d.Pairs(func(key PairKey, tab *Table) { lists[key] = deepCopy(tab).Lists })
	flip := false
	perPair := testing.AllocsPerRun(100, func() {
		flip = !flip
		mon.set(link, func(u, v int) (time.Duration, float64) {
			if flip {
				return 2*time.Millisecond + time.Microsecond, 1
			}
			return 2 * time.Millisecond, 1
		})
		d.Rebuild()
	}) / pairs
	d.Pairs(func(key PairKey, tab *Table) {
		if !slices.EqualFunc(tab.Lists, lists[key], slices.Equal[[]int]) {
			t.Fatalf("%d nodes, pair %+v: the estimate change re-sorted a list; the setup must leave lists alone", g.N(), key)
		}
	})
	t.Logf("%d nodes: %.1f objects per pair", g.N(), perPair)
	if perPair > 2 {
		t.Errorf("%d nodes: an estimate-only Rebuild allocates %.1f objects per pair, want at most 2 (Table and Params)", g.N(), perPair)
	}
}
