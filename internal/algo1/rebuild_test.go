package algo1

import (
	mrand "math/rand"
	"math/rand/v2"
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
	rng := rand.New(rand.NewPCG(seed, 0x11ec))
	n := 8 + int(seed%9) // 8..16 nodes
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
