package algo1

import (
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/topology"
)

// BenchmarkControlPlaneEpoch measures one control-loop epoch through the
// shared engine: a Driver over a gossip-shaped monitor with a registered
// pair set, one Rebuild per iteration.
//
//   - quiet: the estimate version is unchanged — the pointer-identity no-op
//     every idle LinkStateInterval tick takes.
//   - dirty: a sparse 3-link gossip delta lands each epoch, as a live
//     link-quality wobble does, and every pair rebuilds.
func BenchmarkControlPlaneEpoch(b *testing.B) {
	setup := func(b *testing.B) (*Driver, *fakeMonitor, [][2]int) {
		b.Helper()
		rng := rand.New(rand.NewPCG(0xbe7c, 0))
		g, err := topology.RandomRegular(32, 4, topology.DefaultDelayRange(), rng)
		if err != nil {
			b.Fatal(err)
		}
		mon := newFakeMonitor(g)
		d := NewDriver(g, mon, DriverOptions{Build: BuildOptions{M: 2}})
		budget := make([]time.Duration, g.N())
		for x := range budget {
			budget[x] = 400 * time.Millisecond
		}
		for p := 0; p < 16; p++ {
			d.SetPair(PairKey{Topic: int32(p), Sub: int32(p * 2 % g.N())}, p*2%g.N(), budget)
		}
		if !d.Rebuild() {
			b.Fatal("initial rebuild did no work")
		}
		var links [][2]int
		for u := 0; u < g.N(); u++ {
			for _, e := range g.Neighbors(u) {
				links = append(links, [2]int{u, e.To})
			}
		}
		return d, mon, links
	}

	b.Run("quiet", func(b *testing.B) {
		d, _, _ := setup(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if d.Rebuild() {
				b.Fatal("quiet epoch rebuilt tables")
			}
		}
	})

	b.Run("dirty", func(b *testing.B) {
		d, mon, links := setup(b)
		rng := rand.New(rand.NewPCG(0xd1e7, 1))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			batch := [][2]int{
				links[rng.IntN(len(links))],
				links[rng.IntN(len(links))],
				links[rng.IntN(len(links))],
			}
			mon.set(batch, func(u, v int) (time.Duration, float64) {
				return time.Duration(1+rng.IntN(30)) * time.Millisecond, 0.4 + rng.Float64()*0.6
			})
			d.Rebuild()
		}
	})
}
