package wal

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
)

// TestAppendSteadyStateAllocs pins the custody slab: once its slots, the
// index and the pending buffer have reached their working size, journaling a
// packet's whole life — custody, a partial clear, the local delivery that
// settles this broker's own destination, the full clear — allocates nothing.
// A millisecond horizon keeps both dedup sets at their working size too
// (they grow by a chunk per 64 IDs for a whole horizon, DESIGN.md §17), so
// what is counted is the live state and the group commit.
func TestAppendSteadyStateAllocs(t *testing.T) {
	l, _ := openT(t, Config{
		Dir:       t.TempDir(),
		NodeID:    4,
		Horizon:   time.Millisecond,
		OnDurable: func(uint64, int) {},
	})
	defer l.Close()
	d := testData(0, 0, 2, 5, 4)
	partial := []int{5}
	var id uint64
	cycle := func() {
		id++
		d.FrameID, d.PacketID = id, id
		l.AppendCustody(d, 1)
		l.AppendClear(id, partial)
		l.AppendDeliver(id)
		l.AppendClear(id, nil)
	}
	for i := 0; i < 1000; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Errorf("a custody record's life allocates %.1f objects in steady state, want 0", allocs)
	}
	if l.Stats().Appends == 0 {
		t.Fatal("nothing was journaled")
	}
}

// modelFlight is one custody record in the plain-map model of the live
// state that TestSlotReuseRecoversExactly checks recovery against.
type modelFlight struct {
	frameID       uint64
	path, payload []byte
	dests         map[int32]bool
}

// TestSlotReuseRecoversExactly drives a log through a seeded random
// interleaving of custody, partial clears, full clears and deliveries, with
// a segment budget small enough that checkpoints run after slots have been
// freed and reused, and reopens it every phase. Each reopen must hand back
// exactly the flights a plain map model holds — frame ID, path, payload and
// outstanding destinations, in packet-ID then log order — so no slot's
// stale bytes or destinations leak into the record that reused it. Every
// twentieth payload is over maxKeptRec, so freed slots also drop buffers.
func TestSlotReuseRecoversExactly(t *testing.T) {
	const self = int32(0)
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{Dir: t.TempDir(), NodeID: int(self), SegmentBytes: 4096}
		model := map[uint64][]*modelFlight{}
		delivered := map[uint64]bool{}
		var nextPid, nextFrame uint64
		checkpoints := uint64(0)
		livePid := func() (uint64, bool) {
			if len(model) == 0 {
				return 0, false
			}
			pids := make([]uint64, 0, len(model))
			for pid := range model {
				pids = append(pids, pid)
			}
			slices.Sort(pids)
			return pids[rng.Intn(len(pids))], true
		}
		// settle removes dests (nil: all) from a packet's model flights,
		// dropping the ones left with nothing outstanding.
		settle := func(pid uint64, dests []int32) {
			kept := model[pid][:0]
			for _, f := range model[pid] {
				for _, d := range dests {
					delete(f.dests, d)
				}
				if dests != nil && len(f.dests) > 0 {
					kept = append(kept, f)
				}
			}
			if len(kept) == 0 {
				delete(model, pid)
			} else {
				model[pid] = kept
			}
		}

		reopen := func(phase int) *Log {
			l, rec := openT(t, cfg)
			// Recovery settles this broker's own destination for delivered
			// packets, even where the custody was journaled after the
			// delivery.
			for pid := range model {
				if delivered[pid] {
					settle(pid, []int32{self})
				}
			}
			checkRecovered(t, seed, phase, rec, model, delivered)
			return l
		}

		for phase := 0; phase < 4; phase++ {
			l := reopen(phase)

			for op := 0; op < 1500; op++ {
				switch r := rng.Intn(20); {
				case r < 9: // custody: a fresh packet, or one more frame of a live one
					pid, ok := livePid()
					origin := false
					if !ok || rng.Intn(2) == 0 {
						nextPid++
						pid, origin = nextPid, rng.Intn(4) == 0
					}
					f := &modelFlight{dests: map[int32]bool{}}
					if !origin {
						nextFrame++
						f.frameID = nextFrame
					}
					for _, d := range []int32{self, 1, 2, 3, 4, 5} {
						if rng.Intn(3) == 0 {
							f.dests[d] = true
						}
					}
					if len(f.dests) == 0 {
						f.dests[int32(1+rng.Intn(5))] = true
					}
					f.path = make([]byte, 1+rng.Intn(4))
					size := 1 + rng.Intn(64)
					if rng.Intn(20) == 0 {
						size = maxKeptRec + rng.Intn(2048)
					}
					f.payload = make([]byte, size)
					rng.Read(f.path)
					rng.Read(f.payload)
					d := testData(f.frameID, pid)
					d.Path = make([]int32, len(f.path))
					for i, p := range f.path {
						d.Path[i] = int32(p)
					}
					d.Payload = f.payload
					for _, dest := range []int32{self, 1, 2, 3, 4, 5} {
						if f.dests[dest] {
							d.Dests = append(d.Dests, dest)
						}
					}
					l.AppendCustody(d, -1)
					model[pid] = append(model[pid], f)
				case r < 13: // partial clear
					if pid, ok := livePid(); ok {
						var dests []int
						var ds []int32
						for _, d := range []int32{self, 1, 2, 3, 4, 5} {
							if rng.Intn(3) == 0 {
								dests = append(dests, int(d))
								ds = append(ds, d)
							}
						}
						if len(dests) == 0 {
							continue // an empty list would settle everything
						}
						l.AppendClear(pid, dests)
						settle(pid, ds)
					}
				case r < 16: // full clear
					if pid, ok := livePid(); ok {
						l.AppendClear(pid, nil)
						settle(pid, nil)
					}
				default: // local delivery of a live or a past packet
					pid, ok := livePid()
					if !ok || rng.Intn(3) == 0 {
						pid = 1 + uint64(rng.Int63n(int64(nextPid+1)))
					}
					l.AppendDeliver(pid)
					delivered[pid] = true
					settle(pid, []int32{self})
				}
			}
			for deadline := time.Now().Add(5 * time.Second); l.Stats().Checkpoints == 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("seed %d phase %d: no checkpoint over a %d-byte segment budget", seed, phase, cfg.SegmentBytes)
				}
			}
			checkpoints += l.Stats().Checkpoints
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		}
		reopen(4).Close()
		t.Logf("seed %d: %d checkpoints, %d packets outstanding at the end", seed, checkpoints, len(model))
	}
}

// checkRecovered compares what a reopen recovered with the model.
func checkRecovered(t *testing.T, seed int64, phase int, rec *Recovered, model map[uint64][]*modelFlight, delivered map[uint64]bool) {
	t.Helper()
	type flight struct {
		Pid, FrameID  uint64
		Path, Payload []byte
		Dests         []int32
	}
	var want []flight
	pids := make([]uint64, 0, len(model))
	for pid := range model {
		pids = append(pids, pid)
	}
	slices.Sort(pids)
	for _, pid := range pids {
		for _, f := range model[pid] {
			w := flight{Pid: pid, FrameID: f.frameID, Path: f.path, Payload: f.payload}
			for d := range f.dests {
				w.Dests = append(w.Dests, d)
			}
			slices.Sort(w.Dests)
			want = append(want, w)
		}
	}
	var got []flight
	for _, f := range rec.Flights {
		g := flight{Pid: f.Rec.PacketID, FrameID: f.Rec.FrameID, Payload: f.Rec.Payload, Dests: slices.Clone(f.Rec.Dests)}
		for _, p := range f.Rec.Path {
			g.Path = append(g.Path, byte(p))
		}
		slices.Sort(g.Dests)
		got = append(got, g)
	}
	if len(got) != len(want) {
		t.Fatalf("seed %d phase %d: recovered %d flights, model holds %d", seed, phase, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("seed %d phase %d: flight %d is %+v, model says %+v", seed, phase, i, got[i], want[i])
		}
	}
	var wantDelivered []uint64
	for pid := range delivered {
		wantDelivered = append(wantDelivered, pid)
	}
	slices.Sort(wantDelivered)
	if !slices.Equal(rec.Delivered, wantDelivered) {
		t.Fatalf("seed %d phase %d: recovered %d delivered packets, model holds %d", seed, phase, len(rec.Delivered), len(wantDelivered))
	}
}
