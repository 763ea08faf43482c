package seen

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

// refSeen is a per-ID dedup set, kept as the reference model: a map of IDs
// and a FIFO of (ID, insert time) that expires entries older than the horizon
// at the next insert.
type refSeen struct {
	ids  map[uint64]struct{}
	fifo []refSeenRec
}

type refSeenRec struct {
	id uint64
	at time.Duration
}

func (r *refSeen) has(id uint64) bool { _, ok := r.ids[id]; return ok }

func (r *refSeen) add(id uint64, now, horizon time.Duration) {
	for len(r.fifo) > 0 && now-r.fifo[0].at > horizon {
		delete(r.ids, r.fifo[0].id)
		r.fifo = r.fifo[1:]
	}
	r.ids[id] = struct{}{}
	r.fifo = append(r.fifo, refSeenRec{id: id, at: now})
}

// TestSetMatchesPerIDModel drives the chunked set and the reference model
// with one (id, time) sequence through Seen — test, then insert unless dup —
// over sequential, interleaved-stream and sparse IDs with replays of earlier
// ones. The chunked set may remember an ID longer than the model (a chunk
// lives until its newest insert ages out) but never shorter and never an ID
// that was not inserted: whenever the model says dup, or the ID's insert is
// within the horizon, the set must say dup, and it must say fresh for an ID
// never inserted. At the end the ascending listing must be exactly the IDs
// the set reports.
func TestSetMatchesPerIDModel(t *testing.T) {
	const horizon = 100 * time.Millisecond
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		set := New(horizon)
		ref := refSeen{ids: make(map[uint64]struct{})}
		lastInsert := make(map[uint64]time.Duration)
		var history []uint64
		// Four streams shaped like live frame IDs (broker<<48 | shard<<42 |
		// counter) and one global counter like the simulator's.
		streams := []uint64{1<<48 | 0<<42 | 5, 1<<48 | 1<<42 | 900, 2<<48 | 77, 3<<48 | 1<<41, 1}
		now := time.Duration(0)
		for op := 0; op < 4000; op++ {
			switch rng.Intn(10) {
			case 0: // a long quiet gap: everything may expire
				now += time.Duration(rng.Int63n(int64(3 * horizon)))
			default:
				now += time.Duration(rng.Int63n(int64(200 * time.Microsecond)))
			}
			var id uint64
			switch k := rng.Intn(10); {
			case k < 6: // next ID of one stream
				s := rng.Intn(len(streams))
				streams[s]++
				id = streams[s]
			case k < 8 && len(history) > 0: // replay, recent or long gone
				id = history[rng.Intn(len(history))]
			default: // sparse: an ID in nobody's chunk
				id = rng.Uint64()
			}
			model := ref.has(id)
			at, inserted := lastInsert[id]
			got := set.Seen(id, now)
			switch {
			case model && !got, inserted && now-at <= horizon && !got:
				t.Logf("seed %d op %d: id %#x inserted at %v forgotten at %v (model dup=%v)", seed, op, id, at, now, model)
				return false
			case got && !inserted:
				t.Logf("seed %d op %d: id %#x reported dup but was never inserted", seed, op, id)
				return false
			}
			if !got { // and so not in the model either: both see the same inserts
				ref.add(id, now, horizon)
				lastInsert[id] = now
				history = append(history, id)
			}
		}
		var live []uint64
		for id := range lastInsert {
			if set.Has(id) {
				live = append(live, id)
			}
		}
		slices.Sort(live)
		if ids := set.IDs(); !slices.Equal(ids, live) {
			t.Logf("seed %d: IDs lists %d IDs, Has reports %d", seed, len(ids), len(live))
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestSetBound holds the set to its size claim: consecutive IDs cost one
// chunk per 64, and a single insert past the horizon forgets all of them.
func TestSetBound(t *testing.T) {
	const n, horizon = 1_000_000, time.Minute
	set := New(horizon)
	base := uint64(3)<<48 | 1<<42 | 12345 // not chunk-aligned
	for i := uint64(0); i < n; i++ {
		set.Seen(base+i, time.Duration(i)*time.Microsecond)
	}
	if got, limit := len(set.chunks), n/64+1; got > limit {
		t.Errorf("%d consecutive IDs took %d chunks, want at most %d", n, got, limit)
	}
	if live := len(set.queue) - set.head; live != len(set.chunks) {
		t.Errorf("expiry queue holds %d chunks, the set %d", live, len(set.chunks))
	}
	if !set.Has(base) || !set.Has(base+n-1) || set.Has(base+n) {
		t.Error("membership wrong at the ends of the inserted range")
	}
	last := time.Duration(n-1) * time.Microsecond
	set.Seen(7, last+horizon+1)
	if len(set.chunks) != 1 || !set.Has(7) || set.Has(base+n-1) {
		t.Errorf("after one insert past the horizon the set holds %d chunks, want only the new one", len(set.chunks))
	}
}

// TestSetBoundSharded is the broker's shape: consecutive packet IDs split
// over k shards by the Fibonacci hash the broker routes with, one set per
// shard. Each shard's chunk then holds about 64/k IDs, so k sets take at most
// k·(n/64 + 1) chunks between them.
func TestSetBoundSharded(t *testing.T) {
	const n = 1_000_000
	base := uint64(2)<<48 | 777
	for _, k := range []int{2, 4} {
		sets := make([]*Set, k)
		for i := range sets {
			sets[i] = New(time.Minute)
		}
		for i := uint64(0); i < n; i++ {
			pid := base + i
			sets[(pid*0x9e3779b97f4a7c15>>33)%uint64(k)].Seen(pid, time.Duration(i)*time.Microsecond)
		}
		total := 0
		for _, s := range sets {
			total += len(s.chunks)
		}
		if limit := k * (n/64 + 1); total > limit {
			t.Errorf("%d IDs over %d shards took %d chunks, want at most %d", n, k, total, limit)
		}
		for i := uint64(0); i < n; i += 997 {
			pid := base + i
			if !sets[(pid*0x9e3779b97f4a7c15>>33)%uint64(k)].Has(pid) {
				t.Fatalf("k=%d: packet %#x forgotten inside the horizon", k, pid)
			}
		}
	}
}

// TestSetIDsAscending: the listing is every remembered ID, ascending, across
// chunk boundaries and sparse chunks, and drops exactly what expiry dropped.
func TestSetIDsAscending(t *testing.T) {
	const horizon = time.Second
	set := New(horizon)
	if ids := set.IDs(); len(ids) != 0 {
		t.Fatalf("empty set lists %v", ids)
	}
	old := []uint64{1 << 40, 1<<40 + 63, 1<<40 + 64}
	for _, id := range old {
		set.Seen(id, 0)
	}
	fresh := []uint64{5, 1<<63 + 1, 64*3 + 2, 64*3 + 1, 0}
	for _, id := range fresh {
		set.Seen(id, 2*horizon) // expires the old chunks first
	}
	want := slices.Clone(fresh)
	slices.Sort(want)
	if ids := set.IDs(); !slices.Equal(ids, want) {
		t.Errorf("IDs = %v, want %v", ids, want)
	}
}
