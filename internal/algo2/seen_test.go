package algo2

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// refSeen is the per-ID dedup set the chunked seenSet replaced, kept as the
// reference model: a map of IDs and a FIFO of (ID, insert time) that expires
// entries older than the horizon at the next insert.
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

// TestSeenSetMatchesPerIDModel drives the chunked set and the reference
// model with one (id, time) sequence in HandleData's pattern — test, then
// insert unless dup — over sequential, interleaved-stream and sparse IDs with
// replays of earlier ones. The chunked set may remember an ID longer than the
// model (a chunk lives until its newest insert ages out) but never shorter
// and never an ID that was not inserted: whenever the model says dup, or the
// ID's insert is within the horizon, the set must say dup, and it must say
// fresh for an ID never inserted.
func TestSeenSetMatchesPerIDModel(t *testing.T) {
	const horizon = 100 * time.Millisecond
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		set := seenSet{chunks: make(map[uint64]seenChunk)}
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
			got, model := set.has(id), ref.has(id)
			at, inserted := lastInsert[id]
			switch {
			case model && !got, inserted && now-at <= horizon && !got:
				t.Logf("seed %d op %d: id %#x inserted at %v forgotten at %v (model dup=%v)", seed, op, id, at, now, model)
				return false
			case got && !inserted:
				t.Logf("seed %d op %d: id %#x reported dup but was never inserted", seed, op, id)
				return false
			}
			if !got { // and so not in the model either: both see the same inserts
				set.add(id, now, horizon)
				ref.add(id, now, horizon)
				lastInsert[id] = now
				history = append(history, id)
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestSeenSetBound holds the set to its size claim: consecutive IDs cost one
// chunk per 64, and a single insert past the horizon forgets all of them.
func TestSeenSetBound(t *testing.T) {
	const n, horizon = 1_000_000, time.Minute
	set := seenSet{chunks: make(map[uint64]seenChunk)}
	base := uint64(3)<<48 | 1<<42 | 12345 // not chunk-aligned
	for i := uint64(0); i < n; i++ {
		set.add(base+i, time.Duration(i)*time.Microsecond, horizon)
	}
	if got, limit := len(set.chunks), n/64+1; got > limit {
		t.Errorf("%d consecutive IDs took %d chunks, want at most %d", n, got, limit)
	}
	if live := len(set.seenQ) - set.head; live != len(set.chunks) {
		t.Errorf("expiry queue holds %d chunks, the set %d", live, len(set.chunks))
	}
	if !set.has(base) || !set.has(base+n-1) || set.has(base+n) {
		t.Error("membership wrong at the ends of the inserted range")
	}
	last := time.Duration(n-1) * time.Microsecond
	set.add(7, last+horizon+1, horizon)
	if len(set.chunks) != 1 || !set.has(7) || set.has(base+n-1) {
		t.Errorf("after one insert past the horizon the set holds %d chunks, want only the new one", len(set.chunks))
	}
}
