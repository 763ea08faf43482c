// Package seen is the one "have I seen this ID" set behind Theorem 2's
// exactly-once: engine frames, shard deliveries, and the WAL's frames and
// deliveries each remember IDs in a Set for Horizon(MaxLifetime).
package seen

import (
	"math/bits"
	"slices"
	"time"
)

// DefaultMaxLifetime is how long a packet may be retried when a layer's
// configuration leaves its lifetime unset.
const DefaultMaxLifetime = 30 * time.Second

// Horizon is how long a dedup set remembers an ID. Transmissions stop at
// publish+maxLifetime and nothing arrives more than one link delay plus one
// ACK timeout later, so forgetting an ID after two lifetimes resurrects none.
func Horizon(maxLifetime time.Duration) time.Duration { return 2 * maxLifetime }

// chunk is the state of 64 consecutive IDs: one bit per ID and the time of
// the newest insert. It holds no pointers, so the garbage collector never
// scans the set.
type chunk struct {
	bits uint64
	last time.Duration
}

// Set remembers IDs by the chunk (id>>6). A chunk is forgotten only once its
// newest insert is older than the horizon, so every ID is remembered at least
// that long and at most the time its chunk took to fill longer (the queue
// expires in creation order, which can hold a chunk behind one that filled
// more slowly). Callers' IDs come from counters, so a stream's neighbours
// share a chunk. A Set is not safe for concurrent use.
type Set struct {
	horizon time.Duration
	chunks  map[uint64]chunk
	queue   []rec // live chunks, oldest first
	head    int
}

// rec queues one chunk for expiry. at is a time the chunk is known to have
// had an insert (its first, until a look finds a newer one): the chunk cannot
// expire before at+horizon, so add reads the old, cache-cold chunk itself
// only then and not on every insert.
type rec struct {
	key uint64
	at  time.Duration
}

// New returns an empty set that remembers each ID for at least horizon.
func New(horizon time.Duration) *Set {
	return &Set{horizon: horizon, chunks: make(map[uint64]chunk)}
}

// Has reports whether id was inserted and not yet forgotten.
func (s *Set) Has(id uint64) bool {
	return s.chunks[id>>6].bits&(1<<(id&63)) != 0
}

// Seen reports whether id is already in the set and, if not, inserts it at
// time now, which must never decrease between calls.
func (s *Set) Seen(id uint64, now time.Duration) bool {
	if s.Has(id) {
		return true
	}
	s.add(id, now)
	return false
}

// add inserts id at time now and forgets the chunks whose newest insert is
// more than the horizon old.
func (s *Set) add(id uint64, now time.Duration) {
	for s.head < len(s.queue) && now-s.queue[s.head].at > s.horizon {
		r := &s.queue[s.head]
		if last := s.chunks[r.key].last; now-last <= s.horizon {
			r.at = last
			break
		}
		delete(s.chunks, r.key)
		s.head++
	}
	if s.head > 64 && s.head*2 >= len(s.queue) {
		s.queue = s.queue[:copy(s.queue, s.queue[s.head:])]
		s.head = 0
	}
	c, ok := s.chunks[id>>6]
	if !ok {
		s.queue = append(s.queue, rec{key: id >> 6, at: now})
	}
	c.bits |= 1 << (id & 63)
	c.last = now
	s.chunks[id>>6] = c
}

// IDs lists every ID Has reports, in ascending order.
func (s *Set) IDs() []uint64 {
	keys := make([]uint64, 0, len(s.chunks))
	for k := range s.chunks {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var ids []uint64
	for _, k := range keys {
		for w := s.chunks[k].bits; w != 0; w &= w - 1 {
			ids = append(ids, k<<6|uint64(bits.TrailingZeros64(w)))
		}
	}
	return ids
}
