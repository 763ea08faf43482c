// Package des implements a deterministic single-threaded discrete-event
// simulation engine.
//
// A Simulator owns a virtual clock and a priority queue of events. Events
// scheduled for the same instant fire in scheduling order, which — together
// with a seeded random source — makes every run fully reproducible.
//
// The engine is deliberately minimal: callbacks are plain closures (or, on
// the allocation-free fast path, a func(any) plus argument via AtFunc and
// AfterFunc), timers can be cancelled, and the caller drives execution with
// Run, RunUntil, Step or StepUntil. It is not safe for concurrent use; the
// simulated systems built on top of it are event-driven state machines,
// not goroutines.
//
// The scheduler is engineered for steady-state zero allocation: the queue
// is an in-package 4-ary min-heap over a flat slice of (time, seq) entries
// — no container/heap, no interface boxing — and fired or cancelled event
// structs are recycled through a free list, so once the heap and free list
// have grown to the simulation's high-water mark, scheduling allocates
// nothing.
package des

import (
	"math"
	"math/rand/v2"
	"time"
)

// event is a scheduled callback owned by the simulator's free list. At most
// one of fn and fn1 is set. gen distinguishes incarnations of a recycled
// struct so stale EventIDs cannot touch a later event reusing the struct.
type event struct {
	at       time.Duration
	gen      uint32
	canceled bool
	fn       func()
	fn1      func(any)
	arg      any
}

// pending reports whether the event's current incarnation is still scheduled.
func (e *event) pending() bool {
	return !e.canceled && (e.fn != nil || e.fn1 != nil)
}

// EventID is a handle to a scheduled event, returned by At, After, AtFunc
// and AfterFunc so callers can cancel pending events. It is a small value;
// copy it freely. The zero EventID refers to no event: Cancel on it is a
// no-op. A handle becomes stale once its event fires or is cancelled — the
// underlying struct is recycled for later events, and stale handles are
// detected by generation so they can never touch the wrong event.
type EventID struct {
	ev  *event
	gen uint32
}

// Time returns the virtual time at which the event is scheduled, or 0 when
// the handle is stale (the event already fired or was cancelled).
func (id EventID) Time() time.Duration {
	if id.ev == nil || id.ev.gen != id.gen {
		return 0
	}
	return id.ev.at
}

// Cancel prevents a pending event from firing. Cancelling an event that
// already fired (or was already cancelled) is a no-op. It reports whether
// the event was still pending.
func (id EventID) Cancel() bool {
	ev := id.ev
	if ev == nil || ev.gen != id.gen || !ev.pending() {
		return false
	}
	ev.canceled = true
	ev.fn, ev.fn1, ev.arg = nil, nil, nil
	return true
}

// heapEntry is one queue slot. Keeping the (time, seq) ordering key inline
// means sift comparisons never chase the event pointer.
type heapEntry struct {
	at  time.Duration
	seq uint64
	ev  *event
}

// entryLess orders entries by (time, sequence): earlier first, ties broken
// by scheduling order.
func entryLess(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventBlockSize is how many event structs are carved from one backing
// allocation when the free list runs dry.
const eventBlockSize = 64

// Simulator is a discrete-event scheduler with a virtual clock.
// The zero value is not usable; construct with New.
type Simulator struct {
	now       time.Duration
	heap      []heapEntry
	seq       uint64
	rng       *rand.Rand
	processed uint64
	free      []*event
	block     []event
}

// New returns a Simulator whose random source is seeded with seed.
// The same seed always produces the same event interleaving and random
// draws, which the test suite and the experiment harness rely on.
func New(seed uint64) *Simulator {
	return &Simulator{
		rng: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
	}
}

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// Rand returns the simulator's deterministic random source.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Pending returns the number of events still scheduled (including
// cancelled events not yet drained from the queue).
func (s *Simulator) Pending() int { return len(s.heap) }

// Processed returns the number of events executed so far.
func (s *Simulator) Processed() uint64 { return s.processed }

// alloc takes an event struct from the free list, carving a fresh block
// when the list is empty.
func (s *Simulator) alloc() *event {
	if n := len(s.free); n > 0 {
		ev := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return ev
	}
	if len(s.block) == 0 {
		s.block = make([]event, eventBlockSize)
	}
	ev := &s.block[0]
	s.block = s.block[1:]
	return ev
}

// recycle retires an event struct: the generation bump invalidates every
// outstanding EventID for it before it returns to the free list.
func (s *Simulator) recycle(ev *event) {
	ev.gen++
	ev.canceled = false
	ev.fn, ev.fn1, ev.arg = nil, nil, nil
	s.free = append(s.free, ev)
}

// schedule enqueues one callback at absolute time t (clamped to now).
func (s *Simulator) schedule(t time.Duration, fn func(), fn1 func(any), arg any) EventID {
	if t < s.now {
		t = s.now
	}
	ev := s.alloc()
	ev.at = t
	ev.fn, ev.fn1, ev.arg = fn, fn1, arg
	s.push(heapEntry{at: t, seq: s.seq, ev: ev})
	s.seq++
	return EventID{ev: ev, gen: ev.gen}
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// (t < Now) clamps to Now, so the event runs next. It returns a handle for
// cancellation.
func (s *Simulator) At(t time.Duration, fn func()) EventID {
	return s.schedule(t, fn, nil, nil)
}

// After schedules fn to run d after the current virtual time.
// Negative d is treated as zero.
func (s *Simulator) After(d time.Duration, fn func()) EventID {
	if d < 0 {
		d = 0
	}
	return s.schedule(s.now+d, fn, nil, nil)
}

// AtFunc schedules fn(arg) at absolute virtual time t. Unlike At, which
// typically costs a closure allocation at the call site, a package-level fn
// plus a pointer-shaped arg allocates nothing — this is the hot-path
// scheduling primitive.
func (s *Simulator) AtFunc(t time.Duration, fn func(any), arg any) EventID {
	return s.schedule(t, nil, fn, arg)
}

// AfterFunc schedules fn(arg) to run d after the current virtual time.
// Negative d is treated as zero. See AtFunc for the allocation contract.
func (s *Simulator) AfterFunc(d time.Duration, fn func(any), arg any) EventID {
	if d < 0 {
		d = 0
	}
	return s.schedule(s.now+d, nil, fn, arg)
}

// Step executes the single earliest pending event, advancing the clock to
// its timestamp. It reports whether an event was executed (false when the
// queue held only cancelled events or was empty).
func (s *Simulator) Step() bool { return s.StepUntil(math.MaxInt64) }

// StepUntil is Step bounded by t: it drops the cancelled entries due by t
// and executes at most one live event, and only one scheduled at or before
// t — never the next live event whatever its time, which is what skipping
// a cancelled top and then calling Step would do. It reports whether an
// event was executed; the clock moves only to an executed event's time.
func (s *Simulator) StepUntil(t time.Duration) bool {
	for len(s.heap) > 0 && s.heap[0].at <= t {
		e := s.popMin()
		ev := e.ev
		if ev.canceled {
			s.recycle(ev)
			continue
		}
		s.now = e.at
		fn, fn1, arg := ev.fn, ev.fn1, ev.arg
		s.recycle(ev)
		s.processed++
		if fn != nil {
			fn()
		} else {
			fn1(arg)
		}
		return true
	}
	return false
}

// NextAt returns the time of the earliest live event, and false when there
// is none. Cancelled entries at the top of the queue are dropped on the
// way, so a queue whose events were all cancelled is empty afterwards: a
// wall-clock shell sleeps until the returned instant, and must not wake
// for a deadline nobody waits on any more.
func (s *Simulator) NextAt() (time.Duration, bool) {
	for len(s.heap) > 0 {
		ev := s.heap[0].ev
		if !ev.canceled {
			return s.heap[0].at, true
		}
		s.popMin()
		s.recycle(ev)
	}
	return 0, false
}

// Run executes events until the queue is empty.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// t. Events scheduled beyond t remain pending.
func (s *Simulator) RunUntil(t time.Duration) {
	for s.StepUntil(t) {
	}
	if s.now < t {
		s.now = t
	}
}

// push inserts an entry, sifting up through the 4-ary heap.
func (s *Simulator) push(e heapEntry) {
	h := append(s.heap, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !entryLess(e, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	s.heap = h
}

// popMin removes and returns the earliest entry, sifting the displaced last
// entry down through the 4-ary heap.
func (s *Simulator) popMin() heapEntry {
	h := s.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = heapEntry{}
	h = h[:n]
	s.heap = h
	if n > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if entryLess(h[j], h[m]) {
					m = j
				}
			}
			if !entryLess(h[m], last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	return top
}
