package broker

import (
	"net"
	"testing"
	"time"

	"repro/internal/wire"
)

// timerRig is one broker whose only neighbor (1) is a net.Pipe end the test
// reads itself: every DATA broker 0 puts on the link shows up on sent
// with its arrival time, and no ACK ever comes back unless the test queues
// one. The route (timerTopic, 1) → [1] is stored straight into the data
// plane's snapshot; nothing replaces it: the link is never measured (the far
// end does not echo probes), so the control loop never has a pair to
// publish.
type timerRig struct {
	b    *Broker
	sent chan sentFrame
}

type sentFrame struct {
	id uint64
	at time.Time
}

const (
	timerTopic    = int32(5)
	timerAckGuard = 30 * time.Millisecond
	// timerTimeout is what the engine arms per transmission on an unmeasured
	// link: the AckGuard alone, as alpha has no sample.
	timerTimeout = timerAckGuard
)

func newTimerRig(t *testing.T) *timerRig {
	t.Helper()
	b, err := New(Config{
		ID:        0,
		Listen:    "unused",
		Neighbors: map[int]string{1: "pipe"},
		Shards:    1,
		M:         3, // a timeout retransmits on the same link before it fails over
		AckGuard:  timerAckGuard,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })
	near, far := net.Pipe()
	t.Cleanup(func() { _ = far.Close() })
	b.neighbor(1).attach(b, near)
	b.ctrlSnap.Store(&ctrlSnapshot{
		lists: map[routeKey][]int{{topic: timerTopic, sub: 1}: {1}},
		dests: map[int32][]int{timerTopic: {1}},
	})
	r := &timerRig{b: b, sent: make(chan sentFrame, 1024)} // roomier than any test's frame count
	go func() {
		rd := wire.NewReader(far)
		for {
			msg, err := rd.Next()
			if err != nil {
				return
			}
			if db, ok := msg.(*wire.DataBatch); ok {
				now := time.Now()
				for _, d := range db.Frames {
					r.sent <- sentFrame{id: d.FrameID, at: now}
				}
			}
		}
	}()
	return r
}

// idleShard builds a second shard on the rig's broker that no goroutine
// runs, so the test plays the shard goroutine and picks every turn's clock.
func (r *timerRig) idleShard() *shard { return newShard(r.b, 0, 1) }

func (r *timerRig) nextSent(t *testing.T) sentFrame {
	t.Helper()
	select {
	case f := <-r.sent:
		return f
	case <-time.After(5 * time.Second):
		t.Fatal("no data frame reached the link")
		return sentFrame{}
	}
}

func (r *timerRig) publishItem(pid uint64) *shardItem {
	it := getItem()
	it.kind = itemPublish
	it.pktID = pid
	it.topic = timerTopic
	it.pubAt = time.Now()
	it.deadline = time.Minute
	it.payload = r.b.newPayload([]byte("p"))
	it.dests = append(it.dests, 1)
	return it
}

func ackItem(frameID uint64) *shardItem {
	it := getItem()
	it.kind = itemAck
	it.frameID = frameID
	return it
}

// The ordering rule: an ACK that is already in the mailbox when the shard
// reads the clock beats its own timeout, however far past the deadline that
// clock is and however much other work is queued ahead of the ACK.
func TestShardTurnQueuedAckBeatsItsTimeout(t *testing.T) {
	r := newTimerRig(t)
	s := r.idleShard()
	defer s.drain()
	now := shardShell{s}.Now()

	s.mb <- r.publishItem(1)
	if !s.turn(now) {
		t.Fatal("turn with a queued publish reported no work")
	}
	fid := r.nextSent(t).id
	if s.eng.InflightCount() != 1 {
		t.Fatalf("inflight = %d after the publish, want 1", s.eng.InflightCount())
	}
	// A deep mailbox with the ACK at its very end, behind ACKs for a frame
	// ID nothing sent (no-ops: no frame carries ID 0).
	for i := 0; i < shardMailboxLen-1; i++ {
		s.mb <- ackItem(0)
	}
	s.mb <- ackItem(fid)
	s.turn(now + time.Hour)
	if n := s.eng.InflightCount(); n != 0 {
		t.Errorf("inflight = %d after a turn that held the ACK, want 0", n)
	}
	if s.turn(now + 2*time.Hour) {
		t.Error("a later turn still found a timer to run")
	}
	if fw := r.b.Stats().Forwarded; fw != 1 {
		t.Errorf("Forwarded = %d, want 1: the timeout overtook the queued ACK", fw)
	}
	if _, ok := s.timers.NextAt(); ok || s.timers.Pending() != 0 {
		t.Errorf("timer queue not empty after the ACK: pending %d", s.timers.Pending())
	}
}

// Without an ACK the turn that starts at the deadline retransmits, a turn
// before it does not, and the running shard gets there by itself: nothing
// but its own wake timer ends the sleep.
func TestShardTurnFiresDueTimeoutAndLoopWakesItself(t *testing.T) {
	r := newTimerRig(t)
	s := r.idleShard()
	defer s.drain()
	now := shardShell{s}.Now()

	s.mb <- r.publishItem(1)
	s.turn(now)
	first := r.nextSent(t)
	// The engine times the retransmission's own deadline off the wall clock,
	// so the turn is taken exactly at the first deadline: the second is later.
	deadline, ok := s.timers.NextAt()
	if !ok || deadline < now+timerTimeout {
		t.Fatalf("deadline = %v, %v after a send at %v, want at least %v later", deadline, ok, now, timerTimeout)
	}
	if s.turn(deadline - 1) {
		t.Error("a turn before the deadline found work")
	}
	if !s.turn(deadline) {
		t.Error("a turn at the deadline, mailbox empty, found no work")
	}
	if again := r.nextSent(t); again.id != first.id {
		t.Errorf("retransmission carries frame %d, want %d", again.id, first.id)
	}
	if fw := r.b.Stats().Forwarded; fw != 2 {
		t.Errorf("Forwarded = %d, want 2", fw)
	}

	r.b.shards[0].enqueue(r.publishItem(2))
	sent, resent := r.nextSent(t), r.nextSent(t)
	gap := resent.at.Sub(sent.at)
	t.Logf("running shard retransmitted %v after the send (timeout %v)", gap, timerTimeout)
	// The upper bound is what a stalled CI thread costs, not what the wake
	// timer does (it is tens of microseconds late on an idle machine).
	if gap < timerTimeout-time.Millisecond || gap > timerTimeout+500*time.Millisecond {
		t.Errorf("retransmission %v after the send, want the %v timeout and not much more", gap, timerTimeout)
	}
}

// Arming and cancelling a deadline on a warmed shard allocates nothing, and
// cancelled deadlines do not pile up: whatever a burst leaves behind is gone
// once the shard looks for its next wake-up.
func TestShardTimerArmCancelAllocatesNothing(t *testing.T) {
	r := newTimerRig(t)
	s := r.idleShard()
	defer s.drain()
	sh := shardShell{s}
	fired := 0
	fn := func(any) { fired++ }
	cycle := func() { sh.CancelTimer(sh.AfterFunc(timerTimeout, fn, s)) }

	for i := 0; i < 100_000; i++ {
		cycle()
	}
	if _, ok := s.timers.NextAt(); ok || s.timers.Pending() != 0 {
		t.Fatalf("after 100k arm/cancel cycles and a peek: pending %d, want an empty queue", s.timers.Pending())
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Errorf("arm + cancel allocates %.1f objects on a warmed shard, want 0", allocs)
	}
	s.turn(sh.Now() + time.Hour)
	if fired != 0 {
		t.Errorf("%d cancelled timers fired", fired)
	}
}

// Close with deadlines armed: the engine gives everything back, no
// goroutine stays, and the wake timer is not left running.
func TestShardCloseWithTimersArmed(t *testing.T) {
	r := newTimerRig(t)
	for pid := uint64(1); pid <= 20; pid++ {
		r.b.shards[0].enqueue(r.publishItem(pid))
	}
	for i := 0; i < 20; i++ {
		r.nextSent(t)
	}
	if _, flights, _ := r.b.PoolsLive(); flights != 20 {
		t.Fatalf("flights in the air before Close = %d, want 20", flights)
	}
	if err := r.b.Close(); err != nil {
		t.Fatal(err)
	}
	if n := r.b.Goroutines(); n != 0 {
		t.Errorf("Goroutines = %d after Close", n)
	}
	if w, f, fr := r.b.PoolsLive(); w+f+fr != 0 {
		t.Errorf("PoolsLive = %d works, %d flights, %d frames after Close", w, f, fr)
	}
	if n := r.b.PayloadsLive(); n != 0 {
		t.Errorf("PayloadsLive = %d after Close", n)
	}
	s := r.b.shards[0]
	if s.wake.Stop() {
		t.Error("the wake timer was still armed after Close")
	}
	if at, ok := s.timers.NextAt(); ok {
		t.Errorf("a live deadline at %v survived Close", at)
	}
}
