package broker

import (
	"math/bits"
	"time"

	"repro/internal/wire"
)

// The edge tier: every client connection that subscribes is a session, and
// many logical subscribers share it (a plain Client is a session with the
// one subscriber ID 0). The broker's subscription state is aggregated per
// topic instead of per subscriber.
//
// Control plane (under b.mu): b.topics is the per-topic ledger of
// per-session subscriber-ID bitsets. Mutations mark their topic dirty; the
// data plane's immutable subsSnapshot is rebuilt incrementally (only dirty
// topics re-materialize) by the coalescing flusher goroutine — a
// registration burst of 100k SessionSubs publishes a handful of snapshots,
// not 100k — or synchronously when a connection goes away.
//
// Data plane: shard delivery flush looks the packet's topic up in the
// snapshot and encodes each payload once per (topic, session) — a
// MuxDeliver carrying the varint subscriber-ID list — instead of once per
// logical subscriber. The payload bytes and the snapshot's subscriber-ID
// slices are shared, never copied per delivery: both are immutable once
// published (copy-on-write snapshot; a payload's buffer is not recycled
// while a queued message holds a reference to it, forward.go), so every
// queued wire message may alias them.

const (
	// maxSessionSubID caps client-chosen subscriber IDs so a hostile
	// session cannot force a multi-gigabyte bitset allocation; 2^20 IDs
	// bounds one session's ledger at 128 KiB of bitset.
	maxSessionSubID = 1 << 20
	// subsFlushInterval is the subscription coalescing window: dirty topics
	// wait at most this long before the next snapshot publishes.
	// Disconnects flush synchronously.
	subsFlushInterval = 5 * time.Millisecond
)

// bitset is a growable set of small unsigned integers — the per-(topic,
// session) subscriber-ID ledger.
type bitset []uint64

// set inserts i, growing as needed, and reports whether it was newly set.
func (s *bitset) set(i uint32) bool {
	w, m := i>>6, uint64(1)<<(i&63)
	for int(w) >= len(*s) {
		*s = append(*s, 0)
	}
	if (*s)[w]&m != 0 {
		return false
	}
	(*s)[w] |= m
	return true
}

// clear removes i and reports whether it was set.
func (s bitset) clear(i uint32) bool {
	w, m := i>>6, uint64(1)<<(i&63)
	if int(w) >= len(s) || s[w]&m == 0 {
		return false
	}
	s[w] &^= m
	return true
}

// appendIDs appends the set members to dst in ascending order.
func (s bitset) appendIDs(dst []uint32) []uint32 {
	for w, word := range s {
		base := uint32(w) << 6
		for word != 0 {
			dst = append(dst, base+uint32(bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return dst
}

// topicSubs is the mutable per-topic subscription ledger (under b.mu).
type topicSubs struct {
	// sessions[conn] = that session's subscriber-ID bitset for this topic.
	sessions map[*clientConn]*sessionTopicSubs
}

// sessionTopicSubs is one session's membership in one topic.
type sessionTopicSubs struct {
	bits  bitset
	count int
	// deadline is the strictest ask is not needed — Algorithm 1 admits on
	// the *loosest* requirement per topic (max), so only the max survives
	// here; it is recomputed only when the session leaves the topic.
	deadline time.Duration
}

// occupied reports whether the topic still has any logical subscriber.
func (ts *topicSubs) occupied() bool {
	return ts != nil && len(ts.sessions) > 0
}

// maxDeadline is the loosest QoS requirement across the topic's
// subscribers: the deadline this broker's membership record states for the
// topic, which Algorithm 1 admits neighbors against.
func (ts *topicSubs) maxDeadline() time.Duration {
	var d time.Duration
	for _, st := range ts.sessions {
		if st.deadline > d {
			d = st.deadline
		}
	}
	return d
}

// topicLedger is the immutable per-topic delivery view inside a
// subsSnapshot: one materialized, sorted subscriber-ID slice per session.
// Nothing in it is mutated after publish, so queued deliveries may alias the
// slices freely.
type topicLedger struct {
	sessions []sessionDelivery
	// subs is the logical subscriber count (session IDs summed).
	subs int
}

// sessionDelivery is one (topic, session) aggregation target.
type sessionDelivery struct {
	c      *clientConn
	subIDs []uint32
}

// subscribers reports the ledger's logical subscriber count (nil-safe).
func (l *topicLedger) subscribers() int {
	if l == nil {
		return 0
	}
	return l.subs
}

// localLedger returns the topic's delivery ledger from the current
// snapshot (lock-free), or nil when the topic has no local subscribers.
func (b *Broker) localLedger(topic int32) *topicLedger {
	return b.subsSnap.Load().byTopic[topic]
}

// markSubsDirtyLocked queues a topic for the next snapshot rebuild.
// Caller holds b.mu.
func (b *Broker) markSubsDirtyLocked(topic int32) {
	b.dirtySubs[topic] = struct{}{}
}

// flushSubsLocked publishes a fresh subsSnapshot if any topic is dirty,
// rebuilding only the dirty topics' ledgers (clean topics keep their
// already-immutable ledger pointers). It reports whether anything changed.
// Caller holds b.mu.
func (b *Broker) flushSubsLocked() bool {
	if len(b.dirtySubs) == 0 {
		return false
	}
	old := b.subsSnap.Load()
	byTopic := make(map[int32]*topicLedger, len(old.byTopic)+len(b.dirtySubs))
	for topic, led := range old.byTopic {
		if _, dirty := b.dirtySubs[topic]; !dirty {
			byTopic[topic] = led
		}
	}
	for topic := range b.dirtySubs {
		if led := b.buildLedgerLocked(topic); led != nil {
			byTopic[topic] = led
		}
		delete(b.dirtySubs, topic)
	}
	b.subsSnap.Store(&subsSnapshot{byTopic: byTopic})
	return true
}

// buildLedgerLocked materializes one topic's immutable delivery ledger, or
// nil when the topic has no subscribers. Caller holds b.mu.
func (b *Broker) buildLedgerLocked(topic int32) *topicLedger {
	ts := b.topics[topic]
	if !ts.occupied() {
		return nil
	}
	led := &topicLedger{sessions: make([]sessionDelivery, 0, len(ts.sessions))}
	for c, st := range ts.sessions {
		ids := st.bits.appendIDs(make([]uint32, 0, st.count))
		led.sessions = append(led.sessions, sessionDelivery{c: c, subIDs: ids})
		led.subs += len(ids)
	}
	return led
}

// kickSubsFlusher nudges the coalescing flusher (never blocks).
func (b *Broker) kickSubsFlusher() {
	select {
	case b.subsKick <- struct{}{}:
	default:
	}
}

// subsFlusher is the subscription coalescer: each kick waits one
// subsFlushInterval (letting a subscription burst accumulate), then
// publishes the snapshot and kicks the control loop once for the whole
// batch, which floods the broker's new membership.
func (b *Broker) subsFlusher() {
	for {
		select {
		case <-b.done:
			return
		case <-b.subsKick:
		}
		if !sleepUnlessDone(b.done, subsFlushInterval) {
			return
		}
		b.mu.Lock()
		changed := b.flushSubsLocked()
		b.mu.Unlock()
		if changed {
			b.ctrl.kickCtrl()
		}
	}
}

// sessionHello counts a connection that announced itself as a session.
func (b *Broker) sessionHello(c *clientConn, m *wire.SessionHello) {
	b.mu.Lock()
	promoted := !c.session
	c.session = true
	b.mu.Unlock()
	if promoted {
		b.sessionsGauge.Add(1)
		b.logf("client %q opened a session (%d subscribers expected)", c.name, m.Subscribers)
	}
}

// sessionSub registers one session-local logical subscriber on a topic.
// The snapshot publish is deferred to the coalescing flusher, which then
// kicks the control loop: the broker's next membership flood carries the
// topic, making it a destination overlay-wide.
func (b *Broker) sessionSub(c *clientConn, m *wire.SessionSub) {
	if m.SubID >= maxSessionSubID {
		b.logf("client %q: subscriber ID %d exceeds cap %d, ignoring", c.name, m.SubID, maxSessionSubID)
		return
	}
	deadline := m.Deadline
	if deadline <= 0 {
		deadline = b.cfg.DefaultDeadline
	}
	b.mu.Lock()
	if !c.session {
		// A connection becomes a session on its first SessionSub; the
		// SessionHello is optional.
		c.session = true
		b.sessionsGauge.Add(1)
	}
	ts := b.topics[m.Topic]
	if ts == nil {
		ts = &topicSubs{}
		b.topics[m.Topic] = ts
	}
	if ts.sessions == nil {
		ts.sessions = make(map[*clientConn]*sessionTopicSubs)
	}
	st := ts.sessions[c]
	if st == nil {
		st = &sessionTopicSubs{}
		ts.sessions[c] = st
	}
	if st.bits.set(m.SubID) {
		st.count++
		b.subscriptionsGauge.Add(1)
	}
	if deadline > st.deadline {
		st.deadline = deadline
	}
	b.markSubsDirtyLocked(m.Topic)
	b.mu.Unlock()
	b.kickSubsFlusher()
}

// sessionUnsub removes one logical subscriber from a topic; when it was the
// topic's last local subscriber the next membership flood leaves the topic
// out, which withdraws it.
func (b *Broker) sessionUnsub(c *clientConn, m *wire.SessionUnsub) {
	if m.SubID >= maxSessionSubID {
		return
	}
	b.mu.Lock()
	ts := b.topics[m.Topic]
	var st *sessionTopicSubs
	if ts != nil {
		st = ts.sessions[c]
	}
	if st != nil && st.bits.clear(m.SubID) {
		st.count--
		b.subscriptionsGauge.Add(-1)
		if st.count == 0 {
			delete(ts.sessions, c)
		}
		if !ts.occupied() {
			delete(b.topics, m.Topic)
		}
		b.markSubsDirtyLocked(m.Topic)
	}
	b.mu.Unlock()
	b.kickSubsFlusher()
}

// dropClientSubsLocked removes every subscription a departing connection
// holds, marking the affected topics dirty and maintaining the edge gauges.
// Caller holds b.mu and flushes afterwards.
func (b *Broker) dropClientSubsLocked(c *clientConn) {
	for topic, ts := range b.topics {
		if st, ok := ts.sessions[c]; ok {
			delete(ts.sessions, c)
			b.subscriptionsGauge.Add(-int64(st.count))
			b.markSubsDirtyLocked(topic)
		}
		if !ts.occupied() {
			delete(b.topics, topic)
		}
	}
	if c.session {
		c.session = false
		b.sessionsGauge.Add(-1)
	}
}
