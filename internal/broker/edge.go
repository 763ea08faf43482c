package broker

import (
	"math/bits"
	"time"

	"repro/internal/wire"
)

// The massive-subscriber edge tier: many logical subscribers share one TCP
// connection (a "session", opened by wire.SessionHello) and the broker's
// subscription state is aggregated per topic instead of per subscriber.
//
// Control plane (under b.mu): b.topics is the per-topic ledger — legacy
// per-connection subscribers keyed by conn, plus per-session subscriber-ID
// bitsets. Mutations mark their topic dirty; the data plane's immutable
// subsSnapshot is rebuilt incrementally (only dirty topics re-materialize)
// either synchronously (legacy subscribe, disconnects — rare, preserves the
// historical immediate visibility) or by the coalescing flusher goroutine
// (session churn — a registration burst of 100k SessionSubs publishes a
// handful of snapshots, not 100k).
//
// Data plane: shard delivery flush looks the packet's topic up in the
// snapshot and encodes each payload once per legacy subscriber plus once
// per (topic, session) — a MuxDeliver carrying the varint subscriber-ID
// list — instead of once per logical subscriber. The payload bytes and the
// snapshot's subscriber-ID slices are shared, never copied per delivery:
// both are immutable once published (copy-on-write snapshot; a payload's
// buffer is not recycled while a queued message holds a reference to it,
// forward.go), so every queued wire message may alias them.

const (
	// maxSessionSubID caps client-chosen subscriber IDs so a hostile
	// session cannot force a multi-gigabyte bitset allocation; 2^20 IDs
	// bounds one session's ledger at 128 KiB of bitset.
	maxSessionSubID = 1 << 20
	// subsFlushInterval is the session-churn coalescing window: dirty
	// topics wait at most this long before the next snapshot publishes.
	// Legacy subscribes and disconnects still flush synchronously.
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
	// legacy[conn] = deadline: one logical subscriber per connection, the
	// pre-session protocol.
	legacy map[*clientConn]time.Duration
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
	return ts != nil && (len(ts.legacy) > 0 || len(ts.sessions) > 0)
}

// maxDeadline is the loosest QoS requirement across the topic's
// subscribers: the deadline this broker's membership record states for the
// topic, which Algorithm 1 admits neighbors against.
func (ts *topicSubs) maxDeadline() time.Duration {
	var d time.Duration
	for _, v := range ts.legacy {
		if v > d {
			d = v
		}
	}
	for _, st := range ts.sessions {
		if st.deadline > d {
			d = st.deadline
		}
	}
	return d
}

// topicLedger is the immutable per-topic delivery view inside a
// subsSnapshot: the legacy connections plus one materialized, sorted
// subscriber-ID slice per session. Nothing in it is mutated after publish,
// so queued deliveries may alias the slices freely.
type topicLedger struct {
	legacy   []*clientConn
	sessions []sessionDelivery
	// subs is the logical subscriber count (legacy conns + session IDs).
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
	led := &topicLedger{}
	if n := len(ts.legacy); n > 0 {
		led.legacy = make([]*clientConn, 0, n)
		for c := range ts.legacy {
			led.legacy = append(led.legacy, c)
		}
		led.subs += n
	}
	if n := len(ts.sessions); n > 0 {
		led.sessions = make([]sessionDelivery, 0, n)
		for c, st := range ts.sessions {
			ids := st.bits.appendIDs(make([]uint32, 0, st.count))
			led.sessions = append(led.sessions, sessionDelivery{c: c, subIDs: ids})
			led.subs += len(ids)
		}
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

// subsFlusher is the session-churn coalescer: each kick waits one
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

// subscribeLocal registers a legacy client subscription. The control loop
// then floods this broker's membership with the topic in it, which makes
// the broker a destination for the topic overlay-wide.
func (b *Broker) subscribeLocal(c *clientConn, m *wire.Subscribe) {
	deadline := m.Deadline
	if deadline <= 0 {
		deadline = b.cfg.DefaultDeadline
	}
	b.mu.Lock()
	ts := b.topics[m.Topic]
	if ts == nil {
		ts = &topicSubs{}
		b.topics[m.Topic] = ts
	}
	if ts.legacy == nil {
		ts.legacy = make(map[*clientConn]time.Duration)
	}
	if _, ok := ts.legacy[c]; !ok {
		b.subscriptionsGauge.Add(1)
	}
	ts.legacy[c] = deadline
	b.markSubsDirtyLocked(m.Topic)
	// Legacy subscribes flush synchronously: the historical contract is
	// that the subscription is delivery-visible when Subscribe returns.
	b.flushSubsLocked()
	b.mu.Unlock()
	b.logf("client %q subscribed to topic %d (deadline %v)", c.name, m.Topic, deadline)
	b.ctrl.kickCtrl()
}

// unsubscribeLocal removes one client's subscription; when it was the last
// local subscriber the next membership flood leaves the topic out, which
// withdraws it.
func (b *Broker) unsubscribeLocal(c *clientConn, m *wire.Unsubscribe) {
	b.mu.Lock()
	if ts := b.topics[m.Topic]; ts != nil {
		if _, ok := ts.legacy[c]; ok {
			delete(ts.legacy, c)
			b.subscriptionsGauge.Add(-1)
			if !ts.occupied() {
				delete(b.topics, m.Topic)
			}
			b.markSubsDirtyLocked(m.Topic)
		}
	}
	b.flushSubsLocked()
	b.mu.Unlock()
	b.logf("client %q unsubscribed from topic %d", c.name, m.Topic)
	b.ctrl.kickCtrl()
}

// sessionHello upgrades a client connection to a multiplexed session.
func (b *Broker) sessionHello(c *clientConn, m *wire.SessionHello) {
	b.mu.Lock()
	promoted := !c.mux
	c.mux = true
	b.mu.Unlock()
	if promoted {
		b.sessionsGauge.Add(1)
		b.logf("client %q opened a mux session (%d subscribers expected)", c.name, m.Subscribers)
	}
}

// sessionSub registers one session-local logical subscriber on a topic.
// The snapshot publish is deferred to the coalescing flusher.
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
	if !c.mux {
		// A SessionSub on a connection that never sent SessionHello still
		// promotes it: the frame itself is an unambiguous opt-in.
		c.mux = true
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

// sessionUnsub removes one logical subscriber from a topic.
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
// holds — legacy and session alike — marking the affected topics dirty and
// maintaining the edge gauges. Caller holds b.mu and flushes afterwards.
func (b *Broker) dropClientSubsLocked(c *clientConn) {
	for topic, ts := range b.topics {
		if _, ok := ts.legacy[c]; ok {
			delete(ts.legacy, c)
			b.subscriptionsGauge.Add(-1)
			b.markSubsDirtyLocked(topic)
		}
		if st, ok := ts.sessions[c]; ok {
			delete(ts.sessions, c)
			b.subscriptionsGauge.Add(-int64(st.count))
			b.markSubsDirtyLocked(topic)
		}
		if !ts.occupied() {
			delete(b.topics, topic)
		}
	}
	if c.mux {
		c.mux = false
		b.sessionsGauge.Add(-1)
	}
}
