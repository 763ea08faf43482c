// Package broker implements a live DCRD messaging broker over real TCP
// connections — the "candidate messaging middleware" integration the paper
// lists as parallel work (§V). Each broker:
//
//   - maintains persistent connections to its configured overlay neighbors,
//   - measures per-link alpha from probe echoes and DATA→ACK round trips and
//     tracks a gamma estimate from hop-by-hop ACK outcomes,
//   - floods its link estimates and its topic membership to the whole
//     overlay as LINK_STATE records, and runs Algorithm 1 over the resulting
//     link-state database: every broker derives the same Theorem-1-ordered
//     sending list per (topic, subscriber-broker) pair (controlplane.go),
//   - forwards published messages with Algorithm 2: hop-by-hop ACKs,
//     m transmissions per neighbor, failover to the next sending-list entry
//     and rerouting to the upstream broker recorded in the packet's path,
//   - serves clients (publishers and subscribers) on the same listener.
//
// Differences from the simulation model are deliberate and documented in
// DESIGN.md: the live admission filter compares a neighbor's expected delay
// against the subscription deadline directly (publishers are decoupled, so
// the per-publisher residual budget D_XS of the simulation is unknowable),
// and gamma is estimated adaptively from ACK outcomes instead of being
// derived from known loss parameters.
package broker

import (
	"errors"
	"fmt"
	"log"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/seen"
	"repro/internal/trace"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Config describes one broker of a live overlay.
type Config struct {
	// ID is this broker's overlay-unique identifier (>= 0).
	ID int
	// Listen is the TCP address brokers and clients connect to.
	Listen string
	// Neighbors maps neighbor broker IDs to their listen addresses.
	Neighbors map[int]string
	// M is the number of transmissions per neighbor before failover.
	M int
	// AckGuard pads the ACK timeout beyond the measured round trip.
	AckGuard time.Duration
	// PingInterval is the idle-link probe threshold: a link whose gamma has
	// had no delivery signal (ACK outcome or probe echo) for this long gets a
	// PROBE at the next control step (default 500ms).
	PingInterval time.Duration
	// DialRetry is the base back-off between reconnect attempts to a
	// neighbor; consecutive failures back off exponentially (with jitter)
	// from this base up to DialRetryMax, resetting on a successful attach.
	DialRetry time.Duration
	// DialRetryMax caps the exponential redial back-off (default 4s, and
	// never below DialRetry).
	DialRetryMax time.Duration
	// WriteTimeout bounds each coalesced flush to a peer; a flush that
	// cannot complete in time drops the connection (and the dial loop
	// re-establishes it) instead of wedging the writer goroutine behind a
	// stalled peer forever. The writer moves the deadline only once half
	// of it is spent, so a flush gets between half and all of it.
	WriteTimeout time.Duration
	// MaxLifetime bounds how long one packet may be retried; every dedup
	// set remembers an ID for seen.Horizon(MaxLifetime).
	MaxLifetime time.Duration
	// Persistent enables the paper's §III persistency mode: a publish whose
	// origin exhausts every neighbor is held and retried every RetryInterval
	// (instead of dropped) until MaxLifetime, riding out transient
	// partitions that outlast the sending list.
	Persistent bool
	// RetryInterval paces persistency retries (default 100ms).
	RetryInterval time.Duration
	// SendQueue is the per-connection outbound queue length (messages)
	// feeding each writer pipeline; a full queue drops messages after a
	// brief backpressure wait instead of blocking the sender.
	SendQueue int
	// AckBatchSize flushes a neighbor's coalesced hop-by-hop ACKs once this
	// many are pending, even if the flush timer has not fired (default 64).
	AckBatchSize int
	// AckFlushInterval bounds how long a coalesced ACK may wait before its
	// batch is flushed (default 1ms). It must stay well inside the sender's
	// ACK timeout (2*alpha + AckGuard), or delayed ACKs would read as link
	// loss; the default sits 20x under the default AckGuard alone.
	AckFlushInterval time.Duration
	// LinkStateInterval paces the control loop: local estimates and
	// membership are re-flooded, idle links probed and route tables rebuilt
	// at this cadence (default 100ms), and sooner whenever something kicks
	// the loop (attach, detach, first alpha sample, gossip that changed the
	// database, subscription churn). This is the live monitoring window —
	// estimate drift re-sorts sending lists within roughly one interval.
	LinkStateInterval time.Duration
	// DefaultDeadline applies to publishes that do not carry a deadline.
	DefaultDeadline time.Duration
	// Shards is the number of single-threaded engine shards the data plane
	// is partitioned into; packets are assigned by packet-ID hash, and each
	// shard owns its own pools, ACK timers, dedup state and delivery flush
	// queue (see shard.go). Defaults to runtime.GOMAXPROCS(0), capped at 64
	// (the frame-ID encoding carries the shard index in 6 bits).
	Shards int
	// DataDir, when non-empty, enables crash-durable custody: every custody
	// transfer is journaled to a write-ahead log in this directory BEFORE
	// the hop-by-hop ACK releases the upstream copy, and a restarted broker
	// replays undelivered flights from the log (durable.go, DESIGN.md §16).
	// Empty (the default) keeps custody in memory only — the pre-durability
	// behavior, byte-identical on the wire.
	DataDir string
	// walBeforeFlush is a test hook threaded to wal.Config.BeforeFlush:
	// blocking it withholds WAL durability — and therefore upstream ACKs —
	// while appends keep accumulating.
	walBeforeFlush func()
	// Logger receives diagnostics; nil discards them.
	Logger *log.Logger
	// Tracer, when non-nil, receives the engine's per-packet routing
	// timeline (sends, ACK handoffs, timeouts, failovers, reroutes). With
	// Shards > 1 events are recorded concurrently from multiple shard
	// goroutines, so the recorder must be safe for concurrent use; it must
	// not re-enter the broker.
	Tracer trace.Recorder
}

// withDefaults fills unset tunables.
func (c Config) withDefaults() Config {
	if c.M < 1 {
		c.M = 1
	}
	if c.AckGuard <= 0 {
		c.AckGuard = 20 * time.Millisecond
	}
	if c.PingInterval <= 0 {
		c.PingInterval = 500 * time.Millisecond
	}
	if c.DialRetry <= 0 {
		c.DialRetry = 250 * time.Millisecond
	}
	if c.DialRetryMax <= 0 {
		c.DialRetryMax = 4 * time.Second
	}
	if c.DialRetryMax < c.DialRetry {
		c.DialRetryMax = c.DialRetry
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 5 * time.Second
	}
	if c.MaxLifetime <= 0 {
		c.MaxLifetime = seen.DefaultMaxLifetime
	}
	if c.RetryInterval <= 0 {
		c.RetryInterval = 100 * time.Millisecond
	}
	if c.SendQueue < 1 {
		c.SendQueue = defaultSendQueue
	}
	if c.AckBatchSize < 1 {
		c.AckBatchSize = 64
	}
	if c.AckFlushInterval <= 0 {
		c.AckFlushInterval = time.Millisecond
	}
	if c.LinkStateInterval <= 0 {
		c.LinkStateInterval = 100 * time.Millisecond
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = time.Second
	}
	if c.Shards < 1 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.Shards > maxShards {
		c.Shards = maxShards
	}
	return c
}

// Broker is a live DCRD overlay node. Construct with New, start with Start,
// stop with Close.
type Broker struct {
	cfg Config
	ln  net.Listener

	// neighbors is built complete from Config.Neighbors in New and never
	// mutated afterwards; hot-path lookups read it without locking (each
	// neighborConn carries its own mutex for attach/estimate state).
	neighbors map[int]*neighborConn

	// shards is the partitioned data plane: one single-threaded engine per
	// shard, fed by a bounded mailbox (see shard.go). Immutable after New.
	shards []*shard
	// wal is the crash-durable custody journal (nil unless Config.DataDir
	// is set); walReplayed counts the flights its recovery re-injected.
	wal         *wal.Log
	walReplayed atomic.Uint64
	// epoch anchors the engine clock: engine time is time.Since(epoch).
	epoch time.Time
	// nextPacketID allocates overlay-unique packet IDs across all publisher
	// connections (the broker ID occupies the bits above the counter).
	nextPacketID atomic.Uint64
	// payloadsLive counts the pooled packet bodies (forward.go) some holder
	// still has a reference to.
	payloadsLive atomic.Int64

	// subsSnap is the copy-on-write view of the local subscriptions the
	// data plane reads lock-free: rebuilt under b.mu whenever they change,
	// swapped in atomically.
	subsSnap atomic.Pointer[subsSnapshot]

	// ctrl is the gossiped link-state control plane (controlplane.go).
	// ctrlSnap is its copy-on-write output: the sending lists and every
	// topic's destination brokers, published together.
	ctrl     *ctrlPlane
	ctrlSnap atomic.Pointer[ctrlSnapshot]

	// mu guards the cold-path control state below: client registry and
	// subscription ledger (the data plane reads them only through subsSnap).
	mu      sync.Mutex
	clients map[*clientConn]struct{}
	// topics is the per-topic subscription ledger: per-session
	// subscriber-ID bitsets (edge.go).
	topics map[int32]*topicSubs
	// dirtySubs queues topics whose immutable ledger must be rebuilt into
	// the next subsSnapshot (see flushSubsLocked).
	dirtySubs map[int32]struct{}
	closed    bool

	// subsKick nudges the subscription snapshot flusher (buffered 1).
	subsKick chan struct{}

	done chan struct{}
	wg   sync.WaitGroup
	// shardWg tracks the shard goroutines specifically: Close waits for
	// them (mailboxes drained, engines shut down, pools final) before it
	// starts tearing down writer pipelines and read loops.
	shardWg sync.WaitGroup
	// goCount tracks live goTracked goroutines; Close must return it to
	// zero, and the chaos soak asserts that it does.
	goCount atomic.Int64

	// stats — all atomic, so Stats never contends with the data path.
	published  atomic.Uint64
	delivered  atomic.Uint64
	forwarded  atomic.Uint64
	dropped    atomic.Uint64
	queueDrops atomic.Uint64 // messages dropped on a full send queue
	redials    atomic.Uint64 // failed neighbor dial attempts
	reconnects atomic.Uint64 // neighbor re-attaches after the first

	// Edge-tier gauges: live sessions and logical subscriptions — exported
	// through Stats and wire.StatsReply.
	sessionsGauge      atomic.Int64
	subscriptionsGauge atomic.Int64

	// Wire-egress telemetry, incremented on the writer-goroutine encode
	// path: frames and encoded bytes actually put on connections. The edge
	// fan-out benchmark reads these to measure aggregation gains.
	wireFrames atomic.Uint64
	wireBytes  atomic.Uint64

	// Relay ACK coalescing telemetry: AckBatch frames emitted and the frame
	// IDs they acknowledged.
	ackBatches         atomic.Uint64
	ackFramesCoalesced atomic.Uint64
}

// subsSnapshot is the data plane's immutable view of the local
// subscriptions: one materialized delivery ledger per topic (edge.go).
type subsSnapshot struct {
	byTopic map[int32]*topicLedger
}

type routeKey struct {
	topic int32
	sub   int32
}

// New validates the configuration and prepares a broker (not yet listening).
func New(cfg Config) (*Broker, error) {
	cfg = cfg.withDefaults()
	if cfg.ID < 0 {
		return nil, fmt.Errorf("broker: negative ID %d", cfg.ID)
	}
	if cfg.Listen == "" {
		return nil, errors.New("broker: empty listen address")
	}
	for id := range cfg.Neighbors {
		if id == cfg.ID {
			return nil, fmt.Errorf("broker %d: self-neighbor", cfg.ID)
		}
		if id < 0 {
			return nil, fmt.Errorf("broker %d: negative neighbor ID %d", cfg.ID, id)
		}
	}
	b := &Broker{
		cfg:       cfg,
		neighbors: make(map[int]*neighborConn, len(cfg.Neighbors)),
		clients:   make(map[*clientConn]struct{}),
		topics:    make(map[int32]*topicSubs),
		dirtySubs: make(map[int32]struct{}),
		epoch:     time.Now(),
		done:      make(chan struct{}),
		subsKick:  make(chan struct{}, 1),
	}
	// The neighbor set is fixed by configuration, so the map can be built
	// complete here and read lock-free everywhere after.
	for id := range cfg.Neighbors {
		b.neighbors[id] = newNeighborConn(id)
	}
	b.subsSnap.Store(&subsSnapshot{})
	b.ctrlSnap.Store(&ctrlSnapshot{})
	// A restarted broker must not reuse frame or packet IDs its previous
	// incarnation put on the wire recently: peers retain both in dedup
	// state for up to 2×MaxLifetime, and a collision would silently swallow
	// fresh traffic. In memory-custody mode the counters are seeded from
	// the wall clock (masked to each counter's space) — monotonic across
	// restarts because nanoseconds advance far faster than frames are sent.
	// In durable mode the WAL's persisted incarnation number replaces the
	// clock (see seedsFromIncarnation): replay re-injects old frame IDs, so
	// fresh IDs must be partitioned from every previous incarnation's, not
	// merely probably past them.
	var recovered *wal.Recovered
	pktSeed := uint64(time.Now().UnixNano()) & (1<<48 - 1)
	frameSeed := pktSeed
	if cfg.DataDir != "" {
		rec, err := b.openWal()
		if err != nil {
			return nil, fmt.Errorf("broker %d: wal: %w", cfg.ID, err)
		}
		recovered = rec
		pktSeed, frameSeed = seedsFromIncarnation(rec.Incarnation)
	}
	b.nextPacketID.Store(pktSeed)
	b.shards = make([]*shard, cfg.Shards)
	for i := range b.shards {
		b.shards[i] = newShard(b, i, frameSeed)
	}
	if recovered != nil {
		b.seedDelivered(recovered)
	}
	// Shard goroutines start with the broker itself (not StartListener):
	// tests and tools may attach pipe connections and pump frames before a
	// listener exists, and those frames need running shards.
	for _, s := range b.shards {
		s := s
		b.shardWg.Add(1)
		b.goTracked(func() {
			defer b.shardWg.Done()
			s.run()
		})
	}
	// The session-churn snapshot flusher likewise starts with the broker:
	// SessionSub frames may arrive over pipe connections before a listener
	// exists, and their deferred snapshot publishes need a running flusher.
	b.goTracked(func() { b.subsFlusher() })
	// The control loop starts with the broker for the same reason the
	// shards do: pipe-attached tests gossip before a listener exists.
	b.ctrl = newCtrlPlane(b)
	b.goTracked(func() { b.ctrl.loop() })
	// Replay goes last: the recovered flights are ordinary mailbox work and
	// need running shards. Links are still down at this point, so replayed
	// sends fail over (and, in Persistent mode, hold) until neighbors attach.
	if recovered != nil {
		b.replayRecovered(recovered)
	}
	return b, nil
}

// barrier broadcasts fn to every shard and waits until each has run it on
// its own goroutine — the cold-path rendezvous for control operations that
// need a coherent per-shard view. It reports false when the broker is
// shutting down (fn may then have run on only some shards). Must not be
// called from a shard goroutine.
func (b *Broker) barrier(fn func(*shard)) bool {
	acks := make(chan struct{}, len(b.shards))
	for _, s := range b.shards {
		it := getItem()
		it.kind = itemBarrier
		it.bfn = fn
		it.acks = acks
		// A failed enqueue (shutdown) still acks via discard, so the count
		// below is exact either way.
		s.enqueue(it)
	}
	for range b.shards {
		select {
		case <-acks:
		case <-b.done:
			return false
		}
	}
	return true
}

// ID returns the broker's overlay identifier.
func (b *Broker) ID() int { return b.cfg.ID }

// Addr returns the bound listen address (valid after Start), handy when
// Config.Listen used port 0.
func (b *Broker) Addr() string {
	if b.ln == nil {
		return b.cfg.Listen
	}
	return b.ln.Addr().String()
}

// Start binds the listener, launches the accept loop and begins dialing
// neighbors.
func (b *Broker) Start() error {
	ln, err := net.Listen("tcp", b.cfg.Listen)
	if err != nil {
		return fmt.Errorf("broker %d: listen: %w", b.cfg.ID, err)
	}
	return b.StartListener(ln)
}

// StartListener is Start with a caller-provided listener — useful when
// addresses must be known (port 0) before the full overlay's neighbor
// configuration can be assembled.
func (b *Broker) StartListener(ln net.Listener) error {
	b.ln = ln
	b.goTracked(func() { b.acceptLoop() })
	for id, addr := range b.cfg.Neighbors {
		// The lower ID owns the connection; the higher ID waits for it.
		if b.cfg.ID < id {
			id, addr := id, addr
			b.goTracked(func() { b.dialLoop(id, addr) })
		}
	}
	return nil
}

// Close shuts the broker down and waits for its goroutines. Ordering
// matters: the shard goroutines are waited for FIRST — each drains its
// mailbox (discarding queued work) and shuts its engine down, releasing all
// pooled state — and only then are writer pipelines and read loops torn
// down. That order guarantees no in-flight shard work can allocate from (or
// return to) a pool after a post-Close Pools.Live() read observed it empty.
func (b *Broker) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	close(b.done)
	clients := make([]*clientConn, 0, len(b.clients))
	for c := range b.clients {
		clients = append(clients, c)
	}
	b.mu.Unlock()

	// Shards observe b.done, drain their mailboxes and run Engine.Shutdown
	// (cancelling every in-flight ACK timer) on their own goroutines.
	b.shardWg.Wait()

	if b.ln != nil {
		_ = b.ln.Close()
	}
	for _, nc := range b.neighbors {
		nc.close()
	}
	for _, c := range clients {
		_ = c.conn.Close()
	}
	b.wg.Wait()
	// A read loop that raced done can have put an item in a mailbox after
	// its shard drained; with every producer gone, recycle what is left.
	for _, s := range b.shards {
		s.discardQueued()
	}
	// The WAL closes dead last: shard drains may journal clears right up to
	// shardWg.Wait, and its final flush makes everything appended durable.
	// Custody still outstanding at close stays in the log — that is the
	// point — and the next incarnation replays it.
	if b.wal != nil {
		return b.wal.Close()
	}
	return nil
}

// Stats is a snapshot of the broker's activity counters.
type Stats struct {
	Published uint64 // packets accepted from local publishers
	Delivered uint64 // deliveries to local subscribers
	Forwarded uint64 // data frames sent to neighbors
	Dropped   uint64 // destinations given up on
	// Degradation counters: silent in a healthy overlay, moving whenever
	// the broker sheds load or links flap.
	QueueDrops uint64 // messages dropped on a full per-connection queue
	Redials    uint64 // failed neighbor dial attempts
	Reconnects uint64 // neighbor links re-attached after their first attach
	// Edge-tier gauges (not counters): current level, not cumulative.
	Sessions      uint64 // live client sessions (connections holding a subscription)
	Subscriptions uint64 // live logical (subscriber ID, topic) subscriptions
	// Relay ACK coalescing counters.
	AckBatches         uint64 // AckBatch frames sent to neighbors
	AckFramesCoalesced uint64 // frame IDs those batches acknowledged
	// Ctrl reports the gossiped link-state control plane; Links is its
	// database's current per-link EWMA estimates with each origin's last
	// gossip epoch.
	Ctrl  wire.CtrlStat
	Links []wire.LinkStat
	// Wal reports the crash-durable custody journal (Enabled false and
	// zeros unless Config.DataDir is set).
	Wal wire.WalStat
}

// Stats returns the current counters. All counters are atomic, so this
// never contends with the data path.
func (b *Broker) Stats() Stats {
	ctrl, links := b.ctrlStats()
	return Stats{
		Ctrl:  ctrl,
		Links: links,
		Wal:   b.walStat(),

		Published:  b.published.Load(),
		Delivered:  b.delivered.Load(),
		Forwarded:  b.forwarded.Load(),
		Dropped:    b.dropped.Load(),
		QueueDrops: b.queueDrops.Load(),
		Redials:    b.redials.Load(),
		Reconnects: b.reconnects.Load(),

		Sessions:      uint64(b.sessionsGauge.Load()),
		Subscriptions: uint64(b.subscriptionsGauge.Load()),

		AckBatches:         b.ackBatches.Load(),
		AckFramesCoalesced: b.ackFramesCoalesced.Load(),
	}
}

// Goroutines reports the broker's live tracked goroutines. After Close it
// must be zero — the chaos soak and shutdown tests assert this.
func (b *Broker) Goroutines() int { return int(b.goCount.Load()) }

// PoolsLive reports the outstanding pooled engine objects (works, flights,
// frames) summed across all shards. Once every packet resolves — and always
// after Close — all three must be zero, or an engine leaked. The per-shard
// counters are atomic, so no lock is needed.
func (b *Broker) PoolsLive() (works, flights, frames int) {
	for _, s := range b.shards {
		w, f, fr := s.pools.Live()
		works += w
		flights += f
		frames += fr
	}
	return works, flights, frames
}

// PayloadsLive reports the pooled packet bodies still referenced by a
// mailbox item, an engine work, a queued delivery or a writer-path message.
// Like PoolsLive it must read zero once every packet resolves and always
// after Close: a reference released never is invisible to every other check.
func (b *Broker) PayloadsLive() int { return int(b.payloadsLive.Load()) }

// statsReply snapshots the broker's operational state for a monitoring
// client (cmd/dcrd-mon).
func (b *Broker) statsReply(token uint64) *wire.StatsReply {
	reply := &wire.StatsReply{
		Token:      token,
		BrokerID:   int32(b.cfg.ID),
		Published:  b.published.Load(),
		Delivered:  b.delivered.Load(),
		Forwarded:  b.forwarded.Load(),
		Dropped:    b.dropped.Load(),
		QueueDrops: b.queueDrops.Load(),
		Redials:    b.redials.Load(),
		Reconnects: b.reconnects.Load(),

		Sessions:      uint64(b.sessionsGauge.Load()),
		Subscriptions: uint64(b.subscriptionsGauge.Load()),

		AckBatches:         b.ackBatches.Load(),
		AckFramesCoalesced: b.ackFramesCoalesced.Load(),
	}
	reply.Ctrl, reply.Links = b.ctrlStats()
	reply.Wal = b.walStat()
	reply.Routes = b.ctrl.routeStats()

	// Per-shard stats: a barrier run gives an on-shard view (mailbox depth
	// plus the engine's in-flight group count); if the broker is shutting
	// down mid-barrier, fall back to the lock-free external view.
	shardStats := make([]wire.ShardStat, len(b.shards))
	var smu sync.Mutex
	ok := b.barrier(func(s *shard) {
		st := s.stats(true)
		smu.Lock()
		shardStats[s.idx] = st
		smu.Unlock()
	})
	if !ok {
		for i, s := range b.shards {
			shardStats[i] = s.stats(false)
		}
	}
	reply.Shards = shardStats

	ids := make([]int, 0, len(b.neighbors))
	for id := range b.neighbors {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		nc := b.neighbors[id]
		alpha, gamma := nc.estimate()
		reply.Neighbors = append(reply.Neighbors, wire.NeighborStat{
			ID:        int32(id),
			Connected: nc.connected(),
			Alpha:     alpha,
			Gamma:     gamma,
		})
	}
	return reply
}

// goTracked runs fn on a goroutine registered with the broker's WaitGroup
// and counted in goCount (Goroutines reports the live count; leak tests
// assert it returns to zero after Close).
func (b *Broker) goTracked(fn func()) {
	b.wg.Add(1)
	b.goCount.Add(1)
	go func() {
		defer b.wg.Done()
		defer b.goCount.Add(-1)
		fn()
	}()
}

// logf writes a diagnostic when a logger is configured.
func (b *Broker) logf(format string, args ...any) {
	if b.cfg.Logger != nil {
		b.cfg.Logger.Printf("broker %d: "+format, append([]any{b.cfg.ID}, args...)...)
	}
}

// stopping reports whether Close has begun.
func (b *Broker) stopping() bool {
	select {
	case <-b.done:
		return true
	default:
		return false
	}
}
