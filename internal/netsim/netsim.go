// Package netsim simulates the overlay network substrate the paper evaluates
// on: links with fixed propagation delays, independent per-transmission
// packet loss (Pl), and a dynamic failure process in which, at every 1 s
// epoch boundary, each link independently fails for that entire epoch with
// probability Pf ("we change the network condition once every second ...
// link failures ... cause one second of packet loss").
//
// Frames sent over a failed link are lost, as are frames that hit the
// per-transmission loss draw; loss applies to data and ACK frames alike.
// Nodes learn about links only through monitoring estimates (per-link
// expected delay and long-run delivery ratio), refreshed every 5 minutes —
// far slower than the failure process, which is exactly the regime DCRD's
// dynamic rerouting targets. Only the ORACLE baseline is allowed to query
// instantaneous link state via Alive.
//
// The transmission path is engineered to be allocation-free in steady
// state: link lookups go through dense per-directed-pair tables built once
// at construction (no map hashing), per-link delay/ACK-wait/estimate values
// are cached, delivery events are pooled and scheduled through the
// simulator's closure-free AfterFunc, and hop-by-hop ACKs ride in the
// Frame.Ack tag instead of boxing a payload.
package netsim

import (
	"fmt"
	"time"

	"repro/internal/des"
	"repro/internal/topology"
)

// FrameKind distinguishes payload-carrying frames from control frames.
type FrameKind int

// Frame kinds. Data frames are the unit of the paper's "packets sent"
// traffic metric; control frames (ACKs, parameter advertisements) are
// excluded from it but traverse the same lossy links.
const (
	Data FrameKind = iota + 1
	Control
)

// String returns a human-readable frame kind.
func (k FrameKind) String() string {
	switch k {
	case Data:
		return "data"
	case Control:
		return "control"
	default:
		return fmt.Sprintf("FrameKind(%d)", int(k))
	}
}

// Frame is a single transmission over one overlay link.
type Frame struct {
	ID   uint64
	From int
	To   int
	Kind FrameKind
	// Ack carries a hop-by-hop acknowledgment: a Control frame with Ack set
	// acknowledges receipt of the data frame with that ID. Keeping the tag
	// inline (instead of boxing a one-word payload into Payload) makes the
	// ACK path allocation-free.
	Ack     uint64
	Payload any
}

// Handler receives frames that survive the link.
type Handler func(Frame)

// Config holds the network-condition parameters of a simulation run.
type Config struct {
	// LossRate is Pl, the per-transmission loss probability on a healthy
	// link. The paper's default is 1e-4.
	LossRate float64
	// FailureProb is Pf, the probability that a link fails at each failure
	// epoch. The paper sweeps 0..0.1.
	FailureProb float64
	// NodeFailureProb is Pn, the probability that a broker node fails at
	// each failure epoch, taking down every link incident to it for that
	// epoch. The paper defers node failures to future work (§V); this
	// implements that extension so it can be evaluated.
	NodeFailureProb float64
	// MeanFailureBurst is the mean link outage length in epochs. Values
	// <= 1 keep the paper's memoryless per-epoch model; larger values
	// switch to a two-state Gilbert–Elliott chain with the same
	// stationary failure probability Pf but correlated multi-epoch
	// outages — the "persistent failures" the paper's §III persistency
	// mode targets.
	MeanFailureBurst float64
	// FailureEpoch is the duration of one failure period (1 s in the paper).
	FailureEpoch time.Duration
	// MonitorInterval is how often nodes refresh link estimates
	// (5 min in the paper).
	MonitorInterval time.Duration
	// InstantControl makes control frames (ACKs) propagate with zero
	// delay. The paper's Algorithm 2 arms its retransmission timer for
	// only alpha_Xk — one-way data propagation — which is consistent only
	// if its simulator returns ACKs instantaneously; enabling this
	// reproduces that model (and the paper's delay numbers). Disabled,
	// ACKs take the link's propagation delay like any frame and senders
	// must wait a full round trip. Control frames remain subject to link
	// failures and loss either way.
	InstantControl bool
	// LinkBandwidth caps each link direction at this many frames per
	// second; frames queue FIFO behind the transmitter and the queueing
	// delay adds to their latency. Zero means infinite bandwidth (the
	// paper's model). This extension exercises the "highly congested
	// link" scenario the paper's introduction motivates DCRD with.
	LinkBandwidth float64
	// QueueCapacity bounds the per-direction transmit queue when
	// LinkBandwidth is set; a frame arriving to a full queue is dropped
	// (congestion loss). Zero means unbounded.
	QueueCapacity int
	// MonitorSamples models measurement-based monitoring: each monitoring
	// window, a link's delivery-ratio estimate is the success fraction of
	// this many simulated probe transmissions instead of the exact
	// long-run probability. Zero keeps exact estimates (the default
	// idealization). Estimates are deterministic per (link, window).
	MonitorSamples int
}

// DefaultConfig returns the paper's baseline network conditions.
func DefaultConfig() Config {
	return Config{
		LossRate:        1e-4,
		FailureProb:     0,
		FailureEpoch:    time.Second,
		MonitorInterval: 5 * time.Minute,
	}
}

// validate reports configuration errors.
func (c Config) validate() error {
	if c.LossRate < 0 || c.LossRate > 1 {
		return fmt.Errorf("netsim: loss rate %v outside [0,1]", c.LossRate)
	}
	if c.FailureProb < 0 || c.FailureProb > 1 {
		return fmt.Errorf("netsim: failure probability %v outside [0,1]", c.FailureProb)
	}
	if c.NodeFailureProb < 0 || c.NodeFailureProb > 1 {
		return fmt.Errorf("netsim: node failure probability %v outside [0,1]", c.NodeFailureProb)
	}
	if c.FailureEpoch <= 0 {
		return fmt.Errorf("netsim: failure epoch %v must be positive", c.FailureEpoch)
	}
	if c.MonitorInterval <= 0 {
		return fmt.Errorf("netsim: monitor interval %v must be positive", c.MonitorInterval)
	}
	if c.LinkBandwidth < 0 {
		return fmt.Errorf("netsim: negative link bandwidth %v", c.LinkBandwidth)
	}
	if c.QueueCapacity < 0 {
		return fmt.Errorf("netsim: negative queue capacity %d", c.QueueCapacity)
	}
	if c.MonitorSamples < 0 {
		return fmt.Errorf("netsim: negative monitor samples %d", c.MonitorSamples)
	}
	if c.MeanFailureBurst < 0 {
		return fmt.Errorf("netsim: negative mean failure burst %v", c.MeanFailureBurst)
	}
	if c.MeanFailureBurst > 1 && c.FailureProb > 0 {
		if up := c.FailureProb / (c.MeanFailureBurst * (1 - c.FailureProb)); up > 1 {
			return fmt.Errorf("netsim: burst %v infeasible for Pf=%v (up->down prob %v > 1)",
				c.MeanFailureBurst, c.FailureProb, up)
		}
	}
	return nil
}

// Stats aggregates traffic counters for one run.
type Stats struct {
	// DataTransmissions counts every data-frame send attempt (including
	// retransmissions and multipath duplicates) — the paper's "total number
	// of packets sent by any node".
	DataTransmissions uint64
	// ControlTransmissions counts ACK/control sends.
	ControlTransmissions uint64
	// DroppedFailure counts frames lost to failed links.
	DroppedFailure uint64
	// DroppedLoss counts frames lost to random per-transmission loss.
	DroppedLoss uint64
	// DroppedQueue counts frames lost to full transmit queues
	// (congestion loss; only with LinkBandwidth and QueueCapacity set).
	DroppedQueue uint64
	// DroppedFiltered counts frames swallowed by a SetDropFilter hook
	// (scripted-loss test harnesses).
	DroppedFiltered uint64
	// Delivered counts frames handed to a receiving node.
	Delivered uint64
}

// Dropped counts frames lost to any cause.
func (s Stats) Dropped() uint64 {
	return s.DroppedFailure + s.DroppedLoss + s.DroppedQueue + s.DroppedFiltered
}

// LinkEstimate is what monitoring reports to nodes about one link: the
// expected single-transmission delay alpha and the long-run
// single-transmission delivery ratio gamma of the paper's Eq. (1) inputs.
type LinkEstimate struct {
	Alpha time.Duration
	Gamma float64
}

// burstWindow is how many recent epochs of Gilbert–Elliott chain state each
// link retains. The chain is Markov, so extending it only needs the last
// state; older history is kept as a query window for monitors and tests and
// truncated beyond it, keeping long simulations flat in memory. Queries
// before the window replay the chain from epoch zero (cold diagnostic path).
const burstWindow = 512

// burstChain is one link's materialized Gilbert–Elliott states for epochs
// [base, base+len(states)).
type burstChain struct {
	base   uint64
	states []bool
}

// delivery is a pooled in-flight frame: the argument of the scheduled
// delivery event.
type delivery struct {
	n     *Network
	frame Frame
}

// Network binds a topology to a discrete-event simulator and implements
// frame transmission under the configured loss and failure processes.
//
// All per-transmission lookups are O(1) over dense arrays indexed by the
// directed pair from*N+to (about N² words per table — negligible against
// the simulation state for the paper's 20–160-node overlays).
type Network struct {
	sim      *des.Simulator
	g        *topology.Graph
	cfg      Config
	n        int
	handlers []Handler
	// dropFilter, when set, swallows matching frames at send time
	// (scripted loss for differential harnesses); see SetDropFilter.
	dropFilter func(Frame) bool
	// linkOf[from*n+to] is the undirected link index, or -1 when the pair
	// is not linked. delayOf and ackWaitOf cache the per-directed-pair
	// propagation delay and ACK wait (meaningful only where linkOf >= 0).
	linkOf    []int32
	delayOf   []time.Duration
	ackWaitOf []time.Duration
	// estGamma is the configuration-constant long-run per-transmission
	// delivery ratio reported by exact monitoring.
	estGamma float64
	// slot is one serialization slot (only when the bandwidth model is on).
	slot     time.Duration
	forced   []bool // by link index
	failSeed uint64
	nextID   uint64
	stats    Stats
	// txFree[from*n+to] is when each directed transmitter is next idle;
	// allocated only when the bandwidth/queueing model is active.
	txFree []time.Duration
	// burst caches per-link Gilbert–Elliott state chains (lazily grown,
	// windowed) when MeanFailureBurst > 1.
	burst []burstChain
	// free is the delivery-event pool; block bump-allocates new entries.
	free  []*delivery
	block []delivery
}

// New builds a network over g driven by sim. failSeed parameterizes the
// deterministic failure process so distinct runs see distinct failure
// patterns while identical seeds reproduce exactly.
func New(sim *des.Simulator, g *topology.Graph, cfg Config, failSeed uint64) (*Network, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	nn := g.N()
	n := &Network{
		sim:       sim,
		g:         g,
		cfg:       cfg,
		n:         nn,
		handlers:  make([]Handler, nn),
		linkOf:    make([]int32, nn*nn),
		delayOf:   make([]time.Duration, nn*nn),
		ackWaitOf: make([]time.Duration, nn*nn),
		forced:    make([]bool, g.NumEdges()),
		estGamma:  (1 - cfg.LossRate) * (1 - cfg.FailureProb),
		failSeed:  failSeed,
	}
	for i := range n.linkOf {
		n.linkOf[i] = -1
	}
	if cfg.LinkBandwidth > 0 {
		n.slot = time.Duration(float64(time.Second) / cfg.LinkBandwidth)
		n.txFree = make([]time.Duration, nn*nn)
	}
	for i, l := range g.Links() {
		wait := 2 * l.Delay
		if cfg.InstantControl {
			wait = l.Delay
		}
		wait += ackHeadroomSlots * n.slot
		for _, dir := range [2][2]int{{l.From, l.To}, {l.To, l.From}} {
			di := dir[0]*nn + dir[1]
			n.linkOf[di] = int32(i)
			n.delayOf[di] = l.Delay
			n.ackWaitOf[di] = wait
		}
	}
	if cfg.MeanFailureBurst > 1 {
		n.burst = make([]burstChain, g.NumEdges())
	}
	return n, nil
}

// pairIndex returns the dense directed-pair index for (from, to), or -1
// when either endpoint is out of range.
func (n *Network) pairIndex(from, to int) int {
	if from < 0 || from >= n.n || to < 0 || to >= n.n {
		return -1
	}
	return from*n.n + to
}

// Sim returns the driving simulator.
func (n *Network) Sim() *des.Simulator { return n.sim }

// Graph returns the overlay topology.
func (n *Network) Graph() *topology.Graph { return n.g }

// Config returns the network conditions.
func (n *Network) Config() Config { return n.cfg }

// Stats returns a snapshot of the traffic counters.
func (n *Network) Stats() Stats { return n.stats }

// SetHandler installs the frame receiver for a node. Passing nil silently
// discards frames addressed to the node.
func (n *Network) SetHandler(node int, h Handler) {
	n.handlers[node] = h
}

// SetDropFilter installs a scripted-loss hook: every frame for which fn
// returns true is silently dropped at send time (counted as
// Stats.DroppedFiltered), after the transmission counters but before the
// failure and random-loss models — the sender still pays for the attempt,
// exactly like a frame lost on the wire. Differential and fault-injection
// tests use this to impose a deterministic loss schedule; nil removes the
// hook.
func (n *Network) SetDropFilter(fn func(Frame) bool) { n.dropFilter = fn }

// NextFrameID allocates a run-unique frame identifier.
func (n *Network) NextFrameID() uint64 {
	n.nextID++
	return n.nextID
}

// Alive reports whether link (u,v) is up at virtual time t. This is
// instantaneous ground truth: only the ORACLE baseline and test assertions
// may consult it. Routing protocols must use Estimate.
func (n *Network) Alive(u, v int, t time.Duration) bool {
	di := n.pairIndex(u, v)
	if di < 0 {
		return false
	}
	idx := n.linkOf[di]
	if idx < 0 || n.forced[idx] {
		return false
	}
	if n.nodeFailedAt(u, t) || n.nodeFailedAt(v, t) {
		return false
	}
	return !n.failedAt(int(idx), t)
}

// nodeFailedAt is the deterministic per-(node, epoch) Bernoulli(Pn) draw of
// the node-failure process, mirroring failedAt for links.
func (n *Network) nodeFailedAt(u int, t time.Duration) bool {
	if n.cfg.NodeFailureProb <= 0 {
		return false
	}
	if n.cfg.NodeFailureProb >= 1 {
		return true
	}
	epoch := uint64(t / n.cfg.FailureEpoch)
	h := splitmix64(n.failSeed ^ 0xfeed_face_cafe_beef ^ splitmix64(uint64(u)+11) ^ splitmix64(epoch+7))
	uf := float64(h>>11) / float64(1<<53)
	return uf < n.cfg.NodeFailureProb
}

// ForceDown forces link (u,v) down (in both directions) until Restore,
// independent of the random failure process. Used for failure-injection
// tests and demos. It returns an error when the link does not exist.
func (n *Network) ForceDown(u, v int) error {
	di := n.pairIndex(u, v)
	if di < 0 || n.linkOf[di] < 0 {
		return fmt.Errorf("netsim: force-down of missing link (%d,%d)", u, v)
	}
	n.forced[n.linkOf[di]] = true
	return nil
}

// Restore lifts a ForceDown on link (u,v).
func (n *Network) Restore(u, v int) error {
	di := n.pairIndex(u, v)
	if di < 0 || n.linkOf[di] < 0 {
		return fmt.Errorf("netsim: restore of missing link (%d,%d)", u, v)
	}
	n.forced[n.linkOf[di]] = false
	return nil
}

// Estimate returns the monitored <alpha, gamma> estimate for link (u,v):
// the true propagation delay and the long-run per-transmission success
// probability (1-Pl)(1-Pf). The boolean reports whether the link exists.
// With Config.MonitorSamples set, use EstimateAt instead — this method
// keeps returning the exact value.
func (n *Network) Estimate(u, v int) (LinkEstimate, bool) {
	di := n.pairIndex(u, v)
	if di < 0 || n.linkOf[di] < 0 {
		return LinkEstimate{}, false
	}
	return LinkEstimate{Alpha: n.delayOf[di], Gamma: n.estGamma}, true
}

// EstimateAt returns the monitoring estimate current at virtual time t.
// With MonitorSamples == 0 it equals Estimate (exact). Otherwise gamma is
// the success fraction of MonitorSamples simulated probe transmissions
// taken during the monitoring window containing t — a noisy, stale view
// that only refreshes once per MonitorInterval, like the paper's 5-minute
// monitoring. Alpha stays exact (delay is easy to measure).
func (n *Network) EstimateAt(u, v int, t time.Duration) (LinkEstimate, bool) {
	est, ok := n.Estimate(u, v)
	if !ok {
		return LinkEstimate{}, false
	}
	if n.cfg.MonitorSamples == 0 {
		return est, true
	}
	idx := int(n.linkOf[n.pairIndex(u, v)])
	est.Gamma = n.sampledGamma(idx, uint64(t/n.cfg.MonitorInterval))
	return est, true
}

// sampledGamma is the deterministic measurement-based delivery-ratio
// estimate for the idx-th link during one monitoring window: the success
// fraction of MonitorSamples simulated probe transmissions against the true
// long-run ratio. Requires MonitorSamples > 0.
func (n *Network) sampledGamma(idx int, window uint64) float64 {
	successes := 0
	for s := 0; s < n.cfg.MonitorSamples; s++ {
		h := splitmix64(n.failSeed ^ 0x6d6f_6e69_746f_7231 ^
			splitmix64(uint64(idx)+3) ^ splitmix64(window+5) ^ splitmix64(uint64(s)+7))
		draw := float64(h>>11) / float64(1<<53)
		if draw < n.estGamma {
			successes++
		}
	}
	return float64(successes) / float64(n.cfg.MonitorSamples)
}

// EstimateVersion returns the version of the monitoring estimates in force
// at virtual time t: EstimateAt returns identical values for any two times
// with the same version. With exact estimates (MonitorSamples == 0) the
// version is always zero — estimates never change. The route-table
// rebuild driver keys its no-op on this.
func (n *Network) EstimateVersion(t time.Duration) uint64 {
	if n.cfg.MonitorSamples == 0 {
		return 0
	}
	return uint64(t / n.cfg.MonitorInterval)
}

// allocDelivery takes a delivery from the pool.
func (n *Network) allocDelivery() *delivery {
	if l := len(n.free); l > 0 {
		d := n.free[l-1]
		n.free[l-1] = nil
		n.free = n.free[:l-1]
		return d
	}
	if len(n.block) == 0 {
		n.block = make([]delivery, 64)
	}
	d := &n.block[0]
	n.block = n.block[1:]
	d.n = n
	return d
}

// recycleDelivery clears the payload reference and returns d to the pool.
func (n *Network) recycleDelivery(d *delivery) {
	d.frame = Frame{}
	n.free = append(n.free, d)
}

// deliverFrame is the pooled delivery event callback: it hands the frame to
// the receiver's handler. The delivery object is recycled before the
// handler runs so that handlers can transmit re-entrantly.
func deliverFrame(a any) {
	d := a.(*delivery)
	n := d.n
	frame := d.frame
	n.recycleDelivery(d)
	n.stats.Delivered++
	if h := n.handlers[frame.To]; h != nil {
		h(frame)
	}
}

// Send transmits one frame from frame.From to frame.To. The frame is
// delivered to the receiver's handler after the link's propagation delay
// unless the link is failed at send time or the per-transmission loss draw
// hits. It returns an error if the link does not exist.
func (n *Network) Send(frame Frame) error {
	di := n.pairIndex(frame.From, frame.To)
	if di < 0 || n.linkOf[di] < 0 {
		return fmt.Errorf("netsim: send over missing link (%d,%d)", frame.From, frame.To)
	}
	delay := n.delayOf[di]
	switch frame.Kind {
	case Data:
		n.stats.DataTransmissions++
	case Control:
		n.stats.ControlTransmissions++
	default:
		return fmt.Errorf("netsim: frame with unset kind on link (%d,%d)", frame.From, frame.To)
	}
	if n.dropFilter != nil && n.dropFilter(frame) {
		n.stats.DroppedFiltered++
		return nil
	}
	if !n.Alive(frame.From, frame.To, n.sim.Now()) {
		n.stats.DroppedFailure++
		return nil
	}
	if n.cfg.LossRate > 0 && n.sim.Rand().Float64() < n.cfg.LossRate {
		n.stats.DroppedLoss++
		return nil
	}
	if frame.Kind == Control && n.cfg.InstantControl {
		delay = 0
	}
	// Optional bandwidth model: the frame first waits for (and then
	// occupies) the directed transmitter for one serialization slot.
	// Control frames (ACKs, adverts) are tiny and exempt.
	if n.txFree != nil && frame.Kind == Data {
		now := n.sim.Now()
		free := n.txFree[di]
		if free < now {
			free = now
		}
		if n.cfg.QueueCapacity > 0 && free-now >= n.slot*time.Duration(n.cfg.QueueCapacity) {
			n.stats.DroppedQueue++
			return nil
		}
		depart := free + n.slot
		n.txFree[di] = depart
		delay += depart - now
	}
	d := n.allocDelivery()
	d.frame = frame
	n.sim.AfterFunc(delay, deliverFrame, d)
	return nil
}

// ackHeadroomSlots is how many serialization slots of queueing a sender
// tolerates before treating a link as failed when the bandwidth model is
// active. Below this, transient bursts ride out; beyond it, a congested
// link looks like a failed one — the behavior the paper's introduction
// motivates DCRD with.
const ackHeadroomSlots = 4

// AckWait returns how long a sender on link (u,v) should wait for a
// hop-by-hop ACK before acting: one-way alpha under the paper's
// instant-control model, a full round trip otherwise, plus a few
// serialization slots of headroom when the bandwidth model is active.
// The boolean reports whether the link exists.
func (n *Network) AckWait(u, v int) (time.Duration, bool) {
	di := n.pairIndex(u, v)
	if di < 0 || n.linkOf[di] < 0 {
		return 0, false
	}
	return n.ackWaitOf[di], true
}

// NextEpochBoundary returns the first failure-epoch boundary strictly after
// t — the earliest instant at which link states can change.
func (n *Network) NextEpochBoundary(t time.Duration) time.Duration {
	e := t/n.cfg.FailureEpoch + 1
	return e * n.cfg.FailureEpoch
}

// failedAt reports the deterministic failure state of the idx-th link during
// the epoch containing t. In the paper's memoryless model each (link, epoch)
// pair is an independent Bernoulli(Pf) draw derived by hashing, so the
// process needs no scheduled events and is O(1) to query. With
// MeanFailureBurst > 1 the state follows a per-link Gilbert–Elliott chain.
func (n *Network) failedAt(idx int, t time.Duration) bool {
	if n.cfg.FailureProb <= 0 {
		return false
	}
	if n.cfg.FailureProb >= 1 {
		return true
	}
	epoch := uint64(t / n.cfg.FailureEpoch)
	if n.burst != nil {
		return n.burstFailedAt(idx, epoch)
	}
	u := n.epochDraw(idx, epoch)
	return u < n.cfg.FailureProb
}

// epochDraw returns the deterministic uniform draw for (link, epoch).
func (n *Network) epochDraw(idx int, epoch uint64) float64 {
	h := splitmix64(n.failSeed ^ splitmix64(uint64(idx)+1) ^ splitmix64(epoch+0x1234_5678_9abc_def1))
	return float64(h>>11) / float64(1<<53)
}

// burstStep evolves one Gilbert–Elliott step: given the state at epoch-1
// (ignored when epoch is 0), it returns the state at epoch. A failed link
// recovers each epoch w.p. 1/L; a healthy one fails w.p. Pf/(L(1-Pf)), so
// the stationary failure probability stays exactly Pf while the mean outage
// lasts L epochs. States derive from the same deterministic per-epoch draws
// as the memoryless model.
func (n *Network) burstStep(idx int, epoch uint64, prevFailed bool) bool {
	pf := n.cfg.FailureProb
	l := n.cfg.MeanFailureBurst
	u := n.epochDraw(idx, epoch)
	switch {
	case epoch == 0:
		return u < pf // stationary initial state
	case prevFailed:
		return u >= 1/l
	default:
		return u < pf/(l*(1-pf))
	}
}

// burstFailedAt evaluates the windowed Gilbert–Elliott chain. The chain is
// Markov, so it extends from its last materialized state only; history
// older than burstWindow epochs is truncated to keep memory flat, and the
// rare query before the retained window replays the chain from epoch zero.
func (n *Network) burstFailedAt(idx int, epoch uint64) bool {
	c := &n.burst[idx]
	if epoch < c.base {
		// Cold path: a query behind the retained window (tests or stale
		// diagnostics). Replay deterministically without storing.
		failed := false
		for e := uint64(0); e <= epoch; e++ {
			failed = n.burstStep(idx, e, failed)
		}
		return failed
	}
	for c.base+uint64(len(c.states)) <= epoch {
		e := c.base + uint64(len(c.states))
		prev := false
		if len(c.states) > 0 {
			prev = c.states[len(c.states)-1]
		}
		c.states = append(c.states, n.burstStep(idx, e, prev))
	}
	if len(c.states) > 2*burstWindow {
		cut := len(c.states) - burstWindow
		if keep := epoch - c.base; uint64(cut) > keep {
			cut = int(keep)
		}
		c.base += uint64(cut)
		c.states = c.states[:copy(c.states, c.states[cut:])]
	}
	return c.states[epoch-c.base]
}

// splitmix64 is the SplitMix64 mixing function, used to derive independent
// uniform draws for the lazy failure process.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
