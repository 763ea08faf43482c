// Command dcrd-chaos runs a live in-process broker overlay through the
// deterministic chaos layer (internal/chaos) and reports whether delivery
// survived: every published packet must reach every subscriber exactly
// once, and shutting the overlay down must leak neither goroutines nor
// pooled engine objects. It is the soak test in executable form — handy for
// longer runs, other seeds and fault mixes than CI budgets allow.
//
// With -datadir every broker journals custody to a write-ahead log under
// the given root, and -crash-mid-traffic makes the crash an abrupt one —
// no drain first, un-fsynced state lost — which exactly-once must survive
// via WAL replay and upstream retransmission (DESIGN.md §16).
//
//	dcrd-chaos -seed 7 -packets 300
//	dcrd-chaos -brokers 10 -pf 0.3 -loss 0.1 -crash=false
//	dcrd-chaos -datadir /tmp/dcrd-wal -crash-mid-traffic
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/broker"
	"repro/internal/chaos"
)

const topic = 42

func main() {
	log.SetFlags(0)
	log.SetPrefix("dcrd-chaos: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dcrd-chaos", flag.ContinueOnError)
	var (
		seed     = fs.Uint64("seed", 1, "chaos seed; same seed, same fault schedule")
		nBrok    = fs.Int("brokers", 8, "overlay size (even, >= 6)")
		packets  = fs.Int("packets", 90, "packets to publish (split into three phases)")
		pace     = fs.Duration("pace", 4*time.Millisecond, "gap between publishes")
		epoch    = fs.Duration("epoch", 150*time.Millisecond, "partition epoch length")
		pf       = fs.Float64("pf", 0.2, "per-epoch link failure probability (paper's Pf)")
		loss     = fs.Float64("loss", 0.05, "per-frame loss probability (Pl)")
		resets   = fs.Float64("resets", 0.004, "per-frame connection reset probability")
		crash    = fs.Bool("crash", true, "crash and restart one relay broker mid-run")
		dataDir  = fs.String("datadir", "", "root for per-broker WAL directories; empty keeps custody in memory")
		crashMid = fs.Bool("crash-mid-traffic", false, "crash the relay without draining first (requires -datadir)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *nBrok < 6 || *nBrok%2 != 0 {
		return fmt.Errorf("-brokers must be even and >= 6, got %d", *nBrok)
	}
	if *packets < 3 {
		return fmt.Errorf("-packets must be >= 3, got %d", *packets)
	}
	if *crashMid && *dataDir == "" {
		return fmt.Errorf("-crash-mid-traffic needs -datadir: without durable custody, " +
			"a mid-traffic crash legitimately loses ACKed packets")
	}

	cn := chaos.NewNetwork(chaos.Config{
		Seed:  *seed,
		Epoch: *epoch,
		Default: chaos.Faults{
			PartitionProb: *pf,
			DropProb:      *loss,
			DupProb:       0.05,
			CorruptProb:   0.002,
			ResetProb:     *resets,
			Delay:         200 * time.Microsecond,
			DelayJitter:   time.Millisecond,
		},
	})
	defer cn.Close()
	cn.SetActive(false) // converge clean, then churn

	ov, err := buildOverlay(cn, *nBrok, *dataDir)
	if err != nil {
		return err
	}
	defer ov.closeAll()

	// Roles: publisher on broker 0, subscribers either side of the relay at
	// n/2, which is the crash victim.
	subAt := []int{*nBrok/2 - 1, *nBrok/2 + 1}
	victim := *nBrok / 2

	cols := make([]*collector, len(subAt))
	for i, at := range subAt {
		c, err := broker.Dial(ov.addrs[at], fmt.Sprintf("sub-%d", at))
		if err != nil {
			return err
		}
		defer c.Close()
		if err := c.Subscribe(topic, 30*time.Second); err != nil {
			return err
		}
		cols[i] = newCollector(c)
	}
	if err := ov.awaitRoutes(subAt, 15*time.Second); err != nil {
		return err
	}
	pub, err := broker.Dial(ov.addrs[0], "pub")
	if err != nil {
		return err
	}
	defer pub.Close()

	cn.SetActive(true)
	start := time.Now()
	phase := *packets / 3

	publish := func(from, to int) error {
		for s := from; s < to; s++ {
			var payload [4]byte
			binary.BigEndian.PutUint32(payload[:], uint32(s))
			if err := pub.Publish(topic, 30*time.Second, payload[:]); err != nil {
				return fmt.Errorf("publish %d: %w", s, err)
			}
			time.Sleep(*pace)
		}
		return nil
	}
	drained := func(n int) bool {
		for _, col := range cols {
			if !col.have(n) {
				return false
			}
		}
		return true
	}

	if err := publish(0, phase); err != nil {
		return err
	}
	if *crash {
		if *crashMid {
			// Durable custody: crash straight into the in-flight traffic,
			// losing the WAL's un-fsynced tail. Un-ACKed packets are still
			// the upstream's responsibility; fsynced custody replays.
			fmt.Fprintf(out, "crashing broker %d mid-traffic\n", victim)
			if err := ov.brokers[victim].Crash(); err != nil {
				return err
			}
		} else {
			// Drain before the crash: without -datadir, hop-by-hop custody
			// is in-memory, so a crashing broker may legitimately lose
			// packets it has ACKed.
			if !waitUntil(60*time.Second, func() bool { return drained(phase) }) {
				return fmt.Errorf("phase A never drained: %s", deliveryReport(cols, phase))
			}
			fmt.Fprintf(out, "crashing broker %d\n", victim)
			if err := ov.brokers[victim].Close(); err != nil {
				return err
			}
		}
		if err := publish(phase, 2*phase); err != nil {
			return err
		}
		fmt.Fprintf(out, "restarting broker %d\n", victim)
		if err := ov.restart(cn, victim); err != nil {
			return err
		}
	} else {
		if err := publish(phase, 2*phase); err != nil {
			return err
		}
	}
	if err := publish(2*phase, *packets); err != nil {
		return err
	}

	cn.SetActive(false) // heal and require convergence
	if !waitUntil(60*time.Second, func() bool { return drained(*packets) }) {
		return fmt.Errorf("overlay never converged after healing: %s", deliveryReport(cols, *packets))
	}
	if !waitUntil(60*time.Second, ov.poolsDrained) {
		return fmt.Errorf("engine pools never drained")
	}
	elapsed := time.Since(start)

	var failed bool
	for i, col := range cols {
		if d := col.duplicates(); len(d) > 0 {
			fmt.Fprintf(out, "FAIL: subscriber %d saw duplicates %v\n", i, d)
			failed = true
		}
	}
	cs := cn.Stats()
	fmt.Fprintf(out, "chaos: %d frames seen, %d dropped, %d duplicated, %d corrupted, %d resets, %d stalls\n",
		cs.FramesSeen, cs.FramesDropped, cs.FramesDuped, cs.FramesCorrupt, cs.Resets, cs.Stalls)
	for _, b := range ov.brokers {
		st := b.Stats()
		fmt.Fprintf(out, "broker %d: published %d, delivered %d, forwarded %d, dropped %d, queue drops %d, redials %d, reconnects %d\n",
			b.ID(), st.Published, st.Delivered, st.Forwarded, st.Dropped,
			st.QueueDrops, st.Redials, st.Reconnects)
		if st.Wal.Enabled {
			fmt.Fprintf(out, "broker %d wal: appends %d, fsyncs %d, bytes %d, replayed flights %d, checkpoints %d\n",
				b.ID(), st.Wal.Appends, st.Wal.Fsyncs, st.Wal.Bytes,
				st.Wal.ReplayedFlights, st.Wal.Checkpoints)
		}
	}
	fmt.Fprintf(out, "delivery: %d packets to %d subscribers in %v — exactly once\n",
		*packets, len(cols), elapsed.Round(time.Millisecond))

	if err := ov.closeAll(); err != nil {
		return err
	}
	for _, b := range ov.brokers {
		if g := b.Goroutines(); g != 0 {
			fmt.Fprintf(out, "FAIL: broker %d leaked %d goroutines\n", b.ID(), g)
			failed = true
		}
		if works, flights, frames := b.PoolsLive(); works+flights+frames+b.PayloadsLive() != 0 {
			fmt.Fprintf(out, "FAIL: broker %d leaked pooled objects (works=%d flights=%d frames=%d payloads=%d)\n",
				b.ID(), works, flights, frames, b.PayloadsLive())
			failed = true
		}
	}
	if failed {
		return fmt.Errorf("soak failed")
	}
	return nil
}

// overlay is the running broker set plus everything needed to restart one.
type overlay struct {
	brokers   []*broker.Broker
	addrs     []string
	neighbors []map[int]string
	dataRoot  string // per-broker WAL directories live under it; "" = memory
	closeOnce sync.Once
	closeErr  error
}

// dataDir returns broker id's WAL directory ("" in memory mode). Restarts
// reuse the same directory so recovery replays across the crash.
func (ov *overlay) dataDir(id int) string {
	if ov.dataRoot == "" {
		return ""
	}
	return filepath.Join(ov.dataRoot, fmt.Sprintf("broker-%d", id))
}

// buildOverlay starts n brokers on a chord-augmented ring (degree 3: no
// single broker loss disconnects it), every listener chaos-wrapped.
func buildOverlay(cn *chaos.Network, n int, dataRoot string) (*overlay, error) {
	listeners := make([]net.Listener, n)
	ov := &overlay{addrs: make([]string, n), neighbors: make([]map[int]string, n), dataRoot: dataRoot}
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners[i] = ln
		ov.addrs[i] = ln.Addr().String()
		ov.neighbors[i] = make(map[int]string)
	}
	link := func(a, b int) {
		ov.neighbors[a][b] = ov.addrs[b]
		ov.neighbors[b][a] = ov.addrs[a]
	}
	for i := 0; i < n; i++ {
		link(i, (i+1)%n)
	}
	for i := 0; i < n/2; i++ {
		link(i, i+n/2)
	}
	for i := 0; i < n; i++ {
		b, err := broker.New(brokerConfig(i, ov.addrs[i], ov.neighbors[i], ov.dataDir(i)))
		if err != nil {
			return nil, err
		}
		if err := b.StartListener(cn.Listener(listeners[i], i)); err != nil {
			return nil, err
		}
		ov.brokers = append(ov.brokers, b)
	}
	return ov, nil
}

func brokerConfig(id int, addr string, neighbors map[int]string, dataDir string) broker.Config {
	return broker.Config{
		DataDir:         dataDir,
		ID:              id,
		Listen:          addr,
		Neighbors:       neighbors,
		DialRetry:       20 * time.Millisecond,
		DialRetryMax:    250 * time.Millisecond,
		AckGuard:        40 * time.Millisecond,
		MaxLifetime:     2 * time.Minute,
		Persistent:      true,
		RetryInterval:   50 * time.Millisecond,
		DefaultDeadline: 30 * time.Second,
	}
}

// restart rebinds the crashed broker's address and rejoins the overlay.
func (ov *overlay) restart(cn *chaos.Network, id int) error {
	var ln net.Listener
	deadline := time.Now().Add(5 * time.Second)
	for {
		var err error
		ln, err = net.Listen("tcp", ov.addrs[id])
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("rebinding %s: %w", ov.addrs[id], err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	b, err := broker.New(brokerConfig(id, ov.addrs[id], ov.neighbors[id], ov.dataDir(id)))
	if err != nil {
		return err
	}
	if err := b.StartListener(cn.Listener(ln, id)); err != nil {
		return err
	}
	ov.brokers[id] = b
	return nil
}

// awaitRoutes waits until broker 0 reports a live sending list for every
// subscriber broker, via the public stats protocol.
func (ov *overlay) awaitRoutes(subAt []int, timeout time.Duration) error {
	mon, err := broker.Dial(ov.addrs[0], "routes-probe")
	if err != nil {
		return err
	}
	defer mon.Close()
	ok := waitUntil(timeout, func() bool {
		reply, err := mon.Stats(2 * time.Second)
		if err != nil {
			return false
		}
		ready := 0
		for _, rt := range reply.Routes {
			for _, at := range subAt {
				if rt.Topic == topic && rt.Sub == int32(at) && rt.ListLen > 0 {
					ready++
				}
			}
		}
		return ready == len(subAt)
	})
	if !ok {
		return fmt.Errorf("routes to subscriber brokers %v never formed", subAt)
	}
	return nil
}

// poolsDrained reports whether every broker's engine pools and payload
// references are back to zero.
func (ov *overlay) poolsDrained() bool {
	for _, b := range ov.brokers {
		if works, flights, frames := b.PoolsLive(); works+flights+frames+b.PayloadsLive() != 0 {
			return false
		}
	}
	return true
}

// closeAll shuts every broker down once; later calls return the first error.
func (ov *overlay) closeAll() error {
	ov.closeOnce.Do(func() {
		for _, b := range ov.brokers {
			if err := b.Close(); err != nil && ov.closeErr == nil {
				ov.closeErr = err
			}
		}
	})
	return ov.closeErr
}

// collector counts per-sequence deliveries for one subscriber.
type collector struct {
	mu  sync.Mutex
	got map[uint32]int
}

func newCollector(c *broker.Client) *collector {
	col := &collector{got: make(map[uint32]int)}
	go func() {
		for d := range c.Receive() {
			if len(d.Payload) != 4 {
				continue
			}
			seq := binary.BigEndian.Uint32(d.Payload)
			col.mu.Lock()
			col.got[seq]++
			col.mu.Unlock()
		}
	}()
	return col
}

// have reports whether every sequence in [0, n) arrived at least once.
func (col *collector) have(n int) bool {
	col.mu.Lock()
	defer col.mu.Unlock()
	for s := 0; s < n; s++ {
		if col.got[uint32(s)] == 0 {
			return false
		}
	}
	return true
}

// missing counts sequences below n that never arrived.
func (col *collector) missing(n int) int {
	col.mu.Lock()
	defer col.mu.Unlock()
	m := 0
	for s := 0; s < n; s++ {
		if col.got[uint32(s)] == 0 {
			m++
		}
	}
	return m
}

// duplicates returns sequences delivered more than once.
func (col *collector) duplicates() []uint32 {
	col.mu.Lock()
	defer col.mu.Unlock()
	var d []uint32
	for s, c := range col.got {
		if c > 1 {
			d = append(d, s)
		}
	}
	return d
}

// deliveryReport summarizes shortfalls for error messages.
func deliveryReport(cols []*collector, n int) string {
	s := ""
	for i, col := range cols {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("sub %d missing %d/%d", i, col.missing(n), n)
	}
	return s
}

// waitUntil polls cond every 20ms until it holds or timeout passes.
func waitUntil(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(20 * time.Millisecond)
	}
	return false
}
