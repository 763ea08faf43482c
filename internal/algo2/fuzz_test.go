package algo2

import (
	"slices"
	"testing"
	"time"
)

// fuzzTimer is one armed engine timer in the fuzz harness. Matching the
// shell contract, a timer fires at most once and never after CancelTimer.
type fuzzTimer struct {
	fn      func(any)
	arg     any
	stopped bool
	fired   bool
}

// fuzzDeps emulates an arbitrary environment around one engine at node 1
// of a 6-node overlay: timers fire under fuzzer control and in any order,
// links flap, and neighbor 5 is a table entry with no link at all
// (AckWait !ok), covering the deferred-reprocess path.
type fuzzDeps struct {
	now      time.Duration
	frameSeq uint64
	timers   []*fuzzTimer
	sent     []uint64 // frame IDs observed in Send, acked or not
	down     [6]bool

	sends    int
	delivers int
	drops    int
	// backSends counts frames sent to a node on their own path: only an
	// upstream reroute does that, since sending lists skip path nodes.
	backSends int
}

func (d *fuzzDeps) Now() time.Duration { return d.now }

func (d *fuzzDeps) AfterFunc(_ time.Duration, fn func(any), arg any) *fuzzTimer {
	tm := &fuzzTimer{fn: fn, arg: arg}
	d.timers = append(d.timers, tm)
	return tm
}

func (d *fuzzDeps) CancelTimer(tm *fuzzTimer) { tm.stopped = true }

func (d *fuzzDeps) NextFrameID() uint64 {
	d.frameSeq++
	return d.frameSeq
}

func (d *fuzzDeps) AckWait(k int) (time.Duration, bool) {
	if k == 5 {
		return 0, false // in the tables, but no such link
	}
	return time.Millisecond, true
}

func (d *fuzzDeps) Send(f *Frame) {
	d.sends++
	d.sent = append(d.sent, f.ID)
	if slices.Contains(f.Path, f.To) {
		d.backSends++
	}
}

var fuzzLists = map[int][]int{
	0: {2, 0, 5},
	2: {2, 3, 5},
	3: {3, 2, 4},
	4: {4, 3, 5},
	5: {5, 2},
}

func (d *fuzzDeps) SendingList(_ int32, dest int) []int { return fuzzLists[dest] }

func (d *fuzzDeps) LinkUp(k int) bool { return k >= 0 && k < 6 && !d.down[k] }

func (d *fuzzDeps) Deliver(*Packet, int) { d.delivers++ }

func (d *fuzzDeps) Drop(_ *Packet, dests []int, _ DropReason) { d.drops += len(dests) }

func (d *fuzzDeps) AckTimedOut(int) {}

func (d *fuzzDeps) NextRetryAt(now time.Duration) time.Duration {
	return now + 5*time.Millisecond
}

// countPayload is a Packet.Payload that counts its references. The test
// that creates one holds the first; everything above it is the engine's.
type countPayload struct{ refs int }

func (p *countPayload) Retain()  { p.refs++ }
func (p *countPayload) Release() { p.refs-- }

// fireTimer fires armed timer i if it is still eligible.
func (d *fuzzDeps) fireTimer(i int) {
	tm := d.timers[i]
	if tm.stopped || tm.fired {
		return
	}
	tm.fired = true
	tm.fn(tm.arg)
}

// FuzzEngine feeds the engine's state machine arbitrary interleavings of
// publishes, received frames, duplicate frames, (stale) ACKs, timer firings
// and clock jumps, then drains every copy — or, with bit 3 of the first byte
// set, shuts the engine down with everything still in flight — and checks
// that nothing panicked, no frame was processed twice, and all pooled state
// came back: pool round-trip counts return to zero, no flights leak, and
// every payload is back to the one reference its creator holds. Bit 4 sets
// NoReroute, under which no frame may go back to the copy's upstream.
func FuzzEngine(f *testing.F) {
	f.Add([]byte{0x00, 0x10, 0x21, 0x30, 0x40})
	f.Add([]byte{0x13, 0x13, 0x50, 0x51, 0x52, 0x31})
	f.Add([]byte{0x8f, 0x0f, 0x60, 0x50, 0x20, 0x50, 0x42, 0x75, 0x50})
	f.Add([]byte{0xff, 0x1f, 0x2f, 0x3f, 0x4f, 0x5f, 0x6f, 0x7f})
	// Cross-shard packet-ID collisions: distinct frames whose packet IDs
	// share low counter bits but differ in the high origin bits (the shape
	// the sharded broker's brokerID<<48 layout produces), interleaved with
	// replays, ACKs and timers.
	f.Add([]byte{0x02, 0x10, 0x14, 0x18, 0x1c, 0x20, 0x30, 0x50})
	f.Add([]byte{0x07, 0x10, 0x10, 0x14, 0x20, 0x1c, 0x18, 0x31, 0x52, 0x65, 0x50})
	// Persistency holds at the origin (every link down), drained (bit 3
	// clear) or shut down with the holds pending (bit 3 set); then flights
	// and a failover in the air at Shutdown.
	f.Add([]byte{0x04, 0x70, 0x72, 0x73, 0x74, 0x75, 0x00, 0x02, 0x50, 0x60, 0x51})
	f.Add([]byte{0x0c, 0x70, 0x72, 0x73, 0x74, 0x75, 0x00, 0x02, 0x50, 0x60, 0x51})
	f.Add([]byte{0x08, 0x02, 0x10, 0x14, 0x50, 0x18, 0x20})
	// NoReroute: relayed copies exhaust their lists with every link down
	// (drained, then shut down mid-flight), and timeouts exhaust them with
	// links up.
	f.Add([]byte{0x10, 0x72, 0x73, 0x74, 0x75, 0x10, 0x11, 0x14, 0x50, 0x51})
	f.Add([]byte{0x18, 0x72, 0x73, 0x74, 0x10, 0x12, 0x13, 0x50, 0x60})
	f.Add([]byte{0x15, 0x10, 0x50, 0x50, 0x51, 0x52, 0x11, 0x53, 0x54, 0x00, 0x55})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		deps := &fuzzDeps{}
		pools := NewPools[*fuzzTimer](6)
		cfg := Config{
			NodeID:      1,
			M:           1 + int(data[0]&3),
			AckGuard:    time.Millisecond,
			MaxLifetime: 50 * time.Millisecond,
			Persistent:  data[0]&4 != 0,
			NoReroute:   data[0]&16 != 0,
		}
		eng := NewEngine[*fuzzTimer](cfg, deps, pools)

		var payloads []*countPayload
		newPayload := func() *countPayload {
			p := &countPayload{refs: 1}
			payloads = append(payloads, p)
			return p
		}
		checkLive := func(when string) {
			t.Helper()
			if w, fl, fr := pools.Live(); w != 0 || fl != 0 || fr != 0 {
				t.Fatalf("pool leak %s: works=%d flights=%d frames=%d", when, w, fl, fr)
			}
			for i, p := range payloads {
				if p.refs != 1 {
					t.Fatalf("payload %d of %d has %d references %s, want the creator's 1",
						i, len(payloads), p.refs, when)
				}
			}
		}

		var pktSeq, inSeq uint64
		var lastIn Inbound
		haveIn := false
		destPool := [][]int{{3}, {2, 3}, {0, 3, 4}, {1}, {1, 4}, {3, 5}}
		pathPool := [][]int{{0}, {0, 2}, {0, 1, 2}, {2, 0}, {0, 2, 3}}

		for i := 1; i < len(data); i++ {
			b := data[i]
			op, arg := b>>4, int(b&0x0f)
			switch op % 8 {
			case 0: // publish at the origin
				pktSeq++
				eng.Publish(Packet{
					ID:          pktSeq,
					Topic:       7,
					Source:      1,
					PublishedAt: deps.now,
					Payload:     newPayload(),
				}, destPool[arg%len(destPool)])
			case 1: // receive a fresh frame
				inSeq++
				lastIn = Inbound{
					FrameID: 1<<40 | inSeq, // disjoint from NextFrameID space
					From:    0,
					Pkt: Packet{
						// High bits vary by arg while the low counter bits
						// collide (inSeq&3): distinct frames can carry the
						// same packet ID, and different-origin packet IDs
						// collide in their low bits — the cross-shard
						// collision shapes the sharded broker's
						// brokerID<<48|counter layout produces.
						ID:          uint64(arg>>2)<<48 | 1<<32 | (inSeq & 3),
						Topic:       7,
						Source:      0,
						PublishedAt: deps.now,
						Payload:     newPayload(),
					},
					Dests: destPool[arg%len(destPool)],
					Path:  pathPool[arg%len(pathPool)],
				}
				haveIn = true
				eng.HandleData(lastIn)
			case 2: // replay the previous frame: must be inert
				if !haveIn {
					continue
				}
				sends, delivers := deps.sends, deps.delivers
				if !eng.SeenFrame(lastIn.FrameID) {
					t.Fatalf("frame %d processed but not marked seen", lastIn.FrameID)
				}
				eng.HandleData(lastIn)
				if deps.sends != sends || deps.delivers != delivers {
					t.Fatalf("duplicate frame %d re-processed: sends %d→%d delivers %d→%d",
						lastIn.FrameID, sends, deps.sends, delivers, deps.delivers)
				}
			case 3: // ACK an observed frame (possibly already resolved)
				if len(deps.sent) == 0 {
					continue
				}
				eng.HandleAck(deps.sent[arg%len(deps.sent)])
			case 4: // stale / never-sent ACK
				if to, ok := eng.HandleAck(uint64(arg) | 1<<50); ok {
					t.Fatalf("bogus ACK resolved to neighbor %d", to)
				}
			case 5: // fire an armed timer
				if len(deps.timers) == 0 {
					continue
				}
				deps.fireTimer(arg % len(deps.timers))
			case 6: // advance the clock
				deps.now += time.Duration(arg+1) * 3 * time.Millisecond
			case 7: // flap a link
				deps.down[arg%6] = !deps.down[arg%6]
			}
		}

		checkBack := func() {
			t.Helper()
			if cfg.NoReroute && deps.backSends != 0 {
				t.Fatalf("NoReroute sent %d frame(s) back up their path", deps.backSends)
			}
		}
		if data[0]&8 != 0 {
			checkBack()
			eng.Shutdown()
			checkLive("after Shutdown with traffic in flight")
			return
		}

		// Drain: push every copy past its lifetime and fire all timers
		// (firing spawns retransmit/reprocess timers, so loop) until the
		// engine has no in-flight state left.
		deps.now += 2 * cfg.MaxLifetime
		for range [10000]struct{}{} {
			idle := true
			for i := 0; i < len(deps.timers); i++ {
				tm := deps.timers[i]
				if !tm.stopped && !tm.fired {
					idle = false
					deps.fireTimer(i)
				}
			}
			if idle {
				break
			}
		}
		for _, tm := range deps.timers {
			if !tm.stopped && !tm.fired {
				t.Fatal("timers still armed after drain cap — livelock or leak")
			}
		}
		if n := eng.InflightCount(); n != 0 {
			t.Fatalf("inflight leak after drain: %d groups", n)
		}
		checkBack()
		checkLive("after drain")
		eng.Shutdown()
		checkLive("after drain and Shutdown")
	})
}
