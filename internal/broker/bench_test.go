package broker

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// Benchmark shape: each iteration pushes a batch of messages through a live
// broker overlay on localhost and waits for every delivery, so ns/op is the
// cost of one sustained batch and the msgs/sec metric is end-to-end
// throughput (publisher client -> broker 0 -> broker 1 -> subscriber client
// for the forwarding benchmarks, one broker fanning out to K subscriber
// clients for the fan-out benchmark).
const (
	// forwardBatch is the number of messages per benchmark iteration.
	forwardBatch = 1000
	// forwardWindow bounds publisher-side outstanding messages, keeping the
	// subscriber inbox (cap 1024) from overflowing and dropping deliveries.
	forwardWindow = 512
	// fanoutBatch is messages per iteration for the fan-out benchmark; each
	// is delivered to every subscriber (fanoutBatch <= client inbox cap).
	fanoutBatch = 500
	// benchPayload is the payload size of every benchmark message.
	benchPayload = 256
)

// benchConfig is the broker tuning used by every live-broker benchmark:
// generous ACK guard and deadlines so the numbers measure the data plane,
// not retransmission noise.
func benchConfig(id int, addr string, neighbors map[int]string) Config {
	return Config{
		ID:              id,
		Listen:          addr,
		Neighbors:       neighbors,
		M:               2,
		AckGuard:        500 * time.Millisecond,
		DialRetry:       50 * time.Millisecond,
		DefaultDeadline: 10 * time.Second,
	}
}

// benchOverlay boots n brokers with the given undirected adjacency over
// localhost TCP, mirroring newOverlay but with benchmark tuning.
func benchOverlay(b *testing.B, n int, links [][2]int) *overlay {
	b.Helper()
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	neighbors := make([]map[int]string, n)
	for i := range neighbors {
		neighbors[i] = make(map[int]string)
	}
	for _, l := range links {
		neighbors[l[0]][l[1]] = addrs[l[1]]
		neighbors[l[1]][l[0]] = addrs[l[0]]
	}
	o := &overlay{addrs: addrs}
	for i := 0; i < n; i++ {
		bk, err := New(benchConfig(i, addrs[i], neighbors[i]))
		if err != nil {
			b.Fatal(err)
		}
		if err := bk.StartListener(listeners[i]); err != nil {
			b.Fatal(err)
		}
		o.brokers = append(o.brokers, bk)
	}
	b.Cleanup(func() {
		for _, bk := range o.brokers {
			_ = bk.Close()
		}
	})
	return o
}

// benchPipeOverlay boots two brokers whose overlay link is a synchronous
// in-memory net.Pipe instead of TCP, isolating the data-plane software cost
// (codec, queues, dispatch) from kernel socket buffering. Clients still
// connect over localhost TCP.
func benchPipeOverlay(b *testing.B) *overlay { return pipeChain(b, 2) }

// pipeChain boots the line overlay 0 — 1 — … — n-1 with every overlay link a
// net.Pipe (see benchPipeOverlay) and benchmark tuning on every broker.
func pipeChain(tb testing.TB, n int) *overlay {
	tb.Helper()
	listeners := make([]net.Listener, n)
	o := &overlay{addrs: make([]string, n)}
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		listeners[i] = ln
		o.addrs[i] = ln.Addr().String()
	}
	for i := 0; i < n; i++ {
		neighbors := make(map[int]string)
		if i > 0 {
			neighbors[i-1] = o.addrs[i-1]
		}
		if i < n-1 {
			neighbors[i+1] = o.addrs[i+1]
		}
		bk, err := New(benchConfig(i, o.addrs[i], neighbors))
		if err != nil {
			tb.Fatal(err)
		}
		o.brokers = append(o.brokers, bk)
	}
	tb.Cleanup(func() {
		for _, bk := range o.brokers {
			_ = bk.Close()
		}
	})
	// Attach the pipe ends before starting, so the lower broker's dial loop
	// sees the link already connected and never dials the TCP address.
	for i := 0; i+1 < n; i++ {
		lo, hi := o.brokers[i], o.brokers[i+1]
		pLo, pHi := net.Pipe()
		ncLo, ncHi := lo.neighbor(i+1), hi.neighbor(i)
		ncLo.attach(lo, pLo)
		ncHi.attach(hi, pHi)
		lo.goTracked(func() { lo.readNeighbor(ncLo, pLo, newConnReader(pLo)) })
		hi.goTracked(func() { hi.readNeighbor(ncHi, pHi, newConnReader(pHi)) })
	}
	for i, bk := range o.brokers {
		if err := bk.StartListener(listeners[i]); err != nil {
			tb.Fatal(err)
		}
	}
	return o
}

// benchWaitRoute blocks until broker has a sending list for (topic, sub).
func benchWaitRoute(b *testing.B, bk *Broker, topic, sub int32) {
	b.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		ok := len(ctrlList(bk, topic, sub)) > 0
		if ok {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	b.Fatalf("timed out waiting for route (%d, %d)", topic, sub)
}

// runForward drives the broker-to-broker forwarding benchmark over an
// already-built 0—1 overlay: windowed pipelined publishes on broker 0, and
// every delivery awaited on broker 1's subscriber.
func runForward(b *testing.B, o *overlay) {
	b.Helper()
	sub, err := Dial(o.addrs[1], "bench-sub")
	if err != nil {
		b.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Subscribe(1, 10*time.Second); err != nil {
		b.Fatal(err)
	}
	benchWaitRoute(b, o.brokers[0], 1, 1)
	pub, err := Dial(o.addrs[0], "bench-pub")
	if err != nil {
		b.Fatal(err)
	}
	defer pub.Close()
	payload := make([]byte, benchPayload)

	// One warm-up message end to end before the clock starts.
	if err := pub.Publish(1, 10*time.Second, payload); err != nil {
		b.Fatal(err)
	}
	select {
	case <-sub.Receive():
	case <-time.After(10 * time.Second):
		b.Fatal("warm-up delivery never arrived")
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sent, received := 0, 0
		stall := time.NewTimer(30 * time.Second)
		for received < forwardBatch {
			for sent-received < forwardWindow && sent < forwardBatch {
				if err := pub.Publish(1, 10*time.Second, payload); err != nil {
					b.Fatal(err)
				}
				sent++
			}
			select {
			case _, ok := <-sub.Receive():
				if !ok {
					b.Fatalf("subscriber closed: %v", sub.Err())
				}
				received++
			case <-stall.C:
				b.Fatalf("stalled at %d/%d deliveries", received, forwardBatch)
			}
		}
		stall.Stop()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*forwardBatch/b.Elapsed().Seconds(), "msgs/sec")
}

// BenchmarkBrokerForwardTCP measures sustained broker-to-broker forwarding
// throughput over TCP loopback: the headline data-plane number.
func BenchmarkBrokerForwardTCP(b *testing.B) {
	runForward(b, benchOverlay(b, 2, [][2]int{{0, 1}}))
}

// BenchmarkBrokerForwardPipe is BenchmarkBrokerForwardTCP with the overlay
// link replaced by a synchronous in-memory pipe: no kernel socket buffers,
// so codec and queueing costs dominate.
func BenchmarkBrokerForwardPipe(b *testing.B) {
	runForward(b, benchPipeOverlay(b))
}

// BenchmarkBrokerForwardDurable is BenchmarkBrokerForwardTCP with the
// crash-durable custody WAL enabled on both brokers: every relayed frame is
// group-committed to disk before its hop-by-hop ACK, so the delta against
// BenchmarkBrokerForwardTCP is the price of the ACK-after-durable invariant
// (DESIGN.md §16).
func BenchmarkBrokerForwardDurable(b *testing.B) {
	root := b.TempDir()
	o := benchDurableOverlay(b, root, 2, [][2]int{{0, 1}})
	runForward(b, o)
}

// benchDurableOverlay is benchOverlay with a per-broker WAL data directory
// under root, enabling persistency on every node.
func benchDurableOverlay(b *testing.B, root string, n int, links [][2]int) *overlay {
	b.Helper()
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	neighbors := make([]map[int]string, n)
	for i := range neighbors {
		neighbors[i] = make(map[int]string)
	}
	for _, l := range links {
		neighbors[l[0]][l[1]] = addrs[l[1]]
		neighbors[l[1]][l[0]] = addrs[l[0]]
	}
	dirs := durableDirs(root, n)
	o := &overlay{addrs: addrs}
	for i := 0; i < n; i++ {
		cfg := benchConfig(i, addrs[i], neighbors[i])
		cfg.DataDir = dirs[i]
		bk, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := bk.StartListener(listeners[i]); err != nil {
			b.Fatal(err)
		}
		o.brokers = append(o.brokers, bk)
	}
	b.Cleanup(func() {
		for _, bk := range o.brokers {
			_ = bk.Close()
		}
	})
	return o
}

// BenchmarkBrokerFanout measures one broker delivering every published
// message to K local subscriber clients.
func BenchmarkBrokerFanout(b *testing.B) {
	for _, k := range []int{8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			o := benchOverlay(b, 1, nil)
			bk := o.brokers[0]
			subs := make([]*Client, k)
			for i := range subs {
				c, err := Dial(o.addrs[0], fmt.Sprintf("bench-sub-%d", i))
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				if err := c.Subscribe(2, 10*time.Second); err != nil {
					b.Fatal(err)
				}
				subs[i] = c
			}
			deadline := time.Now().Add(10 * time.Second)
			for {
				n := bk.localLedger(2).subscribers()
				if n == k {
					break
				}
				if time.Now().After(deadline) {
					b.Fatalf("only %d/%d subscriptions registered", n, k)
				}
				time.Sleep(10 * time.Millisecond)
			}
			pub, err := Dial(o.addrs[0], "bench-pub")
			if err != nil {
				b.Fatal(err)
			}
			defer pub.Close()
			payload := make([]byte, benchPayload)

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for m := 0; m < fanoutBatch; m++ {
					if err := pub.Publish(2, 10*time.Second, payload); err != nil {
						b.Fatal(err)
					}
				}
				stall := time.NewTimer(30 * time.Second)
				for _, c := range subs {
					for got := 0; got < fanoutBatch; {
						select {
						case _, ok := <-c.Receive():
							if !ok {
								b.Fatalf("subscriber closed: %v", c.Err())
							}
							got++
						case <-stall.C:
							b.Fatalf("stalled at %d/%d deliveries", got, fanoutBatch)
						}
					}
				}
				stall.Stop()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)*fanoutBatch*float64(k)/b.Elapsed().Seconds(), "deliveries/sec")
		})
	}
}

// BenchmarkBrokerSharded is the scaling curve for the sharded data plane:
// one broker with n engine shards fanning out to 8 subscriber clients while
// 4 publisher clients publish concurrently. The cpus=n sub-runs set
// GOMAXPROCS themselves (instead of -cpu) so the result names are stable
// for benchjson baselining — go's -cpu suffix would be stripped when
// merging runs.
func BenchmarkBrokerSharded(b *testing.B) {
	const (
		k          = 8
		publishers = 4
		perPub     = fanoutBatch / publishers
	)
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("cpus=%d", n), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(n)
			defer runtime.GOMAXPROCS(prev)

			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			cfg := benchConfig(0, ln.Addr().String(), nil)
			cfg.Shards = n
			bk, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := bk.StartListener(ln); err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { _ = bk.Close() })

			subs := make([]*Client, k)
			for i := range subs {
				c, err := Dial(ln.Addr().String(), fmt.Sprintf("bench-sub-%d", i))
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				if err := c.Subscribe(2, 10*time.Second); err != nil {
					b.Fatal(err)
				}
				subs[i] = c
			}
			deadline := time.Now().Add(10 * time.Second)
			for bk.localLedger(2).subscribers() != k {
				if time.Now().After(deadline) {
					b.Fatalf("only %d/%d subscriptions registered", bk.localLedger(2).subscribers(), k)
				}
				time.Sleep(10 * time.Millisecond)
			}
			pubs := make([]*Client, publishers)
			for i := range pubs {
				c, err := Dial(ln.Addr().String(), fmt.Sprintf("bench-pub-%d", i))
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				pubs[i] = c
			}
			payload := make([]byte, benchPayload)

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				errs := make(chan error, publishers)
				var wg sync.WaitGroup
				for _, c := range pubs {
					c := c
					wg.Add(1)
					go func() {
						defer wg.Done()
						for m := 0; m < perPub; m++ {
							if err := c.Publish(2, 10*time.Second, payload); err != nil {
								errs <- err
								return
							}
						}
					}()
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					b.Fatal(err)
				}
				stall := time.NewTimer(30 * time.Second)
				for _, c := range subs {
					for got := 0; got < publishers*perPub; {
						select {
						case _, ok := <-c.Receive():
							if !ok {
								b.Fatalf("subscriber closed: %v", c.Err())
							}
							got++
						case <-stall.C:
							b.Fatalf("stalled at %d/%d deliveries", got, publishers*perPub)
						}
					}
				}
				stall.Stop()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)*publishers*perPub*k/b.Elapsed().Seconds(), "deliveries/sec")
		})
	}
}
