// Middleware: DCRD over real TCP sockets, in one process.
//
// This example boots a four-broker diamond overlay on localhost, attaches a
// publisher and a subscriber, streams messages, then kills the broker on the
// primary route mid-stream. The remaining brokers' sending lists already
// contain the alternate route, so delivery continues — the live counterpart
// of the simulated failover example.
//
// Usage:
//
//	go run ./examples/middleware
package main

import (
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"repro/internal/broker"
)

const (
	topic     = int32(5)
	deadline  = 500 * time.Millisecond
	messages  = 20
	publishAt = 100 * time.Millisecond
	killAfter = 8 // kill relay broker 1 after this many messages
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("middleware: ")
	if err := run(); err != nil {
		log.Println(err)
		os.Exit(1)
	}
}

func run() error {
	// Diamond: 0-1-3 (primary) and 0-2-3 (backup).
	links := [][2]int{{0, 1}, {1, 3}, {0, 2}, {2, 3}}
	const n = 4

	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
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

	brokers := make([]*broker.Broker, n)
	for i := 0; i < n; i++ {
		b, err := broker.New(broker.Config{
			ID:              i,
			Listen:          addrs[i],
			Neighbors:       neighbors[i],
			DialRetry:       50 * time.Millisecond,
			AckGuard:        30 * time.Millisecond,
			DefaultDeadline: deadline,
		})
		if err != nil {
			return err
		}
		if err := b.StartListener(listeners[i]); err != nil {
			return err
		}
		brokers[i] = b
		defer b.Close()
	}
	fmt.Println("booted diamond overlay: 0-1-3 (primary), 0-2-3 (backup)")

	sub, err := broker.Dial(addrs[3], "console")
	if err != nil {
		return err
	}
	defer sub.Close()
	if err := sub.Subscribe(topic, deadline); err != nil {
		return err
	}

	pub, err := broker.Dial(addrs[0], "feed")
	if err != nil {
		return err
	}
	defer pub.Close()

	// Let the link-state control plane converge before publishing.
	time.Sleep(500 * time.Millisecond)

	received := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for d := range sub.Receive() {
			received++
			status := "on time"
			if d.Latency > deadline {
				status = "LATE"
			}
			fmt.Printf("  recv %-8q latency %8v  %s\n",
				d.Payload, d.Latency.Round(100*time.Microsecond), status)
			if received >= messages {
				return
			}
		}
	}()

	for i := 1; i <= messages; i++ {
		if i == killAfter+1 {
			fmt.Println("  *** killing relay broker 1 (primary route) ***")
			if err := brokers[1].Close(); err != nil {
				return err
			}
		}
		if err := pub.Publish(topic, deadline, []byte(fmt.Sprintf("pos-%02d", i))); err != nil {
			return err
		}
		time.Sleep(publishAt)
	}

	select {
	case <-done:
	case <-time.After(5 * time.Second):
	}
	fmt.Printf("\ndelivered %d/%d messages across the broker failure\n", received, messages)
	if received < messages {
		fmt.Println("(a couple of in-flight messages can be lost in the instant the broker dies;")
		fmt.Println(" DCRD reroutes every subsequent message via 0-2-3)")
	}
	return nil
}
