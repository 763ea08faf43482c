// Command dcrd-sub subscribes to topics on a live DCRD broker and prints
// every delivery with its end-to-end latency and deadline verdict.
//
// With -topic, one plain client subscribes: a session whose one subscriber
// ID receives every delivery of that topic.
//
//	dcrd-sub -broker localhost:7002 -topic 5 -deadline 200ms
//
// With -topics, the topics are spread over -sessions multiplexed sessions,
// one subscriber ID per topic, and the broker aggregates deliveries per
// (topic, session):
//
//	dcrd-sub -broker localhost:7002 -topics 1,2,3 -sessions 2
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/broker"
	"repro/internal/wire"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dcrd-sub: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fs := flag.NewFlagSet("dcrd-sub", flag.ContinueOnError)
	var (
		addr     = fs.String("broker", "localhost:7000", "broker address")
		topic    = fs.Int("topic", 0, "topic to subscribe to (one plain client, a one-ID session)")
		topics   = fs.String("topics", "", "comma-separated topics (multiplexed session mode)")
		sessions = fs.Int("sessions", 1, "mux sessions to spread -topics over")
		deadline = fs.Duration("deadline", 0, "QoS delay requirement (0 = broker default)")
		name     = fs.String("name", "dcrd-sub", "client name")
	)
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}
	if *topics != "" {
		list, err := parseTopics(*topics)
		if err != nil {
			return err
		}
		return runMux(*addr, *name, list, *sessions, *deadline)
	}
	return runSingle(*addr, *name, int32(*topic), *deadline)
}

// parseTopics splits a comma-separated topic list ("1,2,3", blanks
// tolerated) into topic IDs.
func parseTopics(s string) ([]int32, error) {
	var out []int32
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseInt(part, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad topic %q in -topics: %v", part, err)
		}
		out = append(out, int32(v))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-topics %q holds no topics", s)
	}
	return out, nil
}

// runSingle subscribes one plain client (a session with subscriber ID 0) to
// one topic and prints each delivery.
func runSingle(addr, name string, topic int32, deadline time.Duration) error {
	c, err := broker.Dial(addr, name)
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.Subscribe(topic, deadline); err != nil {
		return err
	}
	log.Printf("subscribed to topic %d at %s (deadline %v)", topic, addr, deadline)

	for d := range c.Receive() {
		printDelivery(d.Topic, d.PacketID, d.Source, d.Payload, d.Latency, 1, deadline)
	}
	if err := c.Err(); err != nil {
		return fmt.Errorf("connection lost: %w", err)
	}
	return nil
}

// runMux spreads the topics over n multiplexed sessions (topic i lands in
// session i%n with subscriber ID i) and prints aggregated deliveries.
func runMux(addr, name string, topics []int32, n int, deadline time.Duration) error {
	if n < 1 {
		n = 1
	}
	if n > len(topics) {
		n = len(topics)
	}
	var printMu sync.Mutex
	handler := func(m *wire.MuxDeliver) {
		printMu.Lock()
		defer printMu.Unlock()
		printDelivery(m.Topic, m.PacketID, m.Source, m.Payload,
			time.Since(m.PublishedAt), len(m.SubIDs), deadline)
	}
	ss := make([]*broker.Session, n)
	for i := range ss {
		s, err := broker.DialSession(addr, fmt.Sprintf("%s-%d", name, i), uint32(len(topics)/n+1), handler)
		if err != nil {
			return err
		}
		defer s.Close()
		ss[i] = s
	}
	for i, topic := range topics {
		s := ss[i%n]
		if err := s.Subscribe(uint32(i), topic, deadline); err != nil {
			return err
		}
	}
	for _, s := range ss {
		if err := s.Flush(); err != nil {
			return err
		}
	}
	log.Printf("subscribed to %d topics over %d sessions at %s (deadline %v)", len(topics), n, addr, deadline)

	for _, s := range ss {
		<-s.Done()
	}
	for _, s := range ss {
		if err := s.Err(); err != nil {
			return fmt.Errorf("connection lost: %w", err)
		}
	}
	return nil
}

func printDelivery(topic int32, pkt uint64, source int32, payload []byte, latency time.Duration, fanout int, deadline time.Duration) {
	verdict := "on time"
	if deadline > 0 && latency > deadline {
		verdict = fmt.Sprintf("LATE by %v", (latency - deadline).Round(time.Millisecond))
	}
	suffix := ""
	if fanout > 1 {
		suffix = fmt.Sprintf(" x%d subscribers", fanout)
	}
	fmt.Printf("topic %d pkt %d from broker %d: %q (latency %v, %s)%s\n",
		topic, pkt, source, payload, latency.Round(time.Microsecond), verdict, suffix)
}
