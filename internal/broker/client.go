package broker

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/wire"
)

// Client is a publisher/subscriber endpoint connected to one live broker: a
// Session whose one logical subscriber has ID 0, with every call flushed
// before it returns. A client that never subscribes never becomes a session
// at the broker, so publishers and monitors stay out of Stats.Sessions. It is
// safe for concurrent use.
type Client struct {
	s     *Session
	inbox chan Delivery

	// pub is Publish's message, reused so a publish allocates nothing.
	pubMu sync.Mutex
	pub   wire.Publish

	mu        sync.Mutex
	nextToken uint64
	statsWait map[uint64]chan *wire.StatsReply
}

// Delivery is one message received on a subscribed topic.
type Delivery struct {
	Topic       int32
	PacketID    uint64
	Source      int32
	PublishedAt time.Time
	Latency     time.Duration // receive time minus publish time
	Payload     []byte
}

// Dial connects a named client to a broker.
func Dial(addr, name string) (*Client, error) {
	s, err := openSession(addr, name, nil)
	if err != nil {
		return nil, err
	}
	c := &Client{
		s:         s,
		inbox:     make(chan Delivery, 1024),
		statsWait: make(map[uint64]chan *wire.StatsReply),
	}
	go s.readLoop(c.handle, func() { close(c.inbox) })
	return c, nil
}

// handle runs on the read loop: a MuxDeliver becomes a Delivery with its own
// copy of the payload (the one object a delivery costs the client), and a
// StatsReply is copied out to the Stats call awaiting its token.
func (c *Client) handle(msg wire.Message) {
	switch m := msg.(type) {
	case *wire.MuxDeliver:
		d := Delivery{
			Topic:       m.Topic,
			PacketID:    m.PacketID,
			Source:      m.Source,
			PublishedAt: m.PublishedAt,
			Latency:     time.Since(m.PublishedAt),
			Payload:     bytes.Clone(m.Payload),
		}
		select {
		case c.inbox <- d:
		default: // slow consumer: drop rather than block the link
		}
	case *wire.StatsReply:
		c.mu.Lock()
		ch := c.statsWait[m.Token]
		delete(c.statsWait, m.Token)
		c.mu.Unlock()
		if ch != nil {
			r := *m
			r.Neighbors = slices.Clone(m.Neighbors)
			r.Routes = slices.Clone(m.Routes)
			r.Shards = slices.Clone(m.Shards)
			r.Links = slices.Clone(m.Links)
			ch <- &r
		}
	}
}

// Stats asks the broker for its operational state, waiting up to timeout.
func (c *Client) Stats(timeout time.Duration) (*wire.StatsReply, error) {
	c.mu.Lock()
	c.nextToken++
	token := c.nextToken
	ch := make(chan *wire.StatsReply, 1)
	c.statsWait[token] = ch
	c.mu.Unlock()
	cleanup := func() {
		c.mu.Lock()
		delete(c.statsWait, token)
		c.mu.Unlock()
	}
	if err := c.s.send(&wire.StatsRequest{Token: token}); err != nil {
		cleanup()
		return nil, err
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case reply := <-ch:
		return reply, nil
	case <-c.s.Done():
		cleanup()
		return nil, fmt.Errorf("broker client %q: connection closed awaiting stats", c.s.name)
	case <-t.C:
		cleanup()
		return nil, fmt.Errorf("broker client %q: stats timeout after %v", c.s.name, timeout)
	}
}

// Subscribe registers this client for a topic with a QoS delay requirement
// (0 uses the broker's default).
func (c *Client) Subscribe(topic int32, deadline time.Duration) error {
	return c.s.send(&wire.SessionSub{Topic: topic, Deadline: deadline})
}

// Unsubscribe removes this client's subscription to a topic.
func (c *Client) Unsubscribe(topic int32) error {
	return c.s.send(&wire.SessionUnsub{Topic: topic})
}

// Publish submits a message on a topic with a QoS delay requirement
// (0 uses the broker's default).
func (c *Client) Publish(topic int32, deadline time.Duration, payload []byte) error {
	c.pubMu.Lock()
	defer c.pubMu.Unlock()
	c.pub = wire.Publish{Topic: topic, Deadline: deadline, Payload: payload}
	err := c.s.send(&c.pub)
	c.pub.Payload = nil
	return err
}

// Receive returns the channel of deliveries; it closes when the connection
// ends.
func (c *Client) Receive() <-chan Delivery { return c.inbox }

// Err reports the read-loop error after Receive closes (nil on clean Close).
func (c *Client) Err() error { return c.s.Err() }

// Close disconnects the client.
func (c *Client) Close() error { return c.s.Close() }
