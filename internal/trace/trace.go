// Package trace records per-packet routing timelines from the DCRD router:
// every send, ACK, timeout, failover, upstream reroute, delivery and drop,
// timestamped in virtual time. A trace answers "what exactly happened to
// packet 17?" — which links it tried, where it bounced, and why it was late
// — straight from a simulation run (`dcrdsim -trace N`).
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Kind labels one routing event.
type Kind int

// Routing event kinds.
const (
	// Publish marks the packet entering the overlay at its source broker.
	Publish Kind = iota + 1
	// Send is one transmission attempt of a destination group.
	Send
	// Handoff is a received hop-by-hop ACK: the neighbor took
	// responsibility and the sender forgot the copy.
	Handoff
	// Timeout is an ACK timer expiring.
	Timeout
	// Failover marks a neighbor being abandoned after m transmissions.
	Failover
	// Reroute marks the copy being bounced to the upstream broker.
	Reroute
	// Deliver is a subscriber delivery.
	Deliver
	// Drop is a destination being given up on.
	Drop
	// Hold marks the persistency mode parking the packet at the origin.
	Hold
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Publish:
		return "PUBLISH"
	case Send:
		return "SEND"
	case Handoff:
		return "HANDOFF"
	case Timeout:
		return "TIMEOUT"
	case Failover:
		return "FAILOVER"
	case Reroute:
		return "REROUTE"
	case Deliver:
		return "DELIVER"
	case Drop:
		return "DROP"
	case Hold:
		return "HOLD"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one timestamped routing event.
type Event struct {
	At     time.Duration
	Kind   Kind
	Packet uint64
	// Node is where the event happened.
	Node int
	// Peer is the other party (next hop, ACK sender, upstream); -1 when
	// not applicable.
	Peer int
	// Dests are the destination broker nodes the event covers.
	Dests []int
	// Note carries free-form detail ("attempt 2/2", "list exhausted").
	Note string
}

// Recorder consumes events. A nil Recorder everywhere means tracing is off.
type Recorder interface {
	Record(Event)
}

// Buffer is an in-memory Recorder. It is not safe for concurrent use; the
// discrete-event simulator is single-threaded.
type Buffer struct {
	events []Event
	// Limit bounds stored events (0 = unbounded); once reached, further
	// events are dropped.
	Limit int
}

var _ Recorder = (*Buffer)(nil)

// Record stores one event.
func (b *Buffer) Record(e Event) {
	if b.Limit > 0 && len(b.events) >= b.Limit {
		return
	}
	// Copy the dest slice: callers reuse their buffers.
	if len(e.Dests) > 0 {
		e.Dests = append([]int(nil), e.Dests...)
	}
	b.events = append(b.events, e)
}

// Events returns all stored events in record order.
func (b *Buffer) Events() []Event { return b.events }

// Packets lists the distinct packet IDs present, ascending.
func (b *Buffer) Packets() []uint64 {
	seen := make(map[uint64]bool)
	var ids []uint64
	for _, e := range b.events {
		if !seen[e.Packet] {
			seen[e.Packet] = true
			ids = append(ids, e.Packet)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// ForPacket returns one packet's events in time order.
func (b *Buffer) ForPacket(id uint64) []Event {
	var out []Event
	for _, e := range b.events {
		if e.Packet == id {
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// WriteTimeline renders one packet's journey as an indented timeline.
func (b *Buffer) WriteTimeline(w io.Writer, id uint64) error {
	events := b.ForPacket(id)
	if len(events) == 0 {
		_, err := fmt.Fprintf(w, "packet %d: no trace\n", id)
		return err
	}
	start := events[0].At
	if _, err := fmt.Fprintf(w, "packet %d:\n", id); err != nil {
		return err
	}
	for _, e := range events {
		var sb strings.Builder
		fmt.Fprintf(&sb, "  +%-10v %-8s node %-3d", e.At-start, e.Kind, e.Node)
		if e.Peer >= 0 {
			fmt.Fprintf(&sb, " -> %-3d", e.Peer)
		} else {
			sb.WriteString("       ")
		}
		if len(e.Dests) > 0 {
			fmt.Fprintf(&sb, " dests %v", e.Dests)
		}
		if e.Note != "" {
			fmt.Fprintf(&sb, "  (%s)", e.Note)
		}
		if _, err := fmt.Fprintln(w, sb.String()); err != nil {
			return err
		}
	}
	return nil
}

// Summary tallies event kinds per packet — a quick health report.
type Summary struct {
	Packets   int
	ByKind    map[Kind]int
	Failovers int
	Reroutes  int
}

// Summarize aggregates the buffer.
func (b *Buffer) Summarize() Summary {
	s := Summary{ByKind: make(map[Kind]int)}
	s.Packets = len(b.Packets())
	for _, e := range b.events {
		s.ByKind[e.Kind]++
	}
	s.Failovers = s.ByKind[Failover]
	s.Reroutes = s.ByKind[Reroute]
	return s
}
