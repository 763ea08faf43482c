package trace

import (
	"strings"
	"testing"
	"time"
)

func sampleEvents() []Event {
	return []Event{
		{At: 0, Kind: Publish, Packet: 7, Node: 0, Peer: -1, Dests: []int{2, 3}},
		{At: 1 * time.Millisecond, Kind: Send, Packet: 7, Node: 0, Peer: 1, Dests: []int{2, 3}, Note: "attempt 1"},
		{At: 12 * time.Millisecond, Kind: Timeout, Packet: 7, Node: 0, Peer: 1, Dests: []int{2, 3}},
		{At: 12 * time.Millisecond, Kind: Failover, Packet: 7, Node: 0, Peer: 1, Dests: []int{2, 3}},
		{At: 13 * time.Millisecond, Kind: Send, Packet: 7, Node: 0, Peer: 4, Dests: []int{2, 3}},
		{At: 25 * time.Millisecond, Kind: Handoff, Packet: 7, Node: 0, Peer: 4, Dests: []int{2, 3}},
		{At: 40 * time.Millisecond, Kind: Deliver, Packet: 7, Node: 2, Peer: 4},
		{At: 5 * time.Millisecond, Kind: Publish, Packet: 8, Node: 1, Peer: -1},
		{At: 6 * time.Millisecond, Kind: Drop, Packet: 8, Node: 1, Peer: -1, Note: "origin exhausted sending list"},
	}
}

func filledBuffer() *Buffer {
	b := &Buffer{}
	for _, e := range sampleEvents() {
		b.Record(e)
	}
	return b
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		Publish: "PUBLISH", Send: "SEND", Handoff: "HANDOFF",
		Timeout: "TIMEOUT", Failover: "FAILOVER", Reroute: "REROUTE",
		Deliver: "DELIVER", Drop: "DROP", Hold: "HOLD",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Errorf("unknown kind = %q", Kind(99).String())
	}
}

func TestPacketsAndForPacket(t *testing.T) {
	b := filledBuffer()
	ids := b.Packets()
	if len(ids) != 2 || ids[0] != 7 || ids[1] != 8 {
		t.Fatalf("Packets = %v", ids)
	}
	events := b.ForPacket(7)
	if len(events) != 7 {
		t.Fatalf("packet 7 has %d events", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			t.Error("ForPacket not time ordered")
		}
	}
	if got := b.ForPacket(99); got != nil {
		t.Errorf("unknown packet events = %v", got)
	}
}

func TestRecordCopiesDests(t *testing.T) {
	b := &Buffer{}
	dests := []int{1, 2}
	b.Record(Event{Packet: 1, Dests: dests})
	dests[0] = 99
	if b.Events()[0].Dests[0] != 1 {
		t.Error("Record aliased the caller's dest slice")
	}
}

func TestBufferLimit(t *testing.T) {
	b := &Buffer{Limit: 3}
	for i := 0; i < 10; i++ {
		b.Record(Event{Packet: uint64(i)})
	}
	if len(b.Events()) != 3 {
		t.Errorf("stored %d events, want 3", len(b.Events()))
	}
}

func TestWriteTimeline(t *testing.T) {
	b := filledBuffer()
	var sb strings.Builder
	if err := b.WriteTimeline(&sb, 7); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"packet 7:", "PUBLISH", "SEND", "FAILOVER", "HANDOFF", "DELIVER",
		"(attempt 1)", "-> 1", "dests [2 3]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
	// Timestamps are relative to the packet's first event.
	if !strings.Contains(out, "+0s") {
		t.Errorf("timeline missing relative origin:\n%s", out)
	}
}

func TestWriteTimelineUnknownPacket(t *testing.T) {
	b := filledBuffer()
	var sb strings.Builder
	if err := b.WriteTimeline(&sb, 42); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "no trace") {
		t.Errorf("unknown packet output = %q", sb.String())
	}
}

func TestSummarize(t *testing.T) {
	b := filledBuffer()
	s := b.Summarize()
	if s.Packets != 2 {
		t.Errorf("Packets = %d", s.Packets)
	}
	if s.Failovers != 1 || s.Reroutes != 0 {
		t.Errorf("Failovers = %d, Reroutes = %d", s.Failovers, s.Reroutes)
	}
	if s.ByKind[Send] != 2 || s.ByKind[Drop] != 1 {
		t.Errorf("ByKind = %v", s.ByKind)
	}
}
