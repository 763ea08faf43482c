package main

import (
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/wire"
)

func TestMonAgainstLiveBroker(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := broker.New(broker.Config{ID: 3, Listen: ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.StartListener(ln); err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	var sb strings.Builder
	if err := run([]string{"-broker", ln.Addr().String(), "-timeout", "3s"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "broker 3: published 0") {
		t.Errorf("mon output = %q", sb.String())
	}
}

func TestMonUnreachableBroker(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-broker", "127.0.0.1:1"}, &sb); err == nil {
		t.Error("unreachable broker accepted")
	}
}

func TestPrintStatsFull(t *testing.T) {
	var sb strings.Builder
	printStats(&sb, &wire.StatsReply{
		BrokerID: 1, Published: 2, Delivered: 3, Forwarded: 4, Dropped: 5,
		QueueDrops: 6, Redials: 7, Reconnects: 8,
		AckBatches: 11, AckFramesCoalesced: 640,
		Shards: []wire.ShardStat{
			{Depth: 0, Enqueued: 100, Processed: 100, Inflight: 0},
			{Depth: 3, Enqueued: 250, Processed: 247, Inflight: 9},
		},
		Neighbors: []wire.NeighborStat{
			{ID: 2, Connected: true, Alpha: 15 * time.Millisecond, Gamma: 0.98},
			{ID: 4, Connected: false, Alpha: 20 * time.Millisecond, Gamma: 0.5},
		},
		Routes: []wire.RouteStat{
			{Topic: 7, Sub: 2, D: 30 * time.Millisecond, R: 0.97, ListLen: 2},
		},
		Ctrl: wire.CtrlStat{
			Epoch: 41, Version: 19, Rebuilds: 7, Noops: 30,
			TablesBuilt: 21, LinkStatesSent: 88, LinkStatesRecv: 90,
			StaleDrops: 2, ProbesSent: 14, ProbeReplies: 13,
		},
		Links: []wire.LinkStat{
			{From: 1, To: 2, Alpha: 11 * time.Millisecond, Gamma: 0.97, Epoch: 40},
		},
	})
	out := sb.String()
	for _, want := range []string{
		"broker 1: published 2, delivered 3, forwarded 4, dropped 5",
		"queue drops 6, redials 7, reconnects 8",
		"relay aggregation: 11 ack batches (640 acks coalesced)",
		"shards:", "enqueued 250", "processed 247", "inflight 9",
		"up", "DOWN", "gamma 0.980",
		"topic 7", "list 2",
		"ctrl: epoch 41, db version 19, rebuilds 7 (noops 30, tables built 21)",
		"link-state sent 88 recv 90 (stale 2), probes sent 14 replied 13",
		"links (gossiped estimates, directed):",
		"1 -> 2   alpha 11ms", "epoch 40",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
