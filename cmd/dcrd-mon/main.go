// Command dcrd-mon inspects a live DCRD broker: counters, per-neighbor
// link estimates (alpha from probe echoes and ACK round trips, gamma from ACK
// outcomes) and the
// broker's current <d, r> routing table — the live view of Algorithm 1.
//
//	dcrd-mon -broker localhost:7000
//	dcrd-mon -broker localhost:7000 -watch 2s
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/broker"
	"repro/internal/wire"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dcrd-mon: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dcrd-mon", flag.ContinueOnError)
	var (
		addr    = fs.String("broker", "localhost:7000", "broker address")
		watch   = fs.Duration("watch", 0, "refresh continuously at this interval (0 = once)")
		timeout = fs.Duration("timeout", 3*time.Second, "per-request timeout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	c, err := broker.Dial(*addr, "dcrd-mon")
	if err != nil {
		return err
	}
	defer c.Close()

	for {
		reply, err := c.Stats(*timeout)
		if err != nil {
			return err
		}
		printStats(out, reply)
		if *watch <= 0 {
			return nil
		}
		time.Sleep(*watch)
		fmt.Fprintln(out)
	}
}

func printStats(out io.Writer, r *wire.StatsReply) {
	fmt.Fprintf(out, "broker %d: published %d, delivered %d, forwarded %d, dropped %d\n",
		r.BrokerID, r.Published, r.Delivered, r.Forwarded, r.Dropped)
	fmt.Fprintf(out, "  queue drops %d, redials %d, reconnects %d\n",
		r.QueueDrops, r.Redials, r.Reconnects)
	fmt.Fprintf(out, "  edge: %d sessions, %d subscriptions\n",
		r.Sessions, r.Subscriptions)
	fmt.Fprintf(out, "  relay aggregation: %d ack batches (%d acks coalesced)\n",
		r.AckBatches, r.AckFramesCoalesced)
	if r.Wal.Enabled {
		fmt.Fprintf(out, "  wal: %d appends, %d fsyncs, %d bytes, %d replayed flights, %d checkpoints\n",
			r.Wal.Appends, r.Wal.Fsyncs, r.Wal.Bytes, r.Wal.ReplayedFlights, r.Wal.Checkpoints)
	}
	if len(r.Shards) > 0 {
		fmt.Fprintln(out, "shards:")
		for i, sh := range r.Shards {
			fmt.Fprintf(out, "  %3d  depth %-5d enqueued %-10d processed %-10d inflight %d\n",
				i, sh.Depth, sh.Enqueued, sh.Processed, sh.Inflight)
		}
	}
	if len(r.Neighbors) > 0 {
		fmt.Fprintln(out, "neighbors:")
		for _, n := range r.Neighbors {
			state := "up"
			if !n.Connected {
				state = "DOWN"
			}
			fmt.Fprintf(out, "  %3d  %-4s alpha %-12v gamma %.3f\n",
				n.ID, state, n.Alpha.Round(10*time.Microsecond), n.Gamma)
		}
	}
	fmt.Fprintf(out, "ctrl: epoch %d, db version %d, rebuilds %d (noops %d, tables built %d)\n",
		r.Ctrl.Epoch, r.Ctrl.Version, r.Ctrl.Rebuilds, r.Ctrl.Noops, r.Ctrl.TablesBuilt)
	fmt.Fprintf(out, "  link-state sent %d recv %d (stale %d), probes sent %d replied %d\n",
		r.Ctrl.LinkStatesSent, r.Ctrl.LinkStatesRecv, r.Ctrl.StaleDrops,
		r.Ctrl.ProbesSent, r.Ctrl.ProbeReplies)
	if len(r.Links) > 0 {
		fmt.Fprintln(out, "links (gossiped estimates, directed):")
		for _, l := range r.Links {
			fmt.Fprintf(out, "  %3d -> %-3d alpha %-12v gamma %.3f  epoch %d\n",
				l.From, l.To, l.Alpha.Round(10*time.Microsecond), l.Gamma, l.Epoch)
		}
	}
	if len(r.Routes) > 0 {
		fmt.Fprintln(out, "routes (topic, subscriber broker) -> <d, r>, sending-list size:")
		for _, rt := range r.Routes {
			fmt.Fprintf(out, "  topic %-4d sub %-4d d %-12v r %.3f  list %d\n",
				rt.Topic, rt.Sub, rt.D.Round(10*time.Microsecond), rt.R, rt.ListLen)
		}
	}
}
