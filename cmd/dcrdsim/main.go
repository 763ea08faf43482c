// Command dcrdsim regenerates the paper's evaluation figures (Fig. 2–8) or
// runs a custom scenario.
//
// Regenerate a figure at laptop scale (short runs, 2 topologies):
//
//	dcrdsim -figure 2
//
// Regenerate at the paper's full scale (2 h simulated, 10 topologies):
//
//	dcrdsim -figure 2 -full
//
// Run a custom scenario:
//
//	dcrdsim -nodes 40 -degree 6 -pf 0.08 -duration 5m
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dcrdsim:", err)
		os.Exit(1)
	}
}

// extensionHelp is the -extension flag's usage: every extension experiment
// the harness registers.
func extensionHelp() string {
	return "extension experiment: " + strings.Join(experiment.ExtensionNames(), " | ")
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dcrdsim", flag.ContinueOnError)
	var (
		figure     = fs.Int("figure", 0, "paper figure to regenerate (2-8); 0 runs a custom scenario")
		extension  = fs.String("extension", "", extensionHelp())
		full       = fs.Bool("full", false, "use the paper's full scale (2h x 10 topologies)")
		duration   = fs.Duration("duration", time.Minute, "simulated publishing time per run")
		topologies = fs.Int("topologies", 2, "random topologies to average over")
		seed       = fs.Uint64("seed", 1, "experiment seed")
		nodes      = fs.Int("nodes", 20, "overlay size (custom scenario)")
		degree     = fs.Int("degree", 0, "node degree; 0 = full mesh (custom scenario)")
		pf         = fs.Float64("pf", 0.06, "link failure probability (custom scenario)")
		pl         = fs.Float64("pl", 1e-4, "packet loss rate (custom scenario)")
		m          = fs.Int("m", 1, "transmissions per link before failover (custom scenario)")
		factor     = fs.Float64("deadline-factor", 3, "deadline as multiple of shortest-path delay")
		chart      = fs.Bool("chart", false, "render figure panels as ASCII charts")
		csvOut     = fs.Bool("csv", false, "emit figure panels as CSV instead of tables")
		traceN     = fs.Int("trace", 0, "print routing timelines of the N most eventful packets (DCRD, custom scenario only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *extension != "" {
		fn, ok := experiment.Extensions()[*extension]
		if !ok {
			return fmt.Errorf("unknown extension %q (have %v)", *extension, experiment.ExtensionNames())
		}
		opts := experiment.FigureOptions{
			Duration:   duration.String(),
			Topologies: *topologies,
			Seed:       *seed,
		}
		fmt.Fprintf(out, "Running extension experiment %q (duration %s, %d topologies, seed %d)...\n\n",
			*extension, opts.Duration, opts.Topologies, opts.Seed)
		tables, err := fn(opts)
		if err != nil {
			return err
		}
		return emitTables(out, tables, *chart, *csvOut)
	}

	if *figure != 0 {
		fn, ok := experiment.Figures()[*figure]
		if !ok {
			return fmt.Errorf("unknown figure %d (have 2-8)", *figure)
		}
		opts := experiment.FigureOptions{
			Duration:   duration.String(),
			Topologies: *topologies,
			Seed:       *seed,
		}
		if *full {
			opts = experiment.FullOptions()
			opts.Seed = *seed
		}
		fmt.Fprintf(out, "Regenerating Figure %d (duration %s, %d topologies, seed %d)...\n\n",
			*figure, opts.Duration, opts.Topologies, opts.Seed)
		tables, err := fn(opts)
		if err != nil {
			return err
		}
		return emitTables(out, tables, *chart, *csvOut)
	}

	s := experiment.DefaultScenario()
	s.Nodes = *nodes
	s.Degree = *degree
	s.Pf = *pf
	s.Pl = *pl
	s.M = *m
	s.DeadlineFactor = *factor
	s.Duration = *duration
	s.Topologies = *topologies
	s.Seed = *seed

	fmt.Fprintf(out, "Scenario: %d nodes, degree %s, Pf=%g, Pl=%g, m=%d, deadline %gx, %v x %d topologies\n\n",
		s.Nodes, degreeLabel(s.Degree), s.Pf, s.Pl, s.M, s.DeadlineFactor, s.Duration, s.Topologies)

	if *traceN > 0 {
		return runTraced(out, s, *traceN)
	}

	aggs, err := experiment.Run(s, experiment.AllApproaches())
	if err != nil {
		return err
	}
	sort.SliceStable(aggs, func(i, j int) bool { return aggs[i].Approach < aggs[j].Approach })
	fmt.Fprintf(out, "%-10s %16s %16s %18s\n", "approach", "delivery ratio", "QoS ratio", "pkts/subscriber")
	for _, a := range aggs {
		fmt.Fprintf(out, "%-10s %16.4f %16.4f %18.3f\n",
			a.Approach, a.MeanDeliveryRatio(), a.MeanQoSRatio(), a.MeanPacketsPerSubscriber())
	}
	return nil
}

func degreeLabel(d int) string {
	if d == 0 {
		return "full-mesh"
	}
	return fmt.Sprint(d)
}

// runTraced runs DCRD alone with tracing and prints the timelines of the
// n packets with the most routing events — the ones that hit failures.
func runTraced(out io.Writer, s experiment.Scenario, n int) error {
	buf := &trace.Buffer{Limit: 1 << 20}
	s.Tracer = buf
	s.Topologies = 1
	res, err := experiment.RunOne(s, experiment.DCRD, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "DCRD: delivery %.4f, QoS %.4f, %d packets traced\n\n",
		res.DeliveryRatio(), res.QoSDeliveryRatio(), len(buf.Packets()))
	sum := buf.Summarize()
	fmt.Fprintf(out, "events: %d sends, %d handoffs, %d timeouts, %d failovers, %d reroutes, %d drops\n\n",
		sum.ByKind[trace.Send], sum.ByKind[trace.Handoff], sum.ByKind[trace.Timeout],
		sum.Failovers, sum.Reroutes, sum.ByKind[trace.Drop])

	type scored struct {
		id     uint64
		events int
	}
	var ranked []scored
	for _, id := range buf.Packets() {
		ranked = append(ranked, scored{id: id, events: len(buf.ForPacket(id))})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].events != ranked[j].events {
			return ranked[i].events > ranked[j].events
		}
		return ranked[i].id < ranked[j].id
	})
	if n > len(ranked) {
		n = len(ranked)
	}
	fmt.Fprintf(out, "%d most eventful packets:\n\n", n)
	for _, r := range ranked[:n] {
		if err := buf.WriteTimeline(out, r.id); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	return nil
}

// emitTables prints figure panels as aligned tables (default), ASCII charts
// (-chart) or CSV (-csv).
func emitTables(out io.Writer, tables []experiment.FigureTable, chart, csvOut bool) error {
	for i := range tables {
		switch {
		case csvOut:
			if _, err := fmt.Fprintf(out, "# %s\n", tables[i].Title); err != nil {
				return err
			}
			if err := tables[i].WriteCSV(out); err != nil {
				return err
			}
			fmt.Fprintln(out)
		case chart:
			rendered, err := tables[i].Chart()
			if err != nil {
				return err
			}
			if _, err := fmt.Fprintln(out, rendered); err != nil {
				return err
			}
		default:
			if err := tables[i].Format(out); err != nil {
				return err
			}
		}
	}
	return nil
}
