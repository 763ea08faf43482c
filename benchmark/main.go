// Command benchmark is the repo's live-overlay benchmark: it stands up an
// in-process broker overlay over loopback TCP, drives it from one publisher
// connection and one subscriber session, checks exactly-once, and prints
// deadline metrics end to end with a per-layer budget underneath. It
// measures every layer from outside only — public functions, Broker.Stats,
// chaos.Network.Stats and the broker.Config.Tracer hook. README.md in this
// directory defines every workload and metric.
//
//	go run ./benchmark                                  # all four workloads, both passes
//	go run ./benchmark -workload relay_faulty -seed 7 -trace 0
//	go run ./benchmark -quick                           # smoke run, durations ÷ 10
//	go run ./benchmark -compare a.jsonl b.jsonl         # verdict per (workload, metric)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "", "run only this workload (default: all four)")
		seed         = fs.Uint64("seed", 1, "drives the chaos schedule, the topic order and the payload filler; nothing in the system under test")
		seconds      = fs.Int("seconds", 20, "fixed-rate window length, in one-second slices")
		traceMode    = fs.Int("trace", -1, "0: untraced pass (end-to-end metrics); 1: traced pass (per-layer metrics); default both")
		quick        = fs.Bool("quick", false, "durations ÷ 10, for smoke runs only")
		compare      = fs.Bool("compare", false, "compare two results files (args: a.jsonl b.jsonl) under the per-metric bounds")
		outPath      = fs.String("out", "", "append one JSON record per pass to this results file")
		spansPath    = fs.String("spans", "", "write the traced pass's sampled spans to this file, one JSON row per packet")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *compare {
		if fs.NArg() != 2 {
			return 2, fmt.Errorf("-compare takes two results files")
		}
		anyWorse, err := compareFiles(fs.Arg(0), fs.Arg(1), out)
		if err != nil {
			return 1, err
		}
		if anyWorse {
			return 1, nil
		}
		return 0, nil
	}
	if fs.NArg() != 0 {
		return 2, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *seconds < 1 || *seconds > 600 {
		return 2, fmt.Errorf("-seconds must be 1..600, got %d", *seconds)
	}
	if *traceMode < -1 || *traceMode > 1 {
		return 2, fmt.Errorf("-trace must be 0 or 1, got %d", *traceMode)
	}
	todo := workloads
	if *workloadName != "" {
		w, err := findWorkload(*workloadName)
		if err != nil {
			return 2, err
		}
		todo = []*workload{w}
	}

	// The data plane's shard count follows GOMAXPROCS; pin it to what the
	// ISSUE's numbers were sized on, and say what it is.
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	pl := newPlan(*seconds, *quick)
	fmt.Fprintf(out, "dcrd live-overlay benchmark: nproc %d, GOMAXPROCS %d (= broker shards), %s %s/%s\n",
		runtime.NumCPU(), procs, runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(out, "all traffic crosses the host's loopback interface (127.0.0.1 TCP); link rates and wire latency are not measured\n")
	fmt.Fprintf(out, "DataDir of durable runs: %s under the working directory, filesystem %s\n", scratchRoot, fsType("."))
	fmt.Fprintf(out, "seed %d; phases: %d cold set-ups, %v warm-up, %v capacity (closed loop, %d outstanding), %v fixed rate (open loop, %v ticks), %v drain; traced pass %v + %v\n",
		*seed, pl.setups, pl.warmup, pl.capacity, window, pl.fixed, tickInterval, pl.drain, pl.traceRef, pl.traced)
	if *quick {
		fmt.Fprintf(out, "QUICK MODE: durations ÷ 10 — a smoke run, its numbers are not measurements\n")
	}

	exit := 0
	for _, w := range todo {
		for _, tm := range []int{0, 1} {
			if *traceMode >= 0 && *traceMode != tm {
				continue
			}
			fmt.Fprintf(out, "\n== %s, trace %d ==\n  %s\n", w.name, tm, w.why)
			specs, runPass := endToEnd, runEndToEnd
			if tm == 1 {
				specs, runPass = perLayer, runTraced
			}
			t0 := time.Now()
			p, err := runPass(w, *seed, pl, out)
			if err != nil {
				return 1, err
			}
			printPass(out, specs, p)
			fmt.Fprintf(out, "  (%s trace %d took %v)\n", w.name, tm, time.Since(t0).Round(time.Millisecond))
			res := result{
				Correct:   len(p.problems) == 0,
				Attempted: p.attempted,
				Failed:    p.failed,
				Metrics:   toResult(specs, p.values),
			}
			if !res.Correct {
				exit = 1
			}
			if *outPath != "" {
				rec := record{Workload: w.name, Seed: *seed, Trace: tm, Quick: *quick, Valid: p.valid, Correct: res.Correct, Metrics: p.values}
				if err := appendRecord(*outPath, rec); err != nil {
					return 1, err
				}
			}
			if *spansPath != "" && tm == 1 {
				if err := writeSpans(*spansPath, p.spans); err != nil {
					return 1, err
				}
			}
			line, err := json.Marshal(res)
			if err != nil {
				return 1, err
			}
			fmt.Fprintf(out, "%s\n", line)
		}
	}
	if exit != 0 {
		return exit, fmt.Errorf("correctness check or prediction failed (see above)")
	}
	return 0, nil
}

// printPass prints every metric of the pass by name with its unit, then
// what went wrong, if anything.
func printPass(out io.Writer, specs []metricSpec, p *pass) {
	latency := map[string]bool{"latency_p50_ms": true, "on_time_ratio": true}
	for _, s := range specs {
		bound := ""
		if s.bound > 0 {
			bound = fmt.Sprintf("  [%s is better, bound %g]", s.better, s.bound)
		}
		if !p.valid && latency[s.name] {
			fmt.Fprintf(out, "  %-30s %14s %-6s%s (measured %.4f)\n", s.name, "invalid", s.unit, bound, p.values[s.name])
			continue
		}
		fmt.Fprintf(out, "  %-30s %14.4f %-6s%s\n", s.name, p.values[s.name], s.unit, bound)
	}
	if !p.valid {
		fmt.Fprintf(out, "  INVALID WINDOW: %s\n", p.invalid)
	}
	sort.Strings(p.problems)
	for _, pr := range p.problems {
		fmt.Fprintf(out, "  FAIL: %s\n", pr)
	}
}

func writeSpans(path string, rows []spanRow) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range rows {
		if err := enc.Encode(&rows[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
