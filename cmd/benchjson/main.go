// Command benchjson converts `go test -bench` output into JSON and diffs
// runs against a committed baseline.
//
// It reads standard benchmark lines (including -benchmem columns and custom
// metrics such as qos_ratio) from stdin, averages repeated -count runs per
// benchmark, and writes one JSON document to stdout:
//
//	go test -run '^$' -bench 'Approach|Figure2|Rebuild' -benchmem -count 5 . | benchjson
//
// The output is an object keyed by benchmark name; each entry carries the
// mean ns/op, B/op and allocs/op over the runs plus any custom metrics
// (e.g. qos_ratio), ready for diffing against BENCH_baseline.json. For
// statistically rigorous comparisons use benchstat on the raw output
// instead; this tool exists to snapshot numbers in a stable format.
//
// With -check, benchjson instead compares the run on stdin against a
// baseline file and exits non-zero on regression:
//
//	go test -run '^$' -bench 'Approach|Figure2|Rebuild' . | benchjson -check BENCH_baseline.json
//
// A benchmark regresses when its mean ns/op exceeds the baseline's by more
// than -threshold (default 0.20, i.e. 20%); when its B/op grows by more
// than 30% (fixed, only where both runs report a positive B/op — a zero is
// indistinguishable from a run without -benchmem, so growth from or to
// zero is never gated); for throughput-style custom metrics whose
// unit ends in "/sec", as the BenchmarkBroker* suite reports (msgs/sec,
// deliveries/sec) — when the metric falls below the baseline's by more
// than -threshold; or for latency-percentile metrics (units like p50_ms,
// p99_us, as dcrd-loadgen emits) — when the percentile rises above the
// baseline's by more than -threshold. The baseline may be flat (an object keyed by benchmark
// name, as emitted by this tool) or sectioned like BENCH_baseline.json,
// where a "current" section holds the reference numbers. Benchmarks
// absent from the baseline are reported as new, not failed, so adding a
// benchmark never breaks the check. (The wire codec's and forwarding
// engine's strict zero-allocs-per-op properties are enforced by
// TestReaderZeroAllocSteadyState and TestEngineZeroAllocSteadyState, not
// by this gate.)
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// entry accumulates the runs of one benchmark.
type entry struct {
	runs    int
	nsOp    float64
	bytesOp float64
	allocs  float64
	metrics map[string]float64
}

// Result is the emitted per-benchmark summary.
type Result struct {
	Runs     int                `json:"runs"`
	NsPerOp  float64            `json:"ns_per_op"`
	BytesOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsOp float64            `json:"allocs_per_op,omitempty"`
	Metrics  map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	checkPath := flag.String("check", "", "baseline JSON to diff the run on stdin against; exit 1 on ns/op regression")
	threshold := flag.Float64("threshold", 0.20, "allowed fractional ns/op increase before -check fails")
	require := flag.String("require", "", "comma-separated benchmark-name prefixes that must appear in a -check run; a missing one fails the check (guards gated benchmarks against silently vanishing from the suite)")
	flag.Parse()

	results, err := parseBench(os.Stdin)
	if err != nil {
		fatalf("%v", err)
	}
	if *checkPath != "" {
		baseline, err := loadBaseline(*checkPath)
		if err != nil {
			fatalf("%v", err)
		}
		ok := check(os.Stdout, results, baseline, *threshold)
		if !checkRequired(os.Stdout, results, *require) {
			ok = false
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fatalf("%v", err)
	}
}

// parseBench reads `go test -bench` output and returns per-benchmark means.
func parseBench(r io.Reader) (map[string]Result, error) {
	entries := map[string]*entry{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		// Strip the -N GOMAXPROCS suffix: BenchmarkFoo-8 -> BenchmarkFoo.
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		e := entries[name]
		if e == nil {
			e = &entry{metrics: map[string]float64{}}
			entries[name] = e
		}
		e.runs++
		// fields[1] is the iteration count; the rest come in (value, unit)
		// pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				e.nsOp += v
			case "B/op":
				e.bytesOp += v
			case "allocs/op":
				e.allocs += v
			default:
				e.metrics[unit] += v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	out := map[string]Result{}
	for name, e := range entries {
		n := float64(e.runs)
		r := Result{
			Runs:     e.runs,
			NsPerOp:  e.nsOp / n,
			BytesOp:  e.bytesOp / n,
			AllocsOp: e.allocs / n,
		}
		if len(e.metrics) > 0 {
			r.Metrics = map[string]float64{}
			for unit, sum := range e.metrics {
				r.Metrics[unit] = sum / n
			}
		}
		out[name] = r
	}
	return out, nil
}

// loadBaseline reads reference ns/op numbers from a baseline file. Two
// shapes are understood: the sectioned BENCH_baseline.json (reference
// numbers under "current") and the flat object
// this tool emits without -check.
func loadBaseline(path string) (map[string]Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if cur, ok := raw["current"]; ok {
		var m map[string]Result
		if err := json.Unmarshal(cur, &m); err == nil && len(m) > 0 {
			return m, nil
		}
	}
	m := map[string]Result{}
	for name, v := range raw {
		if !strings.HasPrefix(name, "Benchmark") {
			continue
		}
		var r Result
		if err := json.Unmarshal(v, &r); err == nil && r.NsPerOp > 0 {
			m[name] = r
		}
	}
	if len(m) == 0 {
		return nil, fmt.Errorf("%s: no benchmark entries (expected a \"current\" section or top-level Benchmark* keys)", path)
	}
	return m, nil
}

// bytesThreshold is the allowed fractional B/op growth before -check
// fails. Allocation regressions creep in silently (a map here, a closure
// there) well before they move ns/op on a fast machine, so they get their
// own, slightly laxer gate.
const bytesThreshold = 0.30

// isLatencyUnit reports whether a custom-metric unit names a latency
// percentile ("p50_ms", "p999_us", ...) — a lower-is-better metric gated on
// RISING, the mirror image of the "/sec" throughput gate.
func isLatencyUnit(unit string) bool {
	rest, ok := strings.CutPrefix(unit, "p")
	if !ok {
		return false
	}
	digits, unitOK := "", false
	for _, suffix := range []string{"_ms", "_us", "_ns", "_s"} {
		if d, found := strings.CutSuffix(rest, suffix); found {
			digits, unitOK = d, true
			break
		}
	}
	if !unitOK || digits == "" {
		return false
	}
	_, err := strconv.Atoi(digits)
	return err == nil
}

// check prints a per-benchmark comparison and reports whether every
// benchmark stayed within the allowed regression: ns/op must not rise by
// more than threshold, B/op must not grow by more than bytesThreshold
// (where both runs report it), any "/sec" throughput metric must not
// fall by more than threshold, and any latency-percentile metric (p99_ms
// and friends) must not rise by more than threshold.
func check(w io.Writer, results, baseline map[string]Result, threshold float64) bool {
	names := make([]string, 0, len(results))
	for name := range results {
		names = append(names, name)
	}
	sort.Strings(names)
	ok := true
	for _, name := range names {
		cur := results[name]
		base, found := baseline[name]
		if !found || base.NsPerOp <= 0 {
			fmt.Fprintf(w, "  new  %s: %.0f ns/op (no baseline)\n", name, cur.NsPerOp)
			continue
		}
		delta := cur.NsPerOp/base.NsPerOp - 1
		verdict := "  ok "
		if delta > threshold {
			verdict = " FAIL"
			ok = false
		}
		fmt.Fprintf(w, "%s %s: %.0f -> %.0f ns/op (%+.1f%%)\n",
			verdict, name, base.NsPerOp, cur.NsPerOp, 100*delta)
		// B/op growth gate: only meaningful when both runs actually
		// measured allocations (a 0 means "ran without -benchmem" as often
		// as it means "allocation-free", so zeroes are never compared).
		if base.BytesOp > 0 && cur.BytesOp > 0 {
			bdelta := cur.BytesOp/base.BytesOp - 1
			bverdict := "  ok "
			if bdelta > bytesThreshold {
				bverdict = " FAIL"
				ok = false
			}
			fmt.Fprintf(w, "%s %s: %.0f -> %.0f B/op (%+.1f%%)\n",
				bverdict, name, base.BytesOp, cur.BytesOp, 100*bdelta)
		}
		units := make([]string, 0, len(base.Metrics))
		for unit := range base.Metrics {
			if strings.HasSuffix(unit, "/sec") || isLatencyUnit(unit) {
				units = append(units, unit)
			}
		}
		sort.Strings(units)
		for _, unit := range units {
			baseV := base.Metrics[unit]
			curV, have := cur.Metrics[unit]
			if !have || baseV <= 0 {
				continue
			}
			mdelta := curV/baseV - 1
			mverdict := "  ok "
			if isLatencyUnit(unit) {
				// Lower is better: a rising percentile regresses.
				if mdelta > threshold {
					mverdict = " FAIL"
					ok = false
				}
			} else if mdelta < -threshold {
				mverdict = " FAIL"
				ok = false
			}
			fmt.Fprintf(w, "%s %s: %.3g -> %.3g %s (%+.1f%%)\n",
				mverdict, name, baseV, curV, unit, 100*mdelta)
		}
	}
	if !ok {
		fmt.Fprintf(w, "benchjson: regression above %.0f%% threshold\n", 100*threshold)
	}
	return ok
}

// checkRequired verifies that every comma-separated name prefix in require
// matches at least one benchmark in the run. The regression gate treats
// absent benchmarks as "new, not failed", so without this a gated benchmark
// could be renamed or deleted and the check would silently stop covering it.
func checkRequired(w io.Writer, results map[string]Result, require string) bool {
	ok := true
	for _, prefix := range strings.Split(require, ",") {
		prefix = strings.TrimSpace(prefix)
		if prefix == "" {
			continue
		}
		found := false
		for name := range results {
			if strings.HasPrefix(name, prefix) {
				found = true
				break
			}
		}
		if !found {
			fmt.Fprintf(w, " MISS %s: required benchmark absent from this run\n", prefix)
			ok = false
		}
	}
	return ok
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
	os.Exit(1)
}
