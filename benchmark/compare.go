package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
)

// record is one line of a results file (-out): one pass over one workload.
// -compare reads two such files.
type record struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Trace    int                `json:"trace"`
	Quick    bool               `json:"quick,omitempty"` // a smoke run: never compared
	Valid    bool               `json:"valid"`
	Correct  bool               `json:"correct"`
	Metrics  map[string]float64 `json:"metrics"`
}

func appendRecord(path string, r record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(r)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// quartiles returns the first quartile, median and third quartile of vs
// (the exclusive method, as Python's statistics.quantiles(n=4) gives them).
// Fewer than two values have no spread: all three are the value itself.
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := slices.Clone(vs)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		pos := p*float64(n+1) - 1
		i := min(max(int(pos), 0), n-2)
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.50), at(0.75)
}

// verdict words of -compare.
const (
	same       = "same"
	worse      = "worse"
	better     = "better"
	unresolved = "unresolved"
)

// judge compares the runs of one (workload, metric) pair on two sides. b is
// worse (better) when its median is worse (better) than a's by more than
// the bound, as a share of a's median. When a's own run-to-run spread
// (interquartile range ÷ median) is wider than the bound, the pair is
// unresolved, not same — unless every run of b beats every run of a.
func judge(spec metricSpec, a, b []float64) string {
	if len(a) == 0 || len(b) == 0 {
		return unresolved
	}
	q1, medA, q3 := quartiles(a)
	_, medB, _ := quartiles(b)
	sign := 1.0 // positive delta = worse
	if spec.better == "higher" {
		sign = -1
	}
	scale := medA
	if scale < 0 {
		scale = -scale
	}
	if scale == 0 {
		if medB == 0 {
			return same
		}
		return unresolved
	}
	if (q3-q1)/scale > spec.bound {
		allBetter := slices.Max(b) < slices.Min(a)
		if spec.better == "higher" {
			allBetter = slices.Min(b) > slices.Max(a)
		}
		if allBetter {
			return better
		}
		return unresolved
	}
	switch delta := sign * (medB - medA) / scale; {
	case delta > spec.bound:
		return worse
	case delta < -spec.bound:
		return better
	}
	return same
}

// compareFiles prints one verdict per (workload, end-to-end metric) and
// reports whether any was worse. Smoke runs and runs the validity guards
// rejected are left out; a pair with none left on a side is unresolved.
func compareFiles(pathA, pathB string, out io.Writer) (anyWorse bool, err error) {
	ra, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	rb, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	collect := func(rs []record, wl, metric string) []float64 {
		var vs []float64
		for _, r := range rs {
			if r.Workload == wl && r.Trace == 0 && r.Valid && r.Correct && !r.Quick {
				if v, ok := r.Metrics[metric]; ok {
					vs = append(vs, v)
				}
			}
		}
		return vs
	}
	fmt.Fprintf(out, "%-14s %-16s %12s %12s %8s %7s  %s\n", "workload", "metric", "median a", "median b", "spread a", "bound", "verdict")
	for _, w := range workloads {
		for _, spec := range endToEnd {
			a, b := collect(ra, w.name, spec.name), collect(rb, w.name, spec.name)
			if len(a) == 0 && len(b) == 0 {
				continue
			}
			q1, medA, q3 := quartiles(a)
			_, medB, _ := quartiles(b)
			spread := 0.0
			if medA != 0 {
				spread = (q3 - q1) / medA
			}
			v := judge(spec, a, b)
			anyWorse = anyWorse || v == worse
			fmt.Fprintf(out, "%-14s %-16s %12.4f %12.4f %8.4f %7.3f  %s (n=%d/%d)\n", w.name, spec.name, medA, medB, spread, spec.bound, v, len(a), len(b))
		}
	}
	return anyWorse, nil
}
