package experiment

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/plot"
	"repro/internal/stats"
)

// parseDuration parses a Go duration string for FigureOptions.
func parseDuration(s string) (time.Duration, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("experiment: bad duration %q: %w", s, err)
	}
	if d <= 0 {
		return 0, fmt.Errorf("experiment: duration %q must be positive", s)
	}
	return d, nil
}

// Series is one labeled curve of a figure.
type Series struct {
	Label  string
	Values []float64
}

// FigureTable is one panel of a paper figure rendered as numeric series
// over a swept x-axis.
type FigureTable struct {
	Title  string
	XLabel string
	Xs     []float64
	Series []Series
}

// Format writes the table in an aligned, paper-style text layout. Column
// widths adapt to the longest series label.
func (t *FigureTable) Format(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
		return err
	}
	width := 14
	for _, s := range t.Series {
		if len(s.Label)+2 > width {
			width = len(s.Label) + 2
		}
	}
	header := fmt.Sprintf("%-14s", t.XLabel)
	for _, s := range t.Series {
		header += fmt.Sprintf("%*s", width, s.Label)
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", len(header))); err != nil {
		return err
	}
	for i, x := range t.Xs {
		row := fmt.Sprintf("%-14.4g", x)
		for _, s := range t.Series {
			if i < len(s.Values) {
				row += fmt.Sprintf("%*.4f", width, s.Values[i])
			} else {
				row += fmt.Sprintf("%*s", width, "-")
			}
		}
		if _, err := fmt.Fprintln(w, row); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteCSV emits the table as CSV: a header row of x-label plus series
// labels, then one row per x value.
func (t *FigureTable) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{t.XLabel}, make([]string, 0, len(t.Series))...)
	for _, s := range t.Series {
		header = append(header, s.Label)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for i, x := range t.Xs {
		row := make([]string, 0, len(t.Series)+1)
		row = append(row, strconv.FormatFloat(x, 'g', -1, 64))
		for _, s := range t.Series {
			if i < len(s.Values) {
				row = append(row, strconv.FormatFloat(s.Values[i], 'f', 6, 64))
			} else {
				row = append(row, "")
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Charts renders the table as an ASCII chart via internal/plot. Ratio
// panels are pinned to [0, 1].
func (t *FigureTable) Chart() (string, error) {
	series := make([]plot.Series, 0, len(t.Series))
	for _, s := range t.Series {
		series = append(series, plot.Series{Label: s.Label, Xs: t.Xs, Ys: s.Values})
	}
	// Auto-range the y axis: paper ratio curves live in a narrow band
	// (e.g. 0.85–1.0) and pinning to [0,1] would flatten them.
	opts := plot.Options{Title: t.Title, XLabel: t.XLabel, Width: 64, Height: 16}
	return plot.Chart(series, opts)
}

// FigureOptions scales figure regeneration. The paper's full setting
// (2 h x 10 topologies) takes a while; Quick trims it to something a
// laptop regenerates in minutes while preserving every qualitative shape.
type FigureOptions struct {
	Duration   string // Go duration string, e.g. "2h" or "90s"
	Topologies int
	Seed       uint64
}

// FullOptions returns the paper's settings.
func FullOptions() FigureOptions {
	return FigureOptions{Duration: "2h", Topologies: 10, Seed: 1}
}

// apply overlays the options onto a scenario.
func (o FigureOptions) apply(s Scenario) (Scenario, error) {
	if o.Duration != "" {
		d, err := parseDuration(o.Duration)
		if err != nil {
			return s, err
		}
		s.Duration = d
	}
	if o.Topologies > 0 {
		s.Topologies = o.Topologies
	}
	if o.Seed != 0 {
		s.Seed = o.Seed
	}
	return s, nil
}

// failureProbabilities is the Pf sweep of Figs. 2 and 3.
func failureProbabilities() []float64 {
	return []float64{0, 0.02, 0.04, 0.06, 0.08, 0.1}
}

// threeMetricTables renders the (delivery ratio, QoS ratio,
// packets/subscriber) triple the multi-panel figures share.
func threeMetricTables(figure, condition, xLabel string, xs []float64, byX [][]Aggregate) []FigureTable {
	metricsDef := []struct {
		panel string
		name  string
		get   func(Aggregate) float64
	}{
		{"a", "Delivery Ratio", Aggregate.MeanDeliveryRatio},
		{"b", "QoS Delivery Ratio", Aggregate.MeanQoSRatio},
		{"c", "Packets Sent / Subscriber", Aggregate.MeanPacketsPerSubscriber},
	}
	tables := make([]FigureTable, 0, len(metricsDef))
	for _, m := range metricsDef {
		t := FigureTable{
			Title:  fmt.Sprintf("Figure %s(%s): %s — %s", figure, m.panel, m.name, condition),
			XLabel: xLabel,
			Xs:     xs,
		}
		if len(byX) > 0 {
			for ai := range byX[0] {
				s := Series{Label: byX[0][ai].Approach.String()}
				for xi := range xs {
					s.Values = append(s.Values, m.get(byX[xi][ai]))
				}
				t.Series = append(t.Series, s)
			}
		}
		tables = append(tables, t)
	}
	return tables
}

// Figure2 reproduces the full-mesh failure-probability sweep (Fig. 2):
// delivery ratio, QoS delivery ratio and packets/subscriber vs Pf for all
// five approaches on a 20-node full mesh.
func Figure2(opts FigureOptions) ([]FigureTable, error) {
	return failureSweep("2", "Fully-Meshed Networks", 0, opts)
}

// Figure3 reproduces the degree-5 failure-probability sweep (Fig. 3).
func Figure3(opts FigureOptions) ([]FigureTable, error) {
	return failureSweep("3", "Overlay Networks with Degree 5", 5, opts)
}

func failureSweep(figure, condition string, degree int, opts FigureOptions) ([]FigureTable, error) {
	base := DefaultScenario()
	base.Degree = degree
	base, err := opts.apply(base)
	if err != nil {
		return nil, err
	}
	xs := failureProbabilities()
	byX := make([][]Aggregate, 0, len(xs))
	for _, pf := range xs {
		s := base
		s.Pf = pf
		aggs, err := Run(s, AllApproaches())
		if err != nil {
			return nil, err
		}
		byX = append(byX, aggs)
	}
	return threeMetricTables(figure, condition, "Failure Prob", xs, byX), nil
}

// Figure4 reproduces the connectivity sweep (Fig. 4): the three metrics vs
// node degree 3–10 at Pf = 0.06.
func Figure4(opts FigureOptions) ([]FigureTable, error) {
	base := DefaultScenario()
	base.Pf = 0.06
	base, err := opts.apply(base)
	if err != nil {
		return nil, err
	}
	degrees := []int{3, 4, 5, 6, 7, 8, 9, 10}
	xs := make([]float64, len(degrees))
	byX := make([][]Aggregate, 0, len(degrees))
	for i, deg := range degrees {
		xs[i] = float64(deg)
		s := base
		s.Degree = deg
		aggs, err := Run(s, AllApproaches())
		if err != nil {
			return nil, err
		}
		byX = append(byX, aggs)
	}
	return threeMetricTables("4", "Different Connectivities (Pf = 0.06)", "Node Degree", xs, byX), nil
}

// Figure5 reproduces the scalability sweep (Fig. 5): the three metrics vs
// network size {10,20,40,80,120,160} at degree 8 and Pf = 0.06.
func Figure5(opts FigureOptions) ([]FigureTable, error) {
	base := DefaultScenario()
	base.Pf = 0.06
	base.Degree = 8
	base, err := opts.apply(base)
	if err != nil {
		return nil, err
	}
	sizes := []int{10, 20, 40, 80, 120, 160}
	xs := make([]float64, len(sizes))
	byX := make([][]Aggregate, 0, len(sizes))
	for i, n := range sizes {
		xs[i] = float64(n)
		s := base
		s.Nodes = n
		aggs, err := Run(s, AllApproaches())
		if err != nil {
			return nil, err
		}
		byX = append(byX, aggs)
	}
	return threeMetricTables("5", "Different Network Sizes (degree 8, Pf = 0.06)", "Network Size", xs, byX), nil
}

// Figure6 reproduces the QoS-requirement sweep (Fig. 6): QoS delivery ratio
// vs the deadline multiplication factor {1.5,2,3,4,5,6} at degree 8 and
// Pf = 0.06.
func Figure6(opts FigureOptions) ([]FigureTable, error) {
	base := DefaultScenario()
	base.Pf = 0.06
	base.Degree = 8
	base, err := opts.apply(base)
	if err != nil {
		return nil, err
	}
	factors := []float64{1.5, 2, 3, 4, 5, 6}
	t := FigureTable{
		Title:  "Figure 6: QoS Delivery Ratio vs QoS Requirement (degree 8, Pf = 0.06)",
		XLabel: "QoS Req",
		Xs:     factors,
	}
	var byX [][]Aggregate
	for _, f := range factors {
		s := base
		s.DeadlineFactor = f
		aggs, err := Run(s, AllApproaches())
		if err != nil {
			return nil, err
		}
		byX = append(byX, aggs)
	}
	for ai := range byX[0] {
		s := Series{Label: byX[0][ai].Approach.String()}
		for xi := range factors {
			s.Values = append(s.Values, byX[xi][ai].MeanQoSRatio())
		}
		t.Series = append(t.Series, s)
	}
	return []FigureTable{t}, nil
}

// Figure7 reproduces the deadline-miss delay CDF (Fig. 7): among DCRD
// packets that missed their deadline, the cumulative distribution of
// (actual delay / deadline) for the full-mesh and degree-8 topologies at
// Pf = 0.06.
func Figure7(opts FigureOptions) ([]FigureTable, error) {
	base := DefaultScenario()
	base.Pf = 0.06
	base, err := opts.apply(base)
	if err != nil {
		return nil, err
	}
	cases := []struct {
		label  string
		degree int
	}{
		{"Full Mesh", 0},
		{"Degree 8", 8},
	}
	xs := []float64{1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0}
	t := FigureTable{
		Title:  "Figure 7: CDF of (delay / deadline) for DCRD packets that missed the deadline (Pf = 0.06)",
		XLabel: "Delay/Deadline",
		Xs:     xs,
	}
	for _, c := range cases {
		s := base
		s.Degree = c.degree
		aggs, err := Run(s, []Approach{DCRD})
		if err != nil {
			return nil, err
		}
		cdf := stats.NewCDF(aggs[0].LateFactors())
		series := Series{Label: c.label}
		for _, x := range xs {
			series.Values = append(series.Values, cdf.At(x))
		}
		t.Series = append(t.Series, series)
	}
	return []FigureTable{t}, nil
}

// Figure8 reproduces the loss-rate/m sweep (Fig. 8): QoS delivery ratio vs
// Pl in {1e-4..1e-1} for m = 1 and m = 2, degree 8. The figure caption
// fixes Pf = 0.01 (the body text says 0.1; we follow the caption — the
// crossover shape is the finding either way).
func Figure8(opts FigureOptions) ([]FigureTable, error) {
	base := DefaultScenario()
	base.Pf = 0.01
	base.Degree = 8
	base, err := opts.apply(base)
	if err != nil {
		return nil, err
	}
	losses := []float64{1e-4, 1e-3, 1e-2, 1e-1}
	approaches := []Approach{DCRD, RTree, DTree, Multipath}
	t := FigureTable{
		Title:  "Figure 8: QoS Delivery Ratio vs Packet Loss Rate Pl for m=1,2 (degree 8, Pf = 0.01)",
		XLabel: "Loss Rate",
		Xs:     losses,
	}
	for _, a := range approaches {
		for _, m := range []int{1, 2} {
			series := Series{Label: fmt.Sprintf("%s m=%d", a, m)}
			for _, pl := range losses {
				s := base
				s.Pl = pl
				s.M = m
				aggs, err := Run(s, []Approach{a})
				if err != nil {
					return nil, err
				}
				series.Values = append(series.Values, aggs[0].MeanQoSRatio())
			}
			t.Series = append(t.Series, series)
		}
	}
	return []FigureTable{t}, nil
}

// Figures maps figure numbers to their regeneration functions.
func Figures() map[int]func(FigureOptions) ([]FigureTable, error) {
	return map[int]func(FigureOptions) ([]FigureTable, error){
		2: Figure2,
		3: Figure3,
		4: Figure4,
		5: Figure5,
		6: Figure6,
		7: Figure7,
		8: Figure8,
	}
}
