package experiment

import (
	"strings"
	"testing"
)

// tinyOptions keeps figure smoke tests fast: structure and sanity, not
// statistics.
func tinyOptions() FigureOptions {
	return FigureOptions{Duration: "5s", Topologies: 1, Seed: 3}
}

// checkTables asserts structural invariants every generated panel must
// satisfy: non-empty series of equal length, ratio values within [0, 1]
// for ratio panels, and a formattable layout.
func checkTables(t *testing.T, tables []FigureTable, wantPanels int) {
	t.Helper()
	if len(tables) != wantPanels {
		t.Fatalf("got %d panels, want %d", len(tables), wantPanels)
	}
	for _, tab := range tables {
		if len(tab.Series) == 0 {
			t.Fatalf("%s: no series", tab.Title)
		}
		if len(tab.Xs) == 0 {
			t.Fatalf("%s: no x values", tab.Title)
		}
		for _, s := range tab.Series {
			if len(s.Values) != len(tab.Xs) {
				t.Errorf("%s / %s: %d values for %d xs", tab.Title, s.Label, len(s.Values), len(tab.Xs))
			}
			isRatio := strings.Contains(tab.Title, "Ratio") || strings.Contains(tab.Title, "CDF")
			for i, v := range s.Values {
				if isRatio && (v < 0 || v > 1) {
					t.Errorf("%s / %s[%d] = %v outside [0,1]", tab.Title, s.Label, i, v)
				}
				if !isRatio && v < 0 {
					t.Errorf("%s / %s[%d] = %v negative", tab.Title, s.Label, i, v)
				}
			}
		}
		var sb strings.Builder
		if err := tab.Format(&sb); err != nil {
			t.Errorf("%s: Format: %v", tab.Title, err)
		}
		if !strings.Contains(sb.String(), tab.XLabel) {
			t.Errorf("%s: formatted output missing x label", tab.Title)
		}
	}
}

func TestFigure2Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep")
	}
	tables, err := Figure2(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkTables(t, tables, 3)
	// Panel (a) at Pf=0 must be ~1 for every approach.
	for _, s := range tables[0].Series {
		if s.Values[0] < 0.99 {
			t.Errorf("%s delivery at Pf=0 is %v", s.Label, s.Values[0])
		}
	}
}

func TestFigure3Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep")
	}
	tables, err := Figure3(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkTables(t, tables, 3)
}

func TestFigure4Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep")
	}
	tables, err := Figure4(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkTables(t, tables, 3)
	if len(tables[0].Xs) != 8 {
		t.Errorf("degree sweep has %d points, want 8", len(tables[0].Xs))
	}
}

func TestFigure6Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep")
	}
	tables, err := Figure6(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkTables(t, tables, 1)
	// DCRD's series should be non-decreasing-ish with looser deadlines;
	// allow small noise at tiny scale.
	for _, s := range tables[0].Series {
		if s.Label != DCRD.String() {
			continue
		}
		if s.Values[len(s.Values)-1]+0.05 < s.Values[0] {
			t.Errorf("DCRD QoS decreased with looser deadline: %v", s.Values)
		}
	}
}

func TestFigure7Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep")
	}
	tables, err := Figure7(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkTables(t, tables, 1)
	// CDFs are monotone in x.
	for _, s := range tables[0].Series {
		for i := 1; i < len(s.Values); i++ {
			if s.Values[i] < s.Values[i-1] {
				t.Errorf("%s CDF not monotone: %v", s.Label, s.Values)
			}
		}
	}
}

func TestFigure8Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep")
	}
	tables, err := Figure8(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkTables(t, tables, 1)
	if len(tables[0].Series) != 8 {
		t.Errorf("Fig 8 has %d series, want 8 (4 approaches x m=1,2)", len(tables[0].Series))
	}
}

func TestAblationOrderingStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep")
	}
	tables, err := AblationOrdering(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("got %d panels, want 2", len(tables))
	}
	checkTables(t, tables[:1], 1)
}

func TestExtensionPersistencyStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep")
	}
	tables, err := ExtensionPersistency(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkTables(t, tables, 2)
}

func TestFullOptions(t *testing.T) {
	if f := FullOptions(); f.Duration != "2h" || f.Topologies != 10 {
		t.Errorf("full options %+v, want the paper's 2h x 10 topologies", f)
	}
}
