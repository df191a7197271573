package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// tiny returns a configuration small enough for unit tests while keeping
// every structural relationship measurable.
func tiny() Config {
	return Config{
		Scale:        0.04,
		SeptScale:    0.0025,
		Realizations: 2,
		Seed:         7,
		RMATScales:   []int{8, 9},
	}
}

func TestTable2Shape(t *testing.T) {
	var buf bytes.Buffer
	cfg := tiny()
	cfg.Out = &buf
	rows := Table2(cfg)
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Both series must peak at week 18 and show the week-22 echo.
	peakPaper, peakModel := 0, 0
	for i, r := range rows {
		if r.Paper > rows[peakPaper].Paper {
			peakPaper = i
		}
		if r.Modeled > rows[peakModel].Modeled {
			peakModel = i
		}
	}
	if rows[peakPaper].Week != 18 || rows[peakModel].Week != 18 {
		t.Fatalf("peaks: paper wk%d model wk%d", rows[peakPaper].Week, rows[peakModel].Week)
	}
	if !(rows[5].Modeled > rows[4].Modeled && rows[5].Paper > rows[4].Paper) {
		t.Fatal("echo bump missing in one series")
	}
	if !strings.Contains(buf.String(), "Table II") {
		t.Fatal("no formatted output")
	}
}

func TestTable3Shape(t *testing.T) {
	rows := Table3(tiny())
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Users <= 0 || r.UniqueInteractions <= 0 {
			t.Fatalf("degenerate row %+v", r)
		}
		if r.UsersLWCC > r.Users || r.UniqueInteractionsLWCC > r.UniqueInteractions {
			t.Fatalf("LWCC exceeds full graph: %+v", r)
		}
		if r.UsersLWCC <= 0 {
			t.Fatalf("no LWCC: %+v", r)
		}
		if r.TweetsWithResponses > r.Tweets {
			t.Fatalf("responses exceed tweets: %+v", r)
		}
	}
	// The broadcast-dominated corpora have a large LWCC (hubs connect a
	// sizable share of active users).
	if rows[0].UsersLWCC*4 < rows[0].Users/4 {
		t.Fatalf("H1N1 LWCC suspiciously small: %+v", rows[0])
	}
	// Relative sizes follow the paper: sept1 > h1n1 > atlflood in users.
	if !(rows[2].Users > rows[0].Users || rows[0].Users > rows[1].Users) {
		t.Fatalf("corpus ordering broken: %v", rows)
	}
}

func TestTable4HubsDominate(t *testing.T) {
	res := Table4(tiny())
	if len(res.H1N1) != 15 || len(res.AtlFlood) != 15 {
		t.Fatalf("rankings %d/%d", len(res.H1N1), len(res.AtlFlood))
	}
	// Scores must be ranked descending and positive at the top.
	for _, rows := range [][]Table4Row{res.H1N1, res.AtlFlood} {
		if rows[0].Score <= 0 {
			t.Fatal("top score not positive")
		}
		for i := 1; i < len(rows); i++ {
			if rows[i].Score > rows[i-1].Score {
				t.Fatal("ranking not descending")
			}
		}
	}
	// Hub handles carry the topic marker; at least a third of the top 15
	// should be hubs or heavy users.
	hubs := 0
	for _, r := range res.H1N1 {
		if strings.Contains(r.Handle, "h1n1") {
			hubs++
		}
	}
	if hubs < 3 {
		t.Fatalf("only %d hubs in H1N1 top 15: %v", hubs, res.H1N1)
	}
}

func TestFig2HeavyTail(t *testing.T) {
	series := Fig2(tiny())
	if len(series) != 3 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		if s.Alpha < 1.2 || s.Alpha > 5 {
			t.Fatalf("%s alpha = %v, not heavy-tail-like", s.Name, s.Alpha)
		}
		if s.Top20 < 0.5 {
			t.Fatalf("%s top-20%% share = %v, want dominance", s.Name, s.Top20)
		}
		var total int64
		for _, b := range s.Bins {
			total += b.Count
		}
		if total <= 0 {
			t.Fatalf("%s empty histogram", s.Name)
		}
	}
}

func TestFig3ReductionOrders(t *testing.T) {
	rows := Fig3(tiny())
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Subcommunity <= 0 {
			t.Fatalf("no subcommunity found: %+v", r)
		}
		if r.Subcommunity >= r.LargestComponent || r.LargestComponent > r.Original {
			t.Fatalf("no reduction cascade: %+v", r)
		}
		// Reciprocal filtering reduces the graph by at least ~4x on the
		// broadcast-heavy corpora (paper: up to two orders of magnitude).
		if r.Original < 4*r.Subcommunity {
			t.Fatalf("reduction too weak: %+v", r)
		}
	}
}

func TestFig4RuntimeMonotone(t *testing.T) {
	series := Fig4(tiny())
	if len(series) != 3 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		if len(s.Cells) != len(SamplingFractions) {
			t.Fatalf("%s cells = %d", s.Name, len(s.Cells))
		}
		// Source counts must scale with the fraction; runtimes must not
		// shrink as sampling grows (allowing noise at tiny sizes by
		// comparing the extremes only).
		first, last := s.Cells[0], s.Cells[len(s.Cells)-1]
		if last.Sources < 9*first.Sources {
			t.Fatalf("%s sources %d -> %d not ~10x", s.Name, first.Sources, last.Sources)
		}
		if last.Mean < first.Mean {
			t.Fatalf("%s exact faster than 10%% sampling: %v vs %v", s.Name, last.Mean, first.Mean)
		}
	}
}

func TestFig5AccuracyImprovesWithSampling(t *testing.T) {
	series := Fig5(tiny())
	if len(series) != 3 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		if len(s.Cells) != len(SamplingFractions)*len(TopFractions) {
			t.Fatalf("%s cells = %d", s.Name, len(s.Cells))
		}
		byPair := map[[2]float64]float64{}
		for _, c := range s.Cells {
			if c.Overlap < 0 || c.Overlap > 1 {
				t.Fatalf("overlap out of range: %+v", c)
			}
			byPair[[2]float64{c.Fraction, c.TopFrac}] = c.Overlap
		}
		// Exact sampling recovers the exact ranking for every top level.
		for _, tf := range TopFractions {
			if byPair[[2]float64{1.0, tf}] < 0.999 {
				t.Fatalf("%s full sampling overlap = %v at top %v", s.Name, byPair[[2]float64{1.0, tf}], tf)
			}
		}
		// More sampling should not hurt badly: 50% >= 10% - 0.15 for the
		// top-20% band (noise tolerance at tiny test scales).
		if byPair[[2]float64{0.5, 0.2}]+0.15 < byPair[[2]float64{0.1, 0.2}] {
			t.Fatalf("%s accuracy fell with more sampling", s.Name)
		}
	}
}

func TestFig6SizesAndOutput(t *testing.T) {
	var buf bytes.Buffer
	cfg := tiny()
	cfg.Out = &buf
	points := Fig6(cfg)
	if len(points) != 3+len(cfg.RMATScales) {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.SizeVE <= 0 || p.Elapsed <= 0 {
			t.Fatalf("degenerate point %+v", p)
		}
	}
	if !strings.Contains(buf.String(), "R-MAT scale 9") {
		t.Fatal("missing R-MAT rows")
	}
}

func TestRunAndAll(t *testing.T) {
	cfg := tiny()
	cfg.RMATScales = []int{7}
	cfg.Realizations = 1
	var buf bytes.Buffer
	cfg.Out = &buf
	for _, name := range Names {
		if err := Run(name, cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if err := Run("nope", cfg); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, want := range []string{"Table II", "Table III", "Table IV", "Fig 2", "Fig 3", "Fig 4", "Fig 5", "Fig 6"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("output missing %q", want)
		}
	}
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := Default()
	if cfg.Scale <= 0 || cfg.Realizations < 1 || len(cfg.RMATScales) == 0 {
		t.Fatalf("default config degenerate: %+v", cfg)
	}
	if cfg.out() == nil {
		t.Fatal("nil writer not defaulted")
	}
	if (Config{}).realizations() != 1 {
		t.Fatal("realizations floor broken")
	}
	if (Config{Scale: 0.5}).septScale() != 0.5 {
		t.Fatal("septScale fallback broken")
	}
}
