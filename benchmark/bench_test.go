package main

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// TestNamesMatchManifest keeps BENCHMARK.json and the harness from
// drifting apart: same workloads, same metrics with the same units and
// directions, every name and unit inside the allowed alphabet, and every
// end-to-end metric bounded.
func TestNamesMatchManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []manifestMetric             `json:"end_to_end"`
		PerLayer  []manifestMetric             `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	checkName := func(name string) {
		t.Helper()
		if !nameRe.MatchString(name) {
			t.Errorf("name %q is outside the allowed alphabet", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	var got []string
	for _, w := range manifest.Workloads {
		checkName(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		got = append(got, w.Name)
	}
	if strings.Join(got, " ") != strings.Join(workloadNames, " ") {
		t.Errorf("manifest workloads %v, harness runs %v", got, workloadNames)
	}

	compare := func(kind string, declared []manifestMetric, emitted []metricSpec, bounded bool) {
		t.Helper()
		if len(declared) != len(emitted) {
			t.Fatalf("%s: manifest declares %d metrics, harness emits %d", kind, len(declared), len(emitted))
		}
		for i, d := range declared {
			e := emitted[i]
			checkName(d.Name)
			if d.Name != e.Name || d.Unit != e.Unit || d.Better != e.Better {
				t.Errorf("%s[%d]: manifest %+v, harness %+v", kind, i, d, e)
			}
			if !unitRe.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
				t.Errorf("%s %s: bad unit %q or direction %q", kind, d.Name, d.Unit, d.Better)
			}
			switch {
			case !bounded && d.Bound != nil:
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, d.Name)
			case bounded && (d.Bound == nil || *d.Bound != e.Bound || e.Bound <= 0 || e.Bound > 0.25):
				t.Errorf("%s %s: bound must be in (0, 0.25] and equal the harness's %v", kind, d.Name, e.Bound)
			}
		}
	}
	compare("end_to_end", manifest.EndToEnd, endToEnd, true)
	compare("per_layer", manifest.PerLayer, perLayer, false)
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Errorf("end_to_end must lead with setup_s in seconds, lower is better")
	}
}

// TestSmokeLeavesNothingBehind runs all four workloads at tiny sizes,
// untraced and traced, and then looks for anything they left: a goroutine,
// a listening port, a directory.
func TestSmokeLeavesNothingBehind(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	out := t.TempDir()
	ctx := context.Background()
	var runs []*bench

	for _, traced := range []bool{false, true} {
		o := options{seed: 7, window: 300 * time.Millisecond, sz: tinySizes, traced: traced, outDir: out}
		for _, name := range workloadNames {
			m, b, err := runWorkload(ctx, name, o)
			if err != nil {
				t.Fatalf("%s (traced=%v): %v", name, traced, err)
			}
			runs = append(runs, b)
			if b.failed != 0 {
				t.Errorf("%s (traced=%v): %d of %d operations failed: %v", name, traced, b.failed, b.attempted, b.failures)
			}
			if traced {
				continue
			}
			for _, spec := range endToEnd {
				if v, ok := m[spec.Name]; !ok || v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want a positive measurement", name, spec.Name, v)
				}
			}
		}
	}
	// One full traced result: the run's own per-layer metrics completed
	// from the reference runs must cover exactly the declared set, with the
	// borrowed ones marked. measure ends with the same leftBehind check.
	res, from, err := measure(ctx, wlServeLive, options{seed: 7, window: 300 * time.Millisecond, sz: tinySizes, traced: true, outDir: out})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(perLayer) || !res.Correct {
		t.Errorf("traced result has %d metrics (correct=%v), manifest declares %d", len(res.Metrics), res.Correct, len(perLayer))
	}
	if from["tweets.build_s"] != wlBatchTweets || from["wal.append_p50_ms"] != "" {
		t.Errorf("borrowed metrics are marked %v: want tweets.build_s from %s and wal.append_p50_ms the run's own", from, wlBatchTweets)
	}

	hosts, dirs := 0, 0
	for _, b := range runs {
		hosts += len(b.hosted)
		dirs += len(b.dirs)
	}
	if hosts == 0 || dirs == 0 {
		t.Errorf("%d listeners and %d directories were recorded; the serving workloads did not run", hosts, dirs)
	}
	for _, left := range leftBehind(goroutines, runs...) {
		t.Error(left)
	}
	entries, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), "trace-") {
			t.Errorf("left behind in the output directory: %s", e.Name())
		}
	}
}
