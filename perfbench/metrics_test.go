package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 199)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 95); err == nil {
		t.Fatal("p95 of 199 samples has 9 beyond it and must be refused")
	}
	xs = append(xs, 200)
	v, err := percentile(xs, 95)
	if err != nil {
		t.Fatal(err)
	}
	if v != 190 {
		t.Fatalf("nearest-rank p95 of 1..200 = %v, want 190", v)
	}
	if m := median(xs); m != 100 {
		t.Fatalf("median of 1..200 = %v, want 100", m)
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Fatal("percentile of no samples must fail")
	}
}

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, table := range [][]Metric{endToEnd, perLayer} {
		for _, m := range table {
			if !metricName.MatchString(m.Name) {
				t.Errorf("metric %q breaks the name charset", m.Name)
			}
			if seen[m.Name] {
				t.Errorf("metric %q declared twice", m.Name)
			}
			seen[m.Name] = true
			if !metricUnit.MatchString(m.Unit) {
				t.Errorf("metric %q: unit %q breaks the unit charset", m.Name, m.Unit)
			}
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("metric %q: better = %q", m.Name, m.Better)
			}
			if len(m.Workloads) == 0 {
				t.Errorf("metric %q is reported by no workload", m.Name)
			}
		}
	}
	for _, m := range perLayer {
		if mod := m.Name[:strings.IndexByte(m.Name+".", '.')]; mod == m.Name {
			t.Errorf("per-layer metric %q has no module prefix", m.Name)
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics; want at most 16 and 128", len(endToEnd), len(perLayer))
	}
	// Every run prints every metric, and a layer a workload does not
	// load reads 0; a time must never read a constant, so every time
	// and every end-to-end metric is measured on every workload.
	for _, m := range endToEnd {
		if len(m.Workloads) != len(allWorkloads) {
			t.Errorf("end-to-end metric %q is measured on %v, not on every workload", m.Name, m.Workloads)
		}
	}
	timeUnits := map[string]bool{"s": true, "ms": true, "us": true, "ns": true}
	for _, m := range perLayer {
		if timeUnits[m.Unit] && len(m.Workloads) != len(allWorkloads) {
			t.Errorf("time %q (%s) is measured on %v, not on every workload", m.Name, m.Unit, m.Workloads)
		}
	}
	for _, bad := range []string{"", "_x", "a b", strings.Repeat("a", 65), "p95%"} {
		if metricName.MatchString(bad) {
			t.Errorf("name %q must be refused", bad)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json; decoding refuses unknown keys.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, allWorkloads) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, allWorkloads)
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d/%d metrics, registry %d/%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	setupBound := 0.0
	maxBound := 0.0
	for i, m := range b.EndToEnd {
		r := endToEnd[i]
		if m.Name != r.Name || m.Unit != r.Unit || m.Better != r.Better {
			t.Errorf("end_to_end[%d] = %s/%s/%s, registry %s/%s/%s", i, m.Name, m.Unit, m.Better, r.Name, r.Unit, r.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		if m.Bound > maxBound {
			maxBound = m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	for i, m := range b.PerLayer {
		r := perLayer[i]
		if m.Name != r.Name || m.Unit != r.Unit || m.Better != r.Better {
			t.Errorf("per_layer[%d] = %s/%s/%s, registry %s/%s/%s", i, m.Name, m.Unit, m.Better, r.Name, r.Unit, r.Better)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", b.RunSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "perfbench" {
		t.Errorf("paths = %v, want [perfbench]", b.Paths)
	}
}

func TestBuildPrintsEveryMetric(t *testing.T) {
	res := newResults()
	res.op(nil)
	for _, m := range perLayer {
		if m.measures(wDaemon) {
			res.set(m.Name, 1)
		}
	}
	rep := res.build(perLayer, wDaemon)
	if rep.Failed != 0 || len(rep.Metrics) != len(perLayer) {
		t.Fatalf("failed %d, %d of %d metrics", rep.Failed, len(rep.Metrics), len(perLayer))
	}
	if v := rep.Metrics["cache.llc_hit_ratio"].Value; v != 0 {
		t.Errorf("daemon-tick loads no LLC simulator, yet cache.llc_hit_ratio = %v", v)
	}
	delete(res.values, "core.ticks")
	if rep := res.build(perLayer, wDaemon); rep.Failed == 0 || len(rep.Metrics) != len(perLayer) {
		t.Errorf("an unmeasured metric must fail the run and still be printed")
	}
}

func TestReservoirKeepsAUniformSample(t *testing.T) {
	r := newReservoir(1000, 1)
	for i := 1; i <= 100_000; i++ {
		r.add(float64(i))
	}
	if r.n != 100_000 || len(r.buf) != 1000 {
		t.Fatalf("reservoir saw %d and kept %d; want 100000 and 1000", r.n, len(r.buf))
	}
	// The kept sample's median estimates the stream's (50000) within a
	// few percent.
	if m := median(r.buf); m < 45_000 || m > 55_000 {
		t.Fatalf("median of the kept sample %v, want about 50000", m)
	}
}
