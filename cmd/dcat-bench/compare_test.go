package main

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
)

func entry(id string, seconds float64, ok bool) reportEntry {
	return reportEntry{ID: id, Seconds: seconds, OK: ok}
}

func TestCompareReports(t *testing.T) {
	oldRep := report{Experiments: []reportEntry{
		entry("fig10", 2.0, true),
		entry("fig17", 1.0, true),
		entry("tab2", 0.01, true),
		entry("fig12", 3.0, false),
	}}
	newRep := report{Experiments: []reportEntry{
		entry("fig10", 2.1, true), // fine: 1.05x
		entry("fig17", 4.0, true), // regression: 4x and +3s
		entry("tab2", 0.05, true), // 5x but under the absolute floor
		entry("fig12", 9.0, true), // failed baseline: not gated
		entry("fig13", 1.0, true), // new experiment: not gated
	}}
	var sb strings.Builder
	regs := compareReports(&sb, oldRep, newRep)
	if len(regs) != 1 || regs[0].ID != "fig17" {
		t.Fatalf("regressions = %+v, want exactly fig17", regs)
	}
	if regs[0].Ratio < 3.9 || regs[0].Ratio > 4.1 {
		t.Fatalf("fig17 ratio = %g, want ~4", regs[0].Ratio)
	}
	out := sb.String()
	for _, want := range []string{"REGRESSION", "(new)", "(failed, not gated)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trend table missing %q:\n%s", want, out)
		}
	}
}

func TestCompareReportsQuickMismatchWarns(t *testing.T) {
	var sb strings.Builder
	compareReports(&sb, report{Quick: true}, report{Quick: false})
	if !strings.Contains(sb.String(), "not like-for-like") {
		t.Fatalf("no scale-mismatch warning:\n%s", sb.String())
	}
}

func TestCompareReportsJobsMismatchWarns(t *testing.T) {
	var sb strings.Builder
	compareReports(&sb, report{Jobs: 1}, report{Jobs: 4})
	if !strings.Contains(sb.String(), "warning: comparing jobs=4 against baseline jobs=1") {
		t.Fatalf("no jobs-mismatch warning:\n%s", sb.String())
	}
	sb.Reset()
	compareReports(&sb, report{Jobs: 2}, report{Jobs: 2})
	if strings.Contains(sb.String(), "warning") {
		t.Fatalf("matching jobs should not warn:\n%s", sb.String())
	}
}

// TestCompareEndToEnd runs the real gate path: write a baseline with a
// fabricated slow entry, re-run the cheapest experiment, and check the
// comparison verdict both ways through realMain.
func TestCompareEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real experiment")
	}
	// table1 is the cheapest registered experiment that still runs long
	// enough (~1s) to clear the gate's absolute noise floor.
	const id = "table1"
	if _, err := experiments.ByID(id); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	base := filepath.Join(dir, "old.json")
	cfg := config{quick: true, run: id, jobs: 1, compare: base}

	// Baseline claims the experiment used to take an hour: the new run
	// can only be faster, so the gate must pass.
	generous := report{Quick: true, Experiments: []reportEntry{entry(id, 3600, true)}}
	writeJSON(t, base, generous)
	if err := realMain(context.Background(), cfg); err != nil {
		t.Fatalf("gate failed against a generous baseline: %v", err)
	}

	// Baseline claims it used to be instant: any real duration is a
	// >2x regression, so the gate must fail.
	stingy := report{Quick: true, Experiments: []reportEntry{entry(id, 0.000001, true)}}
	writeJSON(t, base, stingy)
	err := realMain(context.Background(), cfg)
	if err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("gate against a stingy baseline returned %v, want a regression error", err)
	}
}

func writeJSON(t *testing.T, path string, rep report) {
	t.Helper()
	cfg := config{quick: rep.Quick}
	var results []experiments.RunResult
	for _, e := range rep.Experiments {
		results = append(results, experiments.RunResult{
			Runner:  experiments.Runner{ID: e.ID, Title: e.ID},
			Elapsed: time.Duration(e.Seconds * float64(time.Second)),
		})
	}
	if err := writeReport(path, cfg, results, nil, 0); err != nil {
		t.Fatal(err)
	}
}

func thruEntry(name string, perSec float64) throughputEntry {
	return throughputEntry{Name: name, AccessesPerSec: perSec, Accesses: 1 << 20, Seconds: 1}
}

// TestCompareThroughput checks the accesses/sec gate: only paths more
// than regressionRatio slower regress; new paths report but never gate.
func TestCompareThroughput(t *testing.T) {
	oldRep := report{Throughput: []throughputEntry{
		thruEntry("cache-hit", 100e6),
		thruEntry("cache-miss", 50e6),
	}}
	newRep := report{Throughput: []throughputEntry{
		thruEntry("cache-hit", 90e6),  // fine: 1.11x slower
		thruEntry("cache-miss", 20e6), // regression: 2.5x slower
		thruEntry("cache-masked", 1),  // new path: not gated
	}}
	var sb strings.Builder
	regs := compareReports(&sb, oldRep, newRep)
	if len(regs) != 1 || regs[0].ID != "throughput/cache-miss" {
		t.Fatalf("regressions = %+v, want exactly throughput/cache-miss", regs)
	}
	if regs[0].Ratio < 2.4 || regs[0].Ratio > 2.6 {
		t.Fatalf("ratio = %g, want ~2.5", regs[0].Ratio)
	}
	out := sb.String()
	for _, want := range []string{"REGRESSION", "(new)", "accesses/sec"} {
		if !strings.Contains(out, want) {
			t.Fatalf("throughput trend table missing %q:\n%s", want, out)
		}
	}
}
