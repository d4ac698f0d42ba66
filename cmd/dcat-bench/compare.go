package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Regression gate: an experiment regresses when it takes more than
// regressionRatio times its previous duration AND slows down by at
// least regressionFloorSeconds. The absolute floor keeps scheduler
// noise on sub-second experiments from failing CI; the ratio keeps the
// gate scale-free for the long ones.
const (
	regressionRatio        = 2.0
	regressionFloorSeconds = 0.25
)

// regression is one experiment that crossed the gate.
type regression struct {
	ID       string
	Old, New float64
	Ratio    float64
}

func loadReport(path string) (report, error) {
	var rep report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// compareReports writes a per-experiment old/new/ratio trend table to
// w and returns the entries that regressed past the gate — experiment
// timings and hot-path throughput alike. Entries absent from the old
// report (new since the baseline) and experiments that failed in
// either run are reported but never gate.
func compareReports(w io.Writer, oldRep, newRep report) []regression {
	if oldRep.Quick != newRep.Quick {
		fmt.Fprintf(w, "warning: comparing quick=%t against baseline quick=%t — timings are not like-for-like\n",
			newRep.Quick, oldRep.Quick)
	}
	if oldRep.Jobs != newRep.Jobs {
		fmt.Fprintf(w, "warning: comparing jobs=%d against baseline jobs=%d — timings are not like-for-like\n",
			newRep.Jobs, oldRep.Jobs)
	}
	oldByID := make(map[string]reportEntry, len(oldRep.Experiments))
	for _, e := range oldRep.Experiments {
		oldByID[e.ID] = e
	}
	var regs []regression
	fmt.Fprintf(w, "%-20s %10s %10s %8s\n", "experiment", "old (s)", "new (s)", "ratio")
	for _, e := range newRep.Experiments {
		prev, known := oldByID[e.ID]
		switch {
		case !known:
			fmt.Fprintf(w, "%-20s %10s %10.2f %8s  (new)\n", e.ID, "-", e.Seconds, "-")
		case !e.OK || !prev.OK:
			fmt.Fprintf(w, "%-20s %10.2f %10.2f %8s  (failed, not gated)\n", e.ID, prev.Seconds, e.Seconds, "-")
		default:
			ratio := e.Seconds / prev.Seconds
			mark := ""
			if ratio > regressionRatio && e.Seconds-prev.Seconds > regressionFloorSeconds {
				mark = "  REGRESSION"
				regs = append(regs, regression{ID: e.ID, Old: prev.Seconds, New: e.Seconds, Ratio: ratio})
			}
			fmt.Fprintf(w, "%-20s %10.2f %10.2f %7.2fx%s\n", e.ID, prev.Seconds, e.Seconds, ratio, mark)
		}
	}
	regs = append(regs, compareThroughput(w, oldRep.Throughput, newRep.Throughput)...)
	sort.Slice(regs, func(i, j int) bool { return regs[i].Ratio > regs[j].Ratio })
	return regs
}

// compareThroughput gates the hot-path accesses/sec entries: a path
// that got more than regressionRatio times slower regresses. Ratios
// here are old/new throughput, so the same >regressionRatio threshold
// reads the same way as for timings ("2.00x" means half the speed).
// Entries only in one report never gate.
func compareThroughput(w io.Writer, oldT, newT []throughputEntry) []regression {
	if len(newT) == 0 {
		return nil
	}
	oldByName := make(map[string]throughputEntry, len(oldT))
	for _, e := range oldT {
		oldByName[e.Name] = e
	}
	var regs []regression
	fmt.Fprintf(w, "%-20s %10s %10s %8s  (accesses/sec)\n", "throughput", "old", "new", "ratio")
	for _, e := range newT {
		prev, known := oldByName[e.Name]
		if !known || prev.AccessesPerSec == 0 || e.AccessesPerSec == 0 {
			fmt.Fprintf(w, "%-20s %10s %10.2e %8s  (new)\n", e.Name, "-", e.AccessesPerSec, "-")
			continue
		}
		ratio := prev.AccessesPerSec / e.AccessesPerSec
		mark := ""
		if ratio > regressionRatio {
			mark = "  REGRESSION"
			regs = append(regs, regression{ID: "throughput/" + e.Name, Old: prev.AccessesPerSec, New: e.AccessesPerSec, Ratio: ratio})
		}
		fmt.Fprintf(w, "%-20s %10.2e %10.2e %7.2fx%s\n", e.Name, prev.AccessesPerSec, e.AccessesPerSec, ratio, mark)
	}
	return regs
}
