package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// layer names a module the benchmark times from outside.
type layer int

const (
	lWorkload layer = iota // workload.Generator.NextLines/NextLine
	lHost                  // host.Host.RunInterval (generator time included)
	lCore                  // Controller/MultiController.Tick (policy and backend time included)
	lPolicy                // policy.AllocationPolicy.Propose
	lCat                   // cat.Backend.Apply/FlushWays on the simulated LLC
	lResctrl               // cat.Backend.Apply on a resctrl tree
	lCluster               // cluster.Agent.Tick (local tick included)
	lRPC                   // coordinator RPCs made by agents
	lQuery                 // operator queries against the fleet surfaces
	numLayers
)

var layerNames = [numLayers]string{"workload", "host", "core", "policy", "cat", "resctrl", "cluster", "cluster-rpc", "httpstatus"}

// acc aggregates calls made many times per step: a count and the total
// time, instead of one span each.
type acc struct {
	n  atomic.Int64
	ns atomic.Int64
}

func (a *acc) add(d time.Duration) {
	a.n.Add(1)
	a.ns.Add(int64(d))
}

// span is one traced interval. Aggregated spans carry Count > 1 and
// the summed duration of their calls.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Count  int64  `json:"count,omitempty"`
}

// maxSpans bounds the span log kept in memory; later spans are only
// counted, so a run of many short ticks keeps its first ones.
const maxSpans = 100_000

// tracer holds one run's layer timers. Its zero value (on=false) is
// the untraced mode: wrappers are not installed at all, so untraced
// runs execute exactly the program's own code paths.
type tracer struct {
	on    bool
	epoch time.Time
	total [numLayers]acc

	mu      sync.Mutex
	spans   []span
	dropped int64 // spans past maxSpans, counted but not kept
	nextID  atomic.Int64

	// labels holds one pprof label context per layer, built once, so
	// switching labels around a call is a pointer store.
	labels [numLayers]context.Context
}

func newTracer(on bool, workload string) *tracer {
	t := &tracer{on: on, epoch: time.Now()}
	for l := range t.labels {
		t.labels[l] = pprof.WithLabels(context.Background(),
			pprof.Labels("workload", workload, "layer", layerNames[l]))
	}
	return t
}

// enter labels the calling goroutine with a layer for CPU profiles and
// returns the function that restores the previous label set.
func (t *tracer) enter(l layer, prev layer) func() {
	pprof.SetGoroutineLabels(t.labels[l])
	return func() { pprof.SetGoroutineLabels(t.labels[prev]) }
}

// do runs fn labelled with a layer and returns its duration; the
// duration always counts toward the layer's total.
func (t *tracer) do(l layer, fn func()) time.Duration {
	pprof.SetGoroutineLabels(t.labels[l])
	start := time.Now()
	fn()
	d := time.Since(start)
	t.total[l].add(d)
	return d
}

// span records a finished span (traced runs only) and returns its id.
func (t *tracer) span(parent int64, name string, start time.Time, dur time.Duration, count int64) int64 {
	if !t.on {
		return 0
	}
	id := t.nextID.Add(1)
	s := span{ID: id, Parent: parent, Name: name, Start: int64(start.Sub(t.epoch)), Dur: int64(dur), Count: count}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
	return id
}

// writeSpans writes the span log as JSON Lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	if t.dropped > 0 {
		fmt.Fprintf(w, "{\"dropped_spans\":%d}\n", t.dropped)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}

// snapshot copies the per-layer totals, so a step can be measured as
// the difference of two snapshots.
type snapshot [numLayers]struct{ n, ns int64 }

func (t *tracer) snap() snapshot {
	var s snapshot
	for l := range t.total {
		s[l].n = t.total[l].n.Load()
		s[l].ns = t.total[l].ns.Load()
	}
	return s
}

// sub returns the per-layer count and time accumulated between two
// snapshots.
func (s snapshot) sub(o snapshot) snapshot {
	var d snapshot
	for l := range s {
		d[l].n = s[l].n - o[l].n
		d[l].ns = s[l].ns - o[l].ns
	}
	return d
}

// childSpans records one aggregated child span per layer that did
// work in the interval covered by delta.
func (t *tracer) childSpans(parent int64, start time.Time, delta snapshot, layers ...layer) {
	for _, l := range layers {
		if delta[l].n > 0 {
			t.span(parent, layerNames[l], start, time.Duration(delta[l].ns), delta[l].n)
		}
	}
}
