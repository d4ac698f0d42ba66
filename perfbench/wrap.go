package main

import (
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bits"
	"repro/internal/cat"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/workload"
)

// The wrappers below time a layer from outside by standing in for an
// interface the benchmark hands to the program. Each forwards every
// optional interface the program type-asserts for (BulkGenerator,
// Releaser, WayFlusher, OccupancyReader, Stateful, Independent), so a
// traced run makes the same decisions as an untraced one; the
// simulated-statistics digest checks that.

// tracedGen times a workload generator's line production.
type tracedGen struct {
	inner workload.Generator
	bulk  workload.BulkGenerator // nil when inner draws line by line
	t     *tracer
	lines *atomic.Int64
}

func wrapGen(g workload.Generator, t *tracer, lines *atomic.Int64) workload.Generator {
	bulk, _ := g.(workload.BulkGenerator)
	return &tracedGen{inner: g, bulk: bulk, t: t, lines: lines}
}

func (g *tracedGen) Name() string            { return g.inner.Name() }
func (g *tracedGen) Params() workload.Params { return g.inner.Params() }
func (g *tracedGen) Tick()                   { g.inner.Tick() }

func (g *tracedGen) NextLine() uint64 {
	start := time.Now()
	l := g.inner.NextLine()
	g.t.total[lWorkload].add(time.Since(start))
	g.lines.Add(1)
	return l
}

// NextLines makes the host take its bulk path for every tenant; for a
// line-by-line generator it draws the same lines in the same order.
func (g *tracedGen) NextLines(buf []uint64) {
	restore := g.t.enter(lWorkload, lHost)
	start := time.Now()
	if g.bulk != nil {
		g.bulk.NextLines(buf)
	} else {
		for i := range buf {
			buf[i] = g.inner.NextLine()
		}
	}
	g.t.total[lWorkload].add(time.Since(start))
	restore()
	g.lines.Add(int64(len(buf)))
}

func (g *tracedGen) Release() {
	if r, ok := g.inner.(workload.Releaser); ok {
		r.Release()
	}
}

// tracedBackend times CAT programming. Layer is lCat for the simulated
// LLC and lResctrl for a resctrl tree.
type tracedBackend struct {
	inner cat.Backend
	t     *tracer
	layer layer
}

func (b *tracedBackend) TotalWays() int { return b.inner.TotalWays() }

func (b *tracedBackend) Apply(cos int, mask bits.CBM, cores []int) error {
	restore := b.t.enter(b.layer, lCore)
	start := time.Now()
	err := b.inner.Apply(cos, mask, cores)
	b.t.total[b.layer].add(time.Since(start))
	restore()
	return err
}

// tracedSimBackend adds the simulated backends' way flush and
// occupancy monitoring.
type tracedSimBackend struct{ tracedBackend }

type simBackend interface {
	cat.Backend
	cat.WayFlusher
	cat.OccupancyReader
}

func (b *tracedSimBackend) FlushWays(mask bits.CBM) error {
	restore := b.t.enter(b.layer, lCore)
	start := time.Now()
	err := b.inner.(simBackend).FlushWays(mask)
	b.t.total[b.layer].add(time.Since(start))
	restore()
	return err
}

func (b *tracedSimBackend) GroupOccupancy(cos int, cores []int) (uint64, error) {
	return b.inner.(simBackend).GroupOccupancy(cos, cores)
}

// tracedOccBackend adds occupancy monitoring (resctrl has it, but no
// way flush).
type tracedOccBackend struct{ tracedBackend }

func (b *tracedOccBackend) GroupOccupancy(cos int, cores []int) (uint64, error) {
	return b.inner.(cat.OccupancyReader).GroupOccupancy(cos, cores)
}

// wrapBackend returns b itself when tracing is off.
func wrapBackend(b cat.Backend, t *tracer, l layer) cat.Backend {
	if !t.on {
		return b
	}
	base := tracedBackend{inner: b, t: t, layer: l}
	switch b.(type) {
	case simBackend:
		return &tracedSimBackend{base}
	case cat.OccupancyReader:
		return &tracedOccBackend{base}
	default:
		return &base
	}
}

// tracedPolicy times the step-5 allocation policy.
type tracedPolicy struct {
	inner policy.AllocationPolicy
	t     *tracer
}

// wrapPolicy resolves a policy name to a factory for
// core.Config.NewPolicy whose policies time Propose in traced runs.
func wrapPolicy(name string, t *tracer) (func() policy.AllocationPolicy, error) {
	factory, err := policy.New(name)
	if err != nil {
		return nil, err
	}
	if !t.on {
		return factory, nil
	}
	return func() policy.AllocationPolicy { return &tracedPolicy{inner: factory(), t: t} }, nil
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) Propose(v *policy.View, g *policy.Grants) {
	restore := p.t.enter(lPolicy, lCore)
	start := time.Now()
	p.inner.Propose(v, g)
	p.t.total[lPolicy].add(time.Since(start))
	restore()
}

func (p *tracedPolicy) ExportModel(w string) *policy.ModelState {
	if s, ok := p.inner.(policy.Stateful); ok {
		return s.ExportModel(w)
	}
	return nil
}

func (p *tracedPolicy) ImportModel(w string, st *policy.ModelState) {
	if s, ok := p.inner.(policy.Stateful); ok {
		s.ImportModel(w, st)
	}
}

func (p *tracedPolicy) DropModel(w string) {
	if s, ok := p.inner.(policy.Stateful); ok {
		s.DropModel(w)
	}
}

func (p *tracedPolicy) IndependentAllocator() bool {
	ind, ok := p.inner.(policy.Independent)
	return ok && ind.IndependentAllocator()
}

// tracedLocal times the local controller tick an agent drives.
type tracedLocal struct {
	*core.Controller
	t *tracer
}

var _ cluster.Local = (*tracedLocal)(nil)

func (l *tracedLocal) Tick() error {
	restore := l.t.enter(lCore, lCluster)
	start := time.Now()
	err := l.Controller.Tick()
	l.t.total[lCore].add(time.Since(start))
	restore()
	return err
}

// countingSink counts decision events at the controller's sink chain.
type countingSink struct{ n atomic.Int64 }

func (c *countingSink) Emit(obs.Event) { c.n.Add(1) }

// rpcStats is one coordinator path's client-side record.
type rpcStats struct {
	mu     sync.Mutex
	n      int64
	failed int64
	ms     []float64
}

// rpcTransport is the agents' http.RoundTripper. It counts every RPC
// and each non-2xx answer or transport error as a failed operation;
// traced runs also time each path and keep the uploaded event batches
// for the flight-recorder replay rung.
type rpcTransport struct {
	inner http.RoundTripper
	t     *tracer
	paths map[string]*rpcStats // fixed key set, read-only after construction

	batchMu sync.Mutex
	batches []cluster.EventsRequest // in upload order
}

var rpcPaths = []string{"/v1/enroll", "/v1/report", "/v1/heartbeat", "/v1/events", "/v1/placement"}

func newRPCTransport(inner http.RoundTripper, t *tracer) *rpcTransport {
	rt := &rpcTransport{inner: inner, t: t, paths: make(map[string]*rpcStats)}
	for _, p := range rpcPaths {
		rt.paths[p] = &rpcStats{}
	}
	rt.paths["other"] = &rpcStats{}
	return rt
}

func (rt *rpcTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	st, ok := rt.paths[req.URL.Path]
	if !ok {
		st = rt.paths["other"]
	}
	if rt.t.on && req.URL.Path == "/v1/events" && req.GetBody != nil {
		if body, err := req.GetBody(); err == nil {
			var er cluster.EventsRequest
			if json.NewDecoder(body).Decode(&er) == nil {
				rt.batchMu.Lock()
				rt.batches = append(rt.batches, er)
				rt.batchMu.Unlock()
			}
		}
	}
	start := time.Now()
	resp, err := rt.inner.RoundTrip(req)
	d := time.Since(start)
	failed := err != nil || resp.StatusCode < 200 || resp.StatusCode > 299
	st.mu.Lock()
	st.n++
	if failed {
		st.failed++
	}
	if rt.t.on {
		st.ms = append(st.ms, float64(d)/1e6)
	}
	st.mu.Unlock()
	if rt.t.on {
		rt.t.total[lRPC].add(d)
	}
	return resp, err
}
