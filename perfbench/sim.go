package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/bits"
	"repro/internal/cache"
	"repro/internal/cat"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/memsys"
	"repro/internal/perf"
	"repro/internal/workload"
)

// simTenant declares one VM of a simulator workload.
type simTenant struct {
	name     string
	baseline int
	// gen builds the tenant's generator from the host (for its frame
	// allocators) and the run's seed.
	gen func(h *host.Host, seed int64) (workload.Generator, error)
}

// simSpec is one simulation of a simulator workload: a single-socket
// host, its tenants, the reactive controller and a fixed interval
// schedule.
type simSpec struct {
	label   string
	cycles  uint64
	tenants []simTenant
	warmup  int // untimed intervals while the caches fill
	steps   int // timed control periods
}

// sim is one built simulation.
type sim struct {
	spec  simSpec
	h     *host.Host
	ctl   *core.Controller
	mgr   *cat.Manager
	t     *tracer
	lines atomic.Int64
}

// buildSim constructs the host, tenants, CAT managers and controller.
func buildSim(spec simSpec, seed int64, t *tracer) (*sim, error) {
	cfg := host.DefaultConfig()
	cfg.CyclesPerInterval = spec.cycles
	cfg.Seed = seed
	h, err := host.New(cfg)
	if err != nil {
		return nil, err
	}
	s := &sim{spec: spec, h: h, t: t}
	for i, tn := range spec.tenants {
		g, err := tn.gen(h, seed+int64(i))
		if err != nil {
			return nil, fmt.Errorf("%s: building %s: %w", spec.label, tn.name, err)
		}
		if t.on {
			g = wrapGen(g, t, &s.lines)
		}
		if _, err := h.AddVM(tn.name, 2, g); err != nil {
			return nil, fmt.Errorf("%s: %w", spec.label, err)
		}
	}
	ccfg := core.DefaultConfig()
	if ccfg.NewPolicy, err = wrapPolicy("reactive", t); err != nil {
		return nil, err
	}
	var targets []core.Target
	for _, vm := range h.VMs() {
		targets = append(targets, core.Target{Name: vm.Name, Cores: vm.Cores, BaselineWays: spec.tenants[len(targets)].baseline})
	}
	b, err := cat.NewSimBackend(h.System())
	if err != nil {
		return nil, err
	}
	if s.mgr, err = cat.NewManager(wrapBackend(b, t, lCat)); err != nil {
		return nil, err
	}
	if s.ctl, err = core.New(ccfg, s.mgr, h.Counters(), targets); err != nil {
		return nil, err
	}
	return s, nil
}

// step runs one control period: the host interval, then the
// controller tick. It returns the two host times.
func (s *sim) step() (run, tick time.Duration, err error) {
	run = s.t.do(lHost, s.h.RunInterval)
	tick = s.t.do(lCore, func() { err = s.ctl.Tick() })
	return run, tick, err
}

// checkInvariants is the per-tick correctness check: every tenant
// holds at least one way and the CAT table validates.
func (s *sim) checkInvariants(snap []core.Status) error {
	for _, st := range snap {
		if st.Ways < 1 {
			return fmt.Errorf("%s: tenant %s holds %d ways", s.spec.label, st.Name, st.Ways)
		}
	}
	if err := s.mgr.Validate(); err != nil {
		return fmt.Errorf("%s: %w", s.spec.label, err)
	}
	return nil
}

// l1Counts sums the L1 hit/miss counters over every tenant core.
func (s *sim) l1Counts() (hits, misses uint64) {
	r := s.h.Counters()
	for _, vm := range s.h.VMs() {
		for _, c := range vm.Cores {
			hits += r.ReadCounter(c, perf.L1Hits)
			misses += r.ReadCounter(c, perf.L1Misses)
		}
	}
	return hits, misses
}

// simOutcome is what one simulation contributes to a run.
type simOutcome struct {
	setup  time.Duration
	stepMs []float64
	// stepAccesses is the simulated accesses of each timed step.
	stepAccesses []float64
	runNs        int64
	tickNs       int64
	accesses     uint64
	ipc          []float64          // per tenant: mean IPC over the timed steps
	normIPC      map[string]float64 // per tenant: mean steady-state normalized IPC, where measured
	digest       uint64
	layers       snapshot // per-layer totals over the timed steps (traced runs)
	ticks        int
	lines        int64
	// Traced runs only.
	l1Hits, l1Misses uint64
	llc              cache.Stats
	capture          *capture
}

// runSim builds one simulation, warms it up untimed, then runs its
// timed schedule, checking invariants after every tick. The heap is
// sampled when the timed steps end, while the simulation is live.
func runSim(spec simSpec, seed int64, t *tracer, res *results, heap *heapPeak, captureAt int) (*simOutcome, error) {
	start := time.Now()
	s, err := buildSim(spec, seed, t)
	if err != nil {
		return nil, err
	}
	for i := 0; i < spec.warmup; i++ {
		if _, _, err := s.step(); err != nil {
			return nil, fmt.Errorf("%s: warm-up: %w", spec.label, err)
		}
	}
	out := &simOutcome{setup: time.Since(start), normIPC: make(map[string]float64)}
	n := len(spec.tenants)
	ipcSum := make([]float64, n)
	normSum := make([]float64, n)
	normN := make([]int, n)
	d := newDigest()
	accBefore := totalAccesses(s.h)
	l1h0, l1m0 := s.l1Counts()
	llc0 := s.h.System().LLC().Stats()
	before := t.snap()
	lines0 := s.lines.Load()
	for i := 0; i < spec.steps; i++ {
		if t.on && i == captureAt {
			out.capture = startCapture(s)
		}
		var stepBefore snapshot
		if t.on {
			stepBefore = t.snap()
		}
		stepStart := time.Now()
		run, tick, err := s.step()
		res.op(err)
		if err != nil {
			return nil, fmt.Errorf("%s: step %d: %w", spec.label, i, err)
		}
		if out.capture != nil && out.capture.active {
			out.capture.stop(s)
		}
		out.stepMs = append(out.stepMs, float64(run+tick)/1e6)
		out.runNs += int64(run)
		out.tickNs += int64(tick)
		if t.on {
			id := t.span(0, "step", stepStart, run+tick, 0)
			t.childSpans(id, stepStart, t.snap().sub(stepBefore), lHost, lWorkload, lCore, lPolicy, lCat)
		}
		snap := s.ctl.Snapshot()
		if err := s.checkInvariants(snap); err != nil {
			res.fail(err)
		}
		var acc uint64
		for _, vm := range s.h.VMs() {
			m := vm.Last()
			d.u64(m.Instructions, m.Cycles, m.Accesses, m.LatencySum)
			acc += m.Accesses
		}
		out.stepAccesses = append(out.stepAccesses, float64(acc))
		byName := make(map[string]core.Status, len(snap))
		for _, st := range snap {
			byName[st.Name] = st
		}
		for j, tn := range spec.tenants {
			st := byName[tn.name]
			d.u64(uint64(st.Ways))
			vm, _ := s.h.VM(tn.name)
			ipcSum[j] += vm.Last().IPC()
			// Steady state is the second half of the timed steps: by then
			// every phase baseline is measured and allocations settle.
			if st.NormIPC > 0 && i >= spec.steps/2 {
				normSum[j] += st.NormIPC
				normN[j]++
			}
		}
	}
	heap.checkpoint() // while the simulation is still live
	out.layers = t.snap().sub(before)
	out.lines = s.lines.Load() - lines0
	out.ticks = spec.steps
	out.accesses = totalAccesses(s.h) - accBefore
	for _, vm := range s.h.VMs() {
		tot := vm.Total()
		d.u64(tot.Instructions, tot.Cycles, tot.Accesses, tot.LatencySum)
	}
	out.digest = d.sum()
	for j := range spec.tenants {
		out.ipc = append(out.ipc, ipcSum[j]/float64(spec.steps))
		if normN[j] > 0 {
			out.normIPC[spec.tenants[j].name] = normSum[j] / float64(normN[j])
		}
	}
	if t.on {
		l1h, l1m := s.l1Counts()
		out.l1Hits, out.l1Misses = l1h-l1h0, l1m-l1m0
		llc := s.h.System().LLC().Stats()
		out.llc = cache.Stats{Hits: llc.Hits - llc0.Hits, Misses: llc.Misses - llc0.Misses, Evictions: llc.Evictions - llc0.Evictions}
	}
	return out, nil
}

func totalAccesses(h *host.Host) uint64 {
	var n uint64
	for _, vm := range h.VMs() {
		n += vm.Total().Accesses
	}
	return n
}

// digest is an FNV-1a hash over simulated statistics.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) u64(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		d.h.Write(b[:])
	}
}

func (d *digest) sum() uint64 { return d.h.Sum64() }

// capture is one interval's interleaved access stream, tapped with
// VM.SetObserver, plus the fill masks it ran under: the input of the
// memsys and cache replay rungs.
type capture struct {
	active bool
	lines  []uint64
	runs   []captureRun
	masks  map[int]bits.CBM // core -> LLC mask during the interval
	mem    memsys.Config
}

type captureRun struct{ core, end int }

type tap struct {
	c    *capture
	core int
}

func (tp tap) Observe(line uint64) {
	c := tp.c
	if n := len(c.runs); n == 0 || c.runs[n-1].core != tp.core {
		c.runs = append(c.runs, captureRun{core: tp.core})
	}
	c.lines = append(c.lines, line)
	c.runs[len(c.runs)-1].end = len(c.lines)
}

func startCapture(s *sim) *capture {
	c := &capture{active: true, masks: make(map[int]bits.CBM)}
	for _, vm := range s.h.VMs() {
		lead := vm.Cores[0]
		vm.SetObserver(tap{c: c, core: lead})
		c.masks[lead] = s.h.System().Mask(lead)
	}
	c.mem = s.h.System().Config()
	return c
}

func (c *capture) stop(s *sim) {
	for _, vm := range s.h.VMs() {
		vm.SetObserver(nil)
	}
	c.active = false
}

// replayMemsys replays the capture through a fresh memory system of the
// same geometry and masks: once to warm it, once timed. It returns the
// host nanoseconds per access of the timed pass.
func (c *capture) replayMemsys() (float64, error) {
	mem, err := memsys.New(c.mem)
	if err != nil {
		return 0, err
	}
	for core, m := range c.masks {
		if err := mem.SetMask(core, m); err != nil {
			return 0, err
		}
	}
	var elapsed time.Duration
	for pass := 0; pass < 2; pass++ {
		passes := make(map[int]memsys.IntervalPass)
		start := time.Now()
		prev := 0
		for _, r := range c.runs {
			p, ok := passes[r.core]
			if !ok {
				p = mem.BeginInterval(r.core)
				passes[r.core] = p
			}
			p.AccessMany(c.lines[prev:r.end])
			prev = r.end
		}
		for _, p := range passes {
			p.Close()
		}
		elapsed = time.Since(start)
	}
	return float64(elapsed) / float64(len(c.lines)), nil
}

// replayLLC filters the capture through per-core L1s, then replays the
// L1-miss stream through a standalone LLC of the live geometry under the
// tenants' masks: once to warm, once timed. It returns nanoseconds per
// LLC access of the timed pass.
func (c *capture) replayLLC() (float64, error) {
	mem := c.mem
	type access struct {
		line uint64
		mask bits.CBM
		core uint16
	}
	l1s := make(map[int]*cache.Cache)
	var stream []access
	prev := 0
	for _, r := range c.runs {
		l1, ok := l1s[r.core]
		if !ok {
			var err error
			if l1, err = cache.New(mem.L1); err != nil {
				return 0, err
			}
			l1s[r.core] = l1
		}
		full := bits.FullMask(mem.L1.Ways)
		for _, line := range c.lines[prev:r.end] {
			if !l1.Access(line, full, 0).Hit {
				stream = append(stream, access{line: line, mask: c.masks[r.core], core: uint16(r.core)})
			}
		}
		prev = r.end
	}
	if len(stream) == 0 {
		return 0, fmt.Errorf("capture has no LLC traffic")
	}
	llc, err := cache.New(mem.LLC)
	if err != nil {
		return 0, err
	}
	var elapsed time.Duration
	for pass := 0; pass < 2; pass++ {
		start := time.Now()
		for _, a := range stream {
			llc.Access(a.line, a.mask, a.core)
		}
		elapsed = time.Since(start)
	}
	return float64(elapsed) / float64(len(stream)), nil
}

// ratio returns a/b, or NaN when b is zero so an unmeasured ratio is
// reported as missing rather than as 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}
