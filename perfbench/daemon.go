package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/cat"
	"repro/internal/core"
	"repro/internal/perf"
)

const (
	daemonSingles = 4  // single-socket Controllers
	daemonMultis  = 2  // two-socket MultiControllers
	daemonTenants = 15 // per socket: the 16-COS limit minus the default class
	daemonPeriod  = 3  // minimum ticks per scripted phase
	setupRepeats  = 25 // set-ups per run; setup_s is their median
	twinRounds    = 60 // rounds replayed on the resctrl twins after the timed phase
	normEvery     = 16 // steady-state rounds between two normalized-IPC samples
	reservoirSize = 100_000
)

// controller is what a loop needs from Controller and MultiController
// alike.
type controller interface {
	Tick() error
	Snapshot() []core.Status
}

// daemonLoop is one dcatd-shaped decision loop: a controller (single
// or multi-socket), its counter file and its CAT domains.
type daemonLoop struct {
	ctl     controller
	ways    func(string) int
	file    *perf.File
	domains []*domain
}

// tick feeds one interval of scripted counters, then ticks the
// controller and returns how long Tick took.
func (l *daemonLoop) tick(t *tracer) (time.Duration, error) {
	for _, d := range l.domains {
		d.feedAll(l.file, l.ways)
	}
	var err error
	dur := t.do(lCore, func() { err = l.ctl.Tick() })
	return dur, err
}

// check runs every domain's per-tick check.
func (l *daemonLoop) check() error {
	for _, d := range l.domains {
		if err := d.check(); err != nil {
			return err
		}
	}
	return nil
}

// buildDaemon builds every loop of the daemon-tick workload. Policies
// rotate through reactive max-fairness, reactive max-performance,
// predictive and lfoc. With resctrl set the domains are mock resctrl
// trees under dirName; otherwise they are small simulated LLCs.
func buildDaemon(cfg runConfig, t *tracer, sink *countingSink, dirName string, resctrl bool) ([]*daemonLoop, error) {
	root, err := scratchDir(cfg.dir, dirName)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	type flavour struct {
		policy string
		perf   bool
	}
	flavours := []flavour{{"reactive", false}, {"reactive", true}, {"predictive", false}, {"lfoc", false}}
	var loops []*daemonLoop
	for i := 0; i < daemonSingles+daemonMultis; i++ {
		fl := flavours[i%len(flavours)]
		ccfg := core.DefaultConfig()
		if fl.perf {
			ccfg.Policy = core.MaxPerformance
		}
		if ccfg.NewPolicy, err = wrapPolicy(fl.policy, t); err != nil {
			return nil, err
		}
		nSockets := 1
		if i >= daemonSingles {
			nSockets = 2
		}
		backends := make([]cat.Backend, nSockets)
		if !resctrl {
			if backends, err = simBackends(nSockets); err != nil {
				return nil, err
			}
		}
		l := &daemonLoop{file: perf.NewFile(nSockets * coresPerSocket)}
		var specs []core.SocketSpec
		for s := 0; s < nSockets; s++ {
			dir := filepath.Join(root, fmt.Sprintf("loop%d-socket%d", i, s))
			d, err := newDomain(backends[s], dir, s, daemonTenants, daemonPeriod, rng, t)
			if err != nil {
				return nil, err
			}
			l.domains = append(l.domains, d)
			specs = append(specs, core.SocketSpec{Socket: s, Mgr: d.mgr, Targets: d.targets})
		}
		if nSockets == 1 {
			c, err := core.New(ccfg, specs[0].Mgr, l.file, specs[0].Targets)
			if err != nil {
				return nil, err
			}
			c.SetSink(sink)
			l.ctl, l.ways = c, c.Ways
		} else {
			m, err := core.NewMulti(ccfg, l.file, specs)
			if err != nil {
				return nil, err
			}
			m.SetSink(sink)
			l.ctl, l.ways = m, m.Ways
		}
		loops = append(loops, l)
	}
	return loops, nil
}

// runDaemonTick drives every loop round-robin from one goroutine,
// closed-loop: feed one interval of scripted counters, tick, check.
// Only the Tick call is timed.
//
// The timed loops program small simulated LLCs, so a tick is CPU work
// in core, policy and cat. After the timed phase, a twin of every loop
// over mock resctrl trees replays the first twinRounds rounds with the
// same scripts: after each of its ticks it must hold the allocation the
// timed loop held, and each resctrl group must read back the manager's
// mask. Keeping the file writes out of (and away from) the timed path
// keeps disk latency out of the end-to-end metrics; the traced run
// times the twins' writes as the resctrl layer. A traced run also ticks
// an untraced copy of the timed loops after each traced one, so the
// tracing overhead compares like with like.
func runDaemonTick(cfg runConfig, res *results) (*tracer, error) {
	t := newTracer(cfg.traced, cfg.workload)
	plain := newTracer(false, cfg.workload)
	sink := &countingSink{}
	var setups []float64
	var loops, plainLoops []*daemonLoop
	for i := 0; i < setupRepeats; i++ {
		loops = nil // let the previous set-up go before building the next
		start := time.Now()
		var err error
		if loops, err = buildDaemon(cfg, t, sink, "daemon", false); err != nil {
			return t, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	if cfg.traced {
		var err error
		if plainLoops, err = buildDaemon(cfg, plain, &countingSink{}, "daemon-untraced", false); err != nil {
			return t, err
		}
	}
	heap := newHeapPeak() // the measured phase's heap, not the set-ups'
	events0 := sink.n.Load()
	base := t.snap()
	tickMs := newReservoir(reservoirSize, cfg.seed)
	var busy, plainBusy time.Duration
	var trace [][]int // allocations after each of the first twinRounds rounds, loop by loop
	start := time.Now()
	rounds := daemonRoundsPerSecond * cfg.seconds
	for round := 0; round < rounds; round++ {
		if cfg.overrun(start) {
			res.fail(fmt.Errorf("stopped after %d of %d rounds at the time limit", round, rounds))
			break
		}
		for i, l := range loops {
			before := t.snap()
			tickStart := time.Now()
			d, err := l.tick(t)
			res.op(err)
			busy += d
			tickMs.add(float64(d) / 1e6)
			if t.on {
				id := t.span(0, "tick", tickStart, d, 0)
				t.childSpans(id, tickStart, t.snap().sub(before), lPolicy, lCat)
			}
			res.op(l.check())
			if round < twinRounds {
				trace = append(trace, l.allocation())
			}
			if round >= rounds/2 && round%normEvery == 0 {
				snap := l.ctl.Snapshot()
				for _, d := range l.domains {
					d.observe(snap)
				}
			}
			if cfg.traced {
				d, err := plainLoops[i].tick(plain)
				res.op(err)
				plainBusy += d
			}
		}
		if (round+1)%(rounds/4) == 0 {
			heap.checkpoint()
		}
	}
	twinT := newTracer(cfg.traced, cfg.workload)
	twins, err := buildDaemon(cfg, twinT, &countingSink{}, "daemon-resctrl", true)
	if err != nil {
		return t, err
	}
	twinBase := twinT.snap()
	for k, want := range trace {
		twin := twins[k%len(twins)]
		_, err := twin.tick(twinT)
		res.op(err)
		res.op(twin.check())
		res.op(sameAllocation(want, twin.allocation()))
	}
	rt := twinT.snap().sub(twinBase)
	events := sink.n.Load() - events0
	fmt.Printf("daemon-tick: %d ticks over %d loops, %d decision events\n", tickMs.n, len(loops), events)
	if !cfg.traced {
		var domains []*domain
		for _, l := range loops {
			domains = append(domains, l.domains...)
		}
		geo, normMin := tenantIPC(domains)
		res.set("setup_s", median(setups))
		res.set("heap_peak_mb", heap.mb())
		res.set("throughput_per_s", float64(tickMs.n)/busy.Seconds())
		setPercentiles(res, "step_ms", tickMs.buf)
		res.set("tenant_ipc_geomean", geo)
		res.set("norm_ipc_min", normMin)
		return t, nil
	}
	l := t.snap().sub(base)
	ticks := float64(tickMs.n)
	coreSelf := float64(l[lCore].ns - l[lPolicy].ns - l[lCat].ns)
	total := float64(l[lCore].ns)
	res.set("core.tick_self_us", coreSelf/1e3/ticks)
	res.set("core.ticks", ticks)
	res.set("core.step_share_pct", 100*coreSelf/total)
	res.set("policy.propose_us", ratio(float64(l[lPolicy].ns)/1e3, float64(l[lPolicy].n)))
	res.set("policy.proposals", float64(l[lPolicy].n))
	res.set("policy.step_share_pct", 100*float64(l[lPolicy].ns)/total)
	res.set("cat.sim_apply_us", ratio(float64(l[lCat].ns)/1e3, float64(l[lCat].n)))
	res.set("cat.applies_per_tick", float64(l[lCat].n)/ticks)
	res.set("cat.step_share_pct", 100*float64(l[lCat].ns)/total)
	res.set("resctrl.applies_per_s", ratio(1e9*float64(rt[lResctrl].n), float64(rt[lResctrl].ns)))
	res.set("resctrl.applies_per_tick", float64(rt[lResctrl].n)/float64(len(trace)))
	res.set("obs.events_per_tick", float64(events)/ticks)
	res.set("perfbench.trace_overhead_pct", 100*(float64(busy)/float64(plainBusy)-1))
	fmt.Printf("shape: core %.1f%% policy %.1f%% cat %.1f%% of tick time; applies/tick %.2f; resctrl apply %.0f us; events/tick %.2f\n",
		100*coreSelf/total, 100*float64(l[lPolicy].ns)/total, 100*float64(l[lCat].ns)/total,
		float64(l[lCat].n)/ticks, ratio(float64(rt[lResctrl].ns)/1e3, float64(rt[lResctrl].n)), float64(events)/ticks)
	return t, nil
}

// allocation lists the loop's way counts in tenant order.
func (l *daemonLoop) allocation() []int {
	var out []int
	for _, d := range l.domains {
		for _, tg := range d.targets {
			out = append(out, l.ways(tg.Name))
		}
	}
	return out
}

// sameAllocation checks that a resctrl twin holds the way counts its
// timed loop held after the same tick: the backend must not change a
// decision.
func sameAllocation(want, got []int) error {
	for i := range want {
		if i >= len(got) || want[i] != got[i] {
			return fmt.Errorf("tenant %d: %v ways on the simulated LLC, %v on resctrl", i, want, got)
		}
	}
	return nil
}
