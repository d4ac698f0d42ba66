package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/addr"
	"repro/internal/host"
	"repro/internal/workload"
)

// specProfiles are the spec-noisy targets, one fresh simulation each:
// growth to 15 ways (omnetpp), a huge working set (mcf), streaming
// demotion to 1 way (libquantum) and a tiny working set (hmmer).
var specProfiles = []string{"omnetpp", "mcf", "libquantum", "hmmer"}

const (
	// quickCycles is the -quick experiment scale: 6 M cycles per
	// control period.
	quickCycles = 3_000_000
	specWarmup  = 3
	specSteps   = 50
)

// specNoisySchedule is the §5.2 mix (Fig. 17): one SPEC profile as
// target, two MLOAD-60MB and two lookbusy neighbours, 4 baseline ways
// each, default reactive max-fairness controller.
func specNoisySchedule() []simSpec {
	var out []simSpec
	for _, name := range specProfiles {
		prof, err := workload.ProfileByName(name)
		if err != nil {
			panic(err) // the profile list above is fixed
		}
		tenants := []simTenant{{
			name: "target", baseline: 4,
			gen: func(h *host.Host, seed int64) (workload.Generator, error) {
				return workload.NewSpec(prof, h.Allocator(), seed)
			},
		}}
		for _, n := range []string{"noisy1", "noisy2"} {
			tenants = append(tenants, simTenant{name: n, baseline: 4,
				gen: func(h *host.Host, _ int64) (workload.Generator, error) {
					return workload.NewMLOAD(60<<20, addr.PageSize4K, h.Allocator())
				}})
		}
		for _, n := range []string{"lb1", "lb2"} {
			tenants = append(tenants, simTenant{name: n, baseline: 4,
				gen: func(h *host.Host, _ int64) (workload.Generator, error) {
					return workload.NewLookbusy(h.Allocator())
				}})
		}
		out = append(out, simSpec{
			label: "spec-noisy/" + name, cycles: quickCycles, tenants: tenants,
			warmup: specWarmup, steps: specSteps,
		})
	}
	return out
}

// pinnedDigests are the simulated-statistics digests of one schedule
// pass, per workload and seed: the default seed 1 and the held-out seed
// 7919 kept for checking later claims. A run whose digest differs has
// changed the simulated behaviour, which counts as a failed check.
var pinnedDigests = map[string]map[int64][]uint64{
	wSpec: {
		1:    {0x376771193e00ee83, 0x8d6fa6d4c46d4745, 0xf4fb1decfd56c73f, 0x6b970cb115373be7},
		7919: {0xb058e49363844a6c, 0xccec5dff330c58bf, 0x55a8a66eed4b28aa, 0x6151c05b61e213c7},
	},
}

func runSpecNoisy(cfg runConfig, res *results) (*tracer, error) {
	return runSimWorkload(cfg, res, specNoisySchedule(), pinnedDigests[wSpec][cfg.seed])
}

// simPass is one pass over a schedule.
type simPass struct {
	outs    []*simOutcome
	digests []uint64
}

func (p *simPass) add(o *simOutcome) {
	p.outs = append(p.outs, o)
	p.digests = append(p.digests, o.digest)
}

func (p *simPass) stepMs() []float64 {
	var ms []float64
	for _, o := range p.outs {
		ms = append(ms, o.stepMs...)
	}
	return ms
}

// runSimWorkload runs one pass over the schedule per simPassSeconds of
// run length. Every pass builds fresh simulations from the same seed,
// so each must reproduce the first pass's digests exactly; the
// simulated metrics come from the first pass and the host-time metrics
// from all of them. A traced run follows every untraced simulation
// with a traced twin: the per-layer metrics come from the twins and
// the tracing overhead from comparing the two.
func runSimWorkload(cfg runConfig, res *results, schedule []simSpec, pinned []uint64) (*tracer, error) {
	heap := newHeapPeak()
	plain := newTracer(false, cfg.workload)
	traced := newTracer(true, cfg.workload)
	var passes, tracedPasses []simPass
	var plainNs, tracedNs int64
	start := time.Now()
	for i := 0; i < max(1, cfg.seconds/simPassSeconds) && (i == 0 || !cfg.overrun(start)); i++ {
		passStart := time.Now()
		var p, tp simPass
		for _, spec := range schedule {
			o, err := runSim(spec, cfg.seed, plain, res, heap, -1)
			if err != nil {
				return traced, err
			}
			p.add(o)
			if !cfg.traced {
				continue
			}
			// The traced twin runs right after its untraced original, so
			// both see the same machine state and the overhead estimate
			// is not swamped by drift between passes.
			captureAt := -1
			if i == 0 {
				captureAt = spec.steps / 2
			}
			to, err := runSim(spec, cfg.seed, traced, res, heap, captureAt)
			if err != nil {
				return traced, err
			}
			res.attempted++
			if to.digest != o.digest {
				res.fail(fmt.Errorf("%s: traced digest %016x differs from untraced %016x", spec.label, to.digest, o.digest))
			}
			tp.add(to)
			plainNs += o.runNs + o.tickNs
			tracedNs += to.runNs + to.tickNs
		}
		if i > 0 {
			for j, d := range p.digests {
				res.attempted++
				if d != passes[0].digests[j] {
					res.fail(fmt.Errorf("%s: pass %d digest %016x differs from pass 0's %016x",
						schedule[j].label, i, d, passes[0].digests[j]))
				}
			}
		}
		passes = append(passes, p)
		if cfg.traced {
			tracedPasses = append(tracedPasses, tp)
		}
		fmt.Printf("pass %d: %d steps, median %.3f ms, %.1f s\n", i, len(p.stepMs()), median(p.stepMs()), time.Since(passStart).Seconds())
		for j, o := range p.outs {
			fmt.Printf("  %s: step median %.3f ms, %.4g accesses/s\n", schedule[j].label, median(o.stepMs),
				float64(o.accesses)/(float64(o.runNs+o.tickNs)/1e9))
		}
	}
	checkPinned(cfg, res, schedule, passes[0].digests, pinned)

	if cfg.traced {
		simLayerMetrics(res, tracedPasses, float64(tracedNs)/float64(plainNs))
		return traced, nil
	}

	var setups []float64
	for _, p := range passes {
		for _, o := range p.outs {
			setups = append(setups, o.setup.Seconds())
		}
	}
	var ipc []float64
	norm := map[string][]float64{}
	for _, o := range passes[0].outs {
		ipc = append(ipc, o.ipc...)
		for name, v := range o.normIPC {
			norm[name] = append(norm[name], v)
		}
	}
	res.set("setup_s", median(setups))
	res.set("heap_peak_mb", heap.mb())
	rate, steps := pooledSteps(bestOfPasses(passes))
	res.set("throughput_per_s", rate)
	setPercentiles(res, "step_ms", steps)
	res.set("tenant_ipc_geomean", geomean(ipc))
	// The guarantee metric: the worst tenant's normalized IPC, taking
	// for each tenant the median over the schedule's simulations so one
	// simulation's outlier does not decide it.
	minNorm := math.NaN()
	for _, vs := range norm {
		if v := median(vs); math.IsNaN(minNorm) || v < minNorm {
			minNorm = v
		}
	}
	res.set("norm_ipc_min", minNorm)
	return plain, nil
}

// bestOfPasses returns, for each simulation of the schedule, every
// timed step's host time as its minimum over the passes. The passes
// repeat the same simulated work step for step (their digests must
// match), so the minimum is the step's own cost with a burst of host
// interference during one pass filtered out: on a shared machine such
// bursts, not the program, otherwise decide the tail.
func bestOfPasses(passes []simPass) []*simOutcome {
	best := make([]*simOutcome, len(passes[0].outs))
	for j, o := range passes[0].outs {
		b := &simOutcome{stepMs: append([]float64(nil), o.stepMs...), stepAccesses: o.stepAccesses}
		for _, p := range passes[1:] {
			for i, ms := range p.outs[j].stepMs {
				b.stepMs[i] = min(b.stepMs[i], ms)
			}
		}
		best[j] = b
	}
	return best
}

// pooledSteps combines the schedule's simulations, which differ in
// speed by profile (mcf's steps are not hmmer's), into figures that do
// not hinge on where the profiles' step-time modes fall. The access
// rate is the geometric mean over simulations of each one's median
// per-step rate; the step times are pooled after scaling each
// simulation's steps so its median is the geometric mean of the
// simulations' medians, so the pooled percentiles keep every
// simulation's spread but not the gaps between profiles.
func pooledSteps(outs []*simOutcome) (rate float64, steps []float64) {
	var rates, meds []float64
	for _, o := range outs {
		r := make([]float64, len(o.stepMs))
		for i, ms := range o.stepMs {
			r[i] = o.stepAccesses[i] / (ms / 1e3)
		}
		rates = append(rates, median(r))
		meds = append(meds, median(o.stepMs))
	}
	common := geomean(meds)
	for i, o := range outs {
		for _, ms := range o.stepMs {
			steps = append(steps, ms*common/meds[i])
		}
	}
	return geomean(rates), steps
}

// setPercentiles records <prefix>_p50 and <prefix>_p95, failing the
// run when the sample is too small for a p95 with ten samples beyond.
func setPercentiles(res *results, prefix string, xs []float64) {
	for _, p := range []float64{50, 95} {
		v, err := percentile(xs, p)
		if err != nil {
			res.fail(fmt.Errorf("%s: %w", prefix, err))
			continue
		}
		res.set(fmt.Sprintf("%s_p%g", prefix, p), v)
	}
}

// checkPinned prints the first pass's digests and compares them with
// the pinned values for this seed, when it has them.
func checkPinned(cfg runConfig, res *results, schedule []simSpec, got, pinned []uint64) {
	for j, d := range got {
		fmt.Printf("digest %s seed=%d %016x\n", schedule[j].label, cfg.seed, d)
		if pinned == nil {
			continue
		}
		res.attempted++
		if j >= len(pinned) || d != pinned[j] {
			res.fail(fmt.Errorf("%s seed %d: digest %016x differs from the pinned one", schedule[j].label, cfg.seed, d))
		}
	}
}

// simLayerMetrics derives the per-layer metrics of the simulator
// workloads from the traced passes.
func simLayerMetrics(res *results, passes []simPass, tracedOverPlain float64) {
	var l snapshot
	var steps, ticks int
	var lines int64
	var accesses uint64
	var stepNs float64
	var l1h, l1m uint64
	var llcHits, llcMisses, llcEvict uint64
	for _, p := range passes {
		for _, o := range p.outs {
			for i := range l {
				l[i].n += o.layers[i].n
				l[i].ns += o.layers[i].ns
			}
			steps += len(o.stepMs)
			ticks += o.ticks
			lines += o.lines
			accesses += o.accesses
			stepNs += float64(o.runNs + o.tickNs)
			l1h += o.l1Hits
			l1m += o.l1Misses
			llcHits += o.llc.Hits
			llcMisses += o.llc.Misses
			llcEvict += o.llc.Evictions
		}
	}
	wl := float64(l[lWorkload].ns)
	hostSelf := float64(l[lHost].ns) - wl
	coreSelf := float64(l[lCore].ns - l[lPolicy].ns - l[lCat].ns)
	res.set("workload.lines", float64(lines)/float64(steps))
	res.set("workload.lines_per_s", ratio(1e9*float64(lines), wl))
	res.set("workload.step_share_pct", 100*wl/stepNs)
	res.set("host.accesses_per_s", ratio(1e9*float64(accesses), hostSelf))
	res.set("host.step_share_pct", 100*hostSelf/stepNs)
	res.set("core.tick_self_us", coreSelf/1e3/float64(ticks))
	res.set("core.ticks", float64(ticks))
	res.set("core.step_share_pct", 100*coreSelf/stepNs)
	res.set("policy.propose_us", ratio(float64(l[lPolicy].ns)/1e3, float64(l[lPolicy].n)))
	res.set("policy.proposals", float64(l[lPolicy].n))
	res.set("policy.step_share_pct", 100*float64(l[lPolicy].ns)/stepNs)
	res.set("cat.sim_apply_us", ratio(float64(l[lCat].ns)/1e3, float64(l[lCat].n)))
	res.set("cat.applies_per_tick", float64(l[lCat].n)/float64(ticks))
	res.set("cat.step_share_pct", 100*float64(l[lCat].ns)/stepNs)
	res.set("memsys.l1_hit_ratio", ratio(float64(l1h), float64(l1h+l1m)))
	res.set("cache.llc_hit_ratio", ratio(float64(llcHits), float64(llcHits+llcMisses)))
	res.set("cache.llc_evictions_per_kaccess", ratio(1000*float64(llcEvict), float64(llcHits+llcMisses)))
	var memRate, llcRate []float64
	for _, o := range passes[0].outs {
		if o.capture == nil {
			continue
		}
		if v, err := o.capture.replayMemsys(); err != nil {
			res.fail(fmt.Errorf("memsys replay: %w", err))
		} else {
			memRate = append(memRate, 1e9/v)
		}
		if v, err := o.capture.replayLLC(); err != nil {
			res.fail(fmt.Errorf("cache replay: %w", err))
		} else {
			llcRate = append(llcRate, 1e9/v)
		}
		o.capture = nil
	}
	res.set("memsys.accesses_per_s", median(memRate))
	res.set("cache.llc_accesses_per_s", median(llcRate))
	res.set("perfbench.trace_overhead_pct", 100*(tracedOverPlain-1))
	fmt.Printf("shape: workload %.1f%% host %.1f%% core %.2f%% policy %.3f%% cat %.3f%% of step time; "+
		"L1 hit %.3f, LLC hit %.3f, CAT applies/tick %.2f\n",
		100*wl/stepNs, 100*hostSelf/stepNs, 100*coreSelf/stepNs, 100*float64(l[lPolicy].ns)/stepNs,
		100*float64(l[lCat].ns)/stepNs, ratio(float64(l1h), float64(l1h+l1m)),
		ratio(float64(llcHits), float64(llcHits+llcMisses)),
		float64(l[lCat].n)/float64(ticks))
}
