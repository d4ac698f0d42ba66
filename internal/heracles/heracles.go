// Package heracles implements the cache subcontroller of Heracles (Lo
// et al., ISCA 2015) in simplified form, as a second comparison
// baseline for dCat (the paper's §7 discusses it at length).
//
// Heracles divides a machine into exactly two classes: one
// latency-critical (LC) workload with a performance target, and a pool
// of best-effort (BE) tasks that may use whatever the LC workload does
// not need. Its cache subcontroller is a feedback loop: when the LC
// workload runs below its target, best-effort cache is confiscated;
// when it has slack, best-effort cache grows back one way at a time.
//
// The loop is a policy.AllocationPolicy, so it runs inside the same
// dCat controller as every other engine. Heracles' two-CLOS layout is
// then two controller targets: the LC workload, and one best-effort
// target holding every BE tenant's cores.
//
// The structural contrasts with dCat (paper §7):
//
//   - two classes only — every non-LC tenant shares one best-effort
//     partition with no isolation between them;
//   - the LC workload must supply a performance signal (here an IPC
//     target the operator calibrates); dCat needs no target because it
//     derives its floor from the contracted baseline allocation.
package heracles

import "repro/internal/policy"

// Config tunes the feedback loop.
type Config struct {
	// TargetIPC is the LC workload's required performance.
	TargetIPC float64
	// Margin is the dead zone around the target (e.g. 0.05 = ±5%).
	Margin float64
	// GrowStep is how many ways the LC partition gains per violation.
	GrowStep int
	// YieldStep is how many ways the LC partition returns per interval
	// of sufficient slack.
	YieldStep int
	// MinLC and MinBE floor the two partitions.
	MinLC, MinBE int
}

// DefaultConfig mirrors the published controller's temperament:
// confiscate fast, yield slowly.
func DefaultConfig(targetIPC float64) Config {
	return Config{
		TargetIPC: targetIPC,
		Margin:    0.05,
		GrowStep:  2,
		YieldStep: 1,
		MinLC:     2,
		MinBE:     1,
	}
}

// Policy is the Heracles feedback loop as an allocation policy. The
// named latency-critical workload is regulated against TargetIPC; every
// other workload is best-effort. With one best-effort target (the
// Heracles layout) that target is the whole BE partition; with several
// they share it evenly, each holding at least one way.
//
// It is an Independent allocator: Heracles has no Reclaim/baseline
// contract, so the controller only enforces the ≥1-way and
// sum-within-associativity invariants on its grants.
type Policy struct {
	cfg    Config
	lcName string
	lcWays int
	inited bool
}

// NewPolicy builds the policy. lcName selects the latency-critical
// workload by controller target name; if no workload with that name is
// present in a round, every workload shares the cache evenly.
func NewPolicy(cfg Config, lcName string) *Policy {
	return &Policy{cfg: cfg, lcName: lcName}
}

// Name implements policy.AllocationPolicy.
func (p *Policy) Name() string { return "heracles" }

// IndependentAllocator implements policy.Independent.
func (p *Policy) IndependentAllocator() bool { return true }

// Propose implements policy.AllocationPolicy: one feedback round.
func (p *Policy) Propose(v *policy.View, g *policy.Grants) {
	n := len(v.Workloads)
	g.Reset(n)
	g.PoolEmpty = true
	total := v.TotalWays
	lc := -1
	for i := range v.Workloads {
		if v.Workloads[i].Name == p.lcName {
			lc = i
			break
		}
	}
	if lc < 0 || n == 1 {
		policy.EvenSplit(g.Ways, total)
		return
	}
	if !p.inited {
		p.inited = true
		p.lcWays = total / 2
	}
	// Confiscate under SLO pressure, yield under slack, hold inside the
	// margin.
	ipc := v.Workloads[lc].IPC
	switch {
	case ipc < p.cfg.TargetIPC*(1-p.cfg.Margin):
		p.lcWays += p.cfg.GrowStep
	case ipc > p.cfg.TargetIPC*(1+p.cfg.Margin):
		p.lcWays -= p.cfg.YieldStep
	}
	beFloor := max(n-1, p.cfg.MinBE) // one way per best-effort target
	p.lcWays = max(min(p.lcWays, total-beFloor), p.cfg.MinLC)
	// Spread the best-effort partition over the other targets, earlier
	// ones first, then slot the LC grant in at its own index.
	policy.EvenSplit(g.Ways[:n-1], total-p.lcWays)
	copy(g.Ways[lc+1:], g.Ways[lc:n-1])
	g.Ways[lc] = p.lcWays
}
