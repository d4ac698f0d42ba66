package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/cache"
	"repro/internal/cat"
	"repro/internal/core"
	"repro/internal/memsys"
	"repro/internal/perf"
	"repro/internal/resctrl"
)

// scripted is one tenant's counter script for the workloads without a
// simulator: per-interval perf deltas that depend on the tenant's
// current allocation and on a phase that changes every period ticks,
// all drawn from the seed. A phase fixes how many ways the tenant's
// working set needs and its memory intensity; kinds stand for a
// cache-sensitive tenant, a streamer and a tenant that fits anywhere.
type scripted struct {
	kind   int // 0 sensitive, 1 streaming, 2 fits
	period int
	phases []phase
	tick   int

	// The tenant's performance over the run: the sum of its IPC over
	// every interval, and of its normalized IPC over the steady-state
	// samples taken with observe.
	ipcSum, normSum float64
	normN           int
}

type phase struct {
	need int     // ways the working set needs
	mapi float64 // memory accesses per instruction
}

const (
	kindSensitive = iota
	kindStreaming
	kindFits
)

// newScripted makes the script for position i of a domain. Phases
// recur: the tenant cycles through a short list, so predictive
// policies can learn it. Kind, period, phase count and each phase's
// working set are fixed by position, so every seed gives a domain the
// same mix of behaviours; the seed decides which tenant gets which
// position (newDomain) and jitters each phase's intensity.
func newScripted(rng *rand.Rand, i, period int) *scripted {
	s := &scripted{period: period + i%period}
	switch r := i % 10; {
	case r < 6:
		s.kind = kindSensitive
	case r < 8:
		s.kind = kindStreaming
	default:
		s.kind = kindFits
	}
	for p := 0; p < 2+i%2; p++ {
		s.phases = append(s.phases, phase{need: 2 + (3*i+5*p)%8, mapi: 0.2 + 0.1*float64(p) + 0.05*rng.Float64()})
	}
	return s
}

// sample returns this interval's counter deltas for a tenant holding
// ways, then advances the script by one interval.
func (s *scripted) sample(ways int) perf.Sample {
	ph := s.phases[(s.tick/s.period)%len(s.phases)]
	s.tick++
	const retIns = 1_000_000
	accesses := uint64(ph.mapi * retIns)
	llcRef := accesses / 4
	var miss float64
	switch s.kind {
	case kindSensitive:
		miss = 0.01
		if ways < ph.need {
			miss = 0.01 + 0.5*float64(ph.need-ways)/float64(ph.need)
		}
	case kindStreaming:
		miss = 0.9
	case kindFits:
		miss = 0.005
		llcRef = accesses / 50
	}
	llcMiss := uint64(miss * float64(llcRef))
	cycles := uint64(0.6*retIns) + llcMiss*200/2
	s.ipcSum += float64(retIns) / float64(cycles)
	return perf.Sample{L1Ref: accesses, LLCRef: llcRef, LLCMiss: llcMiss, RetIns: retIns, Cycles: cycles}
}

// feed adds a sample to a core's counter bank the way the hardware
// counters would have counted it.
func feed(f *perf.File, core int, s perf.Sample) {
	bank := f.Core(core)
	bank.Add(perf.L1Hits, s.L1Ref-s.LLCRef)
	bank.Add(perf.L1Misses, s.LLCRef)
	bank.Add(perf.LLCReferences, s.LLCRef)
	bank.Add(perf.LLCMisses, s.LLCMiss)
	bank.Add(perf.RetiredInstructions, s.RetIns)
	bank.Add(perf.UnhaltedCycles, s.Cycles)
}

// domain is one CAT domain of the workloads without a simulator: its
// manager, its tenants and their scripts. A resctrl domain programs a
// mock resctrl tree on disk; a simulated one programs a small
// simulated LLC, so its cost is CPU work only.
type domain struct {
	mgr     *cat.Manager
	rt      *resctrl.Backend // nil for a simulated domain
	targets []core.Target
	scripts []*scripted
}

// coresPerSocket is the core count of the small simulated sockets; one
// tenant per core, global core IDs socket*coresPerSocket+local.
const coresPerSocket = 16

// smallSocket is a 20-way LLC with 64 sets: the associativity the
// controller reasons about, at a size whose way flushes cost little.
func smallSocket() memsys.Config {
	return memsys.Config{
		Cores: coresPerSocket,
		L1:    cache.Config{Name: "L1d", SizeBytes: 4 << 10, Ways: 8},
		LLC:   cache.Config{Name: "LLC", SizeBytes: 20 * 64 * cache.LineSize, Ways: 20},
		Lat:   memsys.DefaultLatency,
	}
}

// simBackends returns one simulated CAT backend per socket over a
// fresh small machine: a single System for one socket, a NUMASystem
// otherwise.
func simBackends(sockets int) ([]cat.Backend, error) {
	if sockets == 1 {
		sys, err := memsys.New(smallSocket())
		if err != nil {
			return nil, err
		}
		b, err := cat.NewSimBackend(sys)
		if err != nil {
			return nil, err
		}
		return []cat.Backend{b}, nil
	}
	n, err := memsys.NewNUMA(memsys.NUMAConfig{
		Sockets: sockets, Socket: smallSocket(), MemBytesPerSocket: 64 << 20, RemotePenalty: memsys.DefaultRemotePenalty,
	})
	if err != nil {
		return nil, err
	}
	var out []cat.Backend
	for s := 0; s < sockets; s++ {
		b, err := cat.NewNUMABackend(n, s)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// newDomain builds a domain with n single-core tenants on socket. With
// a nil backend it creates a mock resctrl tree under dir instead.
func newDomain(b cat.Backend, dir string, socket, n, period int, rng *rand.Rand, t *tracer) (*domain, error) {
	d := &domain{}
	l := lCat
	if b == nil {
		if err := resctrl.CreateMockTree(dir, 20, cat.MaxCOS, (socket+1)*coresPerSocket); err != nil {
			return nil, err
		}
		rt, err := resctrl.NewBackend(dir)
		if err != nil {
			return nil, err
		}
		d.rt, b, l = rt, rt, lResctrl
	}
	mgr, err := cat.NewManager(wrapBackend(b, t, l))
	if err != nil {
		return nil, err
	}
	d.mgr = mgr
	base := socket * coresPerSocket
	for i, pos := range rng.Perm(n) {
		d.targets = append(d.targets, core.Target{
			Name: fmt.Sprintf("t%02d", base+i), Cores: []int{base + i}, BaselineWays: 1,
		})
		d.scripts = append(d.scripts, newScripted(rng, pos, period))
	}
	return d, nil
}

// feedAll advances every tenant's script by one interval.
func (d *domain) feedAll(f *perf.File, ways func(string) int) {
	for i, tg := range d.targets {
		feed(f, tg.Cores[0], d.scripts[i].sample(ways(tg.Name)))
	}
}

// observe adds the controller's normalized IPC of each tenant to its
// steady-state tally; snap is the controller's Snapshot.
func (d *domain) observe(snap []core.Status) {
	for i, tg := range d.targets {
		for _, st := range snap {
			if st.Name == tg.Name && st.NormIPC > 0 {
				d.scripts[i].normSum += st.NormIPC
				d.scripts[i].normN++
			}
		}
	}
}

// tenantIPC returns the geometric mean over the domains' tenants of
// each one's mean IPC, and the lowest steady-state normalized IPC of
// any tenant (NaN when none was observed).
func tenantIPC(domains []*domain) (geo, normMin float64) {
	var ipc []float64
	normMin = math.NaN()
	for _, d := range domains {
		for _, sc := range d.scripts {
			ipc = append(ipc, sc.ipcSum/float64(sc.tick))
			if sc.normN == 0 {
				continue
			}
			if v := sc.normSum / float64(sc.normN); math.IsNaN(normMin) || v < normMin {
				normMin = v
			}
		}
	}
	return geomean(ipc), normMin
}

// check is the per-tick correctness check: every tenant holds at least
// one way and the manager's layout validates; on a resctrl domain, what
// the tree holds for each group also equals the manager's mask — the
// model matches the hardware.
func (d *domain) check() error {
	if err := d.mgr.Validate(); err != nil {
		return err
	}
	for _, g := range d.mgr.Groups() {
		if g.Ways < 1 {
			return fmt.Errorf("group %s holds %d ways", g.Name, g.Ways)
		}
		if d.rt == nil {
			continue
		}
		got, err := d.rt.Schemata(g.COS)
		if err != nil {
			return err
		}
		if want := "L3:0=" + g.Mask.String(); !strings.EqualFold(got, want) {
			return fmt.Errorf("group %s: resctrl holds %q, manager %q", g.Name, got, want)
		}
	}
	return nil
}

// scratchDir returns a fresh directory under root.
func scratchDir(root, name string) (string, error) {
	dir := filepath.Join(root, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
