package main

import "testing"

// shorten cuts a schedule to a few intervals so tests stay quick; the
// shape of the traffic does not depend on the run length.
func shorten(sched []simSpec, warmup, steps int) []simSpec {
	out := append([]simSpec(nil), sched...)
	for i := range out {
		out[i].warmup, out[i].steps = warmup, steps
	}
	return out
}

func noFailures(t *testing.T, name string, res *results) {
	t.Helper()
	if res.failed != 0 {
		t.Fatalf("%s: %d failed operations: %v", name, res.failed, res.failures)
	}
}

// TestSimDigestRepeatsInProcess runs the same simulation twice in one
// process, and once more behind the timing wrappers: all three must
// produce the same digest of simulated statistics.
func TestSimDigestRepeatsInProcess(t *testing.T) {
	for _, spec := range shorten(specNoisySchedule()[:2], 1, 4) {
		res := newResults()
		heap := newHeapPeak()
		var digests []uint64
		for _, traced := range []bool{false, false, true} {
			o, err := runSim(spec, 42, newTracer(traced, "test"), res, heap, -1)
			if err != nil {
				t.Fatal(err)
			}
			digests = append(digests, o.digest)
		}
		noFailures(t, spec.label, res)
		if digests[0] != digests[1] || digests[0] != digests[2] {
			t.Fatalf("%s: digests %016x %016x %016x differ", spec.label, digests[0], digests[1], digests[2])
		}
		other, err := runSim(spec, 43, newTracer(false, "test"), res, heap, -1)
		if err != nil {
			t.Fatal(err)
		}
		if other.digest == digests[0] {
			t.Fatalf("%s: seeds 42 and 43 give the same digest; the seed does not reach the inputs", spec.label)
		}
	}
}

// TestTrafficShapes checks that each workload loads what it was chosen
// for, from traced runs.
func TestTrafficShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	cfg := runConfig{seed: 1, seconds: 1, traced: true, dir: t.TempDir()}

	t.Run("spec-noisy", func(t *testing.T) {
		spec := newResults()
		cfg := cfg
		cfg.workload = wSpec
		if _, err := runSimWorkload(cfg, spec, shorten(specNoisySchedule(), 3, 8), nil); err != nil {
			t.Fatal(err)
		}
		noFailures(t, wSpec, spec)
		if hit := spec.values["cache.llc_hit_ratio"]; hit >= 0.5 {
			t.Errorf("spec-noisy LLC hit ratio %.3f: not miss-heavy", hit)
		}
		control := spec.values["core.step_share_pct"] + spec.values["policy.step_share_pct"]
		if control >= 1 {
			t.Errorf("spec-noisy spends %.2f%% of a step in core+policy; want under 1%%", control)
		}
	})

	t.Run("daemon", func(t *testing.T) {
		daemon := newResults()
		cfg := cfg
		cfg.workload = wDaemon
		if _, err := runDaemonTick(cfg, daemon); err != nil {
			t.Fatal(err)
		}
		noFailures(t, wDaemon, daemon)
		v := daemon.values
		if share := v["core.step_share_pct"] + v["policy.step_share_pct"]; share < 50 {
			t.Errorf("daemon-tick spends %.1f%% of its tick in core+policy", share)
		}
		if a, r := v["cat.applies_per_tick"], v["resctrl.applies_per_tick"]; a < 1 || r < 1 {
			t.Errorf("daemon-tick reprograms %.2f groups per tick (%.2f on resctrl); want most ticks to reallocate", a, r)
		}
	})

	t.Run("fleet", func(t *testing.T) {
		fleet := newResults()
		cfg := cfg
		cfg.workload, cfg.seconds = wFleet, 3
		if _, err := runFleetIngest(cfg, fleet); err != nil {
			t.Fatal(err)
		}
		noFailures(t, wFleet, fleet)
		if r := fleet.values["flightrec.records_per_query"]; r < 10 {
			t.Errorf("fleet-ingest queries return %.1f records on average; want a non-trivial scan", r)
		}
	})
}
