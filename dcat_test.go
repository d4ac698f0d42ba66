package dcat

import (
	"testing"

	"repro/internal/resctrl"
)

func TestSimulationLifecycle(t *testing.T) {
	sim, err := NewSimulation(SimConfig{CyclesPerInterval: 4_000_000})
	if err != nil {
		t.Fatal(err)
	}
	mlr, err := sim.NewMLR(8<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := sim.NewLookbusy()
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.AddVM("tenant", 2, mlr); err != nil {
		t.Fatal(err)
	}
	if err := sim.AddVM("neighbor", 2, lb); err != nil {
		t.Fatal(err)
	}
	if err := sim.Step(); err == nil {
		t.Fatal("Step before Start should fail")
	}
	if sim.Snapshot() != nil {
		t.Fatal("Snapshot before Start should be nil")
	}
	if err := sim.Start(DefaultConfig(), map[string]int{"tenant": 3}); err == nil {
		t.Fatal("missing baseline should fail")
	}
	if err := sim.Start(DefaultConfig(), map[string]int{"tenant": 3, "neighbor": 3}); err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(DefaultConfig(), nil); err == nil {
		t.Fatal("double Start should fail")
	}
	if err := sim.AddVM("late", 1, lb); err == nil {
		t.Fatal("AddVM after Start should fail")
	}
	if err := sim.Run(12); err != nil {
		t.Fatal(err)
	}
	snap := sim.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d entries", len(snap))
	}
	if w := sim.Multi().Ways("tenant"); w <= 3 {
		t.Errorf("cache-hungry tenant stuck at %d ways; should have grown", w)
	}
	if w := sim.Multi().Ways("neighbor"); w != 1 {
		t.Errorf("lookbusy neighbour at %d ways; should donate to 1", w)
	}
}

func TestSimulationXeonD(t *testing.T) {
	sim, err := NewSimulation(SimConfig{Machine: MachineXeonD, CyclesPerInterval: 4_000_000})
	if err != nil {
		t.Fatal(err)
	}
	idle := sim.NewIdle()
	if err := sim.AddVM("a", 2, idle); err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(DefaultConfig(), map[string]int{"a": 2}); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(3); err != nil {
		t.Fatal(err)
	}
}

func TestWorkloadConstructors(t *testing.T) {
	sim, err := NewSimulation(SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.NewMLOAD(60 << 20); err != nil {
		t.Error(err)
	}
	if _, err := sim.NewRedis(1); err != nil {
		t.Error(err)
	}
	if _, err := sim.NewPostgres(1); err != nil {
		t.Error(err)
	}
	if _, err := sim.NewElasticsearch(1); err != nil {
		t.Error(err)
	}
	if _, err := sim.NewSPEC("omnetpp", 1); err != nil {
		t.Error(err)
	}
	if _, err := sim.NewSPEC("not-a-benchmark", 1); err == nil {
		t.Error("unknown SPEC profile should fail")
	}
}

func TestNewPhased(t *testing.T) {
	sim, _ := NewSimulation(SimConfig{})
	mlr, _ := sim.NewMLR(1<<20, 1)
	p, err := NewPhased("job",
		PhaseStage{Workload: sim.NewIdle(), Intervals: 2},
		PhaseStage{Workload: mlr})
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "job" {
		t.Errorf("Name()=%q", p.Name())
	}
	if _, err := NewPhased("empty"); err == nil {
		t.Error("empty phased should fail")
	}
}

func TestResctrlBackendThroughFacade(t *testing.T) {
	dir := t.TempDir()
	if err := resctrl.CreateMockTree(dir, 20, 16, 18); err != nil {
		t.Fatal(err)
	}
	b, err := NewResctrlBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if b.TotalWays() != 20 {
		t.Errorf("TotalWays=%d", b.TotalWays())
	}
	if _, err := NewResctrlBackend(t.TempDir()); err == nil {
		t.Error("non-resctrl dir should fail")
	}
}

func TestControllerAgainstMockResctrl(t *testing.T) {
	// The facade path a hardware deployment takes: resctrl backend +
	// a CounterReader (here the simulator's counter file standing in
	// for perf events).
	dir := t.TempDir()
	if err := resctrl.CreateMockTree(dir, 20, 16, 18); err != nil {
		t.Fatal(err)
	}
	backend, err := NewResctrlBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulation(SimConfig{CyclesPerInterval: 4_000_000})
	if err != nil {
		t.Fatal(err)
	}
	mlr, _ := sim.NewMLR(8<<20, 1)
	if err := sim.AddVM("t", 2, mlr); err != nil {
		t.Fatal(err)
	}
	vm := sim.Host().VMs()[0]
	ctl, err := NewController(DefaultConfig(), backend, sim.Host().System().Counters(),
		[]Target{{Name: "t", Cores: vm.Cores, BaselineWays: 3}})
	if err != nil {
		t.Fatal(err)
	}
	// Drive the host manually; the controller writes real schemata
	// files into the mock tree.
	for i := 0; i < 5; i++ {
		sim.Host().RunInterval()
		if err := ctl.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if ctl.Ways("t") <= 3 {
		t.Errorf("ways=%d; controller should grow the tenant via resctrl writes", ctl.Ways("t"))
	}
}
