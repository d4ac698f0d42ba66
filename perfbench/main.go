// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed amount of work, sized by --seconds so that a run
// takes about that long on a 2-vCPU Xeon VM, checks the program's outputs,
// and prints every metric with its unit; the last line of standard
// output is a JSON object with the keys correct, attempted, failed and
// metrics.
//
//	perfbench --workload spec-noisy --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it
// installs timing wrappers around the interfaces it hands to the
// program and reports the per-layer metrics instead, plus the tracing
// overhead; spans are written to --out when it is set. --cpuprofile
// writes a CPU profile whose samples carry pprof labels "workload" and
// "layer".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name       = flag.String("workload", "", "workload: spec-noisy, fleet-ingest or daemon-tick")
		seed       = flag.Int64("seed", 1, "workload seed: every generated input derives from it")
		seconds    = flag.Int("seconds", 30, "run length in seconds; sizes the work of the run")
		traceFlag  = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		out        = flag.String("out", "", "directory for the span log and scratch files (default: a temp dir)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile labelled by workload and layer")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (known: %v)\n", *name, workloadNames())
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	dir := *out
	if dir == "" {
		tmp, err := os.MkdirTemp("", "perfbench")
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	cfg := runConfig{
		workload: *name,
		seed:     *seed,
		seconds:  *seconds,
		traced:   *traceFlag == 1,
		dir:      dir,
	}
	res := newResults()
	t, err := w(cfg, res)
	if err != nil {
		res.fail(err)
	}
	table := endToEnd
	if cfg.traced {
		table = perLayer
		if t != nil && *out != "" {
			path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))
			if err := t.writeSpans(path); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
			}
		}
	}
	rep := res.build(table, *name)
	for _, f := range res.failures {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", f)
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s seed=%d trace=%d attempted=%d failed=%d\n", *name, *seed, *traceFlag, rep.Attempted, rep.Failed)
	for _, n := range names {
		fmt.Printf("  %-34s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	dir      string
}

// The work a run does is fixed by --seconds, not measured against the
// clock, so two runs with the same seed and length do the same work and
// their heap and recorder sizes agree. The rates were calibrated so a
// run takes at most about --seconds on a 2-vCPU Xeon VM. Fleet-ingest's
// recorder queries scan every record, so their cost grows with the
// square of the run; one query per queryEvery ticks keeps them to about
// two thirds of its run.
const (
	simPassSeconds        = 15   // one pass over a simulator schedule per this many seconds
	daemonRoundsPerSecond = 5000 // daemon-tick rounds over all loops
	fleetTicksPerSecond   = 2000 // fleet-ingest agent ticks
)

// overrun reports whether a run has taken four times its nominal
// length (and at least a minute): the machine is far slower than the
// calibration, and the run stops rather than run past the caller's
// limits.
func (c runConfig) overrun(start time.Time) bool {
	return time.Since(start) > max(4*time.Duration(c.seconds)*time.Second, time.Minute)
}

// workloadFunc runs one workload, recording operations and metrics in
// res. It returns the tracer whose spans the run produced.
type workloadFunc func(cfg runConfig, res *results) (*tracer, error)

var workloads = map[string]workloadFunc{
	wSpec:   runSpecNoisy,
	wFleet:  runFleetIngest,
	wDaemon: runDaemonTick,
}

func workloadNames() []string {
	var n []string
	for k := range workloads {
		n = append(n, k)
	}
	sort.Strings(n)
	return n
}

// heapPeak tracks the largest live heap — the bytes a garbage
// collection marked live — over a run's checkpoints. Each sample forces
// a collection at a point where the measured work is idle: a
// collection that runs while the program allocates counts what is
// allocated during its mark phase as live, which made samples taken in
// passing vary by half. runtime/metrics reads the figure.
type heapPeak struct {
	peak   uint64
	sample [1]metrics.Sample
}

func newHeapPeak() *heapPeak {
	h := &heapPeak{}
	h.sample[0].Name = "/gc/heap/live:bytes"
	h.checkpoint()
	return h
}

// checkpoint collects garbage and samples the live heap. The second
// collection empties what sync.Pools kept through the first (encoding
// buffers of the last large HTTP answer, say), which would otherwise
// count as live.
func (h *heapPeak) checkpoint() {
	runtime.GC()
	runtime.GC()
	metrics.Read(h.sample[:])
	if v := h.sample[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

// mb returns the peak in MiB.
func (h *heapPeak) mb() float64 { return float64(h.peak) / (1 << 20) }

// reservoir keeps a fixed-size uniform sample of a stream (algorithm R),
// so a long run's percentiles cost constant memory and the benchmark's
// own bookkeeping does not grow the heap it measures.
type reservoir struct {
	n   int
	buf []float64
	rng *rand.Rand
}

func newReservoir(size int, seed int64) *reservoir {
	return &reservoir{buf: make([]float64, 0, size), rng: rand.New(rand.NewSource(seed))}
}

func (r *reservoir) add(x float64) {
	r.n++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, x)
	} else if j := r.rng.Intn(r.n); j < len(r.buf) {
		r.buf[j] = x
	}
}
