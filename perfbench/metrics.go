package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// Metric describes one reported figure: its unit, which direction is
// better, and the workloads that measure it. Every run prints every
// metric of its table (the benchmark contract asks for the whole
// manifest on every workload); a workload that does not load a layer
// reports 0 for that layer's counts, ratios, shares and rates. Times
// (units s, ms, us, ns) are measured on every workload, so none of
// them reads a constant 0. The table is the single source of truth for
// names; TestBenchmarkJSONMatchesRegistry keeps BENCHMARK.json in step
// with it.
type Metric struct {
	Name      string
	Unit      string
	Better    string // "higher" or "lower"
	Workloads []string
}

const (
	wSpec   = "spec-noisy"
	wFleet  = "fleet-ingest"
	wDaemon = "daemon-tick"
)

var (
	allWorkloads = []string{wSpec, wFleet, wDaemon}
	simWorkloads = []string{wSpec}
)

// endToEnd lists the metrics an untraced run reports. Each workload
// has one unit of control, its step: a simulated control period
// (RunInterval plus the controller tick) on spec-noisy, a
// cluster.Agent tick on fleet-ingest, a Controller or MultiController
// tick on daemon-tick. throughput_per_s counts simulated accesses per
// host second on spec-noisy and steps per second of step time on the
// other two.
var endToEnd = []Metric{
	{"setup_s", "s", "lower", allWorkloads},
	{"heap_peak_mb", "MB", "lower", allWorkloads},
	{"throughput_per_s", "1/s", "higher", allWorkloads},
	{"step_ms_p50", "ms", "lower", allWorkloads},
	{"step_ms_p95", "ms", "lower", allWorkloads},
	{"tenant_ipc_geomean", "ipc", "higher", allWorkloads},
	{"norm_ipc_min", "ratio", "higher", allWorkloads},
}

// perLayer lists the metrics a traced run reports. Each name starts
// with the module it measures. A layer's own speed is a rate: calls,
// lines, accesses or events per second of time spent in that layer.
var perLayer = []Metric{
	{"workload.lines", "count", "higher", simWorkloads},
	{"workload.lines_per_s", "1/s", "higher", simWorkloads},
	{"workload.step_share_pct", "%", "lower", simWorkloads},
	{"host.accesses_per_s", "1/s", "higher", simWorkloads},
	{"host.step_share_pct", "%", "lower", simWorkloads},
	{"memsys.accesses_per_s", "1/s", "higher", simWorkloads},
	{"memsys.l1_hit_ratio", "ratio", "higher", simWorkloads},
	{"cache.llc_accesses_per_s", "1/s", "higher", simWorkloads},
	{"cache.llc_hit_ratio", "ratio", "higher", simWorkloads},
	{"cache.llc_evictions_per_kaccess", "count", "lower", simWorkloads},
	{"core.tick_self_us", "us", "lower", allWorkloads},
	{"core.ticks", "count", "higher", allWorkloads},
	{"core.step_share_pct", "%", "lower", allWorkloads},
	{"policy.propose_us", "us", "lower", allWorkloads},
	{"policy.proposals", "count", "higher", allWorkloads},
	{"policy.step_share_pct", "%", "lower", allWorkloads},
	{"cat.sim_apply_us", "us", "lower", allWorkloads},
	{"cat.applies_per_tick", "count", "lower", allWorkloads},
	{"cat.step_share_pct", "%", "lower", allWorkloads},
	{"resctrl.applies_per_s", "1/s", "higher", []string{wDaemon}},
	{"resctrl.applies_per_tick", "count", "lower", []string{wDaemon}},
	{"cluster.report_rpcs_per_s", "1/s", "higher", []string{wFleet}},
	{"cluster.events_rpcs_per_s", "1/s", "higher", []string{wFleet}},
	{"cluster.heartbeat_rpcs_per_s", "1/s", "higher", []string{wFleet}},
	{"cluster.report_rpcs", "count", "higher", []string{wFleet}},
	{"cluster.events_rpcs", "count", "higher", []string{wFleet}},
	{"cluster.heartbeat_rpcs", "count", "higher", []string{wFleet}},
	{"cluster.events_per_batch", "count", "higher", []string{wFleet}},
	{"cluster.lock_wait_share_pct", "%", "lower", []string{wFleet}},
	{"cluster.step_share_pct", "%", "lower", []string{wFleet}},
	{"flightrec.appends_per_s", "1/s", "higher", []string{wFleet}},
	{"flightrec.selects_per_s", "1/s", "higher", []string{wFleet}},
	{"flightrec.records", "count", "higher", []string{wFleet}},
	{"flightrec.bytes", "B", "lower", []string{wFleet}},
	{"flightrec.records_per_query", "count", "higher", []string{wFleet}},
	{"httpstatus.fleet_events_per_s", "1/s", "higher", []string{wFleet}},
	{"httpstatus.fleet_explain_per_s", "1/s", "higher", []string{wFleet}},
	{"httpstatus.fleet_metrics_per_s", "1/s", "higher", []string{wFleet}},
	{"obs.events_per_tick", "count", "higher", []string{wFleet, wDaemon}},
	{"perfbench.trace_overhead_pct", "%", "lower", allWorkloads},
}

// metricName is the charset the benchmark contract allows for names:
// a letter or digit first, then at most 63 letters, digits, '_', '.'
// or '-'.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metricUnit is the contract's unit charset.
var metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// measures reports whether a workload measures a metric.
func (m Metric) measures(workload string) bool {
	for _, w := range m.Workloads {
		if w == workload {
			return true
		}
	}
	return false
}

// minTailSamples is how many samples must lie strictly beyond a tail
// percentile for it to be reported: below that, one outlier decides it.
const minTailSamples = 10

// percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank rule. It refuses to answer when fewer than
// minTailSamples samples lie above the chosen rank, so a reported p95
// always rests on at least ten slower samples.
func percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if p > 50 && len(s)-rank < minTailSamples {
		return 0, fmt.Errorf("p%g of %d samples has only %d beyond it; need %d",
			p, len(s), len(s)-rank, minTailSamples)
	}
	return s[rank-1], nil
}

// median is the 50th percentile.
func median(xs []float64) float64 {
	v, err := percentile(xs, 50)
	if err != nil {
		return 0
	}
	return v
}

// geomean returns the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// report is the benchmark's result line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// results collects one run's figures and its operation tally.
type results struct {
	attempted, failed int64
	failures          []string
	values            map[string]float64
}

func newResults() *results { return &results{values: make(map[string]float64)} }

// op counts one attempted operation, and a failure when err is non-nil.
func (r *results) op(err error) {
	r.attempted++
	if err != nil {
		r.fail(err)
	}
}

// fail counts a failed operation or correctness check; the first few
// messages are kept for the log.
func (r *results) fail(err error) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, err.Error())
	}
}

func (r *results) set(name string, v float64) { r.values[name] = v }

// build turns the measured figures into the result line, with every
// metric of the table. A metric the workload measures but left unset
// or non-finite is a failed check, not a silent gap; a metric of a
// layer the workload does not load reads 0.
func (r *results) build(table []Metric, workload string) report {
	rep := report{Attempted: r.attempted, Metrics: make(map[string]metricValue)}
	for _, m := range table {
		v, ok := r.values[m.Name]
		if !m.measures(workload) {
			v, ok = 0, true
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail(fmt.Errorf("metric %s was not measured", m.Name))
			v = 0
		}
		rep.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if rep.Attempted < 1 {
		rep.Attempted = 1
		r.fail(fmt.Errorf("no operation was attempted"))
	}
	rep.Failed = r.failed
	rep.Correct = r.failed == 0
	return rep
}
