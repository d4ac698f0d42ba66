package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/flightrec"
	"repro/internal/httpstatus"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/telemetry"
)

const (
	fleetHosts   = 32
	fleetTenants = 8
	fleetPeriod  = 192 // minimum ticks per scripted phase
	queryEvery   = 240 // agent ticks a driver runs between two queries
	fleetSetups  = 9   // set-ups per run; setup_s is their median
)

// captureSink keeps every event a controller emitted, for comparing
// with what the flight recorder serves.
type captureSink struct {
	mu     sync.Mutex
	events []obs.Event
}

func (c *captureSink) Emit(ev obs.Event) {
	c.mu.Lock()
	c.events = append(c.events, ev)
	c.mu.Unlock()
}

// fleetHost is one agent with its controller over a small simulated
// LLC.
type fleetHost struct {
	name     string
	file     *perf.File
	dom      *domain
	ctl      *core.Controller
	agent    *cluster.Agent
	streamer *cluster.Streamer
	local    *captureSink
	ticks    int // timed agent ticks, counted by the driver that owns the host
}

// fleet is one coordinator, its recorder and its agents.
type fleet struct {
	dir       string
	store     *flightrec.Store
	coord     *cluster.Coordinator
	reg       *telemetry.Registry
	srv       *httptest.Server
	transport *http.Transport
	rpc       *rpcTransport
	hosts     []*fleetHost
	events    *countingSink
}

// buildFleet starts an in-process coordinator with a flight recorder
// and tenant metric rings, served over loopback HTTP, and enrolls
// every agent with one untimed tick.
func buildFleet(cfg runConfig, t *tracer, dirName string) (*fleet, error) {
	dir, err := scratchDir(cfg.dir, dirName)
	if err != nil {
		return nil, err
	}
	store, err := flightrec.Open(flightrec.Config{Dir: filepath.Join(dir, "recorder")})
	if err != nil {
		return nil, err
	}
	f := &fleet{dir: dir, store: store, events: &countingSink{}}
	// A report every fourth tick, heartbeats on the ticks between: with
	// reports on half the ticks the median tick fell between the two
	// kinds and jumped from run to run.
	f.coord = cluster.NewCoordinator(cluster.CoordinatorConfig{HeartbeatExpiry: time.Hour, ReportEvery: 4})
	f.coord.SetRecorder(store)
	if t.on {
		f.reg = telemetry.NewRegistry()
		f.coord.RegisterSelfMetrics(f.reg)
	}
	mux := http.NewServeMux()
	mux.Handle("/v1/", f.coord.Handler())
	mux.Handle("/fleet/", httpstatus.ClusterHandlerOpts(f.coord, httpstatus.Options{Recorder: store, Tenants: f.coord}))
	f.srv = httptest.NewServer(mux)
	conns := runtime.NumCPU()
	f.transport = &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}
	f.rpc = newRPCTransport(f.transport, t)
	httpClient := &http.Client{Transport: f.rpc}
	rng := rand.New(rand.NewSource(cfg.seed))
	for i := 0; i < fleetHosts; i++ {
		name := fmt.Sprintf("host-%02d", i)
		backends, err := simBackends(1)
		if err != nil {
			f.close()
			return nil, err
		}
		dom, err := newDomain(backends[0], "", 0, fleetTenants, fleetPeriod, rng, t)
		if err != nil {
			f.close()
			return nil, err
		}
		h := &fleetHost{name: name, file: perf.NewFile(coresPerSocket), dom: dom, local: &captureSink{}}
		ccfg := core.DefaultConfig()
		if ccfg.NewPolicy, err = wrapPolicy("reactive", t); err != nil {
			f.close()
			return nil, err
		}
		if h.ctl, err = core.New(ccfg, dom.mgr, h.file, dom.targets); err != nil {
			f.close()
			return nil, err
		}
		cli, err := cluster.NewClient(cluster.ClientConfig{
			BaseURL: f.srv.URL, Timeout: 10 * time.Second, MaxRetries: -1, HTTPClient: httpClient,
		})
		if err != nil {
			f.close()
			return nil, err
		}
		if h.streamer, err = cluster.NewStreamer(cluster.StreamerConfig{Client: cli, Epoch: cfg.seed*1000 + int64(i) + 1}); err != nil {
			f.close()
			return nil, err
		}
		var local cluster.Local = h.ctl
		if t.on {
			local = &tracedLocal{Controller: h.ctl, t: t}
		}
		if h.agent, err = cluster.NewAgent(cluster.AgentConfig{Name: name, Client: cli, Streamer: h.streamer}, local); err != nil {
			f.close()
			return nil, err
		}
		h.ctl.SetSink(obs.Multi(h.local, h.streamer, h.agent.EventSink(), f.events))
		f.hosts = append(f.hosts, h)
	}
	for _, h := range f.hosts {
		if err := f.tick(context.Background(), h); err != nil {
			f.close()
			return nil, err
		}
		if !h.agent.Enrolled() {
			f.close()
			return nil, fmt.Errorf("%s did not enroll: %v", h.name, h.agent.LastErr())
		}
	}
	return f, nil
}

// tick feeds one interval of scripted counters and runs the agent.
func (f *fleet) tick(ctx context.Context, h *fleetHost) error {
	h.dom.feedAll(h.file, h.ctl.Ways)
	return h.agent.Tick(ctx)
}

// close stops the server, waiting for its handlers, and the recorder.
func (f *fleet) close() {
	if f.srv != nil {
		f.srv.Close()
	}
	f.transport.CloseIdleConnections()
	if err := f.store.Close(); err != nil {
		fmt.Println("perfbench: closing recorder:", err)
	}
}

// query is one operator query's record.
type query struct {
	kind    string // events, explain or metrics
	path    string
	ms      float64
	records int
	q       flightrec.Query
}

// drive runs ticks agent ticks closed-loop from one goroutine, cycling
// through the agents, and issues an operator query after every
// queryEvery ticks. One driver keeps the agents' ticks from queueing
// behind each other and behind a query's recorder scan on a machine
// with few cores. Over the second half of each host's ticks it adds
// the controller's normalized IPC to the tenants' steady-state
// tallies. It returns the agent-tick durations in milliseconds and the
// queries made.
func (f *fleet) drive(cfg runConfig, t *tracer, res *results, ticks int, heap *heapPeak) ([]float64, []query) {
	steady := ticks / len(f.hosts) / 2
	rng := rand.New(rand.NewSource(cfg.seed * 7919))
	ctx := context.Background()
	var tickMs []float64
	var queries []query
	start := time.Now()
	for n := 0; n < ticks; n++ {
		if cfg.overrun(start) {
			res.fail(fmt.Errorf("stopped after %d of %d ticks at the time limit", n, ticks))
			break
		}
		h := f.hosts[n%len(f.hosts)]
		h.dom.feedAll(h.file, h.ctl.Ways)
		tickStart := time.Now()
		var err error
		dur := t.do(lCluster, func() { err = h.agent.Tick(ctx) })
		res.op(err)
		tickMs = append(tickMs, float64(dur)/1e6)
		t.span(0, "agent.tick", tickStart, dur, 0)
		// The agent's lock orders the check after the tick's writes to
		// the CAT state.
		h.ticks++
		h.agent.Do(func() {
			res.op(h.dom.check())
			if h.ticks >= steady {
				h.dom.observe(h.ctl.Snapshot())
			}
		})
		if (n+1)%queryEvery == 0 {
			q, err := f.query(rng, t)
			res.op(err)
			queries = append(queries, q)
		}
	}
	heap.checkpoint() // the heap only grows through the run
	return tickMs, queries
}

// query issues one operator query, chosen at random among the three
// fleet surfaces, and reads the whole answer.
func (f *fleet) query(rng *rand.Rand, t *tracer) (query, error) {
	var q query
	h := f.hosts[rng.Intn(len(f.hosts))]
	vm := h.dom.targets[rng.Intn(len(h.dom.targets))].Name
	switch rng.Intn(3) {
	case 0:
		q = query{kind: "events", path: "/fleet/events?agent=" + h.name + "&n=200",
			q: flightrec.Query{Agent: h.name, LastN: 200}}
	case 1:
		q = query{kind: "explain", path: "/fleet/explain?vm=" + vm + "&n=64",
			q: flightrec.Query{Workload: vm, LastN: 64}}
	default:
		q = query{kind: "metrics", path: "/fleet/metrics"}
	}
	start := time.Now()
	var err error
	t.do(lQuery, func() {
		var resp *http.Response
		resp, err = f.transport.RoundTrip(mustGet(f.srv.URL + q.path))
		if err != nil {
			return
		}
		defer resp.Body.Close()
		if _, err = io.Copy(io.Discard, resp.Body); err != nil {
			return
		}
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET %s: status %d", q.path, resp.StatusCode)
			return
		}
		if s := resp.Header.Get("X-Dcat-Record-Count"); s != "" {
			q.records, err = strconv.Atoi(s)
		}
	})
	q.ms = float64(time.Since(start)) / 1e6
	return q, err
}

func mustGet(url string) *http.Request {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		panic(err) // the URL is built from the server's own address
	}
	return req
}

// drain uploads every buffered event, then checks that the recorder
// serves each agent exactly the events its controller emitted, with no
// drops, and that every RPC answered 2xx.
func (f *fleet) drain(res *results) {
	ctx := context.Background()
	for _, h := range f.hosts {
		for i := 0; h.streamer.Pending() > 0 && i < 1000; i++ {
			res.op(h.streamer.Flush(ctx, h.agent.ID()))
		}
	}
	cursors := f.store.Cursors()
	for _, h := range f.hosts {
		res.op(f.verifyEvents(h, cursors))
	}
	for path, st := range f.rpc.paths {
		st.mu.Lock()
		res.attempted += st.n
		for i := int64(0); i < st.failed; i++ {
			res.fail(fmt.Errorf("RPC %s answered non-2xx", path))
		}
		st.mu.Unlock()
	}
}

func (f *fleet) verifyEvents(h *fleetHost, cursors map[string]flightrec.CursorInfo) error {
	if n := h.streamer.Pending(); n != 0 {
		return fmt.Errorf("%s: %d events never uploaded", h.name, n)
	}
	if d := h.streamer.Dropped(); d != 0 {
		return fmt.Errorf("%s: streamer dropped %d events", h.name, d)
	}
	if cur := cursors[h.name]; cur.Lost != 0 || cur.ReportedDropped != 0 {
		return fmt.Errorf("%s: recorder lost %d, reported dropped %d", h.name, cur.Lost, cur.ReportedDropped)
	}
	resp, err := f.transport.RoundTrip(mustGet(f.srv.URL + "/fleet/events?agent=" + h.name))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: /fleet/events status %d", h.name, resp.StatusCode)
	}
	var served []obs.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var rec flightrec.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return fmt.Errorf("%s: bad record: %w", h.name, err)
		}
		served = append(served, rec.Event)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	h.local.mu.Lock()
	local := h.local.events
	h.local.mu.Unlock()
	var want, got bytes.Buffer
	if err := obs.WriteJSONL(&want, local); err != nil {
		return err
	}
	if err := obs.WriteJSONL(&got, served); err != nil {
		return err
	}
	if len(local) == 0 || !bytes.Equal(want.Bytes(), got.Bytes()) {
		return fmt.Errorf("%s: recorder serves %d events, controller emitted %d", h.name, len(served), len(local))
	}
	return nil
}

// runFleetIngest is the fleet-ingest workload. A traced run first
// drives an untraced fleet for half the ticks, then a fresh traced
// one for the other half, and compares their tick rates.
func runFleetIngest(cfg runConfig, res *results) (*tracer, error) {
	t := newTracer(cfg.traced, cfg.workload)
	var setups []float64
	var f *fleet
	for i := 0; i < fleetSetups; i++ {
		start := time.Now()
		var err error
		if f, err = buildFleet(cfg, t, "fleet"); err != nil {
			return t, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < fleetSetups-1 {
			f.close()
			f = nil
		}
	}
	heap := newHeapPeak() // the measured phase's heap, not the set-ups'

	if !cfg.traced {
		start := time.Now()
		tickMs, queries := f.drive(cfg, t, res, fleetTicksPerSecond*cfg.seconds, heap)
		elapsed := time.Since(start)
		f.drain(res)
		f.close()
		var qms []float64
		for _, q := range queries {
			qms = append(qms, q.ms)
		}
		fmt.Printf("fleet-ingest: %d agent ticks, %d queries (median %.3f ms) in %.1f s\n",
			len(tickMs), len(queries), median(qms), elapsed.Seconds())
		var domains []*domain
		for _, h := range f.hosts {
			domains = append(domains, h.dom)
		}
		geo, normMin := tenantIPC(domains)
		res.set("setup_s", median(setups))
		res.set("heap_peak_mb", heap.mb())
		res.set("throughput_per_s", perSecond(tickMs))
		setPercentiles(res, "step_ms", tickMs)
		res.set("tenant_ipc_geomean", geo)
		res.set("norm_ipc_min", normMin)
		return t, nil
	}
	// f was built traced; measure the untraced baseline on its own fleet.
	plainT := newTracer(false, cfg.workload)
	plain, err := buildFleet(cfg, plainT, "fleet-untraced")
	if err != nil {
		f.close()
		return t, err
	}
	plainTicks, _ := plain.drive(cfg, plainT, res, fleetTicksPerSecond*cfg.seconds/2, heap)
	plain.drain(res)
	plain.close()
	base, events0 := t.snap(), f.events.n.Load()
	tickMs, queries := f.drive(cfg, t, res, fleetTicksPerSecond*cfg.seconds/2, heap)
	l := t.snap().sub(base)
	events := f.events.n.Load() - events0
	f.drain(res)
	defer f.close()
	fleetLayerMetrics(res, f, l, events, tickMs, queries)
	res.set("perfbench.trace_overhead_pct",
		100*(perSecond(plainTicks)/perSecond(tickMs)-1))
	return t, nil
}

// fleetLayerMetrics derives the fleet's per-layer metrics, including
// the flight-recorder replay rung: the uploaded batches appended to a
// fresh store, then the run's recorder queries selected from it.
func fleetLayerMetrics(res *results, f *fleet, l snapshot, events int64, tickMs []float64, queries []query) {
	ticks := float64(len(tickMs))
	agentNs := float64(l[lCluster].ns)
	coreSelf := float64(l[lCore].ns - l[lPolicy].ns - l[lCat].ns)
	clusterSelf := agentNs - float64(l[lCore].ns)
	res.set("core.tick_self_us", coreSelf/1e3/ticks)
	res.set("core.ticks", float64(l[lCore].n))
	res.set("core.step_share_pct", 100*coreSelf/agentNs)
	res.set("policy.propose_us", ratio(float64(l[lPolicy].ns)/1e3, float64(l[lPolicy].n)))
	res.set("policy.proposals", float64(l[lPolicy].n))
	res.set("policy.step_share_pct", 100*float64(l[lPolicy].ns)/agentNs)
	res.set("cat.sim_apply_us", ratio(float64(l[lCat].ns)/1e3, float64(l[lCat].n)))
	res.set("cat.applies_per_tick", float64(l[lCat].n)/ticks)
	res.set("cat.step_share_pct", 100*float64(l[lCat].ns)/agentNs)
	res.set("cluster.step_share_pct", 100*clusterSelf/agentNs)
	res.set("obs.events_per_tick", float64(events)/float64(l[lCore].n))
	for _, p := range []struct{ path, name string }{
		{"/v1/report", "report"}, {"/v1/events", "events"}, {"/v1/heartbeat", "heartbeat"},
	} {
		st := f.rpc.paths[p.path]
		st.mu.Lock()
		res.set("cluster."+p.name+"_rpcs", float64(st.n))
		res.set("cluster."+p.name+"_rpcs_per_s", perSecond(st.ms))
		st.mu.Unlock()
	}
	var batchEvents int
	f.rpc.batchMu.Lock()
	batches := f.rpc.batches
	f.rpc.batchMu.Unlock()
	for _, b := range batches {
		batchEvents += len(b.Events)
	}
	res.set("cluster.events_per_batch", ratio(float64(batchEvents), float64(len(batches))))
	if f.reg != nil {
		sum, _ := histogram(f.reg, "dcat_coord_lock_wait_seconds")
		res.set("cluster.lock_wait_share_pct", 100*1e9*sum/agentNs)
	}
	st := f.store.Stats()
	res.set("flightrec.records", float64(st.Records))
	res.set("flightrec.bytes", float64(st.Bytes))
	byKind := map[string][]float64{}
	var recs, recQueries float64
	for _, q := range queries {
		byKind[q.kind] = append(byKind[q.kind], q.ms)
		if q.kind != "metrics" {
			recs += float64(q.records)
			recQueries++
		}
	}
	res.set("flightrec.records_per_query", ratio(recs, recQueries))
	for _, k := range []string{"events", "explain", "metrics"} {
		res.set("httpstatus.fleet_"+k+"_per_s", perSecond(byKind[k]))
	}
	names := make(map[string]string, len(f.hosts))
	for _, h := range f.hosts {
		names[h.agent.ID()] = h.name
	}
	appends, selects, err := replayRecorder(f.dir, names, batches, queries)
	if err != nil {
		res.fail(fmt.Errorf("recorder replay: %w", err))
	} else {
		res.set("flightrec.appends_per_s", appends)
		res.set("flightrec.selects_per_s", selects)
	}
	fmt.Printf("shape: cluster %.1f%% core %.1f%% policy %.2f%% cat %.1f%% of agent tick; CAT applies/tick %.2f; "+
		"%d records, %.0f records/query, %.1f events/batch\n",
		100*clusterSelf/agentNs, 100*coreSelf/agentNs, 100*float64(l[lPolicy].ns)/agentNs,
		100*float64(l[lCat].ns)/agentNs, float64(l[lCat].n)/ticks, st.Records,
		ratio(recs, recQueries), ratio(float64(batchEvents), float64(len(batches))))
}

// perSecond returns how many calls ran per second of the time they
// took, given each call's milliseconds (NaN for none).
func perSecond(ms []float64) float64 {
	var sum float64
	for _, v := range ms {
		sum += v
	}
	return ratio(1e3*float64(len(ms)), sum)
}

// replayRecorder appends the captured upload batches, in upload order,
// to a fresh store and then runs the run's recorder queries against
// it: the flightrec layer measured without HTTP or the coordinator. It
// returns the events appended per second of Append time and the
// queries selected per second of Select time.
func replayRecorder(dir string, names map[string]string, batches []cluster.EventsRequest, queries []query) (appends, selects float64, err error) {
	store, err := flightrec.Open(flightrec.Config{Dir: filepath.Join(dir, "replay")})
	if err != nil {
		return 0, 0, err
	}
	defer store.Close()
	var events int
	start := time.Now()
	for _, b := range batches {
		// The coordinator keys records by agent name, not by the ID
		// the upload carries.
		if _, err := store.Append(names[b.AgentID], b.Epoch, b.FirstSeq, b.Events, b.Dropped); err != nil {
			return 0, 0, err
		}
		events += len(b.Events)
	}
	appends = float64(events) / time.Since(start).Seconds()
	var ms []float64
	for _, q := range queries {
		if q.kind == "metrics" {
			continue
		}
		sel := q.q
		start := time.Now()
		if _, err := store.Select(sel); err != nil {
			return 0, 0, err
		}
		ms = append(ms, float64(time.Since(start))/1e6)
	}
	return appends, perSecond(ms), nil
}

// histogram reads a histogram's sum and count from a registry's
// Prometheus exposition.
func histogram(reg *telemetry.Registry, name string) (sum, count float64) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return 0, 0
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		switch fields[0] {
		case name + "_sum":
			sum = v
		case name + "_count":
			count = v
		}
	}
	return sum, count
}
