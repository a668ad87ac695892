package main

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/persistcheck"
	"repro/internal/persistcheck/exhaustive"
	"repro/internal/queue"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// workloadDef is one benchmark workload: a fixed cycle of pipeline jobs
// over fixtures that setup builds from the seed. Job i runs position
// i % cycle.
type workloadDef struct {
	name  string
	why   string
	cycle int
	// sensitivity is the power of the host slowdown that the workload's
	// times are divided by, measured for each workload (see hostspeed.go).
	sensitivity float64
	setup       func(seed int64) (instance, error)
}

// instance holds one workload's fixtures for one seed.
type instance interface {
	// job runs position pos, timing every library call through p, and
	// returns the job's output and the trace events the job consumed.
	job(pos int, p *probe) (out any, events int64, err error)
	// verify checks a position's output against an independent oracle.
	verify(pos int, out any) error
}

// The workloads, each chosen so that a different layer does the work;
// why repeats BENCHMARK.json.
var workloads = []workloadDef{
	{name: "kv-read", cycle: len(kvReadPolicies), sensitivity: 0.5, setup: setupKVRead,
		why: "kvbench serving path: workload.BuildKV then core.SimulateAll on 16k-op KV traces; exec and core do all the work, no graph, checker or trace cache"},
	{name: "queue-table1", cycle: len(table1Inserts), sensitivity: 1, setup: setupTable1,
		why: "the paper's Table 1 via bench.Table1: write-only, barrier-heavy queue traces; the only workload using sweep and the shared trace cache"},
	{name: "kv-graph", cycle: len(kvGraphPolicies) * kvGraphPool, sensitivity: 0.75, setup: setupKVGraph,
		why: "graph.Build, CriticalPath and persistcheck.Check on 144 prebuilt write-only KV traces, no exec or core; epoch jobs set p90 and show the frontier blowup"},
	{name: "crash-exhaustive", cycle: len(crashPasses), sensitivity: 1.25, setup: setupCrash,
		why: "exhaustive.CheckGraph over nine tiny clean queue/journal/pstm/kv fixtures: state enumeration and recovery classification do the work"},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// kvServing returns the sharded-KV options of the kv workloads (the
// kvbench grid at a benchmark-sized op count) and the policy's target
// model.
func kvServing(policy string, ops int, readFrac float64, seed int64) (workload.KVOptions, core.Model, error) {
	qp, err := workload.ParsePolicy(policy)
	if err != nil {
		return workload.KVOptions{}, 0, err
	}
	jp, err := workload.JournalPolicy(qp)
	if err != nil {
		return workload.KVOptions{}, 0, err
	}
	o := workload.KVOptions{
		Shards: 16, Keys: 65536, Threads: 32, Ops: ops,
		ReadFrac: readFrac, ZipfS: 1.1, Policy: jp, Seed: seed, PolicyStr: policy,
	}
	return o, workload.ModelForPolicy("kv", qp), nil
}

// ---- kv-read: workload.BuildKV, then core.SimulateAll over all models.

var kvReadPolicies = []string{"strict", "epoch", "racing", "strand"}

type kvRead struct {
	opts []workload.KVOptions
}

// kvRow is one model's simulated result on one policy's trace.
type kvRow struct {
	Model        string `json:"model"`
	Events       int64  `json:"events"`
	Persists     int64  `json:"persists"`
	Placed       int64  `json:"placed"`
	Coalesced    int64  `json:"coalesced"`
	CriticalPath int64  `json:"critical_path"`
	WorkItems    int64  `json:"work_items"`
}

type kvReadOut struct {
	Policy string  `json:"policy"`
	Rows   []kvRow `json:"rows"`
}

func newKVRow(r core.Result) kvRow {
	return kvRow{
		Model: r.Model.String(), Events: r.Events, Persists: r.Persists, Placed: r.Placed,
		Coalesced: r.Coalesced, CriticalPath: r.CriticalPath, WorkItems: r.WorkItems,
	}
}

func setupKVRead(seed int64) (instance, error) {
	w := &kvRead{}
	for _, pol := range kvReadPolicies {
		o, _, err := kvServing(pol, 16384, 0.9, seed)
		if err != nil {
			return nil, err
		}
		w.opts = append(w.opts, o)
	}
	return w, nil
}

func (w *kvRead) job(pos int, p *probe) (any, int64, error) {
	o := w.opts[pos]
	var run *workload.Run
	if err := p.call("exec", "workload.BuildKV", func() (err error) {
		run, err = workload.BuildKV(o, nil)
		return err
	}); err != nil {
		return nil, 0, err
	}
	n := int64(run.Trace.Len())
	p.add("exec", "events", float64(n))
	var res []core.Result
	if err := p.call("core", "core.SimulateAll", func() (err error) {
		res, err = core.SimulateAll(run.Trace, core.Params{})
		return err
	}); err != nil {
		return nil, 0, err
	}
	p.add("core", "events", float64(n*int64(len(res))))
	out := kvReadOut{Policy: o.PolicyStr}
	for _, r := range res {
		out.Rows = append(out.Rows, newKVRow(r))
	}
	return out, n, nil
}

// verify replays the trace through one solo core.Simulate per model: the
// single-model simulator is the reference for SimulateAll's fan-out.
func (w *kvRead) verify(pos int, out any) error {
	got := out.(kvReadOut)
	run, err := workload.BuildKV(w.opts[pos], nil)
	if err != nil {
		return err
	}
	if len(got.Rows) != len(core.Models) {
		return fmt.Errorf("%d model rows, want %d", len(got.Rows), len(core.Models))
	}
	for i, m := range core.Models {
		r, err := core.Simulate(run.Trace, core.Params{Model: m})
		if err != nil {
			return err
		}
		if want := newKVRow(r); got.Rows[i] != want {
			return fmt.Errorf("SimulateAll %+v, solo Simulate %+v", got.Rows[i], want)
		}
	}
	return nil
}

// ---- queue-table1: bench.Table1 through one trace cache per run.

// table1Inserts sizes the tables, one per job position. The middle size
// sets job_ms_p50 and the largest job_ms_p90, each from the middle of
// its own band of job times. When every job was the same 2000-insert
// table, job_ms_p90 only told how much of the run the host had slowed,
// and its quartile spread over ten seeds reached 15-25%. The sizes keep
// 100 jobs within 15 s: on a slow host a 1000-insert table took 0.3 s.
var table1Inserts = []int{250, 500, 1000}

type table1 struct {
	cfgs []bench.Table1Config // one per position; Cache is shared by the run
}

type table1Row struct {
	Design       string  `json:"design"`
	Policy       string  `json:"policy"`
	Threads      int     `json:"threads"`
	Events       int64   `json:"events"`
	Persists     int64   `json:"persists"`
	Placed       int64   `json:"placed"`
	CriticalPath int64   `json:"critical_path"`
	WorkItems    int64   `json:"work_items"`
	Normalized   float64 `json:"normalized"`
}

func setupTable1(seed int64) (instance, error) {
	w := &table1{}
	cache := bench.NewTraceCache(bench.DefaultCacheEntries)
	for _, n := range table1Inserts {
		w.cfgs = append(w.cfgs, bench.Table1Config{
			Inserts: n, Threads: []int{1, 8}, InstrRate: 1e8, Seed: seed,
			Sweep: sweep.Config{Parallel: 1}, Cache: cache,
		})
	}
	return w, nil
}

func table1Rows(rows []bench.Table1Row) []table1Row {
	out := make([]table1Row, len(rows))
	for i, r := range rows {
		out[i] = table1Row{
			Design: r.Design.String(), Policy: r.Policy.String(), Threads: r.Threads,
			Events: r.Result.Events, Persists: r.Result.Persists, Placed: r.Result.Placed,
			CriticalPath: r.CriticalPath, WorkItems: r.Result.WorkItems, Normalized: r.Normalized,
		}
	}
	return out
}

func (w *table1) job(pos int, p *probe) (any, int64, error) {
	cfg := w.cfgs[pos]
	var before bench.CacheStats
	if p.traced() {
		before = cfg.Cache.Stats()
	}
	var rows []bench.Table1Row
	if err := p.call("bench", "bench.Table1", func() (err error) {
		rows, err = bench.Table1(cfg)
		return err
	}); err != nil {
		return nil, 0, err
	}
	var events int64
	for _, r := range rows {
		events += r.Result.Events
	}
	if p.traced() {
		after := cfg.Cache.Stats()
		p.add("bench", "events", float64(events))
		p.add("bench", "cache_hits", float64(after.Hits-before.Hits))
		p.add("bench", "cache_misses", float64(after.Misses-before.Misses))
		p.add("bench", "cache_evictions", float64(after.Evictions-before.Evictions))
		p.add("bench", "cache_events_generated", float64(after.EventsGenerated-before.EventsGenerated))
	}
	return table1Rows(rows), events, nil
}

// verify recomputes the table without the cache: every cell streams its
// execution straight into its simulator.
func (w *table1) verify(pos int, out any) error {
	cfg := w.cfgs[pos]
	cfg.Cache = nil
	rows, err := bench.Table1(cfg)
	if err != nil {
		return err
	}
	got, want := out.([]table1Row), table1Rows(rows)
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, uncached %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("row %d: cached %+v, uncached %+v", i, got[i], want[i])
		}
	}
	return nil
}

// ---- kv-graph: graph.Build then persistcheck.Check on prebuilt traces.

var kvGraphPolicies = []string{"strict", "epoch", "strand"}

const (
	// kvGraphOps sizes the write-only kv-graph traces: a Put is a nearly
	// fixed number of persists, so every trace's graph has about 2720
	// nodes. At a 0.9 read fraction the write count is binomial and, as
	// epoch graphs grow superlinearly, job times differ up to 3x between
	// seeds.
	kvGraphOps = 128
	// kvGraphPool is the number of traces per policy. At equal size one
	// trace's graph can still cost three times another's, depending on
	// how its Puts' frontiers overlap, so a run's medians are medians
	// over the traces it visits, and they vary between seeds with how
	// many it visits. With 16 traces per policy, job_ms_p50 (a strand
	// job) had a quartile spread of 15% over ten seeds. With 48, a run's
	// 100 or more jobs visit over 33 different traces of each policy.
	kvGraphPool = 48
)

type kvGraph struct {
	fixtures []graphFixture
}

type graphFixture struct {
	policy string
	model  core.Model
	run    *workload.Run
}

type kvGraphOut struct {
	Policy       string         `json:"policy"`
	Model        string         `json:"model"`
	Nodes        int            `json:"nodes"`
	CriticalPath int64          `json:"critical_path"`
	Findings     map[string]int `json:"findings"`
}

// setupKVGraph builds the trace pool: trace k of a run with seed s uses
// KV seed s*kvGraphPool+k, so no two run seeds share a trace. Positions
// cycle the policies within each trace.
func setupKVGraph(seed int64) (instance, error) {
	w := &kvGraph{}
	for k := int64(0); k < kvGraphPool; k++ {
		for _, pol := range kvGraphPolicies {
			o, model, err := kvServing(pol, kvGraphOps, 0, seed*kvGraphPool+k)
			if err != nil {
				return nil, err
			}
			run, err := workload.BuildKV(o, nil)
			if err != nil {
				return nil, err
			}
			w.fixtures = append(w.fixtures, graphFixture{policy: pol, model: model, run: run})
		}
	}
	return w, nil
}

func (w *kvGraph) job(pos int, p *probe) (any, int64, error) {
	f := w.fixtures[pos]
	params := core.Params{Model: f.model}
	n := int64(f.run.Trace.Len())
	var g *graph.Graph
	if err := p.call("graph", "graph.Build", func() (err error) {
		g, err = graph.Build(f.run.Trace, params)
		return err
	}); err != nil {
		return nil, 0, err
	}
	var cp int64
	if err := p.call("graph", "graph.CriticalPath", func() error {
		cp = g.CriticalPath()
		return nil
	}); err != nil {
		return nil, 0, err
	}
	var rep *persistcheck.Report
	if err := p.call("persistcheck", "persistcheck.Check", func() (err error) {
		rep, err = persistcheck.Check(f.run.Trace, params, f.run.Checks, persistcheck.Config{SiteLabel: f.run.SiteLabel})
		return err
	}); err != nil {
		return nil, 0, err
	}
	out := kvGraphOut{Policy: f.policy, Model: f.model.String(), Nodes: g.Len(), CriticalPath: cp, Findings: map[string]int{}}
	findings := 0
	for k, c := range rep.Counts {
		out.Findings[k.String()] = c
		findings += c
	}
	countGraph(p, g, n)
	p.add("persistcheck", "events", float64(n))
	p.add("persistcheck", "findings", float64(findings))
	return out, n, nil
}

// verify checks the graph against core's scalar-level simulator: with
// coalescing off, the longest constraint chain must equal core's
// critical path, and the graph has one node per persist event. The
// clean policies must carry no hazard finding under their target model.
func (w *kvGraph) verify(pos int, out any) error {
	got := out.(kvGraphOut)
	f := w.fixtures[pos]
	r, err := core.Simulate(f.run.Trace, core.Params{Model: f.model, NoCoalescing: true})
	if err != nil {
		return err
	}
	if got.CriticalPath != r.CriticalPath {
		return fmt.Errorf("graph critical path %d, core %d", got.CriticalPath, r.CriticalPath)
	}
	if persists := f.run.Trace.CountPersists(); got.Nodes != persists {
		return fmt.Errorf("%d graph nodes for %d persist events", got.Nodes, persists)
	}
	for _, k := range []persistcheck.Kind{persistcheck.EpochRace, persistcheck.UnpersistedPublication, persistcheck.UnboundRead} {
		if c := got.Findings[k.String()]; c != 0 {
			return fmt.Errorf("%d %v hazard(s) on the clean %s policy", c, k, f.policy)
		}
	}
	return nil
}

// countGraph records a built graph's size for the graph layer.
func countGraph(p *probe, g *graph.Graph, events int64) {
	if !p.traced() {
		return
	}
	edges := 0
	for _, nd := range g.Nodes {
		edges += len(nd.In)
	}
	p.add("graph", "events", float64(events))
	p.add("graph", "nodes", float64(g.Len()))
	p.add("graph", "edges", float64(edges))
}

// ---- crash-exhaustive: graph.Build + exhaustive.CheckGraph per fixture.

type crash struct {
	fixtures []crashFixture
}

type crashFixture struct {
	name  string
	model core.Model
	run   *workload.Run
}

type crashRow struct {
	Fixture   string `json:"fixture"`
	Persists  int    `json:"persists"`
	Cuts      uint64 `json:"cuts"`
	States    int    `json:"states"`
	Recovered int    `json:"recovered"`
	Detected  int    `json:"detected"`
	Hazards   int    `json:"hazards"`
	Verdict   string `json:"verdict"`
}

// crashSpecs are the clean fixtures. Their state counts barely move with
// the seed (journal-epoch, the largest, has 6170 states on every seed),
// so a job costs the same on every seed. The kv fixtures are one thread
// of two Puts: kv state spaces depend on which keys and shards the
// seed's Puts hit, and a two-thread kv fixture with a few writes, or
// any kv strand fixture, ranges from tens of states to past the
// checker's budget of 2^20 depending on the seed.
var crashSpecs = []struct {
	wl, policy       string
	threads, inserts int
}{
	{"queue", "strict", 2, 10},
	{"queue", "epoch", 2, 10},
	{"journal", "strict", 2, 8},
	{"journal", "epoch", 2, 8},
	{"pstm", "strict", 2, 10},
	{"pstm", "epoch", 2, 10},
	{"pstm", "strand", 2, 10},
	{"kv", "strict", 1, 2},
	{"kv", "epoch", 1, 2},
}

func setupCrash(seed int64) (instance, error) {
	w := &crash{}
	for _, s := range crashSpecs {
		qp, err := workload.ParsePolicy(s.policy)
		if err != nil {
			return nil, err
		}
		model := workload.ModelForPolicy(s.wl, qp)
		var run *workload.Run
		if s.wl == "kv" {
			jp, err := workload.JournalPolicy(qp)
			if err != nil {
				return nil, err
			}
			run, err = workload.BuildKV(workload.KVOptions{
				Shards: 2, Keys: 8, Threads: s.threads, Ops: s.inserts,
				ZipfS: 1.1, Policy: jp, Seed: seed, PolicyStr: s.policy,
			}, nil)
			if err != nil {
				return nil, err
			}
		} else {
			run, err = workload.Build(workload.Options{
				Workload: s.wl, Design: queue.CWL, Policy: qp, Model: model,
				Threads: s.threads, Inserts: s.inserts, Payload: 16, Seed: seed,
				SparseBlocks: s.wl == "journal", DesignStr: "cwl", PolicyStr: s.policy,
			}, nil)
			if err != nil {
				return nil, err
			}
		}
		w.fixtures = append(w.fixtures, crashFixture{name: s.wl + "-" + s.policy, model: model, run: run})
	}
	return w, nil
}

// crashPasses is the number of identical passes over the fixtures a job
// makes, one entry per job position. As with table1Inserts, the middle
// position sets job_ms_p50 and the last job_ms_p90. A pass takes about
// 50 ms. When every job was one pass, host interference that came and
// went for seconds at a time decided job_ms_p90, whose quartile spread
// over ten seeds reached 16-28%.
var crashPasses = []int{1, 2, 3}

// job makes the position's passes and returns the last one's rows.
func (w *crash) job(pos int, p *probe) (any, int64, error) {
	var rows []crashRow
	var events int64
	for range crashPasses[pos] {
		var n int64
		var err error
		if rows, n, err = w.pass(p); err != nil {
			return nil, 0, err
		}
		events += n
	}
	return rows, events, nil
}

func (w *crash) pass(p *probe) ([]crashRow, int64, error) {
	rows := make([]crashRow, 0, len(w.fixtures))
	var events int64
	for _, f := range w.fixtures {
		n := int64(f.run.Trace.Len())
		events += n
		var g *graph.Graph
		if err := p.call("graph", "graph.Build", func() (err error) {
			g, err = graph.Build(f.run.Trace, core.Params{Model: f.model})
			return err
		}); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", f.name, err)
		}
		var res *exhaustive.Result
		if err := p.call("exhaustive", "exhaustive.CheckGraph", func() (err error) {
			res, err = exhaustive.CheckGraph(g, f.model, f.run.Recover, f.run.Checked,
				exhaustive.Config{Sweep: sweep.Config{Parallel: 1}})
			return err
		}); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", f.name, err)
		}
		rows = append(rows, crashRow{
			Fixture: f.name, Persists: res.Persists, Cuts: res.Cuts, States: res.States,
			Recovered: res.Recovered, Detected: res.Detected, Hazards: res.Hazards,
			Verdict: res.Verdict.String(),
		})
		countGraph(p, g, n)
		p.add("exhaustive", "states", float64(res.States))
		p.add("exhaustive", "signatures", float64(res.Signatures))
		p.add("exhaustive", "subsumed", float64(res.Subsumed))
		p.peak("exhaustive", "peak_live", float64(res.PeakLive))
	}
	return rows, events, nil
}

// verify checks what a clean fixture guarantees: every reachable state
// recovers, each distinct image comes from at least one cut, and a
// strict-model graph is a chain (persists + 1 cuts).
func (w *crash) verify(_ int, out any) error {
	rows := out.([]crashRow)
	if len(rows) != len(w.fixtures) {
		return fmt.Errorf("%d rows for %d fixtures", len(rows), len(w.fixtures))
	}
	for i, r := range rows {
		f := w.fixtures[i]
		switch {
		case r.Verdict != exhaustive.DurablyLinearizable.String() || r.Detected != 0 || r.Hazards != 0:
			return fmt.Errorf("%s: verdict %s (detected %d, hazards %d) on a clean fixture", r.Fixture, r.Verdict, r.Detected, r.Hazards)
		case r.States == 0 || r.Recovered != r.States || r.Cuts < uint64(r.States):
			return fmt.Errorf("%s: %d states, %d recovered, %d cuts", r.Fixture, r.States, r.Recovered, r.Cuts)
		case f.model == core.Strict && r.Cuts != uint64(r.Persists)+1:
			return fmt.Errorf("%s: strict graph has %d cuts over %d persists", r.Fixture, r.Cuts, r.Persists)
		case r.Persists != f.run.Trace.CountPersists():
			return fmt.Errorf("%s: %d persists checked, trace has %d", r.Fixture, r.Persists, f.run.Trace.CountPersists())
		}
	}
	return nil
}
