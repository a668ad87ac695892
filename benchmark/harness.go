package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/telemetry"
)

const (
	// defaultSetups is how often a run builds its fixtures and warms up;
	// setup_s is the median, so one cold start does not set it.
	defaultSetups = 5
	// warmups is the number of untimed jobs each setup runs.
	warmups = 2
	// minJobs is the fewest timed jobs a run measures: with 100 samples,
	// 10 lie beyond job_ms_p90.
	minJobs = 100
)

// probe times the library calls of one job from outside. Untraced (nil
// spans) it only runs them; traced, it records one span per call plus
// per-layer busy time, allocations and work counts.
type probe struct {
	spans  *telemetry.SpanTracer
	job    int
	layers map[string]*layerStats
	// inJob is the layer time spent in the current job.
	inJob time.Duration
}

type layerStats struct {
	calls   map[string]int // by entry point
	busy    time.Duration
	mallocs uint64
	bytes   uint64
	counts  map[string]float64
}

func (p *probe) traced() bool { return p.spans != nil }

func (p *probe) layer(name string) *layerStats {
	st := p.layers[name]
	if st == nil {
		st = &layerStats{calls: map[string]int{}, counts: map[string]float64{}}
		p.layers[name] = st
	}
	return st
}

// call runs fn, one public entry point of layer.
func (p *probe) call(layer, name string, fn func() error) error {
	if !p.traced() {
		return fn()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sp := p.spans.Start(layer, name).Arg("job", p.job)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	sp.End()
	runtime.ReadMemStats(&after)
	st := p.layer(layer)
	st.calls[name]++
	st.busy += d
	st.mallocs += after.Mallocs - before.Mallocs
	st.bytes += after.TotalAlloc - before.TotalAlloc
	p.inJob += d
	return err
}

// add accumulates a work count of layer; a no-op untraced.
func (p *probe) add(layer, key string, v float64) {
	if p.traced() {
		p.layer(layer).counts[key] += v
	}
}

// peak keeps the largest value seen of a layer's count.
func (p *probe) peak(layer, key string, v float64) {
	if p.traced() {
		if c := p.layer(layer).counts; v > c[key] {
			c[key] = v
		}
	}
}

type runConfig struct {
	seed int64
	// jobs > 0 runs exactly that many timed jobs (the tests' setting);
	// otherwise jobs run back to back until seconds have passed and
	// minJobs have run.
	jobs    int
	seconds float64
	// trace alternates traced and untraced runs of every job position
	// and reports per-layer metrics; otherwise every job is untraced and
	// the run reports end-to-end metrics.
	trace bool
	// setups is the number of set-ups; the last one's fixtures are timed.
	setups int
}

type jobRecord struct {
	pos    int
	traced bool
	wall   time.Duration
	// slowdown is the host slowdown around the job and factor what the
	// workload's times are divided by for it (see hostspeed.go).
	slowdown, factor float64
	layers           time.Duration // layer time inside the job (traced jobs only)
	events           int64
	failed           bool
}

// ms is the job's corrected time in milliseconds.
func (j jobRecord) ms() float64 { return float64(j.wall.Nanoseconds()) / 1e6 / j.factor }

type runResult struct {
	workload  string
	correct   bool
	attempted int
	failed    int
	metrics   []metric
	jobs      []jobRecord
	spans     *telemetry.SpanTracer
}

type metric struct {
	name, unit string
	value      float64
}

// outputs keeps the first output seen at each job position; every later
// output at that position must encode to the same bytes.
type outputs struct {
	first map[int]any
	enc   map[int][]byte
}

func (o *outputs) same(pos int, out any) (bool, error) {
	b, err := json.Marshal(out)
	if err != nil {
		return false, err
	}
	if ref, ok := o.enc[pos]; ok {
		return bytes.Equal(ref, b), nil
	}
	o.first[pos], o.enc[pos] = out, b
	return true, nil
}

// runWorkload sets the workload up, runs its timed jobs, verifies every
// output and derives the metrics. Problems with single jobs are logged
// to logw and counted as failed; an error means the run itself could not
// proceed.
func runWorkload(w workloadDef, cfg runConfig, logw io.Writer) (*runResult, error) {
	outs := &outputs{first: map[int]any{}, enc: map[int][]byte{}}
	plain := &probe{}
	ref := newReference()
	var inst instance
	var setupTimes []float64
	for k := 0; k < cfg.setups; k++ {
		inst = nil
		runtime.GC()
		before := ref.run()
		t0 := time.Now()
		in, err := w.setup(cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		wall := time.Since(t0)
		warm := make([]any, warmups)
		for i := range warm {
			runtime.GC()
			t0 := time.Now()
			if warm[i], _, err = in.job(i%w.cycle, plain); err != nil {
				return nil, fmt.Errorf("%s warm-up job %d: %w", w.name, i, err)
			}
			wall += time.Since(t0)
		}
		setupTimes = append(setupTimes, wall.Seconds()/w.hostFactor(slowdown(before, ref.run())))
		for i, out := range warm {
			if ok, err := outs.same(i%w.cycle, out); err != nil || !ok {
				return nil, fmt.Errorf("%s warm-up job %d: output differs between setups (%v)", w.name, i, err)
			}
		}
		inst = in
	}

	res := &runResult{workload: w.name}
	traced := &probe{layers: map[string]*layerStats{}}
	if cfg.trace {
		res.spans = telemetry.NewSpanTracer(nil)
		traced.spans = res.spans
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	before := ref.run()
	for i := 0; ; i++ {
		if cfg.jobs > 0 && i >= cfg.jobs || cfg.jobs <= 0 && i >= minJobs && time.Since(start).Seconds() >= cfg.seconds {
			break
		}
		// Every job starts from a collected heap, untimed, so that none
		// pays for the garbage of the one before it and the heap's peak,
		// which sets peak_rss_mb, does not depend on where the collector
		// stood when the job began: in back-to-back jobs, kv-read's peak
		// RSS was 1.0 GiB on some seeds and 1.3 GiB on others.
		runtime.GC()
		rec := jobRecord{pos: i % w.cycle}
		if cfg.trace {
			// Positions run in the untraced order, so state carried from
			// job to job, like queue-table1's trace cache, evolves the same
			// way. Traced and untraced jobs alternate, and each position
			// switches sides from one cycle to the next.
			rec.traced = (rec.pos+i/w.cycle)%2 == 1
		}
		p := plain
		var jsp *telemetry.Span
		if rec.traced {
			p = traced
			p.job, p.inJob = i, 0
			jsp = res.spans.Start("job", w.name).Arg("job", i).Arg("position", rec.pos)
		}
		t0 := time.Now()
		out, events, err := inst.job(rec.pos, p)
		rec.wall = time.Since(t0)
		jsp.End()
		after := ref.run()
		rec.slowdown, before = slowdown(before, after), after
		rec.factor = w.hostFactor(rec.slowdown)
		rec.layers, rec.events = p.inJob, events
		if err != nil {
			rec.failed = true
			fmt.Fprintf(logw, "%s job %d: %v\n", w.name, i, err)
		} else if ok, err := outs.same(rec.pos, out); err != nil || !ok {
			rec.failed = true
			fmt.Fprintf(logw, "%s job %d: output differs from the first job at position %d (%v)\n", w.name, i, rec.pos, err)
		}
		res.jobs = append(res.jobs, rec)
	}
	runtime.ReadMemStats(&ms1)
	// Before verification, whose reference computations are not jobs.
	peakRSS := peakRSSMiB()

	badPos, err := verifyOutputs(w, inst, outs, cfg.seed, logw)
	if err != nil {
		return nil, err
	}
	for i := range res.jobs {
		if badPos[res.jobs[i].pos] {
			res.jobs[i].failed = true
		}
		if res.jobs[i].failed {
			res.failed++
		}
	}
	res.attempted = len(res.jobs)
	res.correct = res.failed == 0 && len(badPos) == 0

	if cfg.trace {
		res.metrics = layerMetrics(traced.layers, res.jobs)
	} else {
		alloc := float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(len(res.jobs))
		res.metrics = endToEndMetrics(median(setupTimes), res.jobs, alloc, peakRSS)
	}
	return res, nil
}

// verifyOutputs checks the first output at every position against the
// workload's oracle and, for a pinned seed, against expected/. It
// returns the positions that failed.
func verifyOutputs(w workloadDef, inst instance, outs *outputs, seed int64, logw io.Writer) (map[int]bool, error) {
	expected, err := pinnedFor(seed, w.name)
	if err != nil {
		return nil, err
	}
	bad := map[int]bool{}
	for pos := 0; pos < w.cycle; pos++ {
		out, ok := outs.first[pos]
		if !ok {
			continue
		}
		err := inst.verify(pos, out)
		if err == nil && expected != nil {
			err = matchPinned(expected, pos, out)
		}
		if err != nil {
			bad[pos] = true
			fmt.Fprintf(logw, "%s position %d: %v\n", w.name, pos, err)
		}
	}
	return bad, nil
}

// Metric catalogs: the names and units BENCHMARK.json declares.
var endToEnd = []metric{
	{name: "setup_s", unit: "s"},
	{name: "job_ms_p50", unit: "ms"},
	{name: "job_ms_p90", unit: "ms"},
	{name: "events_per_s", unit: "events/s"},
	{name: "alloc_mb_per_job", unit: "MiB"},
	{name: "peak_rss_mb", unit: "MiB"},
}

var perLayer = []metric{
	{name: "exec.busy_s", unit: "s/job"},
	{name: "exec.ns_per_event", unit: "ns/event"},
	{name: "exec.allocs_per_event", unit: "allocs/event"},
	{name: "exec.events", unit: "events/call"},
	{name: "core.busy_s", unit: "s/job"},
	{name: "core.ns_per_event_model", unit: "ns/event"},
	{name: "core.bytes_per_call", unit: "B/call"},
	{name: "core.allocs_per_call", unit: "allocs/call"},
	{name: "bench.busy_s", unit: "s/job"},
	{name: "bench.ns_per_event", unit: "ns/event"},
	{name: "bench.cache_hit_ratio", unit: "ratio"},
	{name: "bench.cache_misses", unit: "misses/call"},
	{name: "bench.cache_evictions", unit: "evictions/call"},
	{name: "bench.cache_events_generated", unit: "events/call"},
	{name: "graph.busy_s", unit: "s/job"},
	{name: "graph.ns_per_event", unit: "ns/event"},
	{name: "graph.allocs_per_event", unit: "allocs/event"},
	{name: "graph.nodes", unit: "nodes/call"},
	{name: "graph.edges_per_node", unit: "edges/node"},
	{name: "persistcheck.busy_s", unit: "s/job"},
	{name: "persistcheck.ns_per_event", unit: "ns/event"},
	{name: "persistcheck.allocs_per_event", unit: "allocs/event"},
	{name: "persistcheck.findings", unit: "findings/call"},
	{name: "exhaustive.busy_s", unit: "s/job"},
	{name: "exhaustive.ns_per_state", unit: "ns/state"},
	{name: "exhaustive.states", unit: "states/call"},
	{name: "exhaustive.signatures", unit: "sigs/call"},
	{name: "exhaustive.memo_ratio", unit: "ratio"},
	{name: "exhaustive.subsumed", unit: "states/call"},
	{name: "exhaustive.peak_live", unit: "states"},
	{name: "harness.self_s", unit: "s/job"},
	{name: "harness.trace_overhead_frac", unit: "ratio"},
	{name: "harness.host_slowdown", unit: "ratio"},
}

// fill attaches values to a catalog, in catalog order.
func fill(catalog []metric, values map[string]float64) []metric {
	out := make([]metric, len(catalog))
	for i, m := range catalog {
		v, ok := values[m.name]
		if !ok {
			panic("benchmark: no value for metric " + m.name)
		}
		m.value = v
		out[i] = m
	}
	return out
}

// endToEndMetrics derives the end-to-end metrics from corrected times
// (see hostspeed.go). events_per_s is the median job's rate, not the
// run's total events over its total time: the total moved with every
// second the host ran slow, the median did not.
func endToEndMetrics(setupS float64, jobs []jobRecord, allocPerJob, peakRSS float64) []metric {
	var ms, rates []float64
	for _, j := range jobs {
		ms = append(ms, j.ms())
		rates = append(rates, float64(j.events)/(j.ms()/1e3))
	}
	return fill(endToEnd, map[string]float64{
		"setup_s":          setupS,
		"job_ms_p50":       median(ms),
		"job_ms_p90":       percentile(ms, 0.9),
		"events_per_s":     median(rates),
		"alloc_mb_per_job": allocPerJob / (1 << 20),
		"peak_rss_mb":      peakRSS,
	})
}

func layerMetrics(layers map[string]*layerStats, jobs []jobRecord) []metric {
	var tracedMs, plainMs, slow []float64
	var self time.Duration
	for _, j := range jobs {
		slow = append(slow, j.slowdown)
		if j.traced {
			tracedMs = append(tracedMs, j.ms())
			self += j.wall - j.layers
		} else {
			plainMs = append(plainMs, j.ms())
		}
	}
	n := float64(len(tracedMs))
	get := func(name string) *layerStats {
		if st := layers[name]; st != nil {
			return st
		}
		return &layerStats{} // reads of nil maps give zero
	}
	perJob := func(d time.Duration) float64 { return ratio(d.Seconds(), n) }
	perCall := func(st *layerStats, entry, count string) float64 {
		return ratio(st.counts[count], float64(st.calls[entry]))
	}
	exec, core, bch := get("exec"), get("core"), get("bench")
	gr, pc, ex := get("graph"), get("persistcheck"), get("exhaustive")
	v := map[string]float64{
		"harness.self_s":              perJob(self),
		"harness.trace_overhead_frac": ratio(median(tracedMs), median(plainMs)) - 1,
		"harness.host_slowdown":       median(slow),

		"bench.cache_hit_ratio":        ratio(bch.counts["cache_hits"], bch.counts["cache_hits"]+bch.counts["cache_misses"]),
		"bench.cache_misses":           perCall(bch, "bench.Table1", "cache_misses"),
		"bench.cache_evictions":        perCall(bch, "bench.Table1", "cache_evictions"),
		"bench.cache_events_generated": perCall(bch, "bench.Table1", "cache_events_generated"),

		"core.ns_per_event_model": ratio(float64(core.busy.Nanoseconds()), core.counts["events"]),
		"core.bytes_per_call":     ratio(float64(core.bytes), float64(core.calls["core.SimulateAll"])),
		"core.allocs_per_call":    ratio(float64(core.mallocs), float64(core.calls["core.SimulateAll"])),

		"exec.events":           perCall(exec, "workload.BuildKV", "events"),
		"graph.nodes":           perCall(gr, "graph.Build", "nodes"),
		"graph.edges_per_node":  ratio(gr.counts["edges"], gr.counts["nodes"]),
		"persistcheck.findings": perCall(pc, "persistcheck.Check", "findings"),

		"exhaustive.ns_per_state": ratio(float64(ex.busy.Nanoseconds()), ex.counts["states"]),
		"exhaustive.states":       perCall(ex, "exhaustive.CheckGraph", "states"),
		"exhaustive.signatures":   perCall(ex, "exhaustive.CheckGraph", "signatures"),
		"exhaustive.memo_ratio":   0,
		"exhaustive.subsumed":     perCall(ex, "exhaustive.CheckGraph", "subsumed"),
		"exhaustive.peak_live":    ex.counts["peak_live"],
	}
	if ex.counts["states"] > 0 {
		v["exhaustive.memo_ratio"] = 1 - ex.counts["signatures"]/ex.counts["states"]
	}
	for name, st := range map[string]*layerStats{"exec": exec, "core": core, "bench": bch, "graph": gr, "persistcheck": pc, "exhaustive": ex} {
		v[name+".busy_s"] = perJob(st.busy)
		v[name+".ns_per_event"] = ratio(float64(st.busy.Nanoseconds()), st.counts["events"])
		v[name+".allocs_per_event"] = ratio(float64(st.mallocs), st.counts["events"])
	}
	return fill(perLayer, v)
}

// ratio is a/b, or 0 where the layer did no work.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median interpolates between the middle two samples of an even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile is the nearest-rank percentile: at 0.9 over 100 samples,
// exactly 10 samples lie beyond it.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// peakRSSMiB is the process's maximum resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
