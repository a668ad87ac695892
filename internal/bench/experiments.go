package bench

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/queue"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// This file regenerates the paper's evaluation artifacts:
//
//	Table 1  — persist-bound insert rate normalized to instruction rate
//	Figure 2 — queue persist dependence structure (constraint classes)
//	Figure 3 — achievable rate vs. persist latency
//	Figure 4 — persist critical path vs. atomic persist granularity
//	Figure 5 — persist critical path vs. dependence tracking granularity

// DefaultLatency is the paper's headline persist latency (Table 1).
const DefaultLatency = 500 * time.Nanosecond

// Table1Config parameterizes the Table 1 reproduction.
type Table1Config struct {
	// Inserts per configuration. Zero means 20000.
	Inserts int
	// PayloadLen is the entry size; the paper inserts 100-byte entries.
	PayloadLen int
	// Threads lists the thread counts (paper: 1 and 8).
	Threads []int
	// Latency is the persist latency (paper: 500 ns).
	Latency time.Duration
	// Seed drives interleavings.
	Seed int64
	// InstrRate optionally fixes the instruction rate (items/s) instead
	// of measuring the native queue — used by tests for determinism.
	InstrRate float64
	// Sweep controls grid parallelism; the zero value runs on
	// GOMAXPROCS workers. Results are identical at any worker count.
	Sweep sweep.Config
	// Cache, when non-nil, materializes each distinct workload's trace
	// once and replays it for every cell that shares it (the four
	// policies of a (threads, design) pair differ only by annotation
	// sites, so their traces differ and do not collide — but repeated
	// invocations and the simulator's pooled replay path still win).
	// Nil streams each cell's execution directly into its simulator.
	Cache *TraceCache
}

func (c *Table1Config) normalize() {
	if c.Inserts <= 0 {
		c.Inserts = 20000
	}
	if c.PayloadLen <= 0 {
		c.PayloadLen = 100
	}
	if len(c.Threads) == 0 {
		c.Threads = []int{1, 8}
	}
	if c.Latency <= 0 {
		c.Latency = DefaultLatency
	}
}

// Table1Row is one cell group of Table 1.
type Table1Row struct {
	Design       queue.Design
	Policy       core.Policy
	Threads      int
	Result       core.Result
	InstrRate    float64 // items/s, native execution
	PersistRate  float64 // items/s, persist-bound
	Normalized   float64 // PersistRate / InstrRate (Table 1's number)
	CriticalPath int64
}

// Table1 runs every (design × policy × threads) configuration and
// returns the rows in presentation order. The simulations fan out
// across cfg.Sweep workers; rows are merged in grid order, so the
// output is identical at any worker count.
func Table1(cfg Table1Config) ([]Table1Row, error) {
	cfg.normalize()
	// Phase 1, sequential: NativeRate is a wall-clock measurement of
	// real goroutines — running simulations beside it would skew the
	// denominator, so every rate is measured before the fan-out.
	type cell struct {
		threads int
		design  queue.Design
		policy  core.Policy
		instr   float64
	}
	var grid []cell
	for _, threads := range cfg.Threads {
		for _, design := range []queue.Design{queue.CWL, queue.TwoLock} {
			instr := cfg.InstrRate
			if instr <= 0 {
				var err error
				instr, err = NativeRate(Workload{
					Design: design, Threads: threads,
					Inserts: cfg.Inserts, PayloadLen: cfg.PayloadLen,
				})
				if err != nil {
					return nil, err
				}
			}
			for _, pol := range core.Policies {
				grid = append(grid, cell{threads, design, pol, instr})
			}
		}
	}
	// Phase 2, parallel: each cell simulates independently; workers
	// share read-only traces through cfg.Cache when one is given.
	rows := make([]Table1Row, 0, len(grid))
	err := sweep.Run(len(grid), cfg.Sweep.Named("table1"),
		func(i int) (Table1Row, error) {
			c := grid[i]
			w := Workload{
				Design: c.design, Policy: c.policy, Threads: c.threads,
				Inserts: cfg.Inserts, PayloadLen: cfg.PayloadLen, Seed: cfg.Seed,
			}
			r, err := SimulateCached(cfg.Cache, w, core.Params{Model: c.policy.Model()})
			if err != nil {
				return Table1Row{}, fmt.Errorf("bench: %v: %w", w, err)
			}
			pr := r.PersistBoundRate(cfg.Latency)
			return Table1Row{
				Design: c.design, Policy: c.policy, Threads: c.threads,
				Result: r, InstrRate: c.instr, PersistRate: pr,
				Normalized:   pr / c.instr,
				CriticalPath: r.CriticalPath,
			}, nil
		},
		func(_ int, row Table1Row) error {
			rows = append(rows, row)
			return nil
		})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderTable1 formats rows the way the paper lays out Table 1: one row
// per thread count, normalized rates per design × policy; values ≥ 1
// (instruction-rate-bound, bold in the paper) carry a trailing '*'.
func RenderTable1(rows []Table1Row) *stats.Table {
	t := stats.NewTable(
		"threads",
		"cwl/strict", "cwl/epoch", "cwl/racing", "cwl/strand",
		"2lc/strict", "2lc/epoch", "2lc/racing", "2lc/strand",
	)
	cell := make(map[string]string)
	var threads []int
	seen := make(map[int]bool)
	for _, r := range rows {
		key := fmt.Sprintf("%d/%v/%v", r.Threads, r.Design, r.Policy)
		cell[key] = stats.FormatNorm(r.Normalized)
		if !seen[r.Threads] {
			seen[r.Threads] = true
			threads = append(threads, r.Threads)
		}
	}
	for _, th := range threads {
		row := []string{fmt.Sprintf("%d", th)}
		for _, d := range []queue.Design{queue.CWL, queue.TwoLock} {
			for _, p := range core.Policies {
				row = append(row, cell[fmt.Sprintf("%d/%v/%v", th, d, p)])
			}
		}
		t.AddRow(row...)
	}
	return t
}

// Fig3Config parameterizes the persist-latency sweep (CWL, 1 thread).
type Fig3Config struct {
	// Inserts per trace. Zero means 20000.
	Inserts int
	// PayloadLen defaults to 100.
	PayloadLen int
	// Latencies to sweep; nil means a log sweep of 10 ns – 100 µs.
	Latencies []time.Duration
	// Seed drives the interleaving.
	Seed int64
	// InstrRate optionally fixes the instruction rate for determinism.
	InstrRate float64
	// Sweep controls grid parallelism (one worker per policy here).
	Sweep sweep.Config
}

// Fig3Point is one plotted point: achievable rate at one latency under
// one policy/model pairing.
type Fig3Point struct {
	Latency time.Duration
	Policy  core.Policy
	Model   core.Model
	// Rate is min(instruction rate, persist-bound rate), items/s.
	Rate float64
	// PersistBound reports whether persists (not instructions) limit.
	PersistBound bool
}

// Fig3Policies are the models Figure 3 plots.
var Fig3Policies = []core.Policy{core.PolicyStrict, core.PolicyEpoch, core.PolicyStrand}

// Fig3 sweeps persist latency. The critical path is latency-independent,
// so each policy's workload runs once and the sweep is analytic — the
// same trick lets the paper plot smooth curves.
func Fig3(cfg Fig3Config) ([]Fig3Point, error) {
	if cfg.Inserts <= 0 {
		cfg.Inserts = 20000
	}
	if cfg.PayloadLen <= 0 {
		cfg.PayloadLen = 100
	}
	if len(cfg.Latencies) == 0 {
		for _, ns := range []int64{10, 30, 100, 300, 1000, 3000, 10000, 30000, 100000} {
			cfg.Latencies = append(cfg.Latencies, time.Duration(ns)*time.Nanosecond)
		}
	}
	instr := cfg.InstrRate
	if instr <= 0 {
		var err error
		instr, err = NativeRate(Workload{Design: queue.CWL, Threads: 1, Inserts: cfg.Inserts, PayloadLen: cfg.PayloadLen})
		if err != nil {
			return nil, err
		}
	}
	// One simulation per policy runs in parallel; the analytic latency
	// sweep happens at merge time, in policy order.
	var out []Fig3Point
	err := sweep.Run(len(Fig3Policies), cfg.Sweep.Named("fig3"),
		func(i int) (core.Result, error) {
			pol := Fig3Policies[i]
			w := Workload{Design: queue.CWL, Policy: pol, Threads: 1, Inserts: cfg.Inserts, PayloadLen: cfg.PayloadLen, Seed: cfg.Seed}
			return Simulate(w, core.Params{Model: pol.Model()})
		},
		func(i int, r core.Result) error {
			pol := Fig3Policies[i]
			model := pol.Model()
			for _, lat := range cfg.Latencies {
				pb := r.PersistBoundRate(lat)
				rate := math.Min(instr, pb)
				out = append(out, Fig3Point{
					Latency: lat, Policy: pol, Model: model,
					Rate: rate, PersistBound: pb < instr,
				})
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// BreakEvenLatency returns the largest swept latency at which the
// policy still achieves instruction rate (the x-coordinate where its
// Figure 3 curve leaves the compute-bound plateau), or 0 if it is
// persist-bound everywhere.
func BreakEvenLatency(points []Fig3Point, pol core.Policy) time.Duration {
	var best time.Duration
	for _, p := range points {
		if p.Policy == pol && !p.PersistBound && p.Latency > best {
			best = p.Latency
		}
	}
	return best
}

// RenderFig3 formats the sweep as a table: rows = latency, one column
// per policy (million inserts/s, the paper's y-axis).
func RenderFig3(points []Fig3Point) *stats.Table {
	t := stats.NewTable("latency", "strict", "epoch", "strand")
	byLat := make(map[time.Duration]map[core.Policy]float64)
	var order []time.Duration
	for _, p := range points {
		m, ok := byLat[p.Latency]
		if !ok {
			m = make(map[core.Policy]float64)
			byLat[p.Latency] = m
			order = append(order, p.Latency)
		}
		m[p.Policy] = p.Rate
	}
	for _, lat := range order {
		t.AddRow(
			lat.String(),
			fmt.Sprintf("%.3f", byLat[lat][core.PolicyStrict]/1e6),
			fmt.Sprintf("%.3f", byLat[lat][core.PolicyEpoch]/1e6),
			fmt.Sprintf("%.3f", byLat[lat][core.PolicyStrand]/1e6),
		)
	}
	return t
}

// GranularityConfig parameterizes Figures 4 and 5 (CWL, 1 thread,
// strict vs. epoch).
type GranularityConfig struct {
	// Inserts per trace; zero means 5000.
	Inserts int
	// PayloadLen defaults to 100.
	PayloadLen int
	// Granularities to sweep; nil means 8..256.
	Granularities []uint64
	// Seed drives the interleaving.
	Seed int64
	// Sweep controls grid parallelism across (policy × granularity).
	Sweep sweep.Config
}

func (c *GranularityConfig) normalize() {
	if c.Inserts <= 0 {
		c.Inserts = 5000
	}
	if c.PayloadLen <= 0 {
		c.PayloadLen = 100
	}
	if len(c.Granularities) == 0 {
		c.Granularities = []uint64{8, 16, 32, 64, 128, 256}
	}
}

// GranPoint is one point of Figure 4 or 5: average persist critical
// path per insert at one granularity.
type GranPoint struct {
	Granularity   uint64
	Policy        core.Policy
	Model         core.Model
	PathPerInsert float64
}

// granPolicies are the two curves in Figures 4 and 5.
var granPolicies = []core.Policy{core.PolicyStrict, core.PolicyEpoch}

func granularitySweep(cfg GranularityConfig, mkParams func(core.Model, uint64) core.Params) ([]GranPoint, error) {
	cfg.normalize()
	// Phase 1: one trace per policy, generated in parallel (each
	// trace's SC execution stays single-pass within its worker).
	traces := make([]*trace.Trace, len(granPolicies))
	err := sweep.Run(len(granPolicies), cfg.Sweep.Named("gran-trace"),
		func(i int) (*trace.Trace, error) {
			pol := granPolicies[i]
			w := Workload{Design: queue.CWL, Policy: pol, Threads: 1, Inserts: cfg.Inserts, PayloadLen: cfg.PayloadLen, Seed: cfg.Seed}
			return Trace(w)
		},
		func(i int, tr *trace.Trace) error {
			traces[i] = tr
			return nil
		})
	if err != nil {
		return nil, err
	}
	// Phase 2: the (policy × granularity) grid; core.Simulate only
	// reads the shared trace, so workers can share it freely.
	ng := len(cfg.Granularities)
	out := make([]GranPoint, 0, len(granPolicies)*ng)
	err = sweep.Run(len(granPolicies)*ng, cfg.Sweep.Named("gran"),
		func(i int) (GranPoint, error) {
			pol := granPolicies[i/ng]
			g := cfg.Granularities[i%ng]
			model := pol.Model()
			sp := cfg.Sweep.Spans.Start("simulate", model.String()).Arg("granularity", g)
			r, err := core.Simulate(traces[i/ng], mkParams(model, g))
			sp.End()
			if err != nil {
				return GranPoint{}, err
			}
			return GranPoint{Granularity: g, Policy: pol, Model: model, PathPerInsert: r.PathPerWork()}, nil
		},
		func(_ int, p GranPoint) error {
			out = append(out, p)
			return nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Fig4 sweeps atomic persist granularity (tracking fixed at 8 B):
// larger atomic persists let strict persistency coalesce toward epoch's
// critical path; epoch barely moves.
func Fig4(cfg GranularityConfig) ([]GranPoint, error) {
	return granularitySweep(cfg, func(m core.Model, g uint64) core.Params {
		return core.Params{Model: m, AtomicGranularity: g, TrackingGranularity: 8}
	})
}

// Fig5 sweeps dependence tracking granularity (atomic persists fixed at
// 8 B): coarse tracking reintroduces constraints via persist false
// sharing, degrading epoch toward strict; strict barely moves.
func Fig5(cfg GranularityConfig) ([]GranPoint, error) {
	return granularitySweep(cfg, func(m core.Model, g uint64) core.Params {
		return core.Params{Model: m, AtomicGranularity: 8, TrackingGranularity: g}
	})
}

// RenderGran formats a granularity sweep: rows = granularity, columns =
// strict and epoch path-per-insert.
func RenderGran(points []GranPoint, axis string) *stats.Table {
	t := stats.NewTable(axis, "strict", "epoch")
	type key struct {
		g uint64
		p core.Policy
	}
	vals := make(map[key]float64)
	var order []uint64
	seen := make(map[uint64]bool)
	for _, p := range points {
		vals[key{p.Granularity, p.Policy}] = p.PathPerInsert
		if !seen[p.Granularity] {
			seen[p.Granularity] = true
			order = append(order, p.Granularity)
		}
	}
	for _, g := range order {
		t.AddRow(
			fmt.Sprintf("%dB", g),
			fmt.Sprintf("%.2f", vals[key{g, core.PolicyStrict}]),
			fmt.Sprintf("%.2f", vals[key{g, core.PolicyEpoch}]),
		)
	}
	return t
}

// WindowPoint is one row of the coalescing-window ablation: how a
// finite persist buffer bounds strand persistency's otherwise unbounded
// head-pointer coalescing on the queue.
type WindowPoint struct {
	// Window is the coalescing window in placed persists (0 = unbounded).
	Window int64
	// PathPerInsert is the resulting critical path per insert.
	PathPerInsert float64
	// Coalesced counts merged persists.
	Coalesced int64
}

// WindowAblation sweeps the coalescing window for the strand-annotated
// CWL queue (1 thread); the per-window simulations run on sw workers
// over one shared trace.
func WindowAblation(inserts int, seed int64, windows []int64, sw sweep.Config) ([]WindowPoint, error) {
	if inserts <= 0 {
		inserts = 5000
	}
	if len(windows) == 0 {
		windows = []int64{0, 1024, 256, 64, 16, 4}
	}
	w := Workload{Design: queue.CWL, Policy: core.PolicyStrand, Threads: 1, Inserts: inserts, PayloadLen: 100, Seed: seed}
	tr, err := Trace(w)
	if err != nil {
		return nil, err
	}
	out := make([]WindowPoint, 0, len(windows))
	err = sweep.Run(len(windows), sw.Named("window"),
		func(i int) (WindowPoint, error) {
			sp := sw.Spans.Start("simulate", core.Strand.String()).Arg("window", windows[i])
			r, err := core.Simulate(tr, core.Params{Model: core.Strand, CoalesceWindow: windows[i]})
			sp.End()
			if err != nil {
				return WindowPoint{}, err
			}
			return WindowPoint{Window: windows[i], PathPerInsert: r.PathPerWork(), Coalesced: r.Coalesced}, nil
		},
		func(_ int, p WindowPoint) error {
			out = append(out, p)
			return nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RenderWindow formats the window ablation.
func RenderWindow(points []WindowPoint) *stats.Table {
	t := stats.NewTable("window", "path/insert", "coalesced")
	for _, p := range points {
		label := fmt.Sprint(p.Window)
		if p.Window == 0 {
			label = "inf"
		}
		t.AddRow(label, fmt.Sprintf("%.4f", p.PathPerInsert), fmt.Sprint(p.Coalesced))
	}
	return t
}

// Fig2Row is one row of the Figure 2 reproduction: the persist
// dependence structure of the CWL queue under each annotation policy,
// quantified as constraint-edge counts by class plus the resulting
// critical path. Relaxation shows up as edge classes disappearing:
// epoch removes the intra-insert serialization (the paper's "A"
// constraints), strand removes inter-insert serialization ("B").
type Fig2Row struct {
	Policy       core.Policy
	Model        core.Model
	Persists     int
	ProgramOrder int
	Atomicity    int
	Conflict     int
	CriticalPath int64
}

// Fig2 builds the constraint DAG of a small CWL run per policy. Trace
// generation is hoisted into its own phase — the trace depends only on
// the policy, not on anything the graph phase varies — so each
// execution runs exactly once before the graph builders fan out over
// sw workers.
func Fig2(inserts int, seed int64, sw sweep.Config) ([]Fig2Row, error) {
	if inserts <= 0 {
		inserts = 50
	}
	// Phase 1: one trace per policy.
	traces := make([]*trace.Trace, len(core.Policies))
	err := sweep.Run(len(core.Policies), sw.Named("fig2-trace"),
		func(i int) (*trace.Trace, error) {
			pol := core.Policies[i]
			w := Workload{Design: queue.CWL, Policy: pol, Threads: 1, Inserts: inserts, PayloadLen: 100, Seed: seed}
			return Trace(w)
		},
		func(i int, tr *trace.Trace) error {
			traces[i] = tr
			return nil
		})
	if err != nil {
		return nil, err
	}
	// Phase 2: constraint graphs over the read-only traces.
	rows := make([]Fig2Row, 0, len(core.Policies))
	err = sweep.Run(len(core.Policies), sw.Named("fig2"),
		func(i int) (Fig2Row, error) {
			pol := core.Policies[i]
			model := pol.Model()
			sp := sw.Spans.Start("graph", "build").Arg("model", model.String())
			g, err := graph.Build(traces[i], core.Params{Model: model})
			sp.End()
			if err != nil {
				return Fig2Row{}, err
			}
			counts := g.EdgeCounts()
			return Fig2Row{
				Policy: pol, Model: model, Persists: g.Len(),
				ProgramOrder: counts[graph.ProgramOrder],
				Atomicity:    counts[graph.Atomicity],
				Conflict:     counts[graph.Conflict],
				CriticalPath: g.CriticalPath(),
			}, nil
		},
		func(_ int, r Fig2Row) error {
			rows = append(rows, r)
			return nil
		})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderFig2 formats the dependence-structure comparison.
func RenderFig2(rows []Fig2Row) *stats.Table {
	t := stats.NewTable("policy", "model", "persists", "prog-order", "atomicity", "conflict", "critical-path")
	for _, r := range rows {
		t.AddRow(
			r.Policy.String(), r.Model.String(),
			fmt.Sprintf("%d", r.Persists),
			fmt.Sprintf("%d", r.ProgramOrder),
			fmt.Sprintf("%d", r.Atomicity),
			fmt.Sprintf("%d", r.Conflict),
			fmt.Sprintf("%d", r.CriticalPath),
		)
	}
	return t
}
