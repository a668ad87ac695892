// Command pqbench regenerates the paper's evaluation artifacts from the
// persistent-queue workloads: Table 1 and Figures 2–5, plus this
// reproduction's device and unbuffered-strict ablations.
//
// Usage:
//
//	pqbench -experiment table1|fig2|fig3|fig4|fig5|all \
//	        [-inserts N] [-threads 1,8] [-latency 500ns] [-seed S] [-csv] \
//	        [-json] [-parallel N]
//
// plus the reproduction-added ablations: banks, window, wear, journal,
// pstm, dist, races, unbuffered. -json prints one experiment's JSON
// report (table1, fig2–fig5, window); it is refused for the ablations
// without one and for all.
//
// Absolute instruction rates come from this host, so the normalized
// values differ from the paper's Xeon numbers; the shapes (who wins,
// by roughly what factor, where the crossovers fall) are the
// reproduction target. See EXPERIMENTS.md.
package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/nvram"
	"repro/internal/queue"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

func main() { cli.Main("pqbench", run) }

// runCfg is what every experiment reads: the parsed flags and the run's
// telemetry.
type runCfg struct {
	inserts, payload     int
	threads              []int
	latency              time.Duration
	seed                 int64
	instrRate            float64
	csv, json, integrity bool
	sw                   sweep.Config
	man                  *telemetry.Manifest
	reg                  *telemetry.Registry
	spans                *telemetry.SpanTracer
}

// emit prints a table as CSV or aligned text.
func (c *runCfg) emit(t *stats.Table) {
	if c.csv {
		fmt.Print(t.CSV())
	} else {
		fmt.Print(t.String())
	}
}

// experiment is one -experiment choice; json marks the ones with a
// machine-readable -json report.
type experiment struct {
	name string
	json bool
	run  func(*runCfg) error
}

// experiments lists every experiment in the order -experiment all runs
// them.
var experiments = []experiment{
	{"table1", true, runTable1},
	{"fig2", true, runFig2},
	{"fig3", true, runFig3},
	{"fig4", true, runFig4},
	{"fig5", true, runFig5},
	{"banks", false, runBanks},
	{"window", true, runWindow},
	{"journal", false, runTxn("journal", "journaled metadata store (2-block transactions)")},
	{"dist", false, runDist},
	{"races", false, runRaces},
	{"pstm", false, runTxn("pstm", "durable undo-log transactions (paired-word)")},
	{"wear", false, runWear},
	{"unbuffered", false, runUnbuffered},
}

// experimentNames joins the names of the experiments, those with a
// JSON report only when jsonOnly is set, with sep.
func experimentNames(jsonOnly bool, sep string) string {
	var names []string
	for _, e := range experiments {
		if e.json || !jsonOnly {
			names = append(names, e.name)
		}
	}
	return strings.Join(names, sep)
}

func run(env *cli.Env) (int, error) {
	fs := env.Flags
	var (
		expName    = fs.String("experiment", "all", experimentNames(false, "|")+"|all")
		inserts    = fs.Int("inserts", 20000, "inserts per configuration")
		threadsStr = fs.String("threads", "1,8", "comma-separated thread counts for table1")
		latency    = fs.Duration("latency", bench.DefaultLatency, "persist latency for table1")
		seed       = fs.Int64("seed", 42, "interleaving seed")
		payload    = fs.Int("payload", 100, "entry payload bytes")
		csv        = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		instrRate  = cli.NonNegFloat(fs, "instr-rate", 0, "fix the instruction rate (items/s) instead of measuring")
		jsonOut    = fs.Bool("json", false, "emit one experiment's machine-readable JSON report ("+experimentNames(true, "/")+")")
		traceOut   = fs.String("trace-out", "", "write a Chrome trace-event JSON persist timeline (Perfetto) to this file")
		traceIns   = fs.Int("trace-inserts", 200, "inserts per configuration in the -trace-out timeline pass")
		parallel   = cli.NonNegInt(fs, "parallel", 0, "sweep worker count; 0 means GOMAXPROCS, 1 forces sequential")
		integrity  = fs.Bool("integrity", false, "use the corruption-detecting durable format in the banks, dist, races, wear and unbuffered queue runs and the -trace-out pass (framing overhead shows up in persist counts)")
	)
	if err := env.Parse(); err != nil {
		return 0, err
	}
	var selected []experiment
	for _, e := range experiments {
		if *expName == "all" || *expName == e.name {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		return 0, fmt.Errorf("unknown experiment %q", *expName)
	}
	if *jsonOut && (len(selected) > 1 || !selected[0].json) {
		return 0, fmt.Errorf("-json needs one experiment with a JSON report (%s), not %q", experimentNames(true, ", "), *expName)
	}
	man := env.Manifest.Seed("seed", *seed).ModelGrid(core.Models...)
	reg := env.Registry
	threads, err := parseThreads(*threadsStr)
	if err != nil {
		return 0, err
	}
	switch {
	case *inserts <= 0:
		return 0, fmt.Errorf("-inserts %d: must be positive", *inserts)
	case *traceIns <= 0:
		return 0, fmt.Errorf("-trace-inserts %d: must be positive", *traceIns)
	case *latency <= 0:
		return 0, fmt.Errorf("-latency %v: must be positive", *latency)
	case *payload < 1 || *payload > queue.MaxPayload:
		return 0, fmt.Errorf("-payload %d: must be in [1, %d]", *payload, queue.MaxPayload)
	}
	c := &runCfg{
		inserts: *inserts, payload: *payload, threads: threads,
		latency: *latency, seed: *seed, instrRate: *instrRate,
		csv: *csv, json: *jsonOut, integrity: *integrity,
		// Every experiment grid shares one sweep configuration; each
		// sweep labels its own telemetry series via Named.
		sw:  sweep.Config{Parallel: *parallel, Registry: reg, Spans: env.Spans},
		man: man, reg: reg, spans: env.Spans,
	}
	for _, e := range selected {
		stop := reg.Timer(telemetry.Label("pqbench_experiment", "experiment", e.name)).Time()
		if !c.json {
			fmt.Printf("=== %s ===\n", e.name)
		}
		if err := e.run(c); err != nil {
			return 0, fmt.Errorf("%s: %w", e.name, err)
		}
		stop()
		if !c.json {
			fmt.Println()
		}
	}

	if *traceOut != "" {
		maxT := 1
		for _, t := range threads {
			if t > maxT {
				maxT = t
			}
		}
		if err := tracePass(reg, man, *traceOut, maxT, *payload, *traceIns, *seed, *integrity); err != nil {
			return 0, err
		}
	}
	return 0, nil
}

// runTable1 is the paper's Table 1: persist-bound insert rate normalized
// to the instruction rate, per design, policy and thread count.
func runTable1(c *runCfg) error {
	cfg := bench.Table1Config{
		Inserts: c.inserts, PayloadLen: c.payload, Threads: c.threads,
		Latency: c.latency, Seed: c.seed, InstrRate: c.instrRate,
		Sweep: c.sw,
	}
	rows, err := bench.Table1(cfg)
	if err != nil {
		return err
	}
	for _, r := range rows {
		telemetry.ObserveResult(c.reg, fmt.Sprintf("%v/%v/%dT", r.Design, r.Policy, r.Threads), r.Result)
	}
	if c.json {
		return bench.Table1Report(cfg, rows).WithManifest(c.man).WriteJSON(os.Stdout)
	}
	fmt.Printf("persist-bound insert rate normalized to instruction rate (latency %v)\n", c.latency)
	fmt.Println("values >= 1 (marked *) are instruction-rate-bound, as bolded in the paper")
	c.emit(bench.RenderTable1(rows))
	fmt.Println()
	detail := stats.NewTable("design", "policy", "threads", "instr-rate", "persist-rate", "critical-path", "path/insert", "coalesced")
	for _, r := range rows {
		detail.AddRow(
			r.Design.String(), r.Policy.String(), strconv.Itoa(r.Threads),
			stats.FormatRate(r.InstrRate), stats.FormatRate(r.PersistRate),
			strconv.FormatInt(r.CriticalPath, 10),
			fmt.Sprintf("%.2f", r.Result.PathPerWork()),
			strconv.FormatInt(r.Result.Coalesced, 10),
		)
	}
	c.emit(detail)
	return nil
}

// runFig2 counts the queue's persist-order constraint edges by class
// (Figure 2).
func runFig2(c *runCfg) error {
	rows, err := bench.Fig2(min(c.inserts, 200), c.seed, c.sw)
	if err != nil {
		return err
	}
	if c.json {
		return bench.Fig2Report(rows).WithManifest(c.man).WriteJSON(os.Stdout)
	}
	fmt.Println("queue persist dependence structure (CWL, 1 thread): constraint edges by class")
	fmt.Println("epoch removes the paper's 'A' constraints (intra-insert serialization);")
	fmt.Println("strand removes 'B' (inter-insert serialization), leaving atomicity edges")
	c.emit(bench.RenderFig2(rows))
	return nil
}

// runFig3 sweeps persist latency against the achievable insert rate
// (Figure 3).
func runFig3(c *runCfg) error {
	points, err := bench.Fig3(bench.Fig3Config{Inserts: c.inserts, PayloadLen: c.payload, Seed: c.seed, InstrRate: c.instrRate, Sweep: c.sw})
	if err != nil {
		return err
	}
	if c.json {
		return bench.Fig3Report(points).WithManifest(c.man).WriteJSON(os.Stdout)
	}
	fmt.Println("achievable rate (million inserts/s) vs persist latency; CWL, 1 thread")
	c.emit(bench.RenderFig3(points))
	for _, pol := range bench.Fig3Policies {
		fmt.Printf("break-even latency (%s): %v\n", pol, bench.BreakEvenLatency(points, pol))
	}
	return nil
}

// runFig4 sweeps the atomic persist granularity (Figure 4).
func runFig4(c *runCfg) error {
	points, err := bench.Fig4(bench.GranularityConfig{Inserts: min(c.inserts, 5000), PayloadLen: c.payload, Seed: c.seed, Sweep: c.sw})
	if err != nil {
		return err
	}
	if c.json {
		return bench.GranReport("fig4", points).WithManifest(c.man).WriteJSON(os.Stdout)
	}
	fmt.Println("persist critical path per insert vs atomic persist granularity (tracking 8B)")
	c.emit(bench.RenderGran(points, "atomic"))
	return nil
}

// runFig5 sweeps the dependence tracking granularity (Figure 5).
func runFig5(c *runCfg) error {
	points, err := bench.Fig5(bench.GranularityConfig{Inserts: min(c.inserts, 5000), PayloadLen: c.payload, Seed: c.seed, Sweep: c.sw})
	if err != nil {
		return err
	}
	if c.json {
		return bench.GranReport("fig5", points).WithManifest(c.man).WriteJSON(os.Stdout)
	}
	fmt.Println("persist critical path per insert vs dependence tracking granularity (atomic 8B)")
	c.emit(bench.RenderGran(points, "tracking"))
	return nil
}

// runBanks is the NVRAM device ablation: bank counts for the
// epoch-annotated queue.
func runBanks(c *runCfg) error {
	// Device ablation: beyond the paper's infinite-bandwidth
	// assumption, sweep bank counts for the epoch-annotated queue.
	w := bench.Workload{Design: queue.CWL, Policy: core.PolicyEpoch, Threads: 4, Inserts: min(c.inserts, 2000), PayloadLen: c.payload, Seed: c.seed, Integrity: c.integrity}
	tr, err := bench.Trace(w)
	if err != nil {
		return err
	}
	sp := c.spans.Start("graph", "build").Arg("model", core.Epoch.String())
	g, err := graph.Build(tr, core.Params{Model: core.Epoch})
	sp.End()
	if err != nil {
		return err
	}
	tbl := stats.NewTable("banks", "makespan", "ideal", "device-bound", "wear-max")
	for _, banks := range []int{0, 1, 2, 4, 8, 16, 64} {
		r, err := nvram.Schedule(g, nvram.Config{Latency: c.latency, Banks: banks, AtomicGranularity: 64})
		if err != nil {
			return err
		}
		label := strconv.Itoa(banks)
		if banks == 0 {
			label = "inf"
		}
		telemetry.ObserveDevice(c.reg, "banks="+label, r)
		tbl.AddRow(label, r.Makespan.String(), r.IdealMakespan.String(),
			strconv.FormatBool(r.DeviceBound), strconv.Itoa(r.WearMax))
	}
	fmt.Println("NVRAM device ablation: epoch-annotated CWL, 4 threads, 64B banks")
	c.emit(tbl)
	return nil
}

// runWindow is the coalescing-window ablation.
func runWindow(c *runCfg) error {
	points, err := bench.WindowAblation(min(c.inserts, 5000), c.seed, c.sw)
	if err != nil {
		return err
	}
	if c.json {
		return bench.WindowReport(points).WithManifest(c.man).WriteJSON(os.Stdout)
	}
	fmt.Println("coalescing-window ablation: strand-annotated CWL, 1 thread")
	fmt.Println("(a finite persist buffer bounds the otherwise unbounded head coalescing)")
	c.emit(bench.RenderWindow(points))
	return nil
}

// runTxn returns the experiment that measures a transaction structure
// (bench.Workload.Structure "journal" or "pstm", described by title)
// by policy and thread count.
func runTxn(structure, title string) func(*runCfg) error {
	return func(c *runCfg) error {
		rows, err := bench.TxnTable(structure, min(c.inserts, 5000), c.threads, c.seed, c.sw)
		if err != nil {
			return err
		}
		fmt.Println(title + ": persist concurrency by policy")
		fmt.Println("(racing-epochs omitted: unsafe for this structure — see EXPERIMENTS.md)")
		c.emit(bench.RenderTxn(rows))
		return nil
	}
}

// runDist reports the per-insert critical-path growth distribution.
func runDist(c *runCfg) error {
	// Per-insert critical-path growth distribution: strict pays on
	// every insert; racing/strand pay rarely but in bursts.
	tbl := stats.NewTable("policy", "threads", "mean", "p50", "p90", "p99", "max")
	for _, pol := range core.Policies {
		for _, th := range c.threads {
			w := bench.Workload{Design: queue.CWL, Policy: pol, Threads: th, Inserts: min(c.inserts, 10000), PayloadLen: c.payload, Seed: c.seed, Integrity: c.integrity}
			r, err := bench.Simulate(w, core.Params{Model: pol.Model(), TrackWorkPath: true})
			if err != nil {
				return err
			}
			xs := make([]float64, len(r.WorkPathDeltas))
			for i, d := range r.WorkPathDeltas {
				xs[i] = float64(d)
			}
			sum := stats.Summarize(xs)
			tbl.AddRow(pol.String(), strconv.Itoa(th),
				fmt.Sprintf("%.3f", sum.Mean), fmt.Sprintf("%.0f", sum.P50),
				fmt.Sprintf("%.0f", sum.P90), fmt.Sprintf("%.0f", sum.P99),
				fmt.Sprintf("%.0f", sum.Max))
		}
	}
	fmt.Println("critical-path growth per insert (CWL): distribution by policy")
	c.emit(tbl)
	return nil
}

// runRaces counts persist-epoch races per policy.
func runRaces(c *runCfg) error {
	// Persist-epoch races per policy (§5.2): the non-racing
	// discipline is race-free by construction; racing epochs trade
	// races for concurrency.
	tbl := stats.NewTable("policy", "threads", "persist-epochs", "races")
	for _, pol := range core.Policies {
		for _, th := range c.threads {
			w := bench.Workload{Design: queue.CWL, Policy: pol, Threads: th, Inserts: min(c.inserts, 2000), PayloadLen: c.payload, Seed: c.seed, Integrity: c.integrity}
			tr, err := bench.Trace(w)
			if err != nil {
				return err
			}
			rep, err := core.DetectEpochRaces(tr, core.RaceConfig{})
			if err != nil {
				return err
			}
			tbl.AddRow(pol.String(), strconv.Itoa(th), strconv.Itoa(rep.Epochs), strconv.Itoa(rep.Total))
		}
	}
	fmt.Println("persist-epoch races detected (CWL workload)")
	c.emit(tbl)
	return nil
}

// runWear is the NVRAM endurance ablation.
func runWear(c *runCfg) error {
	// Endurance ablation (§2.1): the queue's head pointer is a wear
	// hotspot; Start-Gap leveling spreads it. The log wraps a small
	// buffer so the leveler's gap completes many cycles.
	w := bench.Workload{
		Design: queue.CWL, Policy: core.PolicyEpoch, Threads: 1,
		Inserts: min(c.inserts, 5000), PayloadLen: c.payload, Seed: c.seed,
		DataBytes: 1 << 16, Overwrite: true, Integrity: c.integrity,
	}
	tr, err := bench.Trace(w)
	if err != nil {
		return err
	}
	sp := c.spans.Start("graph", "build").Arg("model", core.Epoch.String())
	g, err := graph.Build(tr, core.Params{Model: core.Epoch})
	sp.End()
	if err != nil {
		return err
	}
	raw, err := nvram.MeasureWear(g, 64, nil)
	if err != nil {
		return err
	}
	lines := int(w.DataBytes/64) + 64
	tbl := stats.NewTable("leveling", "max-line-writes", "lines-touched", "imbalance", "gap-moves")
	tbl.AddRow("none", strconv.Itoa(raw.MaxLine), strconv.Itoa(raw.LinesTouched), fmt.Sprintf("%.2f", raw.Imbalance()), "0")
	for _, psi := range []int{128, 32, 8} {
		sg, err := nvram.NewStartGap(lines, psi)
		if err != nil {
			return err
		}
		p, err := nvram.MeasureWear(g, 64, sg)
		if err != nil {
			return err
		}
		tbl.AddRow(fmt.Sprintf("start-gap psi=%d", psi),
			strconv.Itoa(p.MaxLine), strconv.Itoa(p.LinesTouched),
			fmt.Sprintf("%.2f", p.Imbalance()), strconv.Itoa(p.GapMoves))
	}
	fmt.Println("NVRAM endurance ablation: epoch-annotated CWL, 1 thread, 64B lines")
	c.emit(tbl)
	return nil
}

// runUnbuffered compares buffered and unbuffered strict persistency.
func runUnbuffered(c *runCfg) error {
	// Buffered vs unbuffered strict persistency (§4.1): unbuffered
	// stalls execution on every persist.
	instr := c.instrRate
	if instr <= 0 {
		var err error
		instr, err = bench.NativeRate(bench.Workload{Design: queue.CWL, Threads: 1, Inserts: c.inserts, PayloadLen: c.payload})
		if err != nil {
			return err
		}
	}
	w := bench.Workload{Design: queue.CWL, Policy: core.PolicyStrict, Threads: 1, Inserts: c.inserts, PayloadLen: c.payload, Seed: c.seed, Integrity: c.integrity}
	r, err := bench.Simulate(w, core.Params{Model: core.Strict})
	if err != nil {
		return err
	}
	tbl := stats.NewTable("variant", "rate", "normalized")
	buffered := r.PersistBoundRate(c.latency)
	if buffered > instr {
		buffered = instr
	}
	unbuf := bench.UnbufferedRate(r, instr, c.latency)
	tbl.AddRow("instruction rate", stats.FormatRate(instr), "1.00")
	tbl.AddRow("buffered strict", stats.FormatRate(buffered), stats.FormatNorm(buffered/instr))
	tbl.AddRow("unbuffered strict", stats.FormatRate(unbuf), stats.FormatNorm(unbuf/instr))
	fmt.Printf("strict persistency execution models (CWL, 1 thread, latency %v)\n", c.latency)
	c.emit(tbl)
	return nil
}

// tracePass re-runs a small instance of each queue configuration with
// the persist-timeline tracer attached, verifies every tracer against
// its simulation result, prints the critical-path attribution reports,
// and exports one Perfetto-loadable Chrome trace with a process per
// configuration.
func tracePass(reg *telemetry.Registry, man *telemetry.Manifest, path string, threads, payload, inserts int, seed int64, integrity bool) error {
	models := []core.Model{core.Strict, core.Epoch, core.Strand}
	policies := []core.Policy{core.PolicyStrict, core.PolicyEpoch, core.PolicyStrand}
	var tracers []*telemetry.Tracer
	fmt.Println("=== persist timeline ===")
	for _, d := range []queue.Design{queue.CWL, queue.TwoLock} {
		for i, m := range models {
			w := bench.Workload{
				Design: d, Policy: policies[i],
				Threads: threads, Inserts: inserts, PayloadLen: payload, Seed: seed,
				Integrity: integrity,
			}
			tr := telemetry.NewTracer(m, w.String())
			sim, err := core.NewSim(core.Params{Model: m})
			if err != nil {
				return err
			}
			sim.SetProbe(tr)
			// CountingSink feeds the per-thread op-mix series while the
			// simulator consumes the same stream.
			label, err := bench.Run(w, telemetry.NewCountingSink(reg, sim))
			if err != nil {
				return err
			}
			tr.SiteLabel = label
			if err := sim.Err(); err != nil {
				return err
			}
			r := sim.Result()
			if err := tr.Verify(r); err != nil {
				return fmt.Errorf("%v: %w", w, err)
			}
			telemetry.ObserveResult(reg, w.String(), r)
			tr.ObserveMetrics(reg)
			fmt.Print(tr.Attribute(3).Render())
			fmt.Println()
			tracers = append(tracers, tr)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := telemetry.EncodeChromeTraceDoc(f, man, nil, tracers...); err != nil {
		return err
	}
	fmt.Printf("wrote persist timeline for %d configurations to %s (load in Perfetto or chrome://tracing)\n", len(tracers), path)
	return nil
}

// parseThreads parses the comma-separated -threads list; every entry
// must be a positive count.
func parseThreads(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad thread count %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}
