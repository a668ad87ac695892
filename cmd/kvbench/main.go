// Command kvbench sweeps the sharded persistent KV serving workload
// (internal/kv driven by the open-loop Zipfian generator in
// internal/workload) across annotation policies and persistency
// models, and maintains the BENCH_kv.json artifact.
//
// Usage:
//
//	kvbench [-shards N] [-keys N] [-threads N] [-ops N] [-read-frac F]
//	        [-zipf S] [-seed S] [-policies strict,epoch,racing,strand]
//	        [-integrity] [-parallel N] [-json] [-out FILE]
//	        [-graph-dump FILE]
//
// -shards, -keys, -threads, -ops, -read-frac, -zipf, -seed and
// -integrity are internal/workload's kv parameters, with serving-sized
// defaults (64 shards, 1<<20 keys, 128 threads, 1<<20 ops, seed 42).
// The persistency checkers run over the same store through
// `persistcheck -workload kv` (-inserts is the op count there, ops= in
// its repro lines).
//
// Every reported number is simulated and deterministic: the same
// flags produce the same bytes at any -parallel, so -out artifacts and
// -graph-dump files diff cleanly (the CI determinism step relies on
// this).
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/benchdiff"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/journal"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// row is one (policy, model) cell of the sweep: the serving metrics
// kvbench reports beyond the benchdiff suite core.
type row struct {
	Policy       string  `json:"policy"`
	Model        string  `json:"model"`
	Target       bool    `json:"target"` // model the policy's annotations aim at
	Events       int64   `json:"events"`
	Persists     int64   `json:"persists"`
	Placed       int64   `json:"placed"`
	Coalesced    int64   `json:"coalesced"`
	CriticalPath int64   `json:"critical_path"`
	PathPerOp    float64 `json:"path_per_op"`
	Ops          int     `json:"ops"`
}

// report is the BENCH_kv.json document: a benchdiff suite (so the
// regression gate and history tooling parse it directly — extra
// fields are ignored) plus the full serving-metric rows.
type report struct {
	benchdiff.Suite
	Config map[string]string `json:"config"`
	Rows   []row             `json:"rows"`
}

func main() { cli.Main("kvbench", run) }

func run(env *cli.Env) (int, error) {
	fs := env.Flags
	workloadOpts := workload.Flags(fs, "shards=64", "keys=1048576", "threads=128", "ops=1048576",
		"read-frac", "zipf", "seed=42", "integrity")
	var (
		policyStr = fs.String("policies", "strict,epoch,racing,strand", "comma-separated annotation policies to sweep")
		parallel  = cli.NonNegInt(fs, "parallel", 0, "sweep worker count; 0 means GOMAXPROCS, 1 forces sequential")
		jsonOut   = fs.Bool("json", false, "emit the report JSON to stdout instead of aligned tables")
		out       = fs.String("out", "", "write the report JSON to this file (e.g. BENCH_kv.json)")
		graphDump = fs.String("graph-dump", "", "build the persist-order graph for the first policy and write a deterministic dump to this file")
	)
	if err := env.Parse(); err != nil {
		return 0, err
	}
	base, err := workloadOpts()
	if err != nil {
		return 0, err
	}
	man := env.Manifest.Seed("seed", base.Seed).ModelGrid(core.Models...)
	reg, spans := env.Registry, env.Spans
	grid, err := parseGrid(*policyStr, base)
	if err != nil {
		return 0, err
	}

	// Sweep: one grid item per policy. Each item runs the workload
	// once, feeding its events straight to the all-model simulator
	// (no trace is stored); merge collects rows in grid order, so the
	// report is byte-identical at any -parallel.
	rows := make([]row, 0, len(grid)*len(core.Models))
	sw := sweep.Config{Parallel: *parallel, Registry: reg, Spans: spans}.Named("kvbench")
	err = sweep.Run(len(grid), sw, func(i int) ([]core.Result, error) {
		return core.SimulateAllLive(core.Params{}, func(sink trace.Sink) error {
			_, err := workload.Stream(grid[i].opts, sink)
			return err
		})
	}, func(i int, results []core.Result) error {
		target := grid[i].opts.Model
		for _, r := range results {
			telemetry.ObserveResult(reg, fmt.Sprintf("kv/%s/%v", grid[i].name, r.Model), r)
			rows = append(rows, row{
				Policy: grid[i].name, Model: r.Model.String(),
				Target: r.Model == target, Events: r.Events,
				Persists: r.Persists, Placed: r.Placed, Coalesced: r.Coalesced,
				CriticalPath: r.CriticalPath, PathPerOp: r.PathPerWork(),
				Ops: grid[i].opts.Inserts,
			})
		}
		return nil
	})
	if err != nil {
		return 0, err
	}

	rep := buildReport(man, rows, grid[0].opts)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return 0, err
		}
	} else {
		printTables(rows)
	}
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			return 0, err
		}
		fmt.Fprintf(os.Stderr, "kvbench: wrote %s\n", *out)
	}
	if *graphDump != "" {
		if err := dumpGraph(*graphDump, grid[0], spans); err != nil {
			return 0, err
		}
	}
	return 0, nil
}

// gridItem pairs the policy's flag spelling with the built options.
type gridItem struct {
	name string
	opts workload.Options
}

// parseGrid makes one kv run of base per listed policy, under the
// policy's target model.
func parseGrid(policies string, base workload.Options) ([]gridItem, error) {
	var grid []gridItem
	for _, name := range strings.Split(policies, ",") {
		name = strings.TrimSpace(name)
		pol, err := workload.ParsePolicy(name)
		if err != nil {
			return nil, err
		}
		opts := base
		opts.Workload, opts.Policy, opts.Model = "kv", pol, pol.Model()
		if err := opts.Validate(); err != nil {
			return nil, err
		}
		grid = append(grid, gridItem{name: name, opts: opts})
	}
	if len(grid) == 0 {
		return nil, fmt.Errorf("empty policy grid")
	}
	return grid, nil
}

// buildReport assembles the BENCH_kv.json document. The suite rows
// carry the deterministic simulated costs the regression gate tracks:
// ns_per_op holds the persist critical path per operation (the
// latency-side figure of merit), bytes_per_op the persist traffic per
// operation (64B per placed persist), allocs_per_op the raw persist
// count per operation.
func buildReport(man *telemetry.Manifest, rows []row, o workload.Options) *report {
	rep := &report{
		Suite: benchdiff.Suite{Suite: "kv-serving", Manifest: man},
		Config: map[string]string{
			"shards":    strconv.Itoa(o.Shards),
			"keys":      strconv.FormatUint(o.Keys, 10),
			"threads":   strconv.Itoa(o.Threads),
			"ops":       strconv.Itoa(o.Inserts),
			"read-frac": strconv.FormatFloat(o.ReadFrac, 'g', -1, 64),
			"zipf":      strconv.FormatFloat(o.ZipfS, 'g', -1, 64),
			"seed":      strconv.FormatInt(o.Seed, 10),
			"integrity": strconv.FormatBool(o.Integrity),
		},
		Rows: rows,
	}
	for _, r := range rows {
		rep.Benchmarks = append(rep.Benchmarks, benchdiff.Benchmark{
			Name:        fmt.Sprintf("kv/%s/%s", r.Policy, r.Model),
			NsPerOp:     r.PathPerOp,
			BytesPerOp:  float64(r.Placed*journal.BlockBytes) / float64(r.Ops),
			AllocsPerOp: float64(r.Persists) / float64(r.Ops),
		})
	}
	return rep
}

func printTables(rows []row) {
	tbl := stats.NewTable("policy", "model", "target", "events", "persists", "placed", "coalesced", "critical-path", "path/op")
	for _, r := range rows {
		mark := ""
		if r.Target {
			mark = "*"
		}
		tbl.AddRow(r.Policy, r.Model, mark,
			strconv.FormatInt(r.Events, 10), strconv.FormatInt(r.Persists, 10),
			strconv.FormatInt(r.Placed, 10), strconv.FormatInt(r.Coalesced, 10),
			strconv.FormatInt(r.CriticalPath, 10), fmt.Sprintf("%.3f", r.PathPerOp))
	}
	fmt.Println("sharded KV serving: persist-order metrics by annotation policy x persistency model")
	fmt.Println("(* marks the model each policy's annotations target)")
	fmt.Print(tbl.String())
}

// dumpGraph builds the persist-order constraint graph for the first
// grid policy under its target model and writes a deterministic
// line-oriented dump.
func dumpGraph(path string, item gridItem, spans *telemetry.SpanTracer) error {
	run, err := workload.Build(item.opts, nil)
	if err != nil {
		return err
	}
	p := core.Params{Model: item.opts.Model}
	sp := spans.Start("graph", "build").Arg("model", p.Model.String())
	g, err := graph.Build(run.Trace, p)
	if err == nil {
		sp.Arg("nodes", g.Len())
	}
	sp.End()
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "kvbench graph dump: policy %s model %v nodes %d\n",
		item.name, p.Model, g.Len())
	for _, n := range g.Nodes {
		fmt.Fprintf(w, "%d %d %d %x %d", n.ID, n.Event.TID, n.Event.Kind, n.Event.Addr, n.Event.Size)
		for _, e := range n.In {
			fmt.Fprintf(w, " %d:%d", e.From, e.Class)
		}
		fmt.Fprintln(w)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "kvbench: wrote graph dump (%d nodes) to %s\n", g.Len(), path)
	return nil
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
