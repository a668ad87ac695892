// Command persistcheck statically analyzes a recorded workload
// execution for persistency hazards — without running the crash
// simulator. It traces the selected workload, builds the persist-order
// constraint graph under the selected model, and runs the analyses
// from internal/persistcheck:
//
//   - epoch races: conflicting persists to the same block unordered
//     under the model but ordered under sequential consistency
//   - unpersisted publications: recovery-critical metadata (queue
//     head, journal commit record, PSTM seal) persisted without an
//     ordering path from the data it publishes
//   - unbound reads: §5.3's read-then-barrier contract violated — a
//     strand's persists not ordered after state the thread observed
//   - redundant barriers: annotations inducing no new constraint-graph
//     edge (pure persist-latency cost, reported with the telemetry
//     attribution site)
//   - unprotected recovery metadata: publication words and order-after
//     regions with no integrity protection (CRC frame, shadow
//     checksum, or durable word) — robustness findings, advisory by
//     default; -require-integrity turns them into failures
//
// -exhaustive additionally runs the bounded model checker
// (internal/persistcheck/exhaustive): it enumerates every reachable
// post-crash NVRAM image of the trace, classifies each through the
// structure's recovery, and reports the correctness condition met —
// durably-linearizable, detectably-recoverable, or hazardous with a
// minimized counterexample replayable via `crashsim -replay`.
//
// Usage:
//
//	persistcheck [workload flags] [-shards N] [-keys N] [-read-frac F]
//	             [-sparse-blocks] [-all-models] [-require-integrity]
//	             [-exhaustive] [-state-budget N] [-parallel N]
//	             [-limit N] [-metrics-out FILE] [-spans-out FILE]
//	             [-cpuprofile FILE] [-memprofile FILE]
//
// The workload flags (-workload queue|journal|pstm|kv, -design, -policy,
// -model, -threads, -inserts, -payload, -seed, the negative-test
// switches and -integrity) are internal/workload's common set, shared
// with cmd/crashsim; -shards, -keys, -read-frac and -sparse-blocks come
// from the same parameter table.
//
// -workload kv checks the sharded KV serving store (internal/kv driven
// by the Zipfian generator, skew 1.1): -inserts is the total operation
// count (ops= in its repro lines), -shards, -keys and -read-frac shape
// the store and the mix, and the queue/journal fixture knobs do not
// apply. This is the only command that runs the checkers; kvbench,
// pqbench and crashsim measure and replay.
//
// Without -model the checker uses the policy's natural target model
// (the Table 1 column pairing); -all-models checks every model in one
// run, in a deterministic order at any -parallel worker count. Hazard
// findings carry a one-line repro in the fault-campaign format: paste
// it into `crashsim -replay` (campaign hazards) or rerun crashsim with
// the printed parameters to watch the observer reach the divergent
// recovery state. Exit status 2 means hazards were found (witness-pair
// hazards, or a hazardous exhaustive verdict).
//
// -metrics-out snapshots each checked model's counts: the witness-pair
// findings (persistcheck_*) and, with -exhaustive, the cut, state,
// signature and per-class image counts (exhaustive_*), identical at any
// -parallel worker count.
package main

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/persistcheck"
	"repro/internal/persistcheck/exhaustive"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// checkConfig is everything one checker invocation needs; main parses
// flags into it, tests construct it directly.
type checkConfig struct {
	opts        workload.Options // Model is set per checked model
	models      []core.Model
	exhaustive  bool
	stateBudget int
	parallel    int
	limit       int
	requireInt  bool
	reg         *telemetry.Registry
	spans       *telemetry.SpanTracer
}

// modelOutput is one model's rendered report plus its tallies.
type modelOutput struct {
	text       string
	describe   string
	rep        *persistcheck.Report
	ex         *exhaustive.Result // nil without -exhaustive
	hazards    int
	robustness int
	exHazards  int
}

// checkModels runs the witness-pair checker (and optionally the
// exhaustive checker) for every model in the grid, fanning models out
// across sweep workers. Output is assembled in model order and findings
// are canonically sorted, so the result is byte-identical at any
// worker count.
func checkModels(cfg checkConfig) (string, *modelOutput, error) {
	outs := make([]*modelOutput, len(cfg.models))
	// With a single model the inner exhaustive sweep gets the workers;
	// with a model grid the models themselves fan out.
	inner, outer := 1, cfg.parallel
	if len(cfg.models) == 1 {
		inner, outer = cfg.parallel, 1
	}
	err := sweep.Run(len(cfg.models), sweep.Config{Parallel: outer, Name: "persistcheck-models", Spans: cfg.spans},
		func(i int) (*modelOutput, error) {
			model := cfg.models[i]
			o := cfg.opts
			o.Model = model
			run, err := workload.Build(o, nil)
			if err != nil {
				return nil, err
			}
			params := o.Params()
			// One graph per (trace, model), shared by both checkers.
			g, err := graph.Build(run.Trace, core.Params{Model: model})
			if err != nil {
				return nil, err
			}
			var b strings.Builder
			fmt.Fprintf(&b, "model    : %v\n", model)
			rep, err := persistcheck.CheckGraph(run.Trace, g, run.Checks, persistcheck.Config{
				Limit:       cfg.limit,
				ReproParams: params,
				SiteLabel:   run.SiteLabel,
			})
			if err != nil {
				return nil, err
			}
			rep.SortFindings()
			fmt.Fprint(&b, rep)
			out := &modelOutput{
				describe:   run.Describe,
				rep:        rep,
				hazards:    rep.Hazards(),
				robustness: rep.RobustnessFindings(),
			}
			if cfg.exhaustive {
				res, err := exhaustive.CheckGraph(g, model, run.Recover, run.Checked,
					exhaustive.Config{
						Budget:      cfg.stateBudget,
						ReproParams: params,
						Sweep:       sweep.Config{Parallel: inner},
					})
				if err != nil {
					return nil, fmt.Errorf("model %v: %w", model, err)
				}
				fmt.Fprint(&b, res)
				out.ex = res
				out.exHazards = res.Hazards
			}
			out.text = b.String()
			return out, nil
		},
		func(i int, v *modelOutput) error {
			// Metrics are observed at merge time, in model order, so
			// snapshots are deterministic at any worker count.
			if cfg.reg != nil {
				persistcheck.Observe(cfg.reg, v.rep)
				exhaustive.Observe(cfg.reg, v.ex)
			}
			outs[i] = v
			return nil
		})
	if err != nil {
		return "", nil, err
	}
	var b strings.Builder
	total := &modelOutput{describe: outs[0].describe}
	for _, o := range outs {
		b.WriteString(o.text)
		total.hazards += o.hazards
		total.robustness += o.robustness
		total.exHazards += o.exHazards
	}
	return b.String(), total, nil
}

func main() { cli.Main("persistcheck", run) }

func run(env *cli.Env) (int, error) {
	fs := env.Flags
	workloadOpts := workload.Flags(fs, slices.Concat(workload.CommonFlags, []string{"shards", "keys", "read-frac", "sparse-blocks"})...)
	var (
		allModels   = fs.Bool("all-models", false, "check under every persistency model")
		requireInt  = fs.Bool("require-integrity", false, "fail (exit 2) on unprotected recovery metadata findings")
		exhaustiveF = fs.Bool("exhaustive", false, "enumerate and classify every reachable crash state (bounded model checking)")
		stateBudget = cli.NonNegInt(fs, "state-budget", 0, "exhaustive checker state budget; exceeding it refuses the fixture (0 = 1<<20)")
		parallel    = cli.NonNegInt(fs, "parallel", 0, "sweep worker count; 0 means GOMAXPROCS, 1 forces sequential")
		limit       = cli.NonNegInt(fs, "limit", 0, "max stored findings per kind (0 = default)")
	)
	if err := env.Parse(); err != nil {
		return 0, err
	}
	opts, err := workloadOpts()
	if err != nil {
		return 0, err
	}
	env.Manifest.Seed("seed", opts.Seed)
	models := []core.Model{opts.Model}
	if *allModels {
		models = core.Models
	}

	env.Manifest.ModelGrid(models...)
	cfg := checkConfig{
		opts:        opts,
		models:      models,
		exhaustive:  *exhaustiveF,
		stateBudget: *stateBudget,
		parallel:    *parallel,
		limit:       *limit,
		requireInt:  *requireInt,
		reg:         env.Registry,
		spans:       env.Spans,
	}
	text, total, err := checkModels(cfg)
	if err != nil {
		return 0, err
	}
	fmt.Printf("workload : %s\n", total.describe)
	fmt.Print(text)
	switch {
	case total.hazards > 0 || total.exHazards > 0:
		fmt.Printf("verdict  : %d persistency hazard(s), %d hazardous crash state(s) found\n",
			total.hazards, total.exHazards)
		return 2, nil
	case *requireInt && total.robustness > 0:
		fmt.Printf("verdict  : %d unprotected recovery metadata finding(s) (-require-integrity)\n", total.robustness)
		return 2, nil
	}
	fmt.Println("verdict  : no persistency hazards found")
	return 0, nil
}
