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
//	persistcheck [-workload queue|journal|pstm|kv] [-design cwl|2lc]
//	             [-policy strict|epoch|racing|strand]
//	             [-model strict|epoch|epoch-tso|strand] [-all-models]
//	             [-threads N] [-inserts N] [-payload N] [-seed S]
//	             [-shards N] [-keys N] [-read-frac F]
//	             [-break-barrier] [-omit-completion-barrier]
//	             [-break-commit] [-omit-strand-recipe]
//	             [-integrity] [-require-integrity] [-sparse-blocks]
//	             [-exhaustive] [-state-budget N] [-parallel N]
//	             [-limit N] [-metrics-out FILE] [-spans-out FILE]
//	             [-cpuprofile FILE] [-memprofile FILE]
//
// -workload kv checks the sharded KV serving store (internal/kv driven
// by the Zipfian generator, skew 1.1): -inserts is the total operation
// count, -shards, -keys and -read-frac shape the store and the mix, and
// the queue/journal fixture knobs do not apply. This is the only
// command that runs the checkers; kvbench, pqbench and crashsim
// measure and replay.
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
	"strings"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/persistcheck"
	"repro/internal/persistcheck/exhaustive"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// checkConfig is everything one checker invocation needs; main parses
// flags into it, tests construct it directly.
type checkConfig struct {
	build       builder
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

// builder traces the checked workload for one model and returns the
// run with the repro params its findings carry.
type builder func(model core.Model) (*workload.Run, []fault.Param, error)

// gridBuilder builds the queue/journal/pstm grid; the model is part of
// the options, so it lands in the repro params.
func gridBuilder(o workload.Options) builder {
	return func(model core.Model) (*workload.Run, []fault.Param, error) {
		o := o // models build concurrently
		o.Model = model
		run, err := workload.Build(o, nil)
		return run, o.Params(), err
	}
}

// kvBuilder builds the sharded KV store. KVOptions carry no model, so
// the checked one is appended to the repro params: crashsim -replay
// then rebuilds the graph under it rather than the policy's target.
func kvBuilder(o workload.KVOptions) builder {
	return func(model core.Model) (*workload.Run, []fault.Param, error) {
		run, err := workload.BuildKV(o, nil)
		return run, append(o.Params(), fault.Param{Key: "model", Value: model.String()}), err
	}
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
			run, params, err := cfg.build(model)
			if err != nil {
				return nil, err
			}
			var b strings.Builder
			fmt.Fprintf(&b, "model    : %v\n", model)
			rep, err := persistcheck.Check(run.Trace, core.Params{Model: model}, run.Checks, persistcheck.Config{
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
				res, err := exhaustive.Check(run.Trace, core.Params{Model: model}, run.Recover, run.Checked,
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
	var (
		wl          = fs.String("workload", "queue", "queue, journal, pstm, or kv")
		designStr   = fs.String("design", "cwl", "cwl or 2lc (queue only)")
		policyStr   = fs.String("policy", "epoch", "strict|epoch|racing|strand")
		modelStr    = fs.String("model", "", "persistency model (default: the policy's target model)")
		allModels   = fs.Bool("all-models", false, "check under every persistency model")
		threads     = fs.Int("threads", 2, "simulated threads")
		inserts     = fs.Int("inserts", 16, "total inserts/transactions (kv: operations)")
		payloadLen  = fs.Int("payload", 64, "payload bytes (queue only)")
		seed        = fs.Int64("seed", 1, "interleaving seed")
		shards      = fs.Int("shards", 8, "shard count (kv only)")
		keys        = fs.Uint64("keys", 1024, "dense key-space size (kv only)")
		readFrac    = fs.Float64("read-frac", 0.9, "fraction of operations that are reads (kv only)")
		breakBar    = fs.Bool("break-barrier", false, "drop the data→head barrier (negative test)")
		omitComp    = fs.Bool("omit-completion-barrier", false, "drop 2LC's completion barrier (negative test)")
		breakCmt    = fs.Bool("break-commit", false, "drop the journal's records→commit barrier (negative test)")
		omitRcp     = fs.Bool("omit-strand-recipe", false, "drop the journal's §5.3 strand recipe (negative test)")
		integrity   = fs.Bool("integrity", false, "build with the corruption-detecting durable format (CRC frames, durable words, shadows)")
		requireInt  = fs.Bool("require-integrity", false, "fail (exit 2) on unprotected recovery metadata findings")
		sparse      = fs.Bool("sparse-blocks", false, "journal writes tag-word-only blocks (keeps -exhaustive state spaces tractable)")
		exhaustiveF = fs.Bool("exhaustive", false, "enumerate and classify every reachable crash state (bounded model checking)")
		stateBudget = fs.Int("state-budget", 0, "exhaustive checker state budget; exceeding it refuses the fixture (0 = 1<<20)")
		parallel    = fs.Int("parallel", 0, "sweep worker count; 0 means GOMAXPROCS, 1 forces sequential")
		limit       = fs.Int("limit", 0, "max stored findings per kind (0 = default)")
	)
	if err := env.Parse(); err != nil {
		return 0, err
	}
	env.Manifest.Seed("seed", *seed)

	design, err := workload.ParseDesign(*designStr)
	if err != nil {
		return 0, err
	}
	policy, err := workload.ParsePolicy(*policyStr)
	if err != nil {
		return 0, err
	}
	models := []core.Model{policy.Model()}
	switch {
	case *allModels:
		models = core.Models
	case *modelStr != "":
		m, err := workload.ParseModel(*modelStr)
		if err != nil {
			return 0, err
		}
		models = []core.Model{m}
	}

	build := gridBuilder(workload.Options{
		Workload: *wl, Design: design, Policy: policy,
		Threads: *threads, Inserts: *inserts, Payload: *payloadLen, Seed: *seed,
		BreakBar: *breakBar, OmitComp: *omitComp,
		BreakCommit: *breakCmt, OmitRecipe: *omitRcp,
		Integrity: *integrity, SparseBlocks: *sparse,
		DesignStr: *designStr, PolicyStr: *policyStr,
	})
	if *wl == "kv" {
		build = kvBuilder(workload.KVOptions{
			Shards: *shards, Keys: *keys, Threads: *threads, Ops: *inserts,
			ReadFrac: *readFrac, ZipfS: 1.1, Policy: policy,
			Integrity: *integrity, Seed: *seed, PolicyStr: *policyStr,
		})
	}

	env.Manifest.ModelGrid(models...)
	cfg := checkConfig{
		build:       build,
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
