package exhaustive

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/nvram"
	"repro/internal/observer"
	"repro/internal/persistcheck"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// cleanMatrix is the structure × policy grid CI proves durably
// linearizable. Journal fixtures use sparse blocks: patterned 64-byte
// blocks are ~16 mutually unordered nonzero persists per transaction
// under epoch/strand, an irreducibly exponential image space, while
// sparse blocks exercise the same commit and recovery ordering.
var cleanMatrix = []struct {
	name string
	fx   fixture
	big  bool // six-figure state space: skipped under -short
}{
	{name: "queue-cwl-strict", fx: fixture{wl: "queue", policy: "strict", threads: 2, inserts: 6}},
	{name: "queue-cwl-epoch", fx: fixture{wl: "queue", policy: "epoch", threads: 2, inserts: 6}},
	{name: "queue-cwl-strand", fx: fixture{wl: "queue", policy: "strand", threads: 2, inserts: 2, payload: 8}},
	{name: "queue-2lc-epoch", fx: fixture{wl: "queue", design: "2lc", policy: "epoch", threads: 2, inserts: 6}},
	{name: "journal-strict", fx: fixture{wl: "journal", policy: "strict", threads: 2, inserts: 4, sparse: true}},
	{name: "journal-epoch", fx: fixture{wl: "journal", policy: "epoch", threads: 2, inserts: 4, sparse: true}},
	{name: "journal-strand", fx: fixture{wl: "journal", policy: "strand", threads: 2, inserts: 2, sparse: true}, big: true},
	{name: "pstm-strict", fx: fixture{wl: "pstm", policy: "strict", threads: 2, inserts: 6}},
	{name: "pstm-epoch", fx: fixture{wl: "pstm", policy: "epoch", threads: 2, inserts: 6}},
	{name: "pstm-strand", fx: fixture{wl: "pstm", policy: "strand", threads: 2, inserts: 6}},
	{name: "queue-epoch-integrity", fx: fixture{wl: "queue", policy: "epoch", threads: 2, inserts: 6, integrity: true}},
	{name: "journal-epoch-integrity", fx: fixture{wl: "journal", policy: "epoch", threads: 2, inserts: 4, integrity: true, sparse: true}},
	{name: "pstm-epoch-integrity", fx: fixture{wl: "pstm", policy: "epoch", threads: 2, inserts: 6, integrity: true}},
	{name: "kv-epoch-integrity", fx: fixture{wl: "kv", policy: "epoch", threads: 2, inserts: 8, seed: 42, integrity: true}},
	// The sharded kv store at a 75%-read serving mix: 46 persists across
	// two shards; the strand space reduces ~36M cuts to ~10k states.
	{name: "kv-strict", fx: fixture{wl: "kv", policy: "strict", threads: 2, inserts: 8, seed: 42}},
	{name: "kv-epoch", fx: fixture{wl: "kv", policy: "epoch", threads: 2, inserts: 8, seed: 42}},
	{name: "kv-strand", fx: fixture{wl: "kv", policy: "strand", threads: 2, inserts: 8, seed: 42}},
	// The write-heavier mix is the stress case: 67 persists, ~1.3M
	// reduced states from ~149G cuts under strand.
	{name: "kv-strand-write-heavy", fx: fixture{wl: "kv", policy: "strand", threads: 2, inserts: 6, readFrac: 0.5, seed: 42}, big: true},
}

// TestCleanMatrix proves every reachable crash state of each clean
// fixture recovers: verdict durably-linearizable, zero detected or
// hazardous images.
func TestCleanMatrix(t *testing.T) {
	for _, tc := range cleanMatrix {
		t.Run(tc.name, func(t *testing.T) {
			if tc.big && testing.Short() {
				t.Skip("six-figure state space, skipped under -short")
			}
			run, _, model := buildRun(t, tc.fx)
			res := check(t, buildGraph(t, run, model), run, Config{Budget: 1 << 21})
			if res.Verdict != DurablyLinearizable || res.Detected != 0 || res.Hazards != 0 {
				t.Fatalf("%s: want durably-linearizable, got %v (r/d/h %d/%d/%d)",
					tc.name, res.Verdict, res.Recovered, res.Detected, res.Hazards)
			}
			if res.States == 0 || res.Cuts == 0 {
				t.Fatalf("%s: empty state space (states %d cuts %d)", tc.name, res.States, res.Cuts)
			}
			t.Logf("%s: cuts=%d states=%d signatures=%d", tc.name, res.Cuts, res.States, res.Signatures)
		})
	}
}

// brokenMatrix pins the verdict and the class counts for every seeded
// ordering bug: silent corruption is hazardous, while formats whose
// recovery scan detects and discards the torn state stay
// detectably-recoverable. The counts (recovered/detected/hazards of
// states) pin where the strict reading draws the line between
// recovered and detected images.
var brokenMatrix = []struct {
	name                         string
	fx                           fixture
	verdict                      Verdict
	recovered, detected, hazards int
	states                       int
}{
	{name: "queue-break-barrier", fx: fixture{wl: "queue", policy: "epoch", threads: 2, inserts: 6, breakBar: true},
		verdict: DetectablyRecoverable, recovered: 97, detected: 90, states: 187},
	{name: "queue-2lc-omit-completion", fx: fixture{wl: "queue", design: "2lc", policy: "epoch", threads: 2, inserts: 6, omitComp: true},
		verdict: DetectablyRecoverable, recovered: 16881, detected: 3840, states: 20721},
	{name: "journal-break-commit", fx: fixture{wl: "journal", policy: "epoch", threads: 2, inserts: 4, breakCommit: true, sparse: true},
		verdict: Hazardous, recovered: 3085, detected: 2852, hazards: 216, states: 6153},
	{name: "pstm-racing", fx: fixture{wl: "pstm", policy: "racing", threads: 2, inserts: 6},
		verdict: Hazardous, recovered: 216, hazards: 16, states: 232},
	// The integrity formats repair both hazards: break-commit garbage is
	// discarded by record CRCs, racing pstm words by shadow checksums.
	{name: "journal-break-commit-integrity", fx: fixture{wl: "journal", policy: "epoch", threads: 2, inserts: 4, breakCommit: true, integrity: true, sparse: true},
		verdict: DurablyLinearizable, recovered: 3156, states: 3156},
	{name: "pstm-racing-integrity", fx: fixture{wl: "pstm", policy: "racing", threads: 2, inserts: 6, integrity: true},
		verdict: DurablyLinearizable, recovered: 579, states: 579},
}

// TestBrokenMatrix checks the seeded-bug verdicts, and for every
// hazardous fixture replays the minimized counterexample through the
// observer: the repro line must reproduce a failure class, which is the
// same path `crashsim -replay` takes.
func TestBrokenMatrix(t *testing.T) {
	for _, tc := range brokenMatrix {
		t.Run(tc.name, func(t *testing.T) {
			run, opts, model := buildRun(t, tc.fx)
			res := check(t, buildGraph(t, run, model), run, Config{Budget: 1 << 21, ReproParams: opts.Params()})
			if res.Verdict != tc.verdict {
				t.Fatalf("%s: want %v, got %v (r/d/h %d/%d/%d)",
					tc.name, tc.verdict, res.Verdict, res.Recovered, res.Detected, res.Hazards)
			}
			if res.Recovered != tc.recovered || res.Detected != tc.detected || res.Hazards != tc.hazards || res.States != tc.states {
				t.Fatalf("%s: r/d/h %d/%d/%d of %d states, want %d/%d/%d of %d",
					tc.name, res.Recovered, res.Detected, res.Hazards, res.States,
					tc.recovered, tc.detected, tc.hazards, tc.states)
			}
			if res.Verdict != Hazardous {
				return
			}
			ce := res.Counterexample
			if ce == nil {
				t.Fatal("hazardous verdict without counterexample")
			}
			if ce.CheckedErr == "" {
				t.Error("counterexample without checked recovery error")
			}
			if ce.Included > ce.MinimizedFrom {
				t.Errorf("minimization grew the cut: %d from %d", ce.Included, ce.MinimizedFrom)
			}
			if ce.Repro == "" {
				t.Fatal("counterexample without repro line")
			}
			s, err := fault.ParseRepro(ce.Repro)
			if err != nil {
				t.Fatalf("repro line does not parse: %v\n%s", err, ce.Repro)
			}
			ropts, err := workload.FromScenario(s)
			if err != nil {
				t.Fatal(err)
			}
			if ropts != opts {
				t.Errorf("repro params rebuild different options:\n  %+v\n  %+v", ropts, opts)
			}
			rrun, err := workload.Build(ropts, nil)
			if err != nil {
				t.Fatal(err)
			}
			class, _ := observer.Replay(buildGraph(t, rrun, ropts.Model), rrun.Checked, s, nvram.Config{})
			if !class.Failure() {
				t.Errorf("counterexample does not reproduce under the observer: class %v\n%s", class, ce.Repro)
			}
		})
	}
}

// TestWitnessPairCrossValidation pins the relationship between the
// static witness-pair checker and the exhaustive one on the full
// fixture grid: every exhaustively reachable bad state (verdict below
// durably-linearizable) has a witness-pair hazard, so static hazards
// are a superset of reachable ones. The converse over-approximation is
// real and pinned too: journal-omit-recipe is flagged statically
// (unbound strand reads) yet has no reachable corruption on this grid.
func TestWitnessPairCrossValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full matrix, skipped under -short")
	}
	type cv struct {
		name          string
		fx            fixture
		wantWitnessed bool
	}
	cases := []cv{
		{"journal-omit-recipe", fixture{wl: "journal", policy: "strand", threads: 2, inserts: 2, omitRecipe: true, sparse: true}, true},
		// Racing kv is the second pinned over-approximation: the
		// epoch-race detector flags same-block cross-thread persists the
		// dropped inner barrier leaves unordered, but journal replay
		// repairs every reachable image on this grid.
		{"kv-racing", fixture{wl: "kv", policy: "racing", threads: 2, inserts: 8, readFrac: 0.5, seed: 42}, true},
	}
	for _, m := range cleanMatrix {
		cases = append(cases, cv{m.name, m.fx, false})
	}
	for _, m := range brokenMatrix {
		if !strings.Contains(m.name, "integrity") {
			cases = append(cases, cv{m.name, m.fx, true})
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run, _, model := buildRun(t, tc.fx)
			g := buildGraph(t, run, model)
			rep, err := persistcheck.CheckGraph(run.Trace, g, run.Checks,
				persistcheck.Config{SiteLabel: run.SiteLabel})
			if err != nil {
				t.Fatal(err)
			}
			res := check(t, g, run, Config{Budget: 1 << 21})
			witnessed := rep.Hazards() > 0
			if res.Verdict != DurablyLinearizable && !witnessed {
				t.Errorf("%s: reachable bad states (%v) but no witness-pair hazard", tc.name, res.Verdict)
			}
			if witnessed != tc.wantWitnessed {
				t.Errorf("%s: witness hazards %d, want witnessed=%v", tc.name, rep.Hazards(), tc.wantWitnessed)
			}
		})
	}
}

// TestObserverAgreement cross-validates against the brute-force
// observer on enumerable grids: the cut counts must match exactly, and
// strict-recovery corruption must be visible to both checkers the same
// way (the observer's strict sweep sees a corrupt cut iff the
// exhaustive checker classified some image detected or worse).
func TestObserverAgreement(t *testing.T) {
	for _, tc := range []struct {
		name string
		fx   fixture
	}{
		{"queue-epoch", fixture{wl: "queue", policy: "epoch", threads: 1, inserts: 2, payload: 8}},
		{"queue-break-barrier", fixture{wl: "queue", policy: "epoch", threads: 1, inserts: 2, payload: 8, breakBar: true}},
		{"journal-strict", fixture{wl: "journal", policy: "strict", threads: 1, inserts: 2, sparse: true}},
		{"pstm-racing", fixture{wl: "pstm", policy: "racing", threads: 2, inserts: 6}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run, _, model := buildRun(t, tc.fx)
			g := buildGraph(t, run, model)
			res := check(t, g, run, Config{})
			out := allCuts(g, run.Recover)
			if uint64(out.Cuts) != res.Cuts || res.CutsSaturated {
				t.Errorf("cut counts disagree: observer %d, exhaustive %d (sat %v)",
					out.Cuts, res.Cuts, res.CutsSaturated)
			}
			if out.Corrupt > 0 && res.Verdict == DurablyLinearizable {
				t.Errorf("observer found corruption (%v) but exhaustive verdict is durably-linearizable",
					out.FirstCorruption)
			}
			if res.Detected > 0 && out.Corrupt == 0 {
				t.Errorf("exhaustive detected %d strict-visible images, observer saw none", res.Detected)
			}
		})
	}
}

// allCuts runs strict recovery on every consistent cut of g: the
// brute-force observer, which enumerates cuts with no reduction.
func allCuts(g *graph.Graph, rec observer.RecoverFunc) observer.Outcome {
	out := observer.Outcome{Model: g.Params.Model, Persists: g.Len()}
	g.EnumerateCuts(func(c graph.Cut) bool {
		out.Cuts++
		if err := rec(g.Materialize(c)); err != nil {
			out.Corrupt++
			if out.FirstCorruption == nil {
				out.FirstCorruption = err
			}
		} else {
			out.Recovered++
		}
		return true
	})
	return out
}

// TestParallelDeterminism pins byte-identical results — tallies,
// counterexample cut, repro line — across sweep worker counts on a
// hazardous fixture, where classification order could plausibly leak
// into the outcome.
func TestParallelDeterminism(t *testing.T) {
	fx := fixture{wl: "journal", policy: "epoch", threads: 2, inserts: 4, breakCommit: true, sparse: true}
	run, opts, model := buildRun(t, fx)
	g := buildGraph(t, run, model)
	var results []*Result
	for _, workers := range []int{1, 4, 8} {
		cfg := Config{Budget: 1 << 21, ReproParams: opts.Params(),
			Sweep: sweep.Config{Parallel: workers}}
		results = append(results, check(t, g, run, cfg))
	}
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Fatalf("results differ between 1 and %d workers:\n%v\n%v", []int{1, 4, 8}[i], results[0], results[i])
		}
	}
	if results[0].Verdict != Hazardous || results[0].Counterexample.Repro == "" {
		t.Fatalf("fixture lost its hazard: %v", results[0])
	}
}

// TestBudgetRefusal checks the bounded-checker contract: exceeding the
// state budget or the persist cap, or passing no checked recovery, is a
// refusal with an error, not a silent sample.
func TestBudgetRefusal(t *testing.T) {
	run, _, model := buildRun(t, fixture{wl: "journal", policy: "epoch", threads: 2, inserts: 4, sparse: true})
	g := buildGraph(t, run, model)
	_, err := CheckGraph(g, model, run.Recover, run.Checked, Config{Budget: 64})
	if err == nil || !strings.Contains(err.Error(), "state budget 64 exceeded") {
		t.Errorf("want state-budget error, got %v", err)
	}
	_, err = CheckGraph(g, model, run.Recover, run.Checked, Config{MaxPersists: 10})
	if err == nil || !strings.Contains(err.Error(), "exceeds MaxPersists 10") {
		t.Errorf("want MaxPersists error, got %v", err)
	}
	if _, err = CheckGraph(g, model, run.Recover, nil, Config{}); err == nil {
		t.Error("a nil checked recovery was accepted")
	}
}

// TestHashCollisions forces every image hash and every cut-count
// suffix hash to one value, so each state dedup, antichain fold and
// final-image lookup rests on the exact word-for-word comparison
// behind the hash. Results must equal the normal-hash run's on every
// fixture of the clean and broken matrices (the six-figure clean
// fixtures excepted: one bucket makes the merge quadratic in the live
// states) and on TestParallelDeterminism's fixture at 4 workers.
func TestHashCollisions(t *testing.T) {
	type hc struct {
		name string
		fx   fixture
		cfg  func(workload.Options) Config
	}
	plain := func(workload.Options) Config { return Config{Budget: 1 << 21} }
	var cases []hc
	for _, m := range cleanMatrix {
		if !m.big {
			cases = append(cases, hc{m.name, m.fx, plain})
		}
	}
	for _, m := range brokenMatrix {
		cases = append(cases, hc{m.name, m.fx, func(o workload.Options) Config {
			return Config{Budget: 1 << 21, ReproParams: o.Params()}
		}})
	}
	cases = append(cases, hc{"parallel-determinism",
		fixture{wl: "journal", policy: "epoch", threads: 2, inserts: 4, breakCommit: true, sparse: true},
		func(o workload.Options) Config {
			return Config{Budget: 1 << 21, ReproParams: o.Params(), Sweep: sweep.Config{Parallel: 4}}
		}})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run, opts, model := buildRun(t, tc.fx)
			cfg := tc.cfg(opts)
			g := buildGraph(t, run, model)
			want := check(t, g, run, cfg)
			collideHashes = true
			defer func() { collideHashes = false }()
			got := check(t, g, run, cfg)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("colliding hashes changed the result:\n%v\nwant\n%v", got, want)
			}
		})
	}
}
