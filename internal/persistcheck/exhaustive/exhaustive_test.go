package exhaustive

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/memory"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// fixture names a workload grid point by its flag spellings. wl "kv"
// builds the sharded store (inserts = ops; readFrac, 0.75 default,
// sets the read mix).
type fixture struct {
	wl, design, policy              string
	threads, inserts, payload       int
	seed                            int64
	readFrac                        float64
	breakBar, omitComp, breakCommit bool
	omitRecipe, integrity, sparse   bool
}

// buildRun traces a workload fixture for checking and returns its
// options and target model alongside. kv fixtures run 2 shards and 8
// keys.
func buildRun(t testing.TB, fx fixture) (*workload.Run, workload.Options, core.Model) {
	t.Helper()
	o, err := workload.FromScenario(&fault.Scenario{}) // the flag defaults
	if err != nil {
		t.Fatal(err)
	}
	if fx.design != "" {
		if o.Design, err = workload.ParseDesign(fx.design); err != nil {
			t.Fatal(err)
		}
	}
	if o.Policy, err = workload.ParsePolicy(fx.policy); err != nil {
		t.Fatal(err)
	}
	o.Model = o.Policy.Model()
	o.Workload, o.Threads, o.Inserts, o.Payload, o.Seed = fx.wl, fx.threads, fx.inserts, 16, 1
	if fx.payload != 0 {
		o.Payload = fx.payload
	}
	if fx.seed != 0 {
		o.Seed = fx.seed
	}
	o.BreakBar, o.OmitComp, o.BreakCommit = fx.breakBar, fx.omitComp, fx.breakCommit
	o.OmitRecipe, o.Integrity, o.SparseBlocks = fx.omitRecipe, fx.integrity, fx.sparse
	if fx.wl == "kv" {
		o.Shards, o.Keys, o.ReadFrac = 2, 8, 0.75
		if fx.readFrac != 0 {
			o.ReadFrac = fx.readFrac
		}
	}
	run, err := workload.Build(o, nil)
	if err != nil {
		t.Fatalf("build %+v: %v", o, err)
	}
	return run, o, o.Model
}

// buildGraph builds run's persist-order graph under model.
func buildGraph(t testing.TB, run *workload.Run, model core.Model) *graph.Graph {
	t.Helper()
	g, err := graph.Build(run.Trace, core.Params{Model: model})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// check runs CheckGraph on g, run's graph, with run's recovery.
func check(t *testing.T, g *graph.Graph, run *workload.Run, cfg Config) *Result {
	t.Helper()
	res, err := CheckGraph(g, g.Params.Model, run.Recover, run.Checked, cfg)
	if err != nil {
		t.Fatalf("CheckGraph: %v", err)
	}
	return res
}

// TestAgainstBruteForce pins the reduced enumeration to ground truth:
// on a fixture small enough to enumerate every consistent cut
// directly, the checker's cut count, distinct-image count, per-class
// tallies, and verdict must all match the brute-force sweep.
func TestAgainstBruteForce(t *testing.T) {
	for _, tc := range []struct {
		name string
		fx   fixture
	}{
		{"queue-epoch", fixture{wl: "queue", policy: "epoch", threads: 1, inserts: 2, payload: 8}},
		{"queue-broken", fixture{wl: "queue", policy: "epoch", threads: 1, inserts: 2, payload: 8, breakBar: true}},
		{"journal-strict", fixture{wl: "journal", policy: "strict", threads: 1, inserts: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run, _, model := buildRun(t, tc.fx)
			g := buildGraph(t, run, model)
			res := check(t, g, run, Config{})
			if res.Cuts > 500000 || res.CutsSaturated {
				t.Fatalf("fixture too large for brute force: %d cuts", res.Cuts)
			}

			// Ground truth: enumerate every cut, dedup images by
			// signature, classify each image once.
			words := newWordTable(g)
			images := make(map[string][]wordVal)
			var order []string
			cuts := 0
			g.EnumerateCuts(func(c graph.Cut) bool {
				cuts++
				img := imgOfCut(words, c)
				k := fmt.Sprint(img)
				if _, ok := images[k]; !ok {
					images[k] = img
					order = append(order, k)
				}
				return cuts <= 1000000
			})
			if uint64(cuts) != res.Cuts || res.CutsSaturated {
				t.Errorf("cuts: brute %d, checker %d (sat %v)", cuts, res.Cuts, res.CutsSaturated)
			}
			if len(images) != res.States {
				t.Errorf("states: brute %d, checker %d", len(images), res.States)
			}
			var rec, det, haz int
			// strictOnly runs the strict reading as its own recovery.
			strictOnly := func(im *memory.Image) (fault.RecoveryReport, error) { return fault.RecoveryReport{}, run.Recover(im) }
			for _, k := range order {
				sc, scStrict := &scratch{}, &scratch{}
				out := execClassify(words, images[k], sc, run.Checked)
				// A signature names each word once.
				seen := make(map[memory.Addr]bool)
				for _, ev := range sc.seq {
					if seen[ev.addr] {
						t.Fatalf("signature reads %#x twice", uint64(ev.addr))
					}
					seen[ev.addr] = true
				}
				// The one checked run reads exactly what a separate
				// strict run reads, and the strict verdict read off
				// its result is the strict run's error.
				so := execClassify(words, images[k], scStrict, strictOnly)
				if !slices.Equal(sc.seq, scStrict.seq) {
					t.Fatalf("checked run reads %d words, strict run alone %d", len(sc.seq), len(scStrict.seq))
				}
				if out.strictErr != so.checkedErr {
					t.Fatalf("strict verdict %q, strict run %q", out.strictErr, so.checkedErr)
				}
				switch out.class {
				case ClassRecovered:
					rec++
				case ClassDetected:
					det++
				case ClassHazard:
					haz++
				}
			}
			if rec != res.Recovered || det != res.Detected || haz != res.Hazards {
				t.Errorf("classes: brute %d/%d/%d, checker %d/%d/%d",
					rec, det, haz, res.Recovered, res.Detected, res.Hazards)
			}
			t.Logf("%s: persists=%d cuts=%d states=%d signatures=%d classes=%d/%d/%d verdict=%v",
				tc.name, res.Persists, res.Cuts, res.States, res.Signatures,
				res.Recovered, res.Detected, res.Hazards, res.Verdict)
		})
	}
}

// fourChains is a hand-built graph of four independent two-node chains
// a_i → b_i, a_1..a_4 first: 3^4 = 81 consistent cuts.
func fourChains() *graph.Graph {
	g := &graph.Graph{}
	for i := 0; i < 8; i++ {
		g.AddNode(fmt.Sprintf("n%d", i), trace.Event{})
	}
	for i := 0; i < 4; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+4), graph.ProgramOrder)
	}
	return g
}

// TestSaturatedCutCount pins the cut count's lower-bound contract:
// when the counting DP outgrows its budget the partial count is
// reported and printed as ">=<count>", and an overflowed count still
// prints as ">=" MaxUint64.
func TestSaturatedCutCount(t *testing.T) {
	g := fourChains()
	desc := g.Descendants()
	if cuts, sat := countCuts(g, desc, 1<<20); cuts != 81 || sat {
		t.Fatalf("countCuts = (%d, %v), want (81, false)", cuts, sat)
	}
	// Deciding a_1..a_3 leaves 8 distinct killed suffixes, over the
	// budget of 4: the count stops at the 8 paths so far.
	cuts, sat := countCuts(g, desc, 4)
	if cuts != 8 || !sat {
		t.Fatalf("countCuts at budget 4 = (%d, %v), want (8, true)", cuts, sat)
	}
	for _, tc := range []struct {
		r    Result
		want string
	}{
		{Result{Cuts: cuts, CutsSaturated: sat}, " cuts=>=8 "},
		{Result{Cuts: math.MaxUint64, CutsSaturated: true}, " cuts=>=18446744073709551615 "},
		{Result{Cuts: 81}, " cuts=81 "},
	} {
		if s := tc.r.String(); !strings.Contains(s, tc.want) {
			t.Errorf("String() = %q, want it to contain %q", s, tc.want)
		}
	}
}

// TestObserve checks the exported gauges against a result's fields.
func TestObserve(t *testing.T) {
	reg := telemetry.NewRegistry()
	Observe(reg, &Result{Model: core.Epoch, Cuts: 8, CutsSaturated: true, States: 5, Signatures: 3,
		PeakLive: 4, Subsumed: 2, Recovered: 3, Detected: 1, Hazards: 1})
	Observe(reg, nil)
	Observe(nil, &Result{})
	got := reg.Snapshot().Gauges
	want := map[string]float64{
		`exhaustive_cuts{model="epoch"}`:                     8,
		`exhaustive_cuts_saturated{model="epoch"}`:           1,
		`exhaustive_states{model="epoch"}`:                   5,
		`exhaustive_signatures{model="epoch"}`:               3,
		`exhaustive_subsumed{model="epoch"}`:                 2,
		`exhaustive_peak_live{model="epoch"}`:                4,
		`exhaustive_images{model="epoch",class="recovered"}`: 3,
		`exhaustive_images{model="epoch",class="detected"}`:  1,
		`exhaustive_images{model="epoch",class="hazard"}`:    1,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("gauges:\n got %v\nwant %v", got, want)
	}
}
