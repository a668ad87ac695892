package persistcheck_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/persistcheck"
	"repro/internal/trace"
	"repro/internal/workload"
)

// byKind splits stored findings by kind, keeping analysis order.
func byKind(r *persistcheck.Report) map[persistcheck.Kind][]persistcheck.Finding {
	out := map[persistcheck.Kind][]persistcheck.Finding{}
	for _, f := range r.Findings {
		out[f.Kind] = append(out[f.Kind], f)
	}
	return out
}

// TestLimitOnlyTruncates pins that the storage limit changes what a
// report keeps and nothing else: at Limit 1, the default and a limit
// no fixture reaches, Counts are equal, and per kind the findings
// stored under a smaller limit, Cut and Repro included, are a prefix of
// those stored under a larger one. Every fixture is hazardous, with
// unpersisted-publication or unbound-read findings; three store past
// the default limit, and the journal under epoch-tso publishes several
// pending data persists per commit, some ordered and some not.
func TestLimitOnlyTruncates(t *testing.T) {
	fixtures := []workload.Options{
		opt(t, "journal", "cwl", "epoch", 3, 12, 1),
		opt(t, "journal", "cwl", "racing", 3, 12, 1),
		opt(t, "pstm", "cwl", "racing", 3, 12, 1),
		opt(t, "queue", "2lc", "epoch", 3, 24, 1),
		opt(t, "queue", "cwl", "epoch", 3, 24, 1),
		opt(t, "journal", "cwl", "strand", 3, 12, 1),
	}
	fixtures[0].Model = core.EpochTSO
	fixtures[3].Model = core.EpochTSO
	fixtures[4].BreakBar = true
	fixtures[5].OmitRecipe = true
	for _, o := range fixtures {
		run, err := workload.Build(o, nil)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s/%s/%v", o.Workload, o.PolicyStr, o.Model)
		var reps []*persistcheck.Report
		for _, limit := range []int{1, 0, 1 << 20} {
			rep, err := persistcheck.Check(run.Trace, core.Params{Model: o.Model}, run.Checks, persistcheck.Config{
				Limit:       limit,
				ReproParams: o.Params(),
				SiteLabel:   run.SiteLabel,
			})
			if err != nil {
				t.Fatal(err)
			}
			reps = append(reps, rep)
		}
		if reps[0].Hazards() == 0 {
			t.Fatalf("%s: no hazards; the fixture does not exercise the limit", name)
		}
		for i := 1; i < len(reps); i++ {
			small, large := reps[i-1], reps[i]
			if !reflect.DeepEqual(small.Counts, large.Counts) {
				t.Fatalf("%s: counts %v at the smaller limit, %v at the larger", name, small.Counts, large.Counts)
			}
			sk, lk := byKind(small), byKind(large)
			for k, fs := range sk {
				if len(fs) > len(lk[k]) || !reflect.DeepEqual(fs, lk[k][:len(fs)]) {
					t.Fatalf("%s: stored %v findings are not a prefix of the larger limit's", name, k)
				}
			}
		}
	}
}

// TestPublicationJudgesEveryPendingPersist pins a publication persist
// with two pending data persists, the first unordered before it and the
// second ordered by a barrier: exactly the first is reported. Building
// the first finding's divergent cut must not disturb the ancestor marks
// the second is judged against.
func TestPublicationJudgesEveryPendingPersist(t *testing.T) {
	base := memory.PersistentBase
	data := base + 64
	ann := persistcheck.Annotations{Pubs: []persistcheck.Publication{{
		Name:       "pub",
		Word:       base,
		Data:       []persistcheck.Extent{{Addr: data, Size: 128}},
		AllThreads: true,
	}}}
	tr := &trace.Trace{}
	store(tr, 0, data, 1)    // t0's data persist: nothing orders it before pub
	store(tr, 1, data+64, 2) // t1's data persist
	barrier(tr, 1)           // ...ordered before t1's publication
	store(tr, 1, base, 1)
	rep, err := persistcheck.Check(tr, core.Params{Model: core.Epoch}, ann, persistcheck.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if n := rep.Counts[persistcheck.UnpersistedPublication]; n != 1 {
		t.Fatalf("%d unpersisted-publication findings, want 1:\n%s", n, rep)
	}
	if f := rep.Findings[0]; f.WitnessA != 0 || f.WitnessB != 2 {
		t.Fatalf("witness pair %d→%d, want 0→2", f.WitnessA, f.WitnessB)
	}
}
