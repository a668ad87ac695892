package workload

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/journal"
	"repro/internal/memory"
	"repro/internal/pstm"
	"repro/internal/queue"
	"repro/internal/trace"
)

// TestHarnessTraceMatchesChecker pins that the harness and the checkers
// run one fixture. A sole SC thread is never preempted, so the
// harness's work brackets cannot move anything: with its
// BeginWork/EndWork events dropped, bench.Trace must equal the checker
// trace of the same options event for event. The journal is left out
// because the checkers shrink its ring.
func TestHarnessTraceMatchesChecker(t *testing.T) {
	for _, c := range []struct {
		wl     string
		design queue.Design
	}{{"queue", queue.CWL}, {"queue", queue.TwoLock}, {"pstm", queue.CWL}} {
		for _, pol := range []core.Policy{core.PolicyStrict, core.PolicyEpoch, core.PolicyStrand} {
			name := fmt.Sprintf("%s-%v-%v", c.wl, c.design, pol)
			harness, err := bench.Trace(bench.Workload{
				Structure: c.wl, Design: c.design, Policy: pol, Threads: 1, Inserts: 20, PayloadLen: 40, Seed: 3,
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			run, err := Build(Options{
				Workload: c.wl, Design: c.design, Policy: pol, Model: pol.Model(), Threads: 1, Inserts: 20, Payload: 40, Seed: 3,
			}, nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got := harness.Filter(func(e trace.Event) bool { return e.Kind != trace.BeginWork && e.Kind != trace.EndWork })
			if len(got) != run.Trace.Len() {
				t.Errorf("%s: harness has %d unbracketed events, checker %d", name, len(got), run.Trace.Len())
				continue
			}
			for i, e := range got {
				e.Seq = uint64(i)
				if want := run.Trace.At(i); e != want {
					t.Errorf("%s: event %d: harness %v, checker %v", name, i, e, want)
					break
				}
			}
		}
	}
}

// TestRemainderRule pins how the fixtures split Inserts over threads
// that do not divide it: queue and journal give the remainder to the
// lowest thread ids, so 3 threads run all 13 items, while pstm drops it
// and runs 12. The items are counted back from recovery of the full
// crash image: recovered queue entries, and for journal and pstm each
// thread's last value, which numbers its items.
func TestRemainderRule(t *testing.T) {
	for _, c := range []struct {
		wl   string
		want int
	}{{"queue", 13}, {"journal", 13}, {"pstm", 12}} {
		o := Options{
			Workload: c.wl, Design: queue.CWL, Policy: core.PolicyEpoch, Model: core.Epoch,
			Threads: 3, Inserts: 13, Payload: 16, Seed: 1, SparseBlocks: true,
		}
		run, err := Build(o, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(run.Describe, fmt.Sprintf("3 threads, %d ", c.want)) {
			t.Errorf("%s: Describe %q does not count %d items", c.wl, run.Describe, c.want)
		}
		g, err := graph.Build(run.Trace, core.Params{Model: o.Model})
		if err != nil {
			t.Fatal(err)
		}
		im := g.Materialize(g.Full())
		rep, err := run.Checked(im)
		if err != nil {
			t.Fatalf("%s: full image: %v", c.wl, err)
		}
		got := rep.Recovered
		if c.wl != "queue" {
			got = lastValues(t, c.wl, o.Threads, im)
		}
		if got != c.want {
			t.Errorf("%s: recovered %d items from the full image, want %d", c.wl, got, c.want)
		}
	}
}

// lastValues recovers the journal's or pstm's state from im and sums,
// over threads, the item count each thread's recovered value carries
// (thread g's i-th item stores g*100000+i+1). The structure's metadata
// comes from building it again with the checkers' configuration on a
// fresh machine, which allocates it at the same addresses.
func lastValues(t *testing.T, wl string, threads int, im *memory.Image) int {
	t.Helper()
	s := exec.NewMachine(exec.Config{Threads: threads, Sink: trace.Discard}).SetupThread()
	var value func(g int) uint64
	switch wl {
	case "journal":
		st, err := journal.New(s, journal.Config{Blocks: 2 * threads, JournalBytes: 1 << 11, Policy: core.PolicyEpoch})
		if err != nil {
			t.Fatal(err)
		}
		state, _, err := journal.Recover(im, st.Meta())
		if err != nil {
			t.Fatal(err)
		}
		value = func(g int) uint64 { v, _ := journal.SparseBlockTag(state.Block(2 * g)); return v }
	case "pstm":
		h, err := pstm.New(s, pstm.Config{Words: 2 * threads, UndoCap: 8, Policy: core.PolicyEpoch})
		if err != nil {
			t.Fatal(err)
		}
		state, _, err := pstm.Recover(im, h.Meta())
		if err != nil {
			t.Fatal(err)
		}
		value = func(g int) uint64 { return state.Words[2*g] }
	}
	n := 0
	for g := range threads {
		n += int(value(g)) - g*100000
	}
	return n
}
