package main

import (
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/workload"
)

// kvOptions is a small kv run: 2 shards, 8 keys, 2 threads, 8 ops at
// 0.5 reads, epoch annotations, seed 7.
func kvOptions(t *testing.T) workload.Options {
	t.Helper()
	s, err := fault.ParseRepro("fault1|workload=kv,policy=epoch,shards=2,keys=8,threads=2,ops=8,read-frac=0.5,seed=7|cut=0:|plan=")
	if err != nil {
		t.Fatal(err)
	}
	o, err := workload.FromScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// fullCut includes every node of o's graph under model.
func fullCut(t *testing.T, o workload.Options, model core.Model) graph.Cut {
	t.Helper()
	run, err := workload.Build(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(run.Trace, core.Params{Model: model})
	if err != nil {
		t.Fatal(err)
	}
	full := graph.Cut{Included: make([]bool, g.Len())}
	for i := range full.Included {
		full.Included[i] = true
	}
	return full
}

// TestReplayKVDispatch pins the -replay workload dispatch: repro lines
// whose params carry workload=kv (emitted by persistcheck -workload kv)
// rebuild the sharded KV store, and a fully-persisted cut replays
// clean.
func TestReplayKVDispatch(t *testing.T) {
	o := kvOptions(t)
	s := fault.Scenario{Params: o.Params(), Cut: fullCut(t, o, o.Model)}
	if got, err := replay(s.Repro()); err != nil || got != 0 {
		t.Errorf("replay of fully-persisted kv cut exited %d (err %v), want 0", got, err)
	}
}

// TestReplayKVModelParam pins the model a kv line replays under: a
// model= param (persistcheck appends the checked model) wins over the
// policy's target, and a line without one falls back to the target.
func TestReplayKVModelParam(t *testing.T) {
	o := kvOptions(t)
	full := fullCut(t, o, core.Strand)
	noModel := slices.DeleteFunc(o.Params(), func(p fault.Param) bool { return p.Key == "model" })
	strand := o
	strand.Model = core.Strand
	for _, tc := range []struct {
		params []fault.Param
		want   core.Model
	}{
		{noModel, core.Epoch},
		{strand.Params(), core.Strand},
	} {
		s := fault.Scenario{Params: tc.params, Cut: full}
		parsed, err := fault.ParseRepro(s.Repro())
		if err != nil {
			t.Fatal(err)
		}
		if got, err := workload.FromScenario(parsed); err != nil || got.Model != tc.want {
			t.Errorf("%s: replays under %v (err %v), want %v", s.Repro(), got.Model, err, tc.want)
		}
		if got, err := replay(s.Repro()); err != nil || got != 0 {
			t.Errorf("replay of fully-persisted kv cut %s exited %d (err %v), want 0", s.Repro(), got, err)
		}
	}
}

// TestReplayQueueDispatch keeps the grid path covered: a queue repro
// line rebuilds through FromScenario/Build, and one without model=
// replays under the policy's target model (strict for policy=strict).
func TestReplayQueueDispatch(t *testing.T) {
	s, err := fault.ParseRepro("fault1|workload=queue,policy=strict,threads=1,inserts=2,payload=16|cut=0:|plan=")
	if err != nil {
		t.Fatal(err)
	}
	o, err := workload.FromScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	if o.Model != core.Strict {
		t.Fatalf("workload=queue,policy=strict line without model= rebuilds under %v, want strict", o.Model)
	}
	s.Cut = fullCut(t, o, core.Strict)
	if got, err := replay(s.Repro()); err != nil || got != 0 {
		t.Errorf("replay of fully-persisted queue cut exited %d (err %v), want 0", got, err)
	}
}

// TestInvalidOptionsExitOne pins that workload options no workload can
// run, from flags or from a hand-edited -replay line, fail with exit 1
// and an error naming the option instead of a panic (which exits 2,
// the code for a reproduced corruption).
func TestInvalidOptionsExitOne(t *testing.T) {
	line := func(params ...fault.Param) string {
		s := fault.Scenario{Params: params}
		return s.Repro()
	}
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"zero threads", []string{"-threads", "0"}, "threads"},
		{"negative threads", []string{"-threads", "-1", "-samples", "1"}, "threads"},
		{"negative inserts", []string{"-inserts", "-4"}, "insert"},
		{"zero payload", []string{"-payload", "0"}, "payload"},
		{"replay zero threads", []string{"-replay", line(fault.Param{Key: "workload", Value: "queue"}, fault.Param{Key: "threads", Value: "0"})}, "threads"},
		{"replay zero payload", []string{"-replay", line(fault.Param{Key: "workload", Value: "queue"}, fault.Param{Key: "payload", Value: "0"})}, "payload"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := os.CreateTemp(t.TempDir(), "stderr")
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			old := os.Stderr
			os.Stderr = f
			code := cli.Run("crashsim", tc.args, run)
			os.Stderr = old
			stderr, err := os.ReadFile(f.Name())
			if err != nil {
				t.Fatal(err)
			}
			if code != 1 || !strings.Contains(string(stderr), "crashsim: ") || !strings.Contains(string(stderr), tc.want) {
				t.Fatalf("exit %d, want 1 with an error about %s; stderr:\n%s", code, tc.want, stderr)
			}
		})
	}
}
