package main

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/queue"
	"repro/internal/workload"
)

// TestReplayKVDispatch pins the -replay workload dispatch: repro lines
// whose params carry workload=kv (emitted by persistcheck -workload kv)
// rebuild through KVFromScenario/BuildKV rather than the queue/journal
// grid, and a fully-persisted cut replays clean.
func TestReplayKVDispatch(t *testing.T) {
	kvOpts := workload.KVOptions{
		Shards: 2, Keys: 8, Threads: 2, Ops: 8,
		ReadFrac: 0.5, Seed: 7, PolicyStr: "epoch",
	}
	pol, err := workload.ParsePolicy(kvOpts.PolicyStr)
	if err != nil {
		t.Fatal(err)
	}
	kvOpts.Policy, err = workload.JournalPolicy(pol)
	if err != nil {
		t.Fatal(err)
	}
	run, err := workload.BuildKV(kvOpts, nil)
	if err != nil {
		t.Fatal(err)
	}
	model := workload.ModelForPolicy("kv", pol)
	g, err := graph.Build(run.Trace, core.Params{Model: model})
	if err != nil {
		t.Fatal(err)
	}
	full := graph.Cut{Included: make([]bool, g.Len())}
	for i := range full.Included {
		full.Included[i] = true
	}
	s := fault.Scenario{Params: kvOpts.Params(), Cut: full}
	if got := replay(s.Repro()); got != 0 {
		t.Errorf("replay of fully-persisted kv cut exited %d, want 0", got)
	}
}

// TestReplayKVModelParam pins the model a kv line replays under: a
// model= param (persistcheck appends the checked model) wins over the
// policy's target, and a line without one falls back to the target.
func TestReplayKVModelParam(t *testing.T) {
	kvOpts := workload.KVOptions{
		Shards: 2, Keys: 8, Threads: 2, Ops: 8,
		ReadFrac: 0.5, Seed: 7, PolicyStr: "epoch",
	}
	var err error
	kvOpts.Policy, err = workload.JournalPolicy(queue.PolicyEpoch)
	if err != nil {
		t.Fatal(err)
	}
	run, err := workload.BuildKV(kvOpts, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(run.Trace, core.Params{Model: core.Strand})
	if err != nil {
		t.Fatal(err)
	}
	full := graph.Cut{Included: make([]bool, g.Len())}
	for i := range full.Included {
		full.Included[i] = true
	}
	for _, tc := range []struct {
		params []fault.Param
		want   core.Model
	}{
		{kvOpts.Params(), core.Epoch},
		{append(kvOpts.Params(), fault.Param{Key: "model", Value: "strand"}), core.Strand},
	} {
		s := fault.Scenario{Params: tc.params, Cut: full}
		parsed, err := fault.ParseRepro(s.Repro())
		if err != nil {
			t.Fatal(err)
		}
		if _, model, err := replayTarget(parsed); err != nil || model != tc.want {
			t.Errorf("%s: replays under %v (err %v), want %v", s.Repro(), model, err, tc.want)
		}
		if got := replay(s.Repro()); got != 0 {
			t.Errorf("replay of fully-persisted kv cut %s exited %d, want 0", s.Repro(), got)
		}
	}
}

// TestReplayQueueDispatch keeps the non-kv path covered: a queue repro
// line still rebuilds via FromScenario/Build.
func TestReplayQueueDispatch(t *testing.T) {
	o := workload.Options{
		Workload: "queue", Threads: 1, Inserts: 2, Payload: 16, Seed: 1,
		DesignStr: "cwl", PolicyStr: "epoch",
	}
	var err error
	o.Design, err = workload.ParseDesign(o.DesignStr)
	if err != nil {
		t.Fatal(err)
	}
	o.Policy, err = workload.ParsePolicy(o.PolicyStr)
	if err != nil {
		t.Fatal(err)
	}
	o.Model = workload.ModelForPolicy(o.Workload, o.Policy)
	run, err := workload.Build(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(run.Trace, core.Params{Model: o.Model})
	if err != nil {
		t.Fatal(err)
	}
	full := graph.Cut{Included: make([]bool, g.Len())}
	for i := range full.Included {
		full.Included[i] = true
	}
	s := fault.Scenario{Params: o.Params(), Cut: full}
	if got := replay(s.Repro()); got != 0 {
		t.Errorf("replay of fully-persisted queue cut exited %d, want 0", got)
	}
}
