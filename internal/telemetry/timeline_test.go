package telemetry_test

// External test package: these tests drive real queue workloads through
// bench, which telemetry itself must not import.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/queue"
	"repro/internal/telemetry"
)

func policyFor(m core.Model) core.Policy {
	switch m {
	case core.Strict:
		return core.PolicyStrict
	case core.Strand:
		return core.PolicyStrand
	default:
		return core.PolicyEpoch
	}
}

func traced(t *testing.T, d queue.Design, m core.Model, threads, inserts int) (*telemetry.Tracer, core.Result) {
	t.Helper()
	w := bench.Workload{
		Design: d, Policy: policyFor(m),
		Threads: threads, Inserts: inserts, PayloadLen: 100, Seed: 42,
	}
	tr := telemetry.NewTracer(m, w.String())
	r, err := bench.SimulateProbed(w, core.Params{Model: m}, tr)
	if err != nil {
		t.Fatalf("%v/%v: %v", d, m, err)
	}
	return tr, r
}

// TestTracerMatchesSimulator is the acceptance cross-check: for every
// persistency model on both queue designs, the critical path
// reconstructed from the tracer's recorded constraint edges must equal
// the simulator's reported critical path (and every node's depth its
// reported level).
func TestTracerMatchesSimulator(t *testing.T) {
	for _, d := range []queue.Design{queue.CWL, queue.TwoLock} {
		for _, m := range core.Models {
			t.Run(fmt.Sprintf("%v_%v", d, m), func(t *testing.T) {
				tr, r := traced(t, d, m, 4, 300)
				if err := tr.Verify(r); err != nil {
					t.Fatal(err)
				}
				if r.Placed == 0 {
					t.Fatal("no persists recorded")
				}
			})
		}
	}
}

// TestTracerMatchesSimulatorOverwrite stresses the atomicity channel:
// an overwriting log recycles blocks, so strong persist atomicity
// serializes persists to reused slots.
func TestTracerMatchesSimulatorOverwrite(t *testing.T) {
	for _, m := range core.Models {
		w := bench.Workload{
			Design: queue.CWL, Policy: policyFor(m),
			Threads: 2, Inserts: 400, PayloadLen: 100, Seed: 7,
			DataBytes: 8192, Overwrite: true,
		}
		tr := telemetry.NewTracer(m, w.String())
		r, err := bench.SimulateProbed(w, core.Params{Model: m}, tr)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if err := tr.Verify(r); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
	}
}

func TestChainsAndAttribution(t *testing.T) {
	tr, r := traced(t, queue.TwoLock, core.Epoch, 4, 300)
	chains := tr.Chains(5)
	if len(chains) == 0 {
		t.Fatal("no chains")
	}
	if chains[0].Length != r.CriticalPath {
		t.Fatalf("longest chain %d != critical path %d", chains[0].Length, r.CriticalPath)
	}
	for i := 1; i < len(chains); i++ {
		if chains[i].Length > chains[i-1].Length {
			t.Fatalf("chains not sorted: %d then %d", chains[i-1].Length, chains[i].Length)
		}
	}
	// The longest chain's recorded ids must step through its dep edges.
	ids := chains[0].IDs
	if int64(len(ids)) != chains[0].Length {
		t.Fatalf("chain has %d nodes, length %d", len(ids), chains[0].Length)
	}
	nodes := tr.Nodes()
	for i := 1; i < len(ids); i++ {
		if nodes[ids[i]].DepID != ids[i-1] {
			t.Fatalf("chain edge %d: node %d deps on %d, chain says %d",
				i, ids[i], nodes[ids[i]].DepID, ids[i-1])
		}
	}

	a := tr.Attribute(3)
	var sum int64
	for _, n := range a.EdgesByClass {
		sum += n
	}
	if sum != a.Placed || a.Placed != r.Placed {
		t.Fatalf("edge classes sum %d, placed %d (sim %d)", sum, a.Placed, r.Placed)
	}
	if a.CriticalPath != r.CriticalPath {
		t.Fatalf("attribution critical path %d != %d", a.CriticalPath, r.CriticalPath)
	}
	out := a.Render()
	if out == "" || len(a.Sites) == 0 {
		t.Fatalf("empty attribution render or sites: %q", out)
	}
}

// TestChromeTraceValid checks the export is well-formed Chrome
// trace-event JSON with the expected structure.
func TestChromeTraceValid(t *testing.T) {
	trEpoch, _ := traced(t, queue.CWL, core.Epoch, 2, 100)
	trStrand, _ := traced(t, queue.CWL, core.Strand, 2, 100)

	var buf bytes.Buffer
	if err := telemetry.EncodeChromeTrace(&buf, trEpoch, trStrand); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			PID  int64          `json:"pid"`
			TID  int64          `json:"tid"`
			TS   int64          `json:"ts"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	counts := map[string]int{}
	pids := map[int64]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "" {
			t.Fatal("event with empty ph")
		}
		counts[e.Ph]++
		pids[e.PID] = true
	}
	if len(pids) != 2 {
		t.Fatalf("expected 2 processes, saw %v", pids)
	}
	for _, ph := range []string{"M", "X", "s", "f", "C"} {
		if counts[ph] == 0 {
			t.Fatalf("no %q events in export: %v", ph, counts)
		}
	}
	// Flow starts and finishes pair up.
	if counts["s"] != counts["f"] {
		t.Fatalf("unbalanced flows: %d starts, %d finishes", counts["s"], counts["f"])
	}
}

// TestChromeTraceDeterministic pins that exporting one trace twice
// writes the same bytes: trailing epoch and strand spans close in
// thread-id order, whatever order a map would visit the threads in.
func TestChromeTraceDeterministic(t *testing.T) {
	trEpoch, _ := traced(t, queue.TwoLock, core.Epoch, 8, 64)
	trStrand, _ := traced(t, queue.TwoLock, core.Strand, 8, 64)
	var first bytes.Buffer
	if err := telemetry.EncodeChromeTrace(&first, trEpoch, trStrand); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		var again bytes.Buffer
		if err := telemetry.EncodeChromeTrace(&again, trEpoch, trStrand); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), again.Bytes()) {
			t.Fatalf("export %d differs from the first", i+2)
		}
	}
}

// TestObserveResult checks the result adapter writes the expected series.
func TestObserveResult(t *testing.T) {
	_, r := traced(t, queue.CWL, core.Epoch, 2, 100)
	reg := telemetry.NewRegistry()
	telemetry.ObserveResult(reg, "cwl-test", r)
	name := telemetry.Label("sim_persists_total", "model", r.Model.String(), "workload", "cwl-test")
	if got := reg.Counter(name).Value(); got != r.Persists {
		t.Fatalf("%s = %d, want %d", name, got, r.Persists)
	}
}
