package bench

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// A parallel Table 1 run instrumented with the span tracer must
// reconcile: the per-worker span totals for the table1 sweep sum to
// exactly the sweep engine's sweep_items_total counter, and the
// exported span trace is a valid Chrome trace-event document carrying
// the run manifest.
func TestTable1SpansReconcileWithSweepTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	spans := telemetry.NewSpanTracer(reg)
	cfg := Table1Config{
		Inserts: 200, Threads: []int{1, 2}, Seed: 42, InstrRate: 1e8,
		Sweep: sweep.Config{Parallel: 4, Registry: reg, Spans: spans},
		Cache: NewTraceCache(DefaultCacheEntries),
	}
	rows, err := Table1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}

	items := reg.Counter(telemetry.Label("sweep_items_total", "sweep", "table1")).Value()
	if items == 0 {
		t.Fatal("sweep_items_total{sweep=table1} = 0")
	}
	totals := spans.WorkerTotals("sweep", "table1")
	var spanned int64
	for w, tot := range totals {
		if w < 0 || w >= 4 {
			t.Errorf("span attributed to worker %d outside pool [0,4)", w)
		}
		if tot.Busy <= 0 {
			t.Errorf("worker %d: zero busy time over %d spans", w, tot.Count)
		}
		spanned += int64(tot.Count)
	}
	if spanned != items {
		t.Errorf("span totals sum to %d, sweep_items_total = %d", spanned, items)
	}

	var buf bytes.Buffer
	man := telemetry.NewManifest("bench-test")
	if err := spans.WriteChromeTrace(&buf, man); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
		Metadata map[string]any `json:"metadata"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("span trace is not valid Chrome trace JSON: %v", err)
	}
	slices := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			slices++
		}
	}
	if int64(slices) < items {
		t.Errorf("trace has %d slices, want at least %d sweep items", slices, items)
	}
	if man2, ok := doc.Metadata["manifest"].(map[string]any); !ok || man2["tool"] != "bench-test" {
		t.Errorf("metadata.manifest = %v", doc.Metadata["manifest"])
	}
}
