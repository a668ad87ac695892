package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite expected/ from the current outputs")

// spec is the part of BENCHMARK.json the benchmark must honor.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSmoke runs every workload for a few jobs, untraced and traced, and
// checks the printed result line against BENCHMARK.json: every declared
// metric appears with its unit and nothing else does, and every job's
// output matched the pinned one (seed 42 is pinned).
func TestSmoke(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if s.Workloads[i].Name != w.name || s.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, benchmark %q: %q", i, s.Workloads[i], w.name, w.why)
		}
		for _, traced := range []bool{false, true} {
			var log strings.Builder
			res, err := runWorkload(w, runConfig{seed: 42, jobs: 3, trace: traced, setups: 1}, &log)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if !res.correct || res.failed != 0 || res.attempted != 3 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s", w.name, traced, res.correct, res.attempted, res.failed, log.String())
			}
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
				reconcileSpans(t, res)
			}
			b, err := json.Marshal(res.line())
			if err != nil {
				t.Fatal(err)
			}
			var printed resultLine
			if err := json.Unmarshal(b, &printed); err != nil {
				t.Fatal(err)
			}
			if len(printed.Metrics) != len(want) {
				t.Errorf("%s traced=%v: printed %d metrics, BENCHMARK.json declares %d", w.name, traced, len(printed.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := printed.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s printed as %+v (present %v), want unit %q", w.name, traced, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// reconcileSpans checks the traced run's span file against the harness's
// own accounting: each layer span lies inside its job span, and per job
// the layer spans plus the harness self time add up to the job span.
func reconcileSpans(t *testing.T, res *runResult) {
	t.Helper()
	type job struct {
		span   telemetry.SpanRecord
		layers []telemetry.SpanRecord
	}
	jobs := map[int]*job{}
	at := func(sp telemetry.SpanRecord) *job {
		i, ok := sp.Args["job"].(int)
		if !ok {
			t.Fatalf("span %s/%s carries no job index", sp.Cat, sp.Name)
		}
		if jobs[i] == nil {
			jobs[i] = &job{}
		}
		return jobs[i]
	}
	for _, sp := range res.spans.Spans() {
		if j := at(sp); sp.Cat == "job" {
			j.span = sp
		} else {
			j.layers = append(j.layers, sp)
		}
	}
	traced := 0
	for i, rec := range res.jobs {
		j := jobs[i]
		if !rec.traced {
			if j != nil {
				t.Errorf("untraced job %d has spans", i)
			}
			continue
		}
		traced++
		if j == nil || j.span.Cat != "job" {
			t.Fatalf("traced job %d has no job span", i)
		}
		end := j.span.Start + j.span.Dur
		var layers time.Duration
		for _, l := range j.layers {
			if l.Start < j.span.Start || l.Start+l.Dur > end {
				t.Errorf("job %d: %s span [%v, %v] outside the job span [%v, %v]", i, l.Name, l.Start, l.Start+l.Dur, j.span.Start, end)
			}
			layers += l.Dur
		}
		self := rec.wall - rec.layers
		if diff := math.Abs(float64(layers + self - j.span.Dur)); diff > 0.01*float64(j.span.Dur) {
			t.Errorf("job %d: layer spans %v + self %v = %v, job span %v", i, layers, self, layers+self, j.span.Dur)
		}
	}
	if traced == 0 {
		t.Error("traced run recorded no traced job")
	}
}

// TestExpected recomputes every job position's verified output for the
// pinned seeds and compares it with expected/; -update rewrites the
// files instead.
func TestExpected(t *testing.T) {
	for _, seed := range pinnedSeeds {
		all := map[string][]any{}
		for _, w := range workloads {
			inst, err := w.setup(seed)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, w.name, err)
			}
			for pos := 0; pos < w.cycle; pos++ {
				out, _, err := inst.job(pos, &probe{})
				if err != nil {
					t.Fatalf("seed %d %s position %d: %v", seed, w.name, pos, err)
				}
				if err := inst.verify(pos, out); err != nil {
					t.Fatalf("seed %d %s position %d: %v", seed, w.name, pos, err)
				}
				all[w.name] = append(all[w.name], out)
			}
		}
		if *update {
			b, err := json.MarshalIndent(all, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(expectedPath(seed), append(b, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		for _, w := range workloads {
			expected, err := pinnedFor(seed, w.name)
			if err != nil || expected == nil {
				t.Fatalf("seed %d %s: no pinned outputs (%v)", seed, w.name, err)
			}
			for pos, got := range all[w.name] {
				if err := matchPinned(expected, pos, got); err != nil {
					t.Error(fmt.Errorf("seed %d %s position %d: %w", seed, w.name, pos, err))
				}
			}
		}
	}
}

// TestReferenceAllocs checks that the host-speed reference allocates
// nothing, so alloc_mb_per_job does not count it.
func TestReferenceAllocs(t *testing.T) {
	r := newReference()
	if n := testing.AllocsPerRun(3, func() { r.run() }); n != 0 {
		t.Errorf("reference.run allocates %v times per run", n)
	}
}
