// Package benchdiff pairs benchmarks across two BENCH_*.json suites
// (the scripts/bench_core.sh output format) and decides, per
// benchmark, whether the new run regressed. The decision is
// noise-aware: when both sides carry repeated measurements of the
// same benchmark (go test -count N leaves repeated names, which the
// parser groups into per-iteration samples), a Mann-Whitney U test
// must agree with the threshold before a delta counts; with single
// measurements only the relative threshold applies. The comparison
// renders as a markdown delta table — empty when nothing significant
// moved — and the package also maintains BENCH_history.jsonl, an
// append-only log of manifest-stamped suite records for tracking
// drift across commits.
package benchdiff

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"

	"repro/internal/telemetry"
)

// Benchmark is one measured benchmark in a suite document.
type Benchmark struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// Suite is one BENCH_*.json document. Repeated benchmark names (from
// go test -count N) are legal and become per-iteration samples.
type Suite struct {
	Suite      string              `json:"suite"`
	Benchtime  string              `json:"benchtime,omitempty"`
	Manifest   *telemetry.Manifest `json:"manifest,omitempty"`
	Benchmarks []Benchmark         `json:"benchmarks"`
}

// ReadSuite parses a suite document from disk.
func ReadSuite(path string) (*Suite, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Suite
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("benchdiff: %s: %w", path, err)
	}
	if len(s.Benchmarks) == 0 {
		return nil, fmt.Errorf("benchdiff: %s: no benchmarks", path)
	}
	return &s, nil
}

// Filter returns a copy of the suite keeping only benchmarks whose
// name matches re (nil keeps everything). Comparing a focused subset —
// one hot path against its history — uses the same records as a full
// comparison, just restricted.
func (s *Suite) Filter(re *regexp.Regexp) *Suite {
	if re == nil {
		return s
	}
	out := &Suite{Suite: s.Suite, Benchtime: s.Benchtime, Manifest: s.Manifest}
	for _, b := range s.Benchmarks {
		if re.MatchString(b.Name) {
			out.Benchmarks = append(out.Benchmarks, b)
		}
	}
	return out
}

// Series is every measurement of one benchmark name in a suite, in
// document order.
type Series struct {
	Ns     []float64
	Bytes  []float64
	Allocs []float64
}

// Mean of the ns/op samples.
func (s Series) MeanNs() float64 { return mean(s.Ns) }

// Mean of the B/op samples.
func (s Series) MeanBytes() float64 { return mean(s.Bytes) }

// Mean of the allocs/op samples.
func (s Series) MeanAllocs() float64 { return mean(s.Allocs) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Samples groups a suite's benchmarks by name into per-iteration
// sample series.
func (s *Suite) Samples() map[string]*Series {
	out := make(map[string]*Series, len(s.Benchmarks))
	for _, b := range s.Benchmarks {
		sr := out[b.Name]
		if sr == nil {
			sr = &Series{}
			out[b.Name] = sr
		}
		sr.Ns = append(sr.Ns, b.NsPerOp)
		sr.Bytes = append(sr.Bytes, b.BytesPerOp)
		sr.Allocs = append(sr.Allocs, b.AllocsPerOp)
	}
	return out
}

// Options tune the comparison.
type Options struct {
	// NsThreshold is the minimum relative ns/op change that counts;
	// 0 means 0.10 (10%).
	NsThreshold float64
	// AllocThreshold is the minimum relative allocs/op change that
	// counts; 0 means 0.05 (5%).
	AllocThreshold float64
	// BytesThreshold is the minimum relative B/op change that counts;
	// 0 means 0.05 (5%). Bytes regressions matter independently of
	// allocation count: one alloc that doubles in size is invisible to
	// allocs/op.
	BytesThreshold float64
	// Alpha is the Mann-Whitney significance level used when both
	// sides have at least minSamples measurements; 0 means 0.05.
	Alpha float64
}

func (o *Options) normalize() {
	if o.NsThreshold == 0 {
		o.NsThreshold = 0.10
	}
	if o.AllocThreshold == 0 {
		o.AllocThreshold = 0.05
	}
	if o.BytesThreshold == 0 {
		o.BytesThreshold = 0.05
	}
	if o.Alpha == 0 {
		o.Alpha = 0.05
	}
}

// minSamples is the per-side sample count below which the
// Mann-Whitney test has no power at alpha=0.05 (the smallest
// two-sided p with 3v3 is ~0.1) and the comparison falls back to the
// threshold alone.
const minSamples = 4

// Delta is one benchmark's old-vs-new comparison.
type Delta struct {
	Name     string
	OldNs    float64 // mean over samples
	NewNs    float64
	NsRatio  float64 // (new-old)/old; +Inf when old == 0 and new > 0
	OldBytes float64
	NewBytes float64
	// BytesRatio is (new-old)/old for B/op; NaN when old == 0 and
	// new == 0, +Inf when old == 0 and new > 0.
	BytesRatio float64
	OldAllocs  float64
	NewAllocs  float64
	// AllocRatio is (new-old)/old for allocs/op; NaN when old == 0
	// and new == 0, +Inf when old == 0 and new > 0.
	AllocRatio float64
	// P is the Mann-Whitney two-sided p-value over the ns/op samples,
	// or NaN when either side has fewer than minSamples measurements
	// (threshold-only decision).
	P float64
	// Samples reports the per-side ns/op sample counts as "old/new".
	Samples string
	// Regression and Improvement mark significant moves; Metric names
	// the series that triggered ("ns/op", "allocs/op", or "B/op").
	Regression  bool
	Improvement bool
	Metric      string
}

func ratio(old, new float64) float64 {
	switch {
	case old != 0:
		return (new - old) / old
	case new != 0:
		return math.Inf(1)
	default:
		return math.NaN()
	}
}

// exceeds reports whether r is a significant move beyond threshold in
// either direction (NaN never is, +Inf always is).
func exceeds(r, threshold float64) bool {
	return !math.IsNaN(r) && math.Abs(r) > threshold
}

// Compare pairs benchmarks by name and returns one Delta per name
// present in both suites, sorted by name. Benchmarks present on only
// one side are ignored (suites evolve; adding a benchmark is not a
// regression).
func Compare(oldS, newS *Suite, opts Options) []Delta {
	opts.normalize()
	oldM, newM := oldS.Samples(), newS.Samples()
	names := make([]string, 0, len(oldM))
	for name := range oldM {
		if _, ok := newM[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	out := make([]Delta, 0, len(names))
	for _, name := range names {
		o, n := oldM[name], newM[name]
		d := Delta{
			Name:      name,
			OldNs:     o.MeanNs(),
			NewNs:     n.MeanNs(),
			OldBytes:  o.MeanBytes(),
			NewBytes:  n.MeanBytes(),
			OldAllocs: o.MeanAllocs(),
			NewAllocs: n.MeanAllocs(),
			P:         math.NaN(),
			Samples:   fmt.Sprintf("%d/%d", len(o.Ns), len(n.Ns)),
		}
		d.NsRatio = ratio(d.OldNs, d.NewNs)
		d.BytesRatio = ratio(d.OldBytes, d.NewBytes)
		d.AllocRatio = ratio(d.OldAllocs, d.NewAllocs)

		nsMove := exceeds(d.NsRatio, opts.NsThreshold)
		if nsMove && len(o.Ns) >= minSamples && len(n.Ns) >= minSamples {
			d.P = MannWhitneyP(o.Ns, n.Ns)
			if d.P >= opts.Alpha {
				nsMove = false // large-looking delta, but within run-to-run noise
			}
		}
		allocMove := exceeds(d.AllocRatio, opts.AllocThreshold)
		bytesMove := exceeds(d.BytesRatio, opts.BytesThreshold)

		switch {
		case nsMove:
			d.Metric = "ns/op"
			d.Regression = d.NsRatio > 0
			d.Improvement = !d.Regression
		case allocMove:
			d.Metric = "allocs/op"
			d.Regression = d.AllocRatio > 0
			d.Improvement = !d.Regression
		case bytesMove:
			d.Metric = "B/op"
			d.Regression = d.BytesRatio > 0
			d.Improvement = !d.Regression
		}
		out = append(out, d)
	}
	return out
}

// Regressions filters deltas down to significant regressions.
func Regressions(deltas []Delta) []Delta {
	var out []Delta
	for _, d := range deltas {
		if d.Regression {
			out = append(out, d)
		}
	}
	return out
}

func fmtRatio(r float64) string {
	switch {
	case math.IsNaN(r):
		return "~"
	case math.IsInf(r, 1):
		return "+inf"
	default:
		return fmt.Sprintf("%+.1f%%", 100*r)
	}
}

func fmtP(p float64) string {
	if math.IsNaN(p) {
		return "-"
	}
	return fmt.Sprintf("%.3f", p)
}

func fmtNs(ns float64) string {
	switch {
	case ns >= 1e6:
		return fmt.Sprintf("%.3gms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.3gµs", ns/1e3)
	default:
		return fmt.Sprintf("%.3gns", ns)
	}
}

// WriteMarkdown renders the delta table. Only significant rows
// (regressions and improvements) appear unless all is set; with no
// rows to show it writes a single "no significant deltas" line and no
// table at all, so an identical-input comparison reads as exactly
// that.
func WriteMarkdown(w io.Writer, deltas []Delta, all bool) error {
	rows := deltas
	if !all {
		rows = nil
		for _, d := range deltas {
			if d.Regression || d.Improvement {
				rows = append(rows, d)
			}
		}
	}
	if len(rows) == 0 {
		_, err := fmt.Fprintf(w, "No significant deltas across %d paired benchmarks.\n", len(deltas))
		return err
	}
	var b strings.Builder
	b.WriteString("| benchmark | old ns/op | new ns/op | Δns | p | B Δ | allocs Δ | samples | verdict |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|---|\n")
	for _, d := range rows {
		verdict := "ok"
		if d.Regression {
			verdict = "**REGRESSION** (" + d.Metric + ")"
		} else if d.Improvement {
			verdict = "improvement (" + d.Metric + ")"
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %s | %s | %s | %s | %s |\n",
			d.Name, fmtNs(d.OldNs), fmtNs(d.NewNs), fmtRatio(d.NsRatio),
			fmtP(d.P), fmtRatio(d.BytesRatio), fmtRatio(d.AllocRatio), d.Samples, verdict)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
