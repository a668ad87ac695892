// Command benchmark is the repository's end-to-end benchmark: closed-loop
// pipeline jobs over the public entry points of exec, core, bench, graph,
// persistcheck and exhaustive, timed from outside, with every job's
// output checked.
//
// Usage (see README.md):
//
//	bash benchmark/run.sh -seed 42
//	bash benchmark/run.sh -workload kv-read -seed 7 -seconds 20 -trace 0
//
// With -workload, one workload runs in this process. -trace 0 reports
// the end-to-end metrics, -trace 1 the per-layer metrics and writes the
// run's spans as a Chrome trace under -out. The last line of standard
// output is one JSON object: correct, attempted, failed and metrics.
//
// Without -workload, every workload runs in a child process of its own
// (so peak RSS is per workload), once untraced and once traced; the
// tables go to standard output and the combined results to
// -out/summary-seed<N>.json.
//
// Exit status is 0 when every job's output was correct, 1 when a job
// failed or the run could not complete, 2 on bad flags.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/telemetry"
)

// resultLine is the machine-readable result of one run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *runResult) line() resultLine {
	l := resultLine{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range r.metrics {
		l.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	return l
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload in this process; empty runs all, each in a child process")
		seed    = flag.Int64("seed", 42, "workload input seed")
		seconds = flag.Float64("seconds", 15, "timed-loop length per run, in seconds")
		trace   = flag.Int("trace", 0, "with -workload: 0 reports end-to-end metrics, 1 per-layer metrics from a traced run")
		out     = flag.String("out", ".bench_out", "directory for span traces and the summary")
	)
	flag.Parse()
	if flag.NArg() > 0 || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: want -trace 0|1, -seconds > 0 and no positional arguments")
		flag.Usage()
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, setups: defaultSetups}
	if *name == "" {
		os.Exit(runAll(cfg, *out))
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	// One closed-loop client on one P, and every library pool has one
	// worker. A second P made every workload but queue-table1 slower, and
	// all of them noisier: the simulated threads of exec hand off over
	// channels, and with two Ps a hand-off, like the GC, can wake the
	// other CPU.
	runtime.GOMAXPROCS(1)
	man := telemetry.NewManifest("benchmark").CaptureFlags(flag.CommandLine).Seed("seed", *seed)
	fmt.Fprintln(os.Stderr, man.String())
	os.Exit(runOne(w, cfg, *out, man))
}

// runOne runs one workload and prints its result line last.
func runOne(w workloadDef, cfg runConfig, out string, man *telemetry.Manifest) int {
	res, err := runWorkload(w, cfg, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if cfg.trace {
		if err := writeSpans(res, filepath.Join(out, fmt.Sprintf("%s-seed%d.spans.json", w.name, cfg.seed)), man); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	for _, m := range res.metrics {
		fmt.Fprintf(os.Stderr, "%s %-30s %14.6g %s\n", w.name, m.name, m.value, m.unit)
	}
	var slow []float64
	for _, j := range res.jobs {
		slow = append(slow, j.slowdown)
	}
	fmt.Fprintf(os.Stderr, "%s host slowdown, median over jobs: %.3f (end-to-end times are divided by it to the power %g)\n", w.name, median(slow), w.sensitivity)
	b, err := json.Marshal(res.line())
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(b))
	if !res.correct {
		return 1
	}
	return 0
}

func writeSpans(res *runResult, path string, man *telemetry.Manifest) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.EncodeChromeTraceDoc(f, man, res.spans); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchmark: wrote %d spans to %s\n", res.spans.Len(), path)
	return nil
}

// workloadSummary is one workload's entry in the summary file.
type workloadSummary struct {
	Untraced resultLine `json:"untraced"`
	Traced   resultLine `json:"traced"`
	// FailRatio is failed ÷ attempted over both runs.
	FailRatio float64 `json:"fail_ratio"`
}

// runAll runs every workload untraced and traced, each in a child
// process of this binary, and prints one table per workload.
func runAll(cfg runConfig, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	summary := map[string]workloadSummary{}
	status := 0
	for _, w := range workloads {
		var s workloadSummary
		for _, trace := range []string{"0", "1"} {
			traced := trace == "1"
			line, err := runChild(self, []string{
				"-workload", w.name, "-seed", strconv.FormatInt(cfg.seed, 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
				"-trace", trace, "-out", out,
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
				status = 1
			}
			if traced {
				s.Traced = line
			} else {
				s.Untraced = line
			}
			if !line.Correct {
				status = 1
			}
		}
		attempted := s.Untraced.Attempted + s.Traced.Attempted
		s.FailRatio = ratio(float64(s.Untraced.Failed+s.Traced.Failed), float64(attempted))
		if attempted == 0 {
			s.FailRatio = 1
		}
		summary[w.name] = s
		printSummary(w, s)
	}
	path := filepath.Join(out, fmt.Sprintf("summary-seed%d.json", cfg.seed))
	if err := writeJSON(path, summary); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("wrote %s\n", path)
	return status
}

// runChild runs one workload in a child process and parses its last
// output line.
func runChild(self string, args []string) (resultLine, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	var line resultLine
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		if runErr != nil {
			return line, runErr
		}
		return line, fmt.Errorf("no result line: %w", err)
	}
	return line, runErr
}

func printSummary(w workloadDef, s workloadSummary) {
	fmt.Printf("== %s: %s\n", w.name, w.why)
	fmt.Printf("   jobs: %d untraced, %d traced; fail_ratio %g\n", s.Untraced.Attempted, s.Traced.Attempted, s.FailRatio)
	for _, group := range []struct {
		catalog []metric
		line    resultLine
	}{{endToEnd, s.Untraced}, {perLayer, s.Traced}} {
		for _, m := range group.catalog {
			if v, ok := group.line.Metrics[m.name]; ok {
				fmt.Printf("   %-30s %14.6g %s\n", m.name, v.Value, v.Unit)
			}
		}
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
