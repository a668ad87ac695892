package telemetry

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestNewManifestStampsEnvironment(t *testing.T) {
	m := NewManifest("pqbench")
	if m.Tool != "pqbench" {
		t.Errorf("Tool = %q", m.Tool)
	}
	if m.GoVersion != runtime.Version() || m.OS != runtime.GOOS || m.Arch != runtime.GOARCH {
		t.Errorf("toolchain fields: %q %q %q", m.GoVersion, m.OS, m.Arch)
	}
	if m.CPUs <= 0 || m.GOMAXPROCS <= 0 {
		t.Errorf("CPUs = %d, GOMAXPROCS = %d, want > 0", m.CPUs, m.GOMAXPROCS)
	}
	if m.Started == "" {
		t.Error("Started empty")
	}
}

func TestManifestGitSHAEnvFallback(t *testing.T) {
	t.Setenv("REPRO_GIT_SHA", "feedface0000")
	m := NewManifest("t")
	// The env var only fills in when the toolchain did not stamp a
	// revision (test binaries normally are not stamped).
	if m.GitSHA == "" {
		t.Error("GitSHA empty despite REPRO_GIT_SHA")
	}
}

func TestManifestCaptureFlagsSeedsModels(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.Int("inserts", 20000, "")
	fs.String("experiment", "all", "")
	if err := fs.Parse([]string{"-inserts", "5"}); err != nil {
		t.Fatal(err)
	}
	m := NewManifest("t").CaptureFlags(fs).Seed("seed", 42).ModelGrid(core.Models...)
	if m.Flags["inserts"] != "5" || m.Flags["experiment"] != "all" {
		t.Errorf("Flags = %v, want parsed value and default", m.Flags)
	}
	if got := m.FlagsSorted(); got[0] != "experiment=all" || got[1] != "inserts=5" {
		t.Errorf("FlagsSorted = %v", got)
	}
	if m.Seeds["seed"] != 42 {
		t.Errorf("Seeds = %v", m.Seeds)
	}
	if len(m.Models) != len(core.Models) || m.Models[0] != "strict" {
		t.Errorf("Models = %v", m.Models)
	}
}

func TestManifestStringTruncatesSHA(t *testing.T) {
	m := &Manifest{Tool: "x", GitSHA: "0123456789abcdef0123", GitDirty: true}
	s := m.String()
	if !strings.Contains(s, "git=0123456789ab+dirty") {
		t.Errorf("String() = %q", s)
	}
	if strings.Contains(s, "0123456789abc") {
		t.Errorf("SHA not truncated to 12: %q", s)
	}
}

func TestWriteMetricsJSONEmbedsManifest(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("items_total").Add(7)
	m := NewManifest("t").Seed("seed", 1)
	path := filepath.Join(t.TempDir(), "metrics.json")
	if err := WriteMetrics(reg, m, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Manifest *Manifest        `json:"manifest"`
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, data)
	}
	if doc.Manifest == nil || doc.Manifest.Tool != "t" || doc.Manifest.Seeds["seed"] != 1 {
		t.Errorf("manifest = %+v", doc.Manifest)
	}
	if doc.Counters["items_total"] != 7 {
		t.Errorf("counters = %v", doc.Counters)
	}
}

func TestWriteMetricsPrometheusInfoMetric(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("items_total").Add(7)
	m := NewManifest("t")
	m.GitSHA = "abc"
	path := filepath.Join(t.TempDir(), "metrics.prom")
	if err := WriteMetrics(reg, m, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	if !strings.Contains(text, `run_info{`) || !strings.Contains(text, `git_sha="abc"`) {
		t.Errorf("missing run_info gauge:\n%s", text)
	}
	if !strings.Contains(text, "items_total 7") {
		t.Errorf("missing counter:\n%s", text)
	}
}

func TestWriteSpansRoundTrip(t *testing.T) {
	spans := NewSpanTracer(nil)
	spans.Start("sweep", "item").End()
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := WriteSpans(path, NewManifest("t"), spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
		Metadata    struct {
			Manifest *Manifest `json:"manifest"`
		} `json:"metadata"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, data)
	}
	if len(doc.TraceEvents) == 0 || doc.Metadata.Manifest == nil {
		t.Errorf("span document missing events or manifest:\n%s", data)
	}
}

// TestWritersReportFailures pins the error contract of the shared file
// writers: a path that cannot be created, or a device that rejects the
// write, is reported rather than swallowed.
func TestWritersReportFailures(t *testing.T) {
	paths := []string{filepath.Join(t.TempDir(), "missing", "out.json")}
	if _, err := os.Stat("/dev/full"); err == nil {
		paths = append(paths, "/dev/full")
	}
	for _, path := range paths {
		if err := WriteMetrics(NewRegistry(), NewManifest("t"), path); err == nil {
			t.Errorf("WriteMetrics(%s) reported success", path)
		}
		if err := WriteSpans(path, NewManifest("t"), NewSpanTracer(nil)); err == nil {
			t.Errorf("WriteSpans(%s) reported success", path)
		}
	}
}
