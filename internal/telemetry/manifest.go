package telemetry

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
)

// Manifest is the provenance record of one harness run: which binary,
// built from which commit, ran on what machine, with which flags,
// seeds, and model grid. Every CLI stamps one at startup and embeds it
// in every JSON artifact it writes (experiment reports, metrics
// snapshots, Chrome traces, campaign summaries, BENCH_history.jsonl
// records), so a number in an artifact can always be traced back to
// the exact configuration that produced it.
type Manifest struct {
	// Tool is the producing command ("pqbench", "crashsim", ...).
	Tool string `json:"tool"`
	// Started is the run's wall-clock start in RFC 3339 (UTC).
	Started string `json:"started"`
	// GitSHA is the VCS revision the binary was built from, when the
	// toolchain stamped one (go build from a checkout); the
	// REPRO_GIT_SHA environment variable overrides it for `go run` and
	// CI invocations the toolchain does not stamp. GitDirty reports
	// uncommitted changes at build time.
	GitSHA   string `json:"git_sha,omitempty"`
	GitDirty bool   `json:"git_dirty,omitempty"`
	// GoVersion/OS/Arch identify the toolchain and platform.
	GoVersion string `json:"go_version"`
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	// CPUs is the machine's logical CPU count; GOMAXPROCS is the
	// scheduler parallelism the run actually had (the sweep engine's
	// default worker count).
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Hostname   string `json:"hostname,omitempty"`
	// Args echoes the raw command line; Flags is the full effective
	// flag set after parsing (defaults included), keyed by flag name.
	Args  []string          `json:"args,omitempty"`
	Flags map[string]string `json:"flags,omitempty"`
	// Seeds records every seed the run consumed, keyed by role.
	Seeds map[string]int64 `json:"seeds,omitempty"`
	// Models is the persistency-model grid the run simulated.
	Models []string `json:"models,omitempty"`
}

// NewManifest stamps a manifest for the named tool from the build info
// and the current process environment.
func NewManifest(tool string) *Manifest {
	m := &Manifest{
		Tool:       tool,
		Started:    time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if host, err := os.Hostname(); err == nil {
		m.Hostname = host
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				m.GitSHA = s.Value
			case "vcs.modified":
				m.GitDirty = s.Value == "true"
			}
		}
	}
	if sha := os.Getenv("REPRO_GIT_SHA"); sha != "" && m.GitSHA == "" {
		m.GitSHA = sha
	}
	if len(os.Args) > 1 {
		m.Args = append([]string(nil), os.Args[1:]...)
	}
	return m
}

// CaptureFlags records every flag's effective (post-Parse) value. Call
// it with flag.CommandLine after flag.Parse to capture the full flag
// set, defaults included.
func (m *Manifest) CaptureFlags(fs *flag.FlagSet) *Manifest {
	if m.Flags == nil {
		m.Flags = make(map[string]string)
	}
	fs.VisitAll(func(f *flag.Flag) { m.Flags[f.Name] = f.Value.String() })
	return m
}

// Seed records one named seed (e.g. "seed", "sampling").
func (m *Manifest) Seed(name string, v int64) *Manifest {
	if m.Seeds == nil {
		m.Seeds = make(map[string]int64)
	}
	m.Seeds[name] = v
	return m
}

// ModelGrid records the persistency models the run simulates.
func (m *Manifest) ModelGrid(models ...core.Model) *Manifest {
	m.Models = m.Models[:0]
	for _, mo := range models {
		m.Models = append(m.Models, mo.String())
	}
	return m
}

// String renders the one-line human-readable form CLIs print in their
// headers.
func (m *Manifest) String() string {
	sha := m.GitSHA
	if len(sha) > 12 {
		sha = sha[:12]
	}
	if sha == "" {
		sha = "unknown"
	}
	if m.GitDirty {
		sha += "+dirty"
	}
	return fmt.Sprintf("%s git=%s %s %s/%s cpus=%d gomaxprocs=%d started=%s",
		m.Tool, sha, m.GoVersion, m.OS, m.Arch, m.CPUs, m.GOMAXPROCS, m.Started)
}

// InfoMetric publishes the manifest as a Prometheus info-style gauge
// (`run_info{...} 1`), the idiomatic way to carry build/run metadata in
// the text exposition where nested JSON cannot.
func (m *Manifest) InfoMetric(reg *Registry) {
	reg.SetHelp("run_info", "run manifest: constant 1 gauge carrying provenance labels")
	reg.Gauge(Label("run_info",
		"tool", m.Tool,
		"git_sha", m.GitSHA,
		"go_version", m.GoVersion,
		"os", m.OS,
		"arch", m.Arch,
		"gomaxprocs", fmt.Sprint(m.GOMAXPROCS),
	)).Set(1)
}

// manifestSnapshot is the JSON metrics document: the registry snapshot
// with the run manifest alongside it.
type manifestSnapshot struct {
	Manifest *Manifest `json:"manifest,omitempty"`
	Snapshot
}

// WriteMetrics snapshots reg to path with the manifest embedded: paths
// ending in .prom or .txt get the Prometheus text exposition (manifest
// as a run_info gauge), everything else an indented JSON document with
// a top-level "manifest" key. A nil manifest writes the bare snapshot.
// This is the single metrics-writing path shared by all CLIs.
func WriteMetrics(reg *Registry, m *Manifest, path string) error {
	return writeFile(path, func(w io.Writer) error {
		if strings.HasSuffix(path, ".prom") || strings.HasSuffix(path, ".txt") {
			if m != nil {
				m.InfoMetric(reg)
			}
			return reg.WritePrometheus(w)
		}
		if m == nil {
			return reg.WriteJSON(w)
		}
		return writeIndentedJSON(w, manifestSnapshot{Manifest: m, Snapshot: reg.Snapshot()})
	})
}

// WriteSpans exports the wall-clock span trace to path as a Chrome
// trace-event document with the manifest embedded. It is the single
// span-writing path shared by all CLIs.
func WriteSpans(path string, m *Manifest, spans *SpanTracer) error {
	return writeFile(path, func(w io.Writer) error {
		return EncodeChromeTraceDoc(w, m, spans)
	})
}

// writeFile creates path and runs write on it. The file's Close error
// is returned too: it is the one report of a failed final flush.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeIndentedJSON encodes v indented with a trailing newline, the
// same shape Registry.WriteJSON emits.
func writeIndentedJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// FlagsSorted returns "name=value" pairs sorted by flag name — a
// deterministic rendering for logs and tests.
func (m *Manifest) FlagsSorted() []string {
	out := make([]string, 0, len(m.Flags))
	for k, v := range m.Flags {
		out = append(out, k+"="+v)
	}
	sort.Strings(out)
	return out
}
