package bench

import (
	"encoding/json"
	"io"

	"repro/internal/telemetry"
)

// Machine-readable run reports: every experiment's rows rendered as a
// stable JSON document (pqbench -json, and the checked-in
// BENCH_table1.json artifact). Enum-typed fields serialize as their
// string names so the documents survive enum renumbering.

// Report is the JSON envelope for one experiment run.
type Report struct {
	// Experiment names the experiment (pqbench -experiment value).
	Experiment string `json:"experiment"`
	// Manifest records the run's provenance (git SHA, toolchain,
	// flags, seeds, model grid) when the producing CLI attached one.
	Manifest *telemetry.Manifest `json:"manifest,omitempty"`
	// Config echoes the experiment's effective configuration.
	Config any `json:"config,omitempty"`
	// Rows holds the experiment's per-configuration results.
	Rows any `json:"rows"`
}

// WithManifest attaches a run manifest to the report and returns it.
func (r *Report) WithManifest(m *telemetry.Manifest) *Report {
	r.Manifest = m
	return r
}

// WriteJSON writes the report, indented, with a trailing newline.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

type table1RowJSON struct {
	Design       string  `json:"design"`
	Policy       string  `json:"policy"`
	Model        string  `json:"model"`
	Threads      int     `json:"threads"`
	Persists     int64   `json:"persists"`
	Placed       int64   `json:"placed"`
	Coalesced    int64   `json:"coalesced"`
	CriticalPath int64   `json:"critical_path"`
	InstrRate    float64 `json:"instr_rate_per_s"`
	PersistRate  float64 `json:"persist_rate_per_s"`
	Normalized   float64 `json:"normalized"`
}

// Table1Report wraps Table 1 rows for JSON output.
func Table1Report(cfg Table1Config, rows []Table1Row) *Report {
	cfg.normalize()
	out := make([]table1RowJSON, 0, len(rows))
	for _, r := range rows {
		out = append(out, table1RowJSON{
			Design:       r.Design.String(),
			Policy:       r.Policy.String(),
			Model:        r.Policy.Model().String(),
			Threads:      r.Threads,
			Persists:     r.Result.Persists,
			Placed:       r.Result.Placed,
			Coalesced:    r.Result.Coalesced,
			CriticalPath: r.CriticalPath,
			InstrRate:    r.InstrRate,
			PersistRate:  r.PersistRate,
			Normalized:   r.Normalized,
		})
	}
	return &Report{
		Experiment: "table1",
		Config: map[string]any{
			"inserts":     cfg.Inserts,
			"payload_len": cfg.PayloadLen,
			"threads":     cfg.Threads,
			"latency_ns":  cfg.Latency.Nanoseconds(),
			"seed":        cfg.Seed,
			"instr_rate":  cfg.InstrRate,
		},
		Rows: out,
	}
}

type fig2RowJSON struct {
	Policy       string `json:"policy"`
	Model        string `json:"model"`
	Persists     int    `json:"persists"`
	ProgramOrder int    `json:"program_order_edges"`
	Atomicity    int    `json:"atomicity_edges"`
	Conflict     int    `json:"conflict_edges"`
	CriticalPath int64  `json:"critical_path"`
}

// Fig2Report wraps Figure 2 rows for JSON output.
func Fig2Report(rows []Fig2Row) *Report {
	out := make([]fig2RowJSON, 0, len(rows))
	for _, r := range rows {
		out = append(out, fig2RowJSON{
			Policy: r.Policy.String(), Model: r.Model.String(),
			Persists: r.Persists, ProgramOrder: r.ProgramOrder,
			Atomicity: r.Atomicity, Conflict: r.Conflict,
			CriticalPath: r.CriticalPath,
		})
	}
	return &Report{Experiment: "fig2", Rows: out}
}

type fig3PointJSON struct {
	LatencyNS    int64   `json:"latency_ns"`
	Policy       string  `json:"policy"`
	Model        string  `json:"model"`
	RatePerS     float64 `json:"rate_per_s"`
	PersistBound bool    `json:"persist_bound"`
}

// Fig3Report wraps Figure 3 points for JSON output.
func Fig3Report(points []Fig3Point) *Report {
	out := make([]fig3PointJSON, 0, len(points))
	for _, p := range points {
		out = append(out, fig3PointJSON{
			LatencyNS: p.Latency.Nanoseconds(),
			Policy:    p.Policy.String(), Model: p.Model.String(),
			RatePerS: p.Rate, PersistBound: p.PersistBound,
		})
	}
	return &Report{Experiment: "fig3", Rows: out}
}

type granPointJSON struct {
	Granularity   uint64  `json:"granularity"`
	Policy        string  `json:"policy"`
	Model         string  `json:"model"`
	PathPerInsert float64 `json:"path_per_insert"`
}

// GranReport wraps a granularity sweep (Figures 4 and 5); experiment is
// "fig4" or "fig5".
func GranReport(experiment string, points []GranPoint) *Report {
	out := make([]granPointJSON, 0, len(points))
	for _, p := range points {
		out = append(out, granPointJSON{
			Granularity: p.Granularity,
			Policy:      p.Policy.String(), Model: p.Model.String(),
			PathPerInsert: p.PathPerInsert,
		})
	}
	return &Report{Experiment: experiment, Rows: out}
}

type windowPointJSON struct {
	Window        int64   `json:"window"`
	PathPerInsert float64 `json:"path_per_insert"`
	Coalesced     int64   `json:"coalesced"`
}

// WindowReport wraps the coalescing-window ablation for JSON output.
func WindowReport(points []WindowPoint) *Report {
	out := make([]windowPointJSON, 0, len(points))
	for _, p := range points {
		out = append(out, windowPointJSON{Window: p.Window, PathPerInsert: p.PathPerInsert, Coalesced: p.Coalesced})
	}
	return &Report{Experiment: "window", Rows: out}
}
