package persistcheck

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
)

// Kind enumerates the checker's analyses.
type Kind uint8

const (
	// EpochRace: conflicting persist epochs left mutually unordered
	// under the model although SC orders them (§5.2).
	EpochRace Kind = iota
	// UnpersistedPublication: a publication persist not ordered after
	// the data it publishes.
	UnpersistedPublication
	// RedundantBarrier: an annotation inducing no new constraint edge.
	RedundantBarrier
	// UnboundRead: an order-critical persistent load whose dependence is
	// not bound (or was discarded) before the thread's next persist.
	UnboundRead
	// UnprotectedMetadata: declared recovery metadata (a publication
	// word or order-after region) not covered by any Protected extent —
	// no CRC frame, shadow checksum, or durable word guards it, so one
	// silent bit flip there re-frames the structure with a clean
	// recovery report.
	UnprotectedMetadata
)

// String returns the analysis name used in reports and metrics.
func (k Kind) String() string {
	switch k {
	case EpochRace:
		return "epoch-race"
	case UnpersistedPublication:
		return "unpersisted-publication"
	case RedundantBarrier:
		return "redundant-barrier"
	case UnboundRead:
		return "unbound-read"
	case UnprotectedMetadata:
		return "unprotected-metadata"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Severity classifies findings.
type Severity uint8

const (
	// Hazard findings describe recovery-visible misbehavior: a crash
	// state the model admits that breaks a recovery invariant or
	// diverges from every SC-consistent state.
	Hazard Severity = iota
	// Perf findings describe pure execution cost with no correctness
	// impact (redundant barriers).
	Perf
	// Robustness findings describe exposure to *media* faults rather
	// than ordering bugs: the persistency annotations are sound, but a
	// silent bit error in the flagged metadata would go undetected.
	// Separate from Hazard so the ordering-correctness gates stay
	// meaningful on the plain (non-integrity) formats; opt into failing
	// on these with `persistcheck -require-integrity`.
	Robustness
)

// String returns the severity name.
func (s Severity) String() string {
	switch s {
	case Perf:
		return "perf"
	case Robustness:
		return "robustness"
	default:
		return "hazard"
	}
}

// Finding is one checker result.
type Finding struct {
	Kind     Kind
	Severity Severity
	// Msg is the one-line human description.
	Msg string
	// Site is the telemetry attribution site, when a SiteLabel is
	// configured.
	Site string
	// TID is the thread the finding is attributed to.
	TID int32
	// Seq is the trace position the finding anchors to (the later
	// persist of a witness pair, or the annotation event).
	Seq uint64
	// WitnessA and WitnessB hold a hazard's witness persist pair as
	// graph node ids: A precedes B in SC order, but the model graph has
	// no path A→B. Both are -1 for findings without a pair (Perf).
	WitnessA, WitnessB graph.NodeID
	// Cut is the divergent crash state exhibiting B without A (empty
	// for Perf findings). It is read-only: findings may share one cut
	// (every unprotected-metadata finding of a report holds the same
	// full cut), so a caller that changes it clones it first.
	Cut graph.Cut
	// Repro is the fault-campaign replay line for Cut ("" unless
	// Config.ReproParams was set).
	Repro string
}

// String renders the finding as one report line.
func (f Finding) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s: %s", f.Severity, f.Kind, f.Msg)
	if f.Site != "" {
		fmt.Fprintf(&b, " [site %s]", f.Site)
	}
	if f.Repro != "" {
		fmt.Fprintf(&b, "\n  repro: %s", f.Repro)
	}
	return b.String()
}

// Report aggregates one Check run.
type Report struct {
	Model    core.Model
	Events   int
	Persists int
	// Findings holds up to Config.Limit findings per kind, in analysis
	// order.
	Findings []Finding
	// Counts holds the total number of findings per kind, including
	// those dropped by the limit.
	Counts map[Kind]int
	// Skipped lists analyses not applicable under the model (e.g. the
	// epoch-race detector under strict persistency), with reasons.
	Skipped []string

	stored map[Kind]int
}

func (r *Report) add(f Finding, limit int) {
	if r.keep(f.Kind, limit) {
		r.Findings = append(r.Findings, f)
	}
}

// keep counts one finding of kind k and reports whether the kind is
// still under its storage limit, in which case the caller stores it.
func (r *Report) keep(k Kind, limit int) bool {
	r.Counts[k]++
	if r.stored == nil {
		r.stored = make(map[Kind]int)
	}
	if r.stored[k] >= limit {
		return false
	}
	r.stored[k]++
	return true
}

func (r *Report) skip(format string, args ...any) {
	r.Skipped = append(r.Skipped, fmt.Sprintf(format, args...))
}

// SortFindings reorders stored findings into a canonical order — by
// attribution site, then divergent-cut key, then kind, then trace
// position — instead of analysis discovery order. CLIs sort before
// printing so multi-model output stays byte-identical across sweep
// worker counts; package callers keep analysis order unless they ask.
func (r *Report) SortFindings() {
	sort.SliceStable(r.Findings, func(i, j int) bool {
		a, b := r.Findings[i], r.Findings[j]
		if a.Site != b.Site {
			return a.Site < b.Site
		}
		if c := compareCuts(a.Cut, b.Cut); c != 0 {
			return c < 0
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Seq < b.Seq
	})
}

// compareCuts orders cuts by size, then lexicographically on the
// inclusion vector (excluded before included).
func compareCuts(a, b graph.Cut) int {
	if len(a.Included) != len(b.Included) {
		return len(a.Included) - len(b.Included)
	}
	for i := range a.Included {
		if a.Included[i] != b.Included[i] {
			if b.Included[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Hazards returns the number of hazard-severity findings (total, not
// capped by the storage limit).
func (r *Report) Hazards() int {
	n := 0
	for k, c := range r.Counts {
		if kindSeverity(k) == Hazard {
			n += c
		}
	}
	return n
}

// PerfFindings returns the number of perf-severity findings.
func (r *Report) PerfFindings() int {
	n := 0
	for k, c := range r.Counts {
		if kindSeverity(k) == Perf {
			n += c
		}
	}
	return n
}

// RobustnessFindings returns the number of robustness-severity
// findings (unprotected recovery metadata).
func (r *Report) RobustnessFindings() int {
	n := 0
	for k, c := range r.Counts {
		if kindSeverity(k) == Robustness {
			n += c
		}
	}
	return n
}

func kindSeverity(k Kind) Severity {
	switch k {
	case RedundantBarrier:
		return Perf
	case UnprotectedMetadata:
		return Robustness
	default:
		return Hazard
	}
}

// String renders the full report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "persistcheck: model=%s events=%d persists=%d hazards=%d perf=%d robustness=%d\n",
		r.Model, r.Events, r.Persists, r.Hazards(), r.PerfFindings(), r.RobustnessFindings())
	for _, s := range r.Skipped {
		fmt.Fprintf(&b, "  (skipped: %s)\n", s)
	}
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "  %s\n", strings.ReplaceAll(f.String(), "\n", "\n  "))
	}
	for _, k := range []Kind{EpochRace, UnpersistedPublication, RedundantBarrier, UnboundRead, UnprotectedMetadata} {
		if dropped := r.Counts[k] - r.stored[k]; dropped > 0 {
			fmt.Fprintf(&b, "  ... %d more %s finding(s) not shown\n", dropped, k)
		}
	}
	return b.String()
}
