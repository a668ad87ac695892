package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
)

// Chrome trace-event export (the JSON format Perfetto and
// chrome://tracing load). Layout:
//
//   - one "process" per tracer (per simulated configuration), so
//     several models over the same trace can be compared side by side;
//   - four lanes ("threads") per simulated thread: NVRAM writes,
//     epochs, strands, and work-item brackets;
//   - a persist renders as a complete slice spanning from its placing
//     store to the last store coalesced into it, with provenance args;
//   - flow arrows connect consecutive persists along the longest
//     constraint chain, tracing the critical path across lanes;
//   - a counter series plots the running critical-path depth.
//
// Timestamps are fed-event indices interpreted as microseconds: the
// x-axis is logical (program) time, not the device's wall clock.

type chromeEvent struct {
	Name string         `json:"name,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  *int64         `json:"dur,omitempty"`
	PID  int64          `json:"pid"`
	TID  int64          `json:"tid"`
	ID   int64          `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

const (
	lanePersist = iota
	laneEpoch
	laneStrand
	laneWork
	lanesPerThread
)

func lane(tid int32, kind int) int64 { return int64(tid)*lanesPerThread + int64(kind) }

// WriteChromeTrace exports this tracer alone; see EncodeChromeTrace.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	return EncodeChromeTrace(w, t)
}

// EncodeChromeTrace writes one Chrome trace-event JSON document holding
// every given tracer as its own process. EncodeChromeTraceDoc
// additionally embeds the run manifest and wall-clock spans.
func EncodeChromeTrace(w io.Writer, tracers ...*Tracer) error {
	return EncodeChromeTraceDoc(w, nil, nil, tracers...)
}

// writeCompactJSON encodes v unindented with a trailing newline.
func writeCompactJSON(w io.Writer, v any) error {
	return json.NewEncoder(w).Encode(v)
}

func dur(d int64) *int64 {
	if d < 1 {
		d = 1
	}
	return &d
}

func (t *Tracer) chromeEvents(pid int64) []chromeEvent {
	var ev []chromeEvent
	name := t.Name
	if name == "" {
		name = fmt.Sprintf("model %v", t.Model)
	}
	ev = append(ev,
		chromeEvent{Ph: "M", Name: "process_name", PID: pid, Args: map[string]any{"name": name}},
		chromeEvent{Ph: "M", Name: "process_sort_index", PID: pid, Args: map[string]any{"sort_index": pid}},
	)

	tids := make([]int32, 0, len(t.tids))
	for tid := range t.tids {
		tids = append(tids, tid)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	laneNames := [lanesPerThread]string{"persists", "epochs", "strands", "work"}
	for _, tid := range tids {
		for k, ln := range laneNames {
			l := lane(tid, k)
			ev = append(ev,
				chromeEvent{Ph: "M", Name: "thread_name", PID: pid, TID: l,
					Args: map[string]any{"name": fmt.Sprintf("t%d %s", tid, ln)}},
				chromeEvent{Ph: "M", Name: "thread_sort_index", PID: pid, TID: l,
					Args: map[string]any{"sort_index": l}},
			)
		}
	}

	// Persist slices, plus the critical-path counter series.
	var runningMax int64
	for i := range t.nodes {
		n := &t.nodes[i]
		ev = append(ev, chromeEvent{
			Ph: "X", Cat: "persist", Name: t.site(n.Addr),
			PID: pid, TID: lane(n.TID, lanePersist),
			TS: n.EventIndex, Dur: dur(n.LastEvent - n.EventIndex + 1),
			Args: map[string]any{
				"id":        n.ID,
				"addr":      fmt.Sprintf("%#x", uint64(n.Addr)),
				"block":     int64(n.Block),
				"level":     n.Level,
				"dep":       n.DepID,
				"depClass":  n.DepClass.String(),
				"epoch":     n.Epoch,
				"strand":    n.Strand,
				"coalesced": n.Coalesced,
			},
		})
		if n.Level > runningMax {
			runningMax = n.Level
			ev = append(ev, chromeEvent{
				Ph: "C", Name: "critical-path depth", PID: pid, TS: n.EventIndex,
				Args: map[string]any{"depth": n.Level},
			})
		}
	}

	ev = append(ev, t.spanEvents(pid)...)
	ev = append(ev, t.flowEvents(pid)...)
	return ev
}

// spanEvents renders the annotation marks: epoch and strand intervals
// (from the previous mark on the thread to this one) and work brackets.
func (t *Tracer) spanEvents(pid int64) []chromeEvent {
	var ev []chromeEvent
	type span struct{ start, index int64 }
	epochs := make(map[int32]span)  // open epoch per thread
	strands := make(map[int32]span) // open strand per thread
	work := make(map[uint64]int64)  // open work bracket -> begin event
	workTID := make(map[uint64]int32)
	closeSpan := func(tid int32, k int, cat string, s span, end int64) chromeEvent {
		return chromeEvent{
			Ph: "X", Cat: cat, Name: fmt.Sprintf("%s %d", cat, s.index),
			PID: pid, TID: lane(tid, k), TS: s.start, Dur: dur(end - s.start),
			Args: map[string]any{"index": s.index},
		}
	}
	for _, m := range t.marks {
		switch m.kind {
		case markEpoch:
			s := epochs[m.tid]
			if m.event > s.start {
				ev = append(ev, closeSpan(m.tid, laneEpoch, "epoch", s, m.event))
			}
			epochs[m.tid] = span{start: m.event, index: m.index}
			if m.sync {
				ev = append(ev, chromeEvent{
					Ph: "I", Cat: "sync", Name: "persist sync",
					PID: pid, TID: lane(m.tid, laneEpoch), TS: m.event,
				})
			}
		case markStrand:
			s := strands[m.tid]
			if m.event > s.start {
				ev = append(ev, closeSpan(m.tid, laneStrand, "strand", s, m.event))
			}
			strands[m.tid] = span{start: m.event, index: m.index}
		case markBeginWork:
			work[m.id] = m.event
			workTID[m.id] = m.tid
		case markEndWork:
			if begin, ok := work[m.id]; ok {
				ev = append(ev, chromeEvent{
					Ph: "X", Cat: "work", Name: fmt.Sprintf("op %d", m.id&0xffffffff),
					PID: pid, TID: lane(workTID[m.id], laneWork),
					TS: begin, Dur: dur(m.event - begin),
					Args: map[string]any{"id": m.id},
				})
				delete(work, m.id)
			}
		}
	}
	// Close trailing epoch/strand spans at the end of the trace, in
	// thread-id order so two exports of one trace are byte-identical.
	for _, tid := range slices.Sorted(maps.Keys(epochs)) {
		if s := epochs[tid]; t.maxEvent > s.start || s.index > 0 {
			ev = append(ev, closeSpan(tid, laneEpoch, "epoch", s, t.maxEvent+1))
		}
	}
	for _, tid := range slices.Sorted(maps.Keys(strands)) {
		if s := strands[tid]; t.maxEvent > s.start || s.index > 0 {
			ev = append(ev, closeSpan(tid, laneStrand, "strand", s, t.maxEvent+1))
		}
	}
	return ev
}

// flowEvents draws arrows along the longest constraint chain: for each
// edge a→b on the chain, a flow start anchored inside a's slice and a
// flow finish anchored at b's.
func (t *Tracer) flowEvents(pid int64) []chromeEvent {
	chains := t.Chains(1)
	if len(chains) == 0 {
		return nil
	}
	var ev []chromeEvent
	ids := chains[0].IDs
	for i := 0; i+1 < len(ids); i++ {
		a, b := &t.nodes[ids[i]], &t.nodes[ids[i+1]]
		flowID := int64(i) + 1
		ev = append(ev,
			chromeEvent{Ph: "s", Cat: "critical-path", Name: "critical-path",
				PID: pid, TID: lane(a.TID, lanePersist), TS: a.EventIndex, ID: flowID},
			chromeEvent{Ph: "f", BP: "e", Cat: "critical-path", Name: "critical-path",
				PID: pid, TID: lane(b.TID, lanePersist), TS: b.EventIndex, ID: flowID},
		)
	}
	return ev
}
