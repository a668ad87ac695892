package queue

import (
	"repro/internal/durable"
	"repro/internal/memory"
	"repro/internal/persistcheck"
)

// Checks declares the queue's recovery-critical metadata for the
// persistency checker (internal/persistcheck).
//
// The head word publishes by value: recovery scans entries in
// [tail, head), so a persisted head value v covers every data persist
// below offset v — including other threads' entries under Two-Lock
// Concurrent, where the oldest inserter publishes the whole completed
// prefix (Algorithm 1 line 28). The tail word is the §5.3 OrderAfter
// region: an insert reuses slots freed by a tail advance, so its
// persists must stay ordered after the tail persist it observed (the
// strand recipe in strandOrderingRead exists for exactly this).
//
// With integrity on, the pointers are dual-copy durable words: both
// value copies inherit the head's publication obligation, the CDB flip
// is itself a publication over the copies it activates, and the whole
// metadata footprint (plus the CRC-framed data segment) is declared
// Protected — the unprotected-metadata lint flags the plain layout's
// pointers, whose silent corruption recovery cannot detect.
func (m Meta) Checks() persistcheck.Annotations {
	if !m.Integrity {
		return persistcheck.Annotations{
			Pubs: []persistcheck.Publication{{
				Name:        "head",
				Word:        m.Head,
				Data:        []persistcheck.Extent{{Addr: m.Data, Size: m.DataBytes}},
				ValueCovers: true,
			}},
			OrderAfter: []persistcheck.Region{{
				Name: "tail",
				Addr: m.Tail,
				Size: 8,
			}},
		}
	}
	hw := durable.Word{Base: m.Head}
	tw := durable.Word{Base: m.Tail}
	return persistcheck.Annotations{
		Pubs: hw.Checks("head", []persistcheck.Extent{{Addr: m.Data, Size: m.DataBytes}}, true, false),
		OrderAfter: []persistcheck.Region{{
			// The CDB word at the base is the tail's commit point.
			Name: "tail",
			Addr: m.Tail,
			Size: 8,
		}},
		Protected: []persistcheck.Extent{
			hw.Extent(),
			tw.Extent(),
			{Addr: m.Data, Size: m.DataBytes},
		},
	}
}

// SiteLabel maps persist addresses to the queue's annotation sites
// ("head", "tail", "slot data"), following the telemetry attribution
// convention.
func (m Meta) SiteLabel() func(memory.Addr) string {
	ptrSpan := memory.Addr(memory.WordSize)
	if m.Integrity {
		ptrSpan = durable.WordBytes
	}
	return func(a memory.Addr) string {
		switch {
		case a >= m.Head && a < m.Head+ptrSpan:
			return "head"
		case a >= m.Tail && a < m.Tail+ptrSpan:
			return "tail"
		case a >= m.Data && a < m.Data+memory.Addr(m.DataBytes):
			return "slot data"
		default:
			return "other"
		}
	}
}
