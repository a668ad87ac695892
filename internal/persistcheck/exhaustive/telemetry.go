package exhaustive

import "repro/internal/telemetry"

// Observe publishes a result's counts to a metrics registry as gauges
// labeled by model: the cut count (a lower bound when
// exhaustive_cuts_saturated is 1), distinct images, recovery
// signatures, subsumed and peak-live search states, and the images of
// each class.
func Observe(reg *telemetry.Registry, r *Result) {
	if reg == nil || r == nil {
		return
	}
	reg.SetHelp("exhaustive_cuts", "consistent cuts of the persist-order graph (a lower bound when saturated)")
	reg.SetHelp("exhaustive_cuts_saturated", "1 when exhaustive_cuts is a lower bound")
	reg.SetHelp("exhaustive_states", "distinct reachable post-crash images")
	reg.SetHelp("exhaustive_signatures", "distinct recovery read signatures (real recovery runs)")
	reg.SetHelp("exhaustive_subsumed", "search states folded by antichain subsumption")
	reg.SetHelp("exhaustive_peak_live", "peak simultaneously tracked search states")
	reg.SetHelp("exhaustive_images", "reachable post-crash images by recovery class")
	model := r.Model.String()
	gauge := func(name string, v float64) {
		reg.Gauge(telemetry.Label(name, "model", model)).Set(v)
	}
	saturated := 0.0
	if r.CutsSaturated {
		saturated = 1
	}
	gauge("exhaustive_cuts", float64(r.Cuts))
	gauge("exhaustive_cuts_saturated", saturated)
	gauge("exhaustive_states", float64(r.States))
	gauge("exhaustive_signatures", float64(r.Signatures))
	gauge("exhaustive_subsumed", float64(r.Subsumed))
	gauge("exhaustive_peak_live", float64(r.PeakLive))
	for _, c := range []struct {
		class Class
		n     int
	}{{ClassRecovered, r.Recovered}, {ClassDetected, r.Detected}, {ClassHazard, r.Hazards}} {
		reg.Gauge(telemetry.Label("exhaustive_images", "model", model, "class", c.class.String())).Set(float64(c.n))
	}
}
