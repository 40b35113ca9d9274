package sim

import (
	"context"

	"protemp/internal/core"
	"protemp/internal/linalg"
	"protemp/internal/metrics"
	"protemp/internal/obs"
)

// ProTempOnline is the model-predictive extension the paper's §3.2
// simplification deliberately avoids: instead of a design-time table
// keyed by the single maximum core temperature, it solves the convex
// program at every DFS boundary on the **full per-block thermal map**
// (the Spec.T0 extension in internal/core). It carries the same
// guarantee — the solved trajectory respects tmax at every sub-step —
// while recovering the headroom the conservative max-temperature
// rounding gives away, at the cost of run-time compute.
//
// That run-time compute is warm-started: the compiled solver seeds
// each window's barrier from the previous window's optimum, so the
// steady-state per-window cost is an offset rewrite plus a short warm
// centering, not a full problem assembly plus the cold start ladder. A
// policy is not safe for concurrent use (sim drives one policy per
// run).
type ProTempOnline struct {
	// Solver is the compiled online solver (required).
	Solver *core.OnlineSolver

	// Solves counts run-time optimizer calls; WarmHits / WarmRejects
	// count their warm-start outcomes; SolveNanosTotal accumulates
	// solve wall time.
	Solves          int
	WarmHits        int
	WarmRejects     int
	SolveNanosTotal int64
	// SolveNanos, when non-nil, additionally receives every solve's
	// wall time — callers wanting p50/p95/p99 (the fleet runner) supply
	// a histogram; nil skips the per-solve observation.
	SolveNanos *metrics.Histogram
	// Flight, when non-nil, records one solve trace per window — the
	// sim/fleet analogue of the engine's flight recorder. Nil (the
	// default) adds nothing to the window path.
	Flight *obs.FlightRecorder
}

// Name implements Policy.
func (p *ProTempOnline) Name() string { return "Pro-Temp-Online" }

// Decide implements Policy: one pass of the solver's window decision
// ladder. On any solver failure it falls back to an idle window, which
// is always thermally safe.
func (p *ProTempOnline) Decide(st WindowState) linalg.Vector {
	chip := p.Solver.Chip()
	// A full-dropout sensing window means this state is pure prediction:
	// drop the warm optimum so the blind window's solution never seeds
	// the next real one.
	if st.SensingDegraded {
		p.Solver.Invalidate()
	}
	required := core.WindowTarget(st.RequiredFreq, chip.FMax())

	tr := p.Flight.StartStep("online")
	if tr != nil {
		p.Solver.SetRecorder(tr)
	}
	a, ds, err := p.Solver.Decide(context.Background(), st.MaxCoreTemp, st.BlockTemps, required)
	if tr != nil {
		if ds.Bisected {
			tr.Fallback("bisect-downgrade")
		}
		p.Solver.SetRecorder(nil)
		p.Flight.EndStep(tr, err)
	}
	for _, sst := range ds.Solves[:ds.NSolves] {
		p.Solves++
		p.SolveNanosTotal += sst.SolveNanos
		if p.SolveNanos != nil {
			p.SolveNanos.ObserveDuration(sst.SolveNanos)
		}
		if sst.Warm {
			p.WarmHits++
		}
		if sst.WarmRejected {
			p.WarmRejects++
		}
	}
	if err != nil {
		return linalg.NewVector(chip.NumCores())
	}
	return linalg.VectorOf(a.Freqs...)
}
