package sim

import (
	"context"
	"fmt"
	"time"

	"protemp/internal/core"
	"protemp/internal/dmpc"
	"protemp/internal/linalg"
	"protemp/internal/metrics"
	"protemp/internal/obs"
)

// ProTempDMPC is the distributed counterpart of ProTempOnline: the
// same per-window MPC decision, but produced by dmpc.Solver's cluster
// decomposition — parallel per-cluster solves coordinated by dual
// updates on boundary temperatures — instead of one dense centralized
// program. On the paper's 8-core plan with a single cluster it
// degenerates to exactly the centralized decision sequence; its reason
// to exist is the many-core regime where the dense solve is
// intractable. Like every policy, it is not safe for concurrent use.
type ProTempDMPC struct {
	// Solver is the compiled distributed solver (required).
	Solver *dmpc.Solver

	// Solves counts windows solved; Downgrades and Idles aggregate the
	// clusters that bisected down or idled across all windows.
	Solves     int
	Downgrades int
	Idles      int
	// WarmHits / WarmRejects aggregate cluster warm-start outcomes;
	// OuterIters and Fallbacks accumulate consensus work.
	WarmHits    int
	WarmRejects int
	OuterIters  int
	Fallbacks   int
	// MaxPrimalResidC is the worst final consensus residual seen (°C).
	MaxPrimalResidC float64
	// SolveNanosTotal accumulates whole-window solve wall time;
	// SolveNanos, when non-nil, additionally receives each window's
	// wall time (callers wanting quantiles supply a histogram).
	SolveNanosTotal int64
	SolveNanos      *metrics.Histogram
	// Flight, when non-nil, records one solve trace per window (cluster
	// spans plus the ADMM outer-iteration timeline). Nil adds nothing.
	Flight *obs.FlightRecorder
}

// Name implements Policy.
func (p *ProTempDMPC) Name() string {
	return fmt.Sprintf("Pro-Temp-DMPC(%d)", p.Solver.Clusters())
}

// Decide implements Policy. The window decision ladder runs per cluster
// inside the solver; on any solver failure the window idles, which is
// always thermally safe.
func (p *ProTempDMPC) Decide(st WindowState) linalg.Vector {
	chip := p.Solver.Chip()
	n := chip.NumCores()
	// A full-dropout sensing window means this state is pure prediction:
	// drop every cluster's warm optimum and the consensus duals so the
	// blind window's solution never seeds the next real one.
	if st.SensingDegraded {
		p.Solver.Invalidate()
	}
	required := core.WindowTarget(st.RequiredFreq, chip.FMax())

	tr := p.Flight.StartStep("dmpc")
	if tr != nil {
		p.Solver.SetRecorder(tr)
	}
	start := time.Now()
	a, stats, err := p.Solver.Solve(context.Background(), st.MaxCoreTemp, st.BlockTemps, required)
	if tr != nil {
		p.Solver.SetRecorder(nil)
		p.Flight.EndStep(tr, err)
	}
	elapsed := time.Since(start).Nanoseconds()
	p.SolveNanosTotal += elapsed
	if p.SolveNanos != nil {
		p.SolveNanos.ObserveDuration(elapsed)
	}
	p.Solves++
	p.WarmHits += stats.WarmHits
	p.WarmRejects += stats.WarmRejects
	p.OuterIters += stats.OuterIters
	p.Downgrades += stats.Downgrades
	p.Idles += stats.Idles
	if stats.Fallback {
		p.Fallbacks++
	}
	if stats.PrimalResidC > p.MaxPrimalResidC {
		p.MaxPrimalResidC = stats.PrimalResidC
	}
	if err != nil {
		return linalg.NewVector(n)
	}
	return linalg.VectorOf(a.Freqs...)
}
