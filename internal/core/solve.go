package core

import (
	"context"
	"fmt"
	"math"

	"protemp/internal/linalg"
	"protemp/internal/obs"
	"protemp/internal/power"
	"protemp/internal/solver"
)

// fullSpeedPhi is the normalized target above which the workload
// constraint pins every frequency to fmax and the program degenerates
// to a feasibility check of the full-speed point.
const fullSpeedPhi = 1 - 1e-9

// Barrier tuning of the solve ladder.
const (
	// gentleMu is the barrier multiplier of the feasibility phase and of
	// every gradient-variant solve. The gradient variant's pairwise rows
	// make the barrier stiff: at the default μ=20 each weight jump slams
	// the iterate against the coupling boundary and Newton creeps for
	// hundreds of iterations per stage (exhausting MaxNewton, so the
	// final stage is uncentered and every warm seed is rejected); the
	// feasibility phase's near-boundary windows exhaust MaxNewton in a
	// late stage and then fail their line search. A gentler schedule
	// keeps each stage inside Newton's fast region.
	gentleMu = 10
	// phase1TGradWeight prices tgrad in the feasibility phase's
	// objective. Nothing bounds tgrad from above, so maximizing Σf alone
	// would leave every centering unbounded; the tiny weight bounds it
	// and loosens the infeasibility certificate by phase1TGradWeight·TMax.
	phase1TGradWeight = 1e-9
)

// Solve computes the optimal frequency assignment for the design point,
// or Assignment{Feasible: false} when the paper's "infeasible solution"
// signal applies. Solver failures other than infeasibility are returned
// as errors.
func Solve(s *Spec) (*Assignment, error) {
	return SolveContext(context.Background(), s)
}

// SolveContext is Solve with cancellation: ctx is polled once per
// Newton iteration of the interior-point method, so a cancelled or
// expired context aborts the solve promptly with ctx.Err().
func SolveContext(ctx context.Context, s *Spec) (*Assignment, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Degenerate target: the only candidate is full speed on all cores.
	if s.FTarget/s.Chip.FMax() >= fullSpeedPhi {
		rows, err := s.tempRows()
		if err != nil {
			return nil, err
		}
		return fullSpeedAssignment(s, rows)
	}

	in, err := s.build()
	if err != nil {
		return nil, err
	}
	a, _, _, err := solveLadder(ctx, s, in, nil, 0, nil, nil)
	return a, err
}

// solveLadder solves an instantiated problem through the start ladder:
// the warm seed (a re-centered neighboring optimum) when one is
// supplied, then the cheap uniform heuristic, then the feasibility
// phase. It is the single solve path shared by SolveContext (cold, no
// workspace), the table sweep (warm-seeded, per-worker workspace) and
// the online solver, so all produce interchangeable assignments. It
// returns the assignment — infeasible ones included, carrying the
// solver work their verdict cost — the raw normalized optimum for
// seeding the next grid point (nil when infeasible), and whether the
// warm seed carried the solve. A non-nil rec observes the warm
// decision, the rung taken and every barrier centering; the nil path
// costs only pointer checks.
func solveLadder(ctx context.Context, s *Spec, in *sweepInstance, warmSeed linalg.Vector, warmGap float64, ws *solver.Workspace, rec obs.Recorder) (*Assignment, linalg.Vector, bool, error) {
	lay := in.plan.lay
	n := s.Chip.NumCores()
	phi := s.FTarget / s.Chip.FMax()
	opts := solver.DefaultOptions()
	opts.Tol = 1e-7
	opts.Interrupt = ctx.Err
	if s.Variant == VariantGradient {
		opts.Mu = gentleMu
	}
	if rec != nil {
		opts.Centering = rec.Centering
	}

	a := &Assignment{} // accumulates every attempt's solver work
	var res *solver.Result
	var err error
	warm := false
	if warmSeed != nil {
		res, err = solver.WarmStart(in.prob, warmSeed, nil, warmGap, opts, ws)
		switch {
		case err == nil && res.Centered:
			warm = true
			if rec != nil {
				rec.WarmDecision(true, true, "")
				rec.Rung("warm")
			}
		case ctx.Err() != nil:
			return nil, nil, false, ctx.Err()
		default:
			// A warm seed that cannot be re-centered, that stalls the
			// barrier, or whose final centering exhausted its iteration
			// budget (Result.Centered false — the duality-gap bound is
			// then not a certificate) is not a verdict on the problem;
			// fall back cold so warm results stay interchangeable with
			// cold ones. A failed attempt's work is still spent.
			if res != nil {
				a.addCost(res)
			}
			if rec != nil {
				reason := "uncentered"
				if err != nil {
					reason = err.Error()
				}
				rec.WarmDecision(true, false, reason)
			}
			res, err = nil, nil
		}
	}
	if res == nil {
		start := heuristicStart(s, lay, in.rows, phi)
		rung := "heuristic"
		if start == nil {
			rung = "phase1"
			start, err = in.feasibilityPhase(ctx, s, opts, ws, a)
		}
		if start != nil {
			res, err = solver.BarrierWS(in.prob, start, opts, ws)
		}
		if rec != nil {
			rec.Rung(rung)
		}
	}
	if err != nil {
		return nil, nil, warm, fmt.Errorf("core: solve (%s, tstart=%g, ftarget=%g): %w",
			s.Variant, s.TStart, s.FTarget, err)
	}
	if res == nil {
		return a, nil, warm, nil // the feasibility phase's verdict
	}

	a.addCost(res)
	a.Feasible = true
	a.Freqs = make([]float64, n)
	a.Powers = make([]float64, n)
	a.Gap = res.Gap
	for j := 0; j < n; j++ {
		model := s.Chip.CoreModelOf(j)
		fn := clamp01(res.X[lay.fIdx(j)])
		pn := clamp01(res.X[lay.pIdx(j)])
		a.Freqs[j] = fn * model.FMax
		a.Powers[j] = pn * model.PMax
		a.AvgFreq += a.Freqs[j] / float64(n)
		a.TotalPower += a.Powers[j]
	}
	if s.Variant == VariantGradient {
		a.TGrad = res.X[lay.gIdx()]
	}
	a.PeakTemp = peakTemp(s, a.Powers)
	return a, res.X, warm, nil
}

// addCost adds one barrier solve's work to the assignment's counters.
func (a *Assignment) addCost(r *solver.Result) {
	a.NewtonIters += r.NewtonIters
	a.AssembleNanos += r.AssembleNanos
	a.FactorNanos += r.FactorNanos
}

// feasibilityPhase is the cold ladder's last rung and the source of the
// paper's run-time verdict: "If the required frequency point cannot be
// supported, the optimization notifies an infeasible solution." It runs
// one auxiliary barrier solve over the instance's own compiled
// constraints and HessianPattern — maximize Σf with the workload row's
// offset relaxed to 0 — and stops as soon as
//
//   - an iterate clears the workload bound nφ (Σf > nφ + 1e-6 per
//     frequency variable): the point is a strictly feasible start for
//     the real problem and is returned; or
//   - a converged centering proves that no point reaches it: its Σf plus
//     the duality bound m/t (plus the tgrad weight's share) stays below
//     nφ. The verdict is a nil start.
//
// A window whose rows exceed TMax even at idle is rejected without
// entering the barrier. The auxiliary solve's work is added to cost,
// and the instance's offset and objective are restored before return.
func (in *sweepInstance) feasibilityPhase(ctx context.Context, s *Spec, opts solver.Options, ws *solver.Workspace, cost *Assignment) (linalg.Vector, error) {
	phiU, err := maxUniformPhi(ctx, s.Chip, s.TMax, in.rows)
	if err != nil || phiU <= 0 {
		return nil, err
	}
	lay := in.plan.lay
	start := heuristicStart(s, lay, in.rows, 0.9*phiU)
	if start == nil {
		// Even 0.9·φu cannot absorb the heuristic's power slack: the
		// window sits at the idle boundary, where no useful target fits.
		return nil, nil
	}

	vars := lay.freqVars()
	need := in.work.B // nφ: the workload bound the phase must clear
	certSlack := 0.0
	if lay.variant == VariantGradient {
		certSlack = phase1TGradWeight * s.TMax
	}
	sumF := func(x linalg.Vector) float64 { return x[:vars].Sum() }
	found := func(x linalg.Vector) bool { return sumF(x) > need+1e-6*float64(vars) }
	opts.Mu = gentleMu
	opts.StopEarly = func(x linalg.Vector, gap float64) bool {
		return found(x) || sumF(x)+gap+certSlack < need
	}

	in.work.B, in.prob.Objective = 0, in.plan.phase1Objective
	res, err := solver.BarrierWS(in.prob, start, opts, ws)
	in.work.B, in.prob.Objective = need, in.plan.objective
	if err != nil {
		return nil, err
	}
	cost.addCost(res)
	if found(res.X) && in.prob.IsStrictlyFeasible(res.X) {
		return res.X, nil
	}
	return nil, nil
}

// SolveUniformBisect solves the uniform-frequency problem by direct
// bisection on the scalar frequency: feasibility of f is monotone (more
// frequency means more power means higher temperatures everywhere), so
// the optimum is the largest feasible f if that exceeds the target, or
// the target itself when the target is feasible. It is an independent
// cross-check of the barrier path.
//
// It returns the maximum supportable average frequency in Hz and whether
// the requested target is supportable.
func SolveUniformBisect(s *Spec) (maxFreq float64, targetOK bool, err error) {
	if err := s.Validate(); err != nil {
		return 0, false, err
	}
	rows, err := s.tempRows()
	if err != nil {
		return 0, false, err
	}
	fnMax, err := maxUniformPhi(context.Background(), s.Chip, s.TMax, rows)
	if err != nil || fnMax <= 0 {
		return 0, false, err
	}
	maxFreq = fnMax * s.Chip.FMax()
	return maxFreq, maxFreq+1e-3 >= s.FTarget, nil
}

// maxUniformPhi bisects the largest normalized uniform frequency whose
// peak over rows stays within tmax; 0 when not even idle does. ctx is
// polled at every probe, so a caller that has gone away does not keep
// evaluating thermal rows.
func maxUniformPhi(ctx context.Context, chip *power.Chip, tmax float64, rows []tempRow) (float64, error) {
	cancelled := false
	feasible := func(fn float64) bool {
		if cancelled || ctx.Err() != nil {
			// Claim infeasibility to collapse the remaining probes
			// cheaply; the flag makes the result unambiguous below.
			cancelled = true
			return false
		}
		return uniformPeak(chip, rows, fn) <= tmax
	}
	fnMax, _ := solver.BisectMax(0, 1, 1e-7, feasible)
	if cancelled {
		return 0, ctx.Err()
	}
	return fnMax, nil
}

// uniformPeak returns the peak constrained temperature over the window
// when every core runs at normalized frequency fn.
func uniformPeak(chip *power.Chip, rows []tempRow, fn float64) float64 {
	n := chip.NumCores()
	pn := linalg.NewVector(n)
	for j := 0; j < n; j++ {
		model := chip.CoreModelOf(j)
		pn[j] = model.AtFrequency(fn*model.FMax) / model.PMax
	}
	peak := math.Inf(-1)
	for _, r := range rows {
		if t := r.c0 + r.coef.Dot(pn); t > peak {
			peak = t
		}
	}
	return peak
}

// fullSpeedAssignment evaluates the single candidate point f = fmax
// against prebuilt temperature rows.
func fullSpeedAssignment(s *Spec, rows []tempRow) (*Assignment, error) {
	if uniformPeak(s.Chip, rows, 1) > s.TMax {
		return &Assignment{}, nil
	}
	n := s.Chip.NumCores()
	a := &Assignment{Feasible: true, Freqs: make([]float64, n), Powers: make([]float64, n)}
	for j := 0; j < n; j++ {
		model := s.Chip.CoreModelOf(j)
		a.Freqs[j] = model.FMax
		a.Powers[j] = model.PMax
		a.AvgFreq += model.FMax / float64(n)
		a.TotalPower += model.PMax
	}
	a.PeakTemp = peakTemp(s, a.Powers)
	return a, nil
}

// heuristicStart tries cheap strictly feasible points (uniform
// frequency just above the target with a little power slack) before
// paying for the feasibility phase. Returns nil if none works.
func heuristicStart(s *Spec, lay layout, rows []tempRow, phi float64) linalg.Vector {
	n := s.Chip.NumCores()
	fn := phi + 1e-4*(1-phi) + 1e-9
	if fn >= 1 {
		return nil
	}
	for _, slack := range []float64{1e-3, 1e-2, 5e-2} {
		x := linalg.NewVector(lay.dim)
		ok := true
		pn := linalg.NewVector(n)
		for j := 0; j < n; j++ {
			model := s.Chip.CoreModelOf(j)
			pj := model.AtFrequency(fn*model.FMax)/model.PMax + slack
			if pj >= 1 {
				ok = false
				break
			}
			x[lay.fIdx(j)] = fn
			x[lay.pIdx(j)] = pj
			pn[j] = pj
		}
		if !ok {
			continue
		}
		// Strict temperature feasibility with margin.
		worst := math.Inf(-1)
		for _, r := range rows {
			if t := r.c0 + r.coef.Dot(pn) - s.TMax; t > worst {
				worst = t
			}
		}
		if worst >= -1e-6 {
			continue
		}
		if s.Variant == VariantGradient {
			x[lay.gIdx()] = maxPairGap(s, rows, pn) + 1
		}
		return x
	}
	return nil
}

// maxPairGap returns the largest pairwise core temperature difference
// over the window at normalized powers pn.
func maxPairGap(s *Spec, rows []tempRow, pn linalg.Vector) float64 {
	isCore := make(map[int]bool)
	for _, bi := range s.Chip.Floorplan().CoreIndices() {
		isCore[bi] = true
	}
	byStep := make(map[int][]float64)
	for _, r := range rows {
		if isCore[r.block] {
			byStep[r.step] = append(byStep[r.step], r.c0+r.coef.Dot(pn))
		}
	}
	var gap float64
	for _, temps := range byStep {
		v := linalg.Vector(temps)
		if g := v.Max() - v.Min(); g > gap {
			gap = g
		}
	}
	return gap
}

// peakTemp forward-simulates the window at the given core powers and
// returns the hottest core temperature reached — the verification the
// controller's guarantee rests on.
func peakTemp(s *Spec, corePowers []float64) float64 {
	chip := s.Chip
	fp := chip.Floorplan()
	nb := fp.NumBlocks()
	p := chip.FixedPower()
	for j, w := range corePowers {
		p[chip.CoreBlockIndex(j)] = w
	}
	t0 := s.startTemps(nb)
	peak := math.Inf(-1)
	cores := fp.CoreIndices()
	m := s.Window.Steps()
	for k := 1; k <= m; k++ {
		t, err := s.Window.TempAt(k, t0, p)
		if err != nil {
			return math.NaN()
		}
		for _, ci := range cores {
			if t[ci] > peak {
				peak = t[ci]
			}
		}
	}
	return peak
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
