package solver

import (
	"errors"
	"fmt"
	"math"
	"time"

	"protemp/internal/linalg"
)

// Options tunes the barrier method. The zero value is replaced by
// DefaultOptions.
type Options struct {
	// Mu is the barrier parameter multiplier per outer iteration.
	Mu float64
	// Tol is the target duality gap m/t.
	Tol float64
	// NewtonTol is the Newton decrement threshold (λ²/2) that ends a
	// centering step.
	NewtonTol float64
	// MaxNewton bounds Newton iterations per centering step.
	MaxNewton int
	// MaxOuter bounds outer (barrier) iterations.
	MaxOuter int
	// Alpha and Beta are the backtracking line-search constants.
	Alpha, Beta float64
	// T0 is the initial barrier weight.
	T0 float64
	// StopEarly, if non-nil, aborts the solve successfully as soon as a
	// centering iterate satisfies it. gap is the duality bound m/t that
	// certifies x when x is the converged point of the previous centering
	// (f0(x) − p* <= gap), and +Inf at every other iterate, so a caller
	// can stop either on a good-enough point or on a proof that none
	// exists.
	StopEarly func(x linalg.Vector, gap float64) bool
	// Interrupt, if non-nil, is polled once per Newton iteration; a
	// non-nil return aborts the solve with that error. Context
	// cancellation plumbs through here so a caller's deadline reaches
	// into the innermost centering loop.
	Interrupt func() error
	// Centering, if non-nil, is invoked after every centering stage
	// with the barrier weight t, the Newton iterations spent, whether
	// the stage converged, and the stage's wall time split into its
	// three phases: Hessian assembly, factorization+solve, and line
	// search (nanoseconds). Tracing plumbs through here; the hot path
	// pays only a nil check when unset.
	Centering func(t float64, newtonIters int, converged bool, assembleNs, factorNs, linesearchNs int64)
}

// DefaultOptions returns the tuning used throughout the project.
func DefaultOptions() Options {
	return Options{
		Mu:        20,
		Tol:       1e-8,
		NewtonTol: 1e-10,
		MaxNewton: 200,
		MaxOuter:  100,
		Alpha:     0.1,
		Beta:      0.5,
		T0:        1,
	}
}

// Validate rejects nonsensical tunings loudly. A zero field always
// selects the default; any explicitly set field must be usable as
// given — an unusual-but-legitimate tuning such as Mu = 1.0001 is
// accepted verbatim, never silently replaced.
func (o Options) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Mu", o.Mu}, {"Tol", o.Tol}, {"NewtonTol", o.NewtonTol},
		{"Alpha", o.Alpha}, {"Beta", o.Beta}, {"T0", o.T0},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("solver: non-finite %s = %v", f.name, f.v)
		}
	}
	switch {
	case o.Mu != 0 && o.Mu <= 1:
		return fmt.Errorf("solver: barrier multiplier Mu = %v must exceed 1 (zero selects the default %v)", o.Mu, DefaultOptions().Mu)
	case o.Tol < 0:
		return fmt.Errorf("solver: negative duality-gap tolerance %v", o.Tol)
	case o.NewtonTol < 0:
		return fmt.Errorf("solver: negative Newton tolerance %v", o.NewtonTol)
	case o.MaxNewton < 0:
		return fmt.Errorf("solver: negative MaxNewton %d", o.MaxNewton)
	case o.MaxOuter < 0:
		return fmt.Errorf("solver: negative MaxOuter %d", o.MaxOuter)
	case o.Alpha != 0 && (o.Alpha <= 0 || o.Alpha >= 0.5):
		return fmt.Errorf("solver: line-search Alpha = %v outside (0, 0.5) (zero selects the default)", o.Alpha)
	case o.Beta != 0 && (o.Beta <= 0 || o.Beta >= 1):
		return fmt.Errorf("solver: line-search Beta = %v outside (0, 1) (zero selects the default)", o.Beta)
	case o.T0 < 0:
		return fmt.Errorf("solver: negative initial barrier weight %v", o.T0)
	}
	return nil
}

// withDefaults fills zero fields with DefaultOptions. It assumes the
// options passed Validate, so non-zero fields are kept verbatim.
func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.Mu == 0 {
		o.Mu = d.Mu
	}
	if o.Tol == 0 {
		o.Tol = d.Tol
	}
	if o.NewtonTol == 0 {
		o.NewtonTol = d.NewtonTol
	}
	if o.MaxNewton == 0 {
		o.MaxNewton = d.MaxNewton
	}
	if o.MaxOuter == 0 {
		o.MaxOuter = d.MaxOuter
	}
	if o.Alpha == 0 {
		o.Alpha = d.Alpha
	}
	if o.Beta == 0 {
		o.Beta = d.Beta
	}
	if o.T0 == 0 {
		o.T0 = d.T0
	}
	return o
}

// Result reports a barrier solve.
type Result struct {
	// X is the final (approximately optimal) point.
	X linalg.Vector
	// Objective is f0(X).
	Objective float64
	// Gap is the final duality-gap bound m/t.
	Gap float64
	// Lambda holds the recovered dual variables λ_i = −1/(t·fi(X)).
	Lambda linalg.Vector
	// NewtonIters counts total Newton iterations across all centerings.
	NewtonIters int
	// OuterIters counts barrier (centering) stages.
	OuterIters int
	// StoppedEarly reports whether Options.StopEarly ended the solve.
	StoppedEarly bool
	// Centered reports whether the final centering stage actually
	// reached its Newton-decrement (or round-off polish) exit. When
	// false the stage exhausted MaxNewton and X may sit far from the
	// central path, so Gap is not a trustworthy certificate — warm-start
	// callers treat such a result as a miss and re-solve cold.
	Centered bool
	// AssembleNanos, FactorNanos and LinesearchNanos split the solve's
	// wall time across its three phases — Hessian assembly, KKT
	// factorization+solve, and backtracking line search — summed over
	// all centerings, so callers can see which phase a structural
	// optimization actually moved.
	AssembleNanos   int64
	FactorNanos     int64
	LinesearchNanos int64
}

// KKTResidual returns ‖∇f0(X) + Σ λ_i ∇fi(X)‖∞, the stationarity
// residual of the recovered primal-dual pair.
func (r *Result) KKTResidual(p *Problem) float64 {
	n := p.Dim()
	g := linalg.NewVector(n)
	total := linalg.NewVector(n)
	p.Objective.Gradient(total, r.X)
	for i, c := range p.Constraints {
		c.Gradient(g, r.X)
		total.AddScaled(total, r.Lambda[i], g)
	}
	return total.NormInf()
}

// Barrier minimizes the problem from the strictly feasible start x0
// using the log-barrier interior-point method (Boyd & Vandenberghe,
// Algorithm 11.1). It returns ErrNumerical if centering stalls and a
// plain error for options that fail Validate.
func Barrier(p *Problem, x0 linalg.Vector, opts Options) (*Result, error) {
	return BarrierWS(p, x0, opts, nil)
}

// BarrierWS is Barrier with a caller-owned Workspace: all per-iteration
// scratch (gradient, Hessian, Newton direction, factorization) lives in
// ws, so a caller solving many same-shaped problems amortizes every
// allocation. A nil ws allocates a private workspace.
//
// When a centering fails (ErrNumerical, or an Interrupt error) the
// error comes with a Result that carries only the work spent before it
// — the iteration counters and phase timings — so callers can account
// for a failed attempt.
func BarrierWS(p *Problem, x0 linalg.Vector, opts Options, ws *Workspace) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	o := opts.withDefaults()
	n := p.Dim()
	if len(x0) != n {
		return nil, fmt.Errorf("solver: start has dim %d, want %d", len(x0), n)
	}
	if !p.IsStrictlyFeasible(x0) {
		return nil, fmt.Errorf("solver: start is not strictly feasible (max violation %v)", p.MaxViolation(x0))
	}
	if p.Pattern != nil && !p.Pattern.matches(p) {
		return nil, errors.New("solver: Hessian pattern does not describe the problem")
	}
	if ws == nil {
		ws = NewWorkspace(n)
	} else {
		ws.ensure(n)
	}

	x := x0.Clone()
	t := o.T0
	m := float64(len(p.Constraints))
	res := &Result{}

	// Backend selection: a compiled pattern (verified above) selects the
	// structured path; only a nil pattern reaches the dense reference
	// backend. Both backends live in the workspace, so neither branch
	// allocates.
	var ops kktOps
	if p.Pattern != nil {
		ws.ensureArrow(p.Pattern)
		ws.aops = arrowOps{p: p, pat: p.Pattern, ws: ws, objDiag: objectiveCurvature(p.Objective)}
		ops = &ws.aops
	} else {
		ws.dops = denseOps{p: p, ws: ws}
		ops = &ws.dops
	}

	gap := math.Inf(1) // bound certifying x; +Inf until a centering converges
	for outer := 0; outer < o.MaxOuter; outer++ {
		res.OuterIters++
		cs, err := center(x, t, gap, o, ws, ops)
		res.NewtonIters += cs.iters
		res.Centered = cs.converged
		res.AssembleNanos += cs.assembleNs
		res.FactorNanos += cs.factorNs
		res.LinesearchNanos += cs.linesearchNs
		if o.Centering != nil {
			o.Centering(t, cs.iters, cs.converged && err == nil, cs.assembleNs, cs.factorNs, cs.linesearchNs)
		}
		if err != nil {
			return res, err
		}
		if cs.stopped {
			res.StoppedEarly = true
			break
		}
		if len(p.Constraints) == 0 || m/t < o.Tol {
			break
		}
		gap = math.Inf(1)
		if cs.converged {
			gap = m / t
		}
		t *= o.Mu
	}

	res.X = x
	res.Objective = p.Objective.Value(x)
	if len(p.Constraints) > 0 {
		res.Gap = m / t
	}
	res.Lambda = linalg.NewVector(len(p.Constraints))
	for i, c := range p.Constraints {
		if v := c.Value(x); v < 0 {
			res.Lambda[i] = -1 / (t * v)
		}
	}
	return res, nil
}

// machEps is the double-precision unit round-off.
const machEps = 2.220446049250313e-16

// maxPolish bounds the consecutive pure-Newton polish steps a centering
// takes once the predicted decrement drops below the barrier value's
// round-off resolution (see center); quadratic convergence makes more
// than a few pointless.
const maxPolish = 6

// centerStats reports one centering stage: iteration count, whether
// StopEarly fired, whether the stage converged (reached a
// decrement/polish/descent exit rather than exhausting MaxNewton — the
// condition under which the iterate certifiably sits near the central
// path), and the stage's wall time split by phase.
type centerStats struct {
	iters                              int
	stopped, converged                 bool
	assembleNs, factorNs, linesearchNs int64
}

// center minimizes t·f0(x) + φ(x) over the strictly feasible set by
// damped Newton, updating x in place. gap is the duality bound that
// certifies the starting x (+Inf when it certifies nothing); StopEarly
// sees it at the first iterate only, since any Newton step moves x off
// the point it certifies. All problem evaluation and linear algebra
// goes through ops (dense or structured backend), which draws its
// scratch from ws; the two backends produce equivalent iterates.
func center(x linalg.Vector, t, gap float64, o Options, ws *Workspace, ops kktOps) (centerStats, error) {
	grad := ws.grad
	dx, xTrial := ws.dx, ws.xTrial
	polish, lastPolish := 0, math.Inf(1)
	var cs centerStats

	for iter := 1; iter <= o.MaxNewton; iter++ {
		cs.iters = iter
		if o.Interrupt != nil {
			if err := o.Interrupt(); err != nil {
				cs.iters = iter - 1
				return cs, err
			}
		}
		if iter == 2 {
			gap = math.Inf(1) // x has moved off the certified point
		}
		if o.StopEarly != nil && o.StopEarly(x, gap) {
			cs.iters = iter - 1
			cs.stopped, cs.converged = true, true
			return cs, nil
		}
		// Assemble gradient and Hessian of t·f0 + φ.
		tMark := time.Now()
		val, ok := ops.assemble(x, t)
		cs.assembleNs += time.Since(tMark).Nanoseconds()
		if !ok {
			return cs, fmt.Errorf("%w: iterate left the domain", ErrNumerical)
		}

		// Newton direction: solve H dx = -grad, regularizing if needed.
		tMark = time.Now()
		solved := ops.direction(dx)
		cs.factorNs += time.Since(tMark).Nanoseconds()
		if !solved {
			return cs, fmt.Errorf("%w: KKT system unsolvable", ErrNumerical)
		}

		// Newton decrement: λ² = -gradᵀdx (dx solves H dx = -grad).
		lambda2 := -grad.Dot(dx)
		if lambda2 < 0 {
			// Indefiniteness from regularization round-off; treat as done.
			lambda2 = 0
		}
		if lambda2/2 <= o.NewtonTol {
			cs.converged = true
			return cs, nil
		}
		// Below the barrier value's double-precision resolution the
		// Armijo test compares round-off noise: at large t the value is
		// t·f0 ~ 1e10 while the predicted decrement is ~1e-6, and the
		// backtracking loop would grind to MaxNewton without converging.
		// In that regime the decrement is far inside the quadratic
		// region, so take pure (undamped) Newton steps while they stay
		// strictly feasible and keep shrinking the decrement; a handful
		// suffices for the decrement to collapse below NewtonTol.
		if floor := 16 * machEps * math.Abs(val); lambda2/2 <= floor {
			if polish >= maxPolish || lambda2 >= lastPolish {
				cs.converged = true
				return cs, nil
			}
			polish++
			lastPolish = lambda2
			xTrial.Add(x, dx)
			tMark = time.Now()
			feasible := ops.feasible(xTrial)
			cs.linesearchNs += time.Since(tMark).Nanoseconds()
			if !feasible {
				cs.converged = true
				return cs, nil
			}
			copy(x, xTrial)
			continue
		}
		polish, lastPolish = 0, math.Inf(1)

		// Backtracking line search on t·f0 + φ, keeping strict
		// feasibility (ops.trial reports ok=false on any fi >= 0, which
		// subsumes the feasibility check). A failed search gets one
		// retry with an iteratively refined direction before giving up:
		// 1e18-range boundary curvatures can cost the factor+solve
		// enough digits that the raw direction yields no decrease.
		tMark = time.Now()
		improved := false
		for round := 0; round < 2 && !improved; round++ {
			if round == 1 {
				if !ops.refine(dx) {
					break
				}
				lambda2 = -grad.Dot(dx)
				if lambda2 < 0 {
					lambda2 = 0
				}
			}
			step := 1.0
			ops.lineStart(x, dx)
			for ls := 0; ls < 60; ls++ {
				if vt, okT := ops.trial(xTrial, x, dx, step, t); okT && vt <= val-o.Alpha*step*lambda2 {
					// Damped phase (λ²/2 > 1): the unit Newton step can stop
					// far short of the minimum along dx — on barrier valleys
					// with many near-parallel constraints (the gradient
					// variant's pairwise rows) this degrades Newton to a
					// constant-decrement crawl, hundreds of iterations per
					// centering. Forward-track: keep doubling the step while
					// the value strictly improves and the iterate stays in
					// the domain. Each probe is one value evaluation; in the
					// quadratic phase (λ small) the extension is skipped and
					// the unit step stands.
					if ls == 0 && lambda2/2 > 1 {
						best := vt
						for ext := 2 * step; ext <= 1024; ext *= 2 {
							ve, okE := ops.trial(xTrial, x, dx, ext, t)
							if !okE || ve >= best {
								break
							}
							best, step = ve, ext
						}
						xTrial.AddScaled(x, step, dx)
					}
					copy(x, xTrial)
					improved = true
					break
				}
				step *= o.Beta
			}
		}
		cs.linesearchNs += time.Since(tMark).Nanoseconds()
		if !improved {
			// No descent at the smallest step: declare convergence if the
			// decrement is already tiny, otherwise report failure.
			if lambda2/2 <= math.Sqrt(o.NewtonTol) {
				cs.converged = true
				return cs, nil
			}
			return cs, fmt.Errorf("%w: line search failed (decrement %v)", ErrNumerical, lambda2/2)
		}
	}
	cs.iters = o.MaxNewton
	return cs, nil
}

// assemble computes value, gradient and Hessian of t·f0 + φ at x.
// It returns ok=false if x is outside the barrier domain.
func assemble(p *Problem, x linalg.Vector, t float64, grad, gi linalg.Vector, hess *linalg.Matrix) (float64, bool) {
	n := p.Dim()
	val := t * p.Objective.Value(x)
	p.Objective.Gradient(grad, x)
	grad.Scale(t, grad)
	for i := 0; i < n; i++ {
		row := hess.Row(i)
		for j := range row {
			row[j] = 0
		}
	}
	p.Objective.AddHessian(hess, t, x)

	for _, c := range p.Constraints {
		fi := c.Value(x)
		if fi >= 0 {
			return 0, false
		}
		val -= math.Log(-fi)
		inv := -1 / fi // positive
		scale := 1 / (fi * fi)

		// Sparse fast path: an Affine with a nonzero index list only
		// contributes to those rows/columns.
		if a, ok := c.(*Affine); ok && a.NZ != nil {
			for _, r := range a.NZ {
				grad[r] += inv * a.A[r]
				gr := scale * a.A[r]
				row := hess.Row(r)
				for _, cc := range a.NZ {
					row[cc] += gr * a.A[cc]
				}
			}
			continue
		}

		c.Gradient(gi, x)
		grad.AddScaled(grad, inv, gi)
		// Hessian: (∇fi ∇fiᵀ)/fi² − ∇²fi/fi.
		for r := 0; r < n; r++ {
			gr := gi[r]
			if gr == 0 {
				continue
			}
			row := hess.Row(r)
			for cIdx := 0; cIdx < n; cIdx++ {
				row[cIdx] += scale * gr * gi[cIdx]
			}
		}
		c.AddHessian(hess, inv, x)
	}
	return val, true
}

// barrierValue computes t·f0 + φ at x, with ok=false outside the domain.
func barrierValue(p *Problem, x linalg.Vector, t float64) (float64, bool) {
	val := t * p.Objective.Value(x)
	for _, c := range p.Constraints {
		fi := c.Value(x)
		if fi >= 0 {
			return 0, false
		}
		val -= math.Log(-fi)
	}
	return val, true
}

// newtonDirection solves H dx = -g by Cholesky, retrying with a growing
// diagonal regularizer when H is numerically singular. All scratch —
// the right-hand side, the regularized copy and the factor — lives in
// ws, so the hot path (no regularization needed) factors straight into
// the reused buffer without allocating. Returns false only if even
// heavy regularization fails.
func newtonDirection(ws *Workspace, g, dx linalg.Vector) bool {
	h := ws.hessM()
	n := len(g)
	rhs := ws.rhs.Scale(-1, g)
	reg := 0.0
	scale := 0.0
	for attempt := 0; attempt < 8; attempt++ {
		trial := h
		if reg > 0 {
			trial = ws.reg
			trial.CopyFrom(h)
			for i := 0; i < n; i++ {
				trial.AddAt(i, i, reg)
			}
		}
		if err := linalg.CholeskyInto(&ws.chol, trial); err == nil {
			if err := ws.chol.SolveInto(dx, rhs); err == nil && dx.AllFinite() {
				return true
			}
		}
		if reg == 0 {
			// The O(n²) magnitude scan only runs when the unregularized
			// factorization actually failed — the hot path (success on
			// the first attempt) never pays for it.
			if scale == 0 {
				scale = 1 + h.MaxAbs()
			}
			reg = 1e-12 * scale
		} else {
			reg *= 1e3
		}
	}
	return false
}
