package solver

import (
	"math"

	"protemp/internal/linalg"
)

// kktOps abstracts the Newton-KKT backend of one centering: assembling
// the barrier gradient/Hessian, solving for the Newton direction, and
// evaluating the barrier value and strict feasibility of trial points.
// The arrow backend exploits a compiled HessianPattern and carries
// every production solve; the dense backend is its reference, reached
// only by a problem with a nil Pattern. Both live inside the
// Workspace, so selecting one allocates nothing.
type kktOps interface {
	// assemble computes value and gradient (into ws.grad) of t·f0 + φ at
	// x and builds the backend's Hessian representation. ok=false when x
	// is outside the barrier domain.
	assemble(x linalg.Vector, t float64) (float64, bool)
	// direction solves H dx = −grad for the assembled system, with the
	// shared regularized-retry ladder. Returns false when even heavy
	// regularization fails.
	direction(dx linalg.Vector) bool
	// refine applies one step of iterative refinement to dx against the
	// most recently assembled system and its factor, reporting whether a
	// correction was applied. Called only after a failed line search:
	// near the boundary the Hessian carries 1e18-range curvatures, where
	// a single factor+solve can lose enough digits that the direction
	// yields no Armijo decrease. The successful path never refines, so
	// healthy solves keep their direction bit-for-bit.
	refine(dx linalg.Vector) bool
	// value computes t·f0 + φ at x; ok=false outside the domain.
	value(x linalg.Vector, t float64) (float64, bool)
	// lineStart caches direction-dependent state for trial evaluations
	// along x + s·dx; every trial between here and the next lineStart
	// uses the same x and dx.
	lineStart(x, dx linalg.Vector)
	// trial writes x + step·dx into xTrial and returns its barrier value
	// (as value does), using any state cached by lineStart.
	trial(xTrial, x, dx linalg.Vector, step, t float64) (float64, bool)
	// feasible reports strict feasibility of x.
	feasible(x linalg.Vector) bool
}

// denseOps is the dense backend: full-matrix assembly and Cholesky.
type denseOps struct {
	p  *Problem
	ws *Workspace
}

func (d *denseOps) assemble(x linalg.Vector, t float64) (float64, bool) {
	return assemble(d.p, x, t, d.ws.grad, d.ws.gi, d.ws.hessM())
}

func (d *denseOps) direction(dx linalg.Vector) bool {
	return newtonDirection(d.ws, d.ws.grad, dx)
}

// refine corrects dx by the residual of the unregularized Newton
// system, reusing the factor newtonDirection left in the workspace as
// the solver for the correction.
func (d *denseOps) refine(dx linalg.Vector) bool {
	ws := d.ws
	r := ws.gi
	ws.hessM().MulVec(r, dx)
	rhs := ws.rhs // still −grad from direction
	for i, bi := range rhs {
		r[i] = bi - r[i]
	}
	if err := ws.chol.SolveInto(r, r); err != nil || !r.AllFinite() {
		return false
	}
	dx.Add(dx, r)
	return dx.AllFinite()
}

func (d *denseOps) value(x linalg.Vector, t float64) (float64, bool) {
	return barrierValue(d.p, x, t)
}

func (d *denseOps) lineStart(x, dx linalg.Vector) {}

func (d *denseOps) trial(xTrial, x, dx linalg.Vector, step, t float64) (float64, bool) {
	xTrial.AddScaled(x, step, dx)
	return barrierValue(d.p, xTrial, t)
}

func (d *denseOps) feasible(x linalg.Vector) bool {
	return d.p.IsStrictlyFeasible(x)
}

// arrowOps is the structured backend over a compiled HessianPattern:
// per-shape scatter into an ArrowKKT, batched SYRK accumulation of the
// row constraints, batched matvec evaluation of their values, and
// block-elimination factorization. Shares the regularized-retry ladder
// and failure semantics with the dense path.
type arrowOps struct {
	p       *Problem
	pat     *HessianPattern
	ws      *Workspace
	objDiag linalg.Vector // live objective curvature, nil when affine
}

// logFlush folds the running slack product into val once it leaves the
// range where another factor could drift toward double-precision
// under/overflow, returning the (possibly reset) product. Batching the
// barrier's Σ −log(−fi) as the log of a running product replaces one
// Log call per row constraint with one per few dozen rows.
func logFlush(prod float64, val *float64) float64 {
	if prod > 1e-120 && prod < 1e120 {
		return prod
	}
	*val -= math.Log(prod)
	return 1
}

// rowB returns the live offset of row constraint ci (offsets are what
// the per-window rewrite mutates, so they are never compiled).
func (a *arrowOps) rowB(ci int) float64 {
	return a.p.Constraints[ci].(*Affine).B
}

func (a *arrowOps) assemble(x linalg.Vector, t float64) (float64, bool) {
	pat, st := a.pat, &a.ws.ast
	nf := pat.nf
	grad := a.ws.grad

	// The barrier log terms accumulate in acc — a small-magnitude
	// accumulator added to the t·f0 term once at the end — in the same
	// class order as value/trial. At large t the value is ~1e12 with an
	// ulp far above the per-term rounding, so assemble and the line
	// search evaluations must round identically or the Armijo test
	// compares noise (the dense path gets this for free by sharing one
	// evaluation routine).
	tf0 := t * a.p.Objective.Value(x)
	acc := 0.0
	a.p.Objective.Gradient(grad, x)
	grad.Scale(t, grad)

	kkt := &st.kkt
	kkt.DF.Fill(0)
	kkt.VF.Fill(0)
	kkt.CF.Fill(0)
	kkt.S.Reset()
	if a.objDiag != nil {
		for j, dj := range a.objDiag {
			if dj == 0 {
				continue
			}
			if j < nf {
				kkt.DF[j] += 2 * t * dj
			} else {
				kkt.S.AddAt(j-nf, j-nf, 2*t*dj)
			}
		}
	}

	// Row constraints: one matvec for all values, one transposed matvec
	// for the gradient, one blocked SYRK for the Hessian block. The raw
	// matvec values are kept in lu so a following lineStart at this x
	// skips its origin matvec.
	if len(pat.rows) > 0 {
		xd := x[nf:]
		pat.g.MulVec(st.fi, xd)
		prod := 1.0
		for r := range pat.rows {
			st.lu[r] = st.fi[r]
			fi := st.fi[r] + a.rowB(pat.rows[r].ci)
			if fi >= 0 {
				return 0, false
			}
			prod = logFlush(prod*-fi, &acc)
			st.fi[r] = -1 / fi // inv, consumed by the gradient matvec
			st.alpha[r] = 1 / (fi * fi)
		}
		acc -= math.Log(prod)
		pat.g.MulVecT(st.gd, st.fi)
		gd := grad[nf:]
		gd.Add(gd, st.gd)
		kkt.S.AddSyrk(pat.g, st.alpha)
	}

	for i := range pat.fDiag {
		c := &pat.fDiag[i]
		fi := c.a*x[c.idx] + a.rowB(c.ci)
		if fi >= 0 {
			return 0, false
		}
		acc -= math.Log(-fi)
		grad[c.idx] += -1 / fi * c.a
		kkt.DF[c.idx] += c.a * c.a / (fi * fi)
	}
	for i := range pat.dDiag {
		c := &pat.dDiag[i]
		fi := c.a*x[nf+c.idx] + a.rowB(c.ci)
		if fi >= 0 {
			return 0, false
		}
		acc -= math.Log(-fi)
		grad[nf+c.idx] += -1 / fi * c.a
		kkt.S.AddAt(c.idx, c.idx, c.a*c.a/(fi*fi))
	}
	if r1 := pat.rank1; r1 != nil {
		fi := a.rowB(r1.ci)
		for _, j := range r1.nz {
			fi += r1.a[j] * x[j]
		}
		if fi >= 0 {
			return 0, false
		}
		acc -= math.Log(-fi)
		inv := -1 / fi
		for _, j := range r1.nz {
			grad[j] += inv * r1.a[j]
			kkt.VF[j] = inv * r1.a[j] // VFᵀVF = a·aᵀ/fi²
		}
	}
	for i := range pat.couples {
		c := &pat.couples[i]
		var q, gf, gdv float64
		q = c.b
		if c.fi >= 0 {
			xf := x[c.fi]
			q += c.df*xf*xf + c.af*xf
			gf = 2*c.df*xf + c.af
		}
		if c.dcol >= 0 {
			xd := x[nf+c.dcol]
			q += c.dd*xd*xd + c.ad*xd
			gdv = 2*c.dd*xd + c.ad
		}
		if q >= 0 {
			return 0, false
		}
		acc -= math.Log(-q)
		inv := -1 / q
		sc := 1 / (q * q)
		if c.fi >= 0 {
			grad[c.fi] += inv * gf
			kkt.DF[c.fi] += gf*gf*sc + inv*2*c.df
		}
		if c.dcol >= 0 {
			grad[nf+c.dcol] += inv * gdv
			kkt.S.AddAt(c.dcol, c.dcol, gdv*gdv*sc+inv*2*c.dd)
		}
		if c.fi >= 0 && c.dcol >= 0 {
			kkt.CF[c.fi] += gf * gdv * sc
		}
	}
	return tf0 + acc, true
}

func (a *arrowOps) direction(dx linalg.Vector) bool {
	st := &a.ws.ast
	rhs := a.ws.rhs.Scale(-1, a.ws.grad)
	reg, scale := 0.0, 0.0
	for attempt := 0; attempt < 8; attempt++ {
		if st.fac.Factor(&st.kkt, reg) == nil {
			if st.fac.SolveInto(dx, rhs) == nil && dx.AllFinite() {
				return true
			}
		}
		if reg == 0 {
			if scale == 0 {
				scale = 1 + st.kkt.MaxAbs()
			}
			reg = 1e-12 * scale
		} else {
			reg *= 1e3
		}
	}
	return false
}

// refine corrects dx by the residual of the unregularized arrow
// system, reusing the block-elimination factor direction left behind
// as the solver for the correction.
func (a *arrowOps) refine(dx linalg.Vector) bool {
	st := &a.ws.ast
	st.kkt.MulVec(st.rr, dx, 0)
	rhs := a.ws.rhs // still −grad from direction
	for i, bi := range rhs {
		st.rr[i] = bi - st.rr[i]
	}
	if st.fac.SolveInto(st.rr, st.rr) != nil || !st.rr.AllFinite() {
		return false
	}
	dx.Add(dx, st.rr)
	return dx.AllFinite()
}

func (a *arrowOps) value(x linalg.Vector, t float64) (float64, bool) {
	pat, st := a.pat, &a.ws.ast
	nf := pat.nf
	tf0 := t * a.p.Objective.Value(x)
	acc := 0.0
	if len(pat.rows) > 0 {
		pat.g.MulVec(st.fi, x[nf:])
		prod := 1.0
		for r := range pat.rows {
			fi := st.fi[r] + a.rowB(pat.rows[r].ci)
			if fi >= 0 {
				return 0, false
			}
			prod = logFlush(prod*-fi, &acc)
		}
		acc -= math.Log(prod)
	}
	acc, ok := a.scalarLogSum(x, acc)
	if !ok {
		return 0, false
	}
	return tf0 + acc, true
}

// lineStart caches the row-batch directional matvec v = g·dx_d. The
// origin values u = g·x_d were already stowed in lu by the assemble
// call at this same x (center always assembles before searching), so
// every trial point x + s·dx evaluates all row constraints as
// u[r] + s·v[r] + B in O(rows) instead of a full matvec per candidate
// step.
func (a *arrowOps) lineStart(x, dx linalg.Vector) {
	pat, st := a.pat, &a.ws.ast
	if len(pat.rows) == 0 {
		return
	}
	pat.g.MulVec(st.lv, dx[pat.nf:])
}

func (a *arrowOps) trial(xTrial, x, dx linalg.Vector, step, t float64) (float64, bool) {
	pat, st := a.pat, &a.ws.ast
	xTrial.AddScaled(x, step, dx)
	tf0 := t * a.p.Objective.Value(xTrial)
	acc := 0.0
	if len(pat.rows) > 0 {
		prod := 1.0
		for r := range pat.rows {
			fi := st.lu[r] + step*st.lv[r] + a.rowB(pat.rows[r].ci)
			if fi >= 0 {
				return 0, false
			}
			prod = logFlush(prod*-fi, &acc)
		}
		acc -= math.Log(prod)
	}
	acc, ok := a.scalarLogSum(xTrial, acc)
	if !ok {
		return 0, false
	}
	return tf0 + acc, true
}

func (a *arrowOps) feasible(x linalg.Vector) bool {
	pat, st := a.pat, &a.ws.ast
	nf := pat.nf
	if len(pat.rows) > 0 {
		pat.g.MulVec(st.fi, x[nf:])
		for r := range pat.rows {
			if st.fi[r]+a.rowB(pat.rows[r].ci) >= 0 {
				return false
			}
		}
	}
	_, ok := a.scalarLogSum(x, 0)
	return ok
}

// scalarLogSum accumulates Σ −log(−fi) over every non-row constraint
// at x (each evaluated over its compiled support, so O(support) not
// O(dim)) into the running accumulator sum, with ok=false as soon as
// any value leaves the barrier domain. Starting from the caller's
// accumulator keeps the rounding order identical across assemble,
// value and trial — a requirement, not a convenience: at large t the
// Armijo test resolves differences near the value's ulp.
func (a *arrowOps) scalarLogSum(x linalg.Vector, sum float64) (float64, bool) {
	pat := a.pat
	nf := pat.nf
	for i := range pat.fDiag {
		c := &pat.fDiag[i]
		fi := c.a*x[c.idx] + a.rowB(c.ci)
		if fi >= 0 {
			return 0, false
		}
		sum -= math.Log(-fi)
	}
	for i := range pat.dDiag {
		c := &pat.dDiag[i]
		fi := c.a*x[nf+c.idx] + a.rowB(c.ci)
		if fi >= 0 {
			return 0, false
		}
		sum -= math.Log(-fi)
	}
	if r1 := pat.rank1; r1 != nil {
		fi := a.rowB(r1.ci)
		for _, j := range r1.nz {
			fi += r1.a[j] * x[j]
		}
		if fi >= 0 {
			return 0, false
		}
		sum -= math.Log(-fi)
	}
	for i := range pat.couples {
		c := &pat.couples[i]
		q := c.b
		if c.fi >= 0 {
			xf := x[c.fi]
			q += c.df*xf*xf + c.af*xf
		}
		if c.dcol >= 0 {
			xd := x[nf+c.dcol]
			q += c.dd*xd*xd + c.ad*xd
		}
		if q >= 0 {
			return 0, false
		}
		sum -= math.Log(-q)
	}
	return sum, true
}
