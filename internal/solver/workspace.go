package solver

import "protemp/internal/linalg"

// Workspace holds every scratch buffer a barrier solve needs: the
// gradient, per-constraint gradient, Newton direction, line search
// trial point, right-hand side, and the backend state — dense Hessian,
// regularized copy and Cholesky factor for the dense path, or the
// ArrowKKT and block-elimination factor for the structured path. A
// sweep that solves thousands of same-shaped problems allocates one
// Workspace per worker and threads it through BarrierWS/WarmStart,
// turning the per-Newton-iteration clone+factor of the naive path into
// in-place work on caller-owned memory.
//
// The dense Hessian buffers are allocated lazily on first dense
// assembly, so a solve on the structured path (every solve with a
// Pattern) never pays for the (dim)² dense storage. A Workspace is
// resized on demand, so one instance can serve problems of different
// dimensions; resizing reallocates, matching stays allocation-free. It
// must not be used from more than one solve at a time.
type Workspace struct {
	n      int
	grad   linalg.Vector
	gi     linalg.Vector
	dx     linalg.Vector
	xTrial linalg.Vector
	rhs    linalg.Vector
	warm   linalg.Vector // WarmStart's re-centering blend point
	hess   *linalg.Matrix
	reg    *linalg.Matrix // regularized Hessian for factorization retries
	chol   linalg.CholFactor

	// Backend selections live in the workspace so BarrierWS hands center
	// a kktOps without allocating.
	dops denseOps
	aops arrowOps
	ast  arrowState
}

// arrowState is the structured backend's scratch, sized per compiled
// pattern: the ArrowKKT being assembled, its factor, and the row-batch
// buffers (values/inverses, SYRK scales, dense-block gradient).
type arrowState struct {
	pat   *HessianPattern
	kkt   linalg.ArrowKKT
	fac   linalg.ArrowFactor
	fi    linalg.Vector // row-constraint values, then their −1/fi
	alpha linalg.Vector // row-constraint 1/fi² SYRK scales
	gd    linalg.Vector // dense-block gradient scratch
	lu    linalg.Vector // line search: row values g·x_d at the search origin
	lv    linalg.Vector // line search: row directional values g·dx_d
	rr    linalg.Vector // full-dimension residual for iterative refinement
}

// NewWorkspace returns a workspace pre-sized for dimension-n problems.
func NewWorkspace(n int) *Workspace {
	w := &Workspace{}
	w.ensure(n)
	return w
}

// ensure sizes the buffers for dimension n, reallocating only when the
// dimension actually changes.
func (w *Workspace) ensure(n int) {
	if w.n == n && w.grad != nil {
		return
	}
	w.n = n
	w.grad = linalg.NewVector(n)
	w.gi = linalg.NewVector(n)
	w.dx = linalg.NewVector(n)
	w.xTrial = linalg.NewVector(n)
	w.rhs = linalg.NewVector(n)
	w.warm = linalg.NewVector(n)
	w.hess = nil
	w.reg = nil
	w.chol = linalg.CholFactor{}
	w.ast = arrowState{}
}

// hessM returns the dense Hessian buffer, allocating it (and the
// regularization copy) on first use.
func (w *Workspace) hessM() *linalg.Matrix {
	if w.hess == nil {
		w.hess = linalg.NewMatrix(w.n, w.n)
		w.reg = linalg.NewMatrix(w.n, w.n)
	}
	return w.hess
}

// ensureArrow sizes the structured-backend state for the given compiled
// pattern; re-entry with the same pattern is free.
func (w *Workspace) ensureArrow(pat *HessianPattern) {
	if w.ast.pat == pat {
		return
	}
	w.ast = arrowState{
		pat: pat,
		kkt: linalg.ArrowKKT{
			DF:  linalg.NewVector(pat.nf),
			VF:  linalg.NewVector(pat.nf),
			CF:  linalg.NewVector(pat.nf),
			Col: pat.coupleCol, // read-only, shared with the pattern
			S:   linalg.NewPackedSym(pat.nd),
		},
		fi:    linalg.NewVector(len(pat.rows)),
		alpha: linalg.NewVector(len(pat.rows)),
		gd:    linalg.NewVector(pat.nd),
		lu:    linalg.NewVector(len(pat.rows)),
		lv:    linalg.NewVector(len(pat.rows)),
		rr:    linalg.NewVector(pat.nf + pat.nd),
	}
}
