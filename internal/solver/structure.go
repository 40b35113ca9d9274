package solver

import (
	"fmt"

	"protemp/internal/linalg"
)

// HessianPattern is the compiled arrow-structure hint of a Problem over
// the variable split x = [f (nf entries) | dense block (nd entries)]:
// every constraint is classified once, at plan-compile time, into one
// of five shapes whose barrier Hessian contributions land in closed
// positions of a linalg.ArrowKKT —
//
//   - fDiag:    affine with one nonzero in f (frequency box rows) → f diagonal
//   - rank1:    affine with several nonzeros, all in f (the workload
//     constraint) → the single rank-one border; at most one allowed
//   - couple:   diagonal quadratic touching at most one f and one dense
//     variable (the power-frequency couplings) → f diagonal, dense
//     diagonal and one off-diagonal coefficient
//   - dDiag:    affine with one nonzero in the dense block (power box
//     rows) → dense diagonal
//   - row:      affine with several nonzeros, all in the dense block
//     (temperature rows, gradient pairs) → one row of the shared G
//     matrix, accumulated into the dense block by blocked SYRK
//
// Anything else fails compilation. A pattern is compiled against one
// materialized Problem but is valid for every sibling instance of the
// same plan: the coefficient vectors are shared (matches verifies
// data-pointer identity) while the offsets B and the objective are read
// live from the instance, which is exactly what the per-window rewrite
// and an auxiliary objective swap mutate.
type HessianPattern struct {
	dim, nf, nd int
	m           int // constraint count the pattern was compiled for

	fDiag   []patScalar
	dDiag   []patScalar
	rank1   *patRank1
	couples []patCouple
	rows    []patRow

	// g holds the dense-block coefficients of the row constraints,
	// aligned with rows; shared read-only by every workspace.
	g *linalg.Matrix

	// coupleCol maps each f variable to its coupled dense column (−1
	// when uncoupled) — the ArrowKKT Col vector, shared read-only.
	coupleCol []int
}

// patScalar is a single-nonzero affine constraint: index within its
// block, coefficient, and the identity of the compiled A vector.
type patScalar struct {
	ci   int
	idx  int
	a    float64
	aPtr *float64
}

// patRank1 is the all-f multi-nonzero affine (workload) constraint.
type patRank1 struct {
	ci   int
	nz   []int
	a    linalg.Vector
	aPtr *float64
}

// patCouple is a diagonal quadratic with at most one f and one dense
// support variable.
type patCouple struct {
	ci       int
	fi, dcol int // f index and dense-local column, −1 when absent
	df, dd   float64
	af, ad   float64
	b        float64
	dPtr     *float64
	aPtr     *float64
}

// patRow is one dense-block row constraint, aligned with a row of g.
type patRow struct {
	ci   int
	aPtr *float64
}

// NumRows reports the number of SYRK-batched row constraints, for
// sizing diagnostics.
func (hp *HessianPattern) NumRows() int { return len(hp.rows) }

// CompileHessianPattern classifies p's constraints against the f/dense
// split [0,nf) | [nf,dim). It returns an error when any constraint (or
// the objective) falls outside the arrow shapes above.
func CompileHessianPattern(p *Problem, nf int) (*HessianPattern, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	dim := p.Dim()
	if nf < 0 || nf > dim {
		return nil, fmt.Errorf("solver: f block size %d outside [0, %d]", nf, dim)
	}
	hp := &HessianPattern{dim: dim, nf: nf, nd: dim - nf, m: len(p.Constraints)}
	if !diagonalObjective(p.Objective) {
		return nil, fmt.Errorf("solver: objective %T has no compiled Hessian shape", p.Objective)
	}
	hp.coupleCol = make([]int, nf)
	for i := range hp.coupleCol {
		hp.coupleCol[i] = -1
	}

	for ci, c := range p.Constraints {
		switch c := c.(type) {
		case *Affine:
			nz := c.NZ
			if nz == nil {
				for i, v := range c.A {
					if v != 0 {
						nz = append(nz, i)
					}
				}
			}
			if len(nz) == 0 {
				return nil, fmt.Errorf("solver: constraint %d is constant", ci)
			}
			nF := 0
			for _, i := range nz {
				if i < nf {
					nF++
				}
			}
			switch {
			case nF == len(nz) && len(nz) == 1:
				hp.fDiag = append(hp.fDiag, patScalar{ci: ci, idx: nz[0], a: c.A[nz[0]], aPtr: &c.A[0]})
			case nF == len(nz):
				if hp.rank1 != nil {
					return nil, fmt.Errorf("solver: constraint %d is a second f-block rank-one (only one border supported)", ci)
				}
				hp.rank1 = &patRank1{ci: ci, nz: nz, a: c.A, aPtr: &c.A[0]}
			case nF == 0 && len(nz) == 1:
				hp.dDiag = append(hp.dDiag, patScalar{ci: ci, idx: nz[0] - nf, a: c.A[nz[0]], aPtr: &c.A[0]})
			case nF == 0:
				hp.rows = append(hp.rows, patRow{ci: ci, aPtr: &c.A[0]})
			default:
				return nil, fmt.Errorf("solver: constraint %d mixes f and dense nonzeros", ci)
			}
		case *DiagQuadratic:
			fi, dcol := -1, -1
			for i := range c.A {
				if c.D[i] == 0 && c.A[i] == 0 {
					continue
				}
				if i < nf {
					if fi >= 0 {
						return nil, fmt.Errorf("solver: constraint %d touches two f variables", ci)
					}
					fi = i
				} else {
					if dcol >= 0 {
						return nil, fmt.Errorf("solver: constraint %d touches two dense variables", ci)
					}
					dcol = i - nf
				}
			}
			pc := patCouple{ci: ci, fi: fi, dcol: dcol, b: c.B, dPtr: &c.D[0], aPtr: &c.A[0]}
			if fi >= 0 {
				pc.df, pc.af = c.D[fi], c.A[fi]
			}
			if dcol >= 0 {
				pc.dd, pc.ad = c.D[nf+dcol], c.A[nf+dcol]
			}
			if fi >= 0 && dcol >= 0 {
				if prev := hp.coupleCol[fi]; prev >= 0 && prev != dcol {
					return nil, fmt.Errorf("solver: f variable %d couples to two dense columns", fi)
				}
				hp.coupleCol[fi] = dcol
			}
			hp.couples = append(hp.couples, pc)
		default:
			return nil, fmt.Errorf("solver: constraint %d (%T) has no compiled Hessian shape", ci, c)
		}
	}

	hp.g = linalg.NewMatrix(len(hp.rows), hp.nd)
	for r, pr := range hp.rows {
		a := p.Constraints[pr.ci].(*Affine).A
		copy(hp.g.Row(r), a[nf:])
	}
	return hp, nil
}

// Matches reports whether the pattern still describes p — the same
// check BarrierWS runs before selecting the structured backend.
// Callers compiling a pattern once and reusing it across problem
// instances can assert the hint is still live (a false return means
// every solve with it fails).
func (hp *HessianPattern) Matches(p *Problem) bool { return hp.matches(p) }

// matches reports whether the pattern still describes p: same shape, an
// objective with diagonal curvature, and every classified constraint at
// its compiled index with the identical coefficient storage. Sibling
// instances of one compiled plan share coefficient vectors, so the
// check is a pointer walk — O(m) with no arithmetic — done once per
// solve; any drift (a hand-built problem, reallocated constraints) is a
// BarrierWS error rather than a solve on stale coefficients.
func (hp *HessianPattern) matches(p *Problem) bool {
	if p.Dim() != hp.dim || len(p.Constraints) != hp.m || !diagonalObjective(p.Objective) {
		return false
	}
	affineAt := func(ci int, aPtr *float64) bool {
		c, ok := p.Constraints[ci].(*Affine)
		return ok && len(c.A) > 0 && &c.A[0] == aPtr
	}
	for i := range hp.fDiag {
		if !affineAt(hp.fDiag[i].ci, hp.fDiag[i].aPtr) {
			return false
		}
	}
	for i := range hp.dDiag {
		if !affineAt(hp.dDiag[i].ci, hp.dDiag[i].aPtr) {
			return false
		}
	}
	if hp.rank1 != nil && !affineAt(hp.rank1.ci, hp.rank1.aPtr) {
		return false
	}
	for i := range hp.rows {
		if !affineAt(hp.rows[i].ci, hp.rows[i].aPtr) {
			return false
		}
	}
	for i := range hp.couples {
		pc := &hp.couples[i]
		c, ok := p.Constraints[pc.ci].(*DiagQuadratic)
		if !ok || &c.D[0] != pc.dPtr || &c.A[0] != pc.aPtr || c.B != pc.b {
			return false
		}
	}
	return true
}

// diagonalObjective reports whether f has a Hessian shape the arrow
// backend assembles: none (affine) or diagonal.
func diagonalObjective(f Func) bool {
	switch f.(type) {
	case *Affine, *DiagQuadratic:
		return true
	}
	return false
}

// objectiveCurvature returns the diagonal curvature of an objective the
// pattern accepts (aliasing its D), nil when it is affine.
func objectiveCurvature(f Func) linalg.Vector {
	if q, ok := f.(*DiagQuadratic); ok {
		return q.D
	}
	return nil
}
