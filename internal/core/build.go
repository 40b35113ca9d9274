package core

import "protemp/internal/linalg"

// layout records the variable layout of a built problem.
//
// VariantVariable:  x = [fn_0..fn_{n-1}, pn_0..pn_{n-1}]          (dim 2n)
// VariantGradient:  x = [fn..., pn..., g]                          (dim 2n+1)
// VariantUniform:   x = [fn, pn]                                   (dim 2)
//
// fn_j = f_j / fmax_j and pn_j = p_j / pmax_j are normalized to [0, 1]
// so the Newton systems stay well-scaled; g is the gradient bound in °C.
type layout struct {
	variant Variant
	nCores  int
	dim     int
}

func newLayout(v Variant, nCores int) layout {
	switch v {
	case VariantUniform:
		return layout{variant: v, nCores: nCores, dim: 2}
	case VariantGradient:
		return layout{variant: v, nCores: nCores, dim: 2*nCores + 1}
	default:
		return layout{variant: v, nCores: nCores, dim: 2 * nCores}
	}
}

// freqVars returns the number of frequency variables: one shared
// frequency for VariantUniform, one per core otherwise. They occupy
// x[:freqVars()].
func (l layout) freqVars() int {
	if l.variant == VariantUniform {
		return 1
	}
	return l.nCores
}

func (l layout) fIdx(j int) int {
	if l.variant == VariantUniform {
		return 0
	}
	return j
}

func (l layout) pIdx(j int) int {
	if l.variant == VariantUniform {
		return 1
	}
	return l.nCores + j
}

func (l layout) gIdx() int { return 2 * l.nCores }

// tempRow holds the affine dependence of one constrained temperature on
// the normalized core powers: t = c0 + Σ_j coef_j·pn_j.
type tempRow struct {
	step  int
	block int
	c0    float64
	coef  linalg.Vector // length nCores, nonnegative
}

// startTemps returns the initial temperature vector: the per-block T0
// extension when provided, the paper's uniform TStart otherwise.
func (s *Spec) startTemps(nb int) linalg.Vector {
	if s.T0 != nil {
		return linalg.VectorOf(s.T0...)
	}
	return linalg.Constant(nb, s.TStart)
}

// tempRows assembles the affine temperature maps for every window step
// k = 1..m and every constrained block, folding the fixed (uncore)
// power and the ambient drive into c0. It delegates to compileRows —
// the same assembly the sweep compiles — evaluated at this spec's
// exact starting temperatures.
func (s *Spec) tempRows() ([]tempRow, error) {
	nb := s.Chip.Floorplan().NumBlocks()
	compiled, err := compileRows(s.Chip, s.Window, s.ConstrainAllBlocks, s.startTemps(nb))
	if err != nil {
		return nil, err
	}
	rows := make([]tempRow, len(compiled))
	for i, r := range compiled {
		rows[i] = tempRow{step: r.step, block: r.block, c0: r.c0Base, coef: r.coef}
	}
	return rows, nil
}

// build instantiates the spec's problem by compiling a single-point
// sweep plan and setting it at (TStart, FTarget) — the same assembly
// GenerateTable's warm-started sweep uses, so the cold per-point path
// and the sweep cannot drift apart. See compileSweep for the constraint
// layout (the paper's Eqs. 2-5).
func (s *Spec) build() (*sweepInstance, error) {
	ts := TableSpec{
		Chip: s.Chip, Window: s.Window, TMax: s.TMax,
		TStarts: []float64{s.TStart}, FTargets: []float64{s.FTarget},
		Variant: s.Variant, GradWeight: s.GradWeight, GradStride: s.GradStride,
		ConstrainAllBlocks: s.ConstrainAllBlocks,
	}
	var t0 linalg.Vector
	if s.T0 != nil {
		t0 = linalg.VectorOf(s.T0...)
	}
	pl, err := compileSweep(ts, t0)
	if err != nil {
		return nil, err
	}
	in := pl.instance()
	in.set(s.TStart, s.FTarget)
	return in, nil
}
