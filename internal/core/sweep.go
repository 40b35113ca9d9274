package core

import (
	"fmt"
	"math"

	"protemp/internal/linalg"
	"protemp/internal/power"
	"protemp/internal/solver"
	"protemp/internal/thermal"
)

// sweepPlan is the compiled, grid-point-independent structure of one
// TableSpec: the variable layout, the objective, every constraint
// coefficient vector, and the affine dependence of each temperature
// offset on TStart. The paper's Phase-1 sweep solves the same convex
// program nT×nF times with only two scalars changing — the starting
// temperature (which shifts the temperature constraints' offsets) and
// the frequency target (which shifts the workload constraint's offset).
// Compiling once and instantiating per grid point removes the per-point
// rebuild of ~m·blocks thermal rows and constraint objects that made
// every solve pay the full assembly cost (§5.1's "few hours with CVX").
type sweepPlan struct {
	ts  TableSpec
	lay layout

	// rows holds one compiled temperature map per (step, block):
	// c0(TStart) = t0Gain·TStart + c0Base, with coef independent of the
	// grid point entirely.
	rows []planRow

	objective solver.Func
	// phase1Objective is the feasibility phase's auxiliary objective,
	// −Σf (plus a tiny tgrad price), over the same variables.
	phase1Objective solver.Func
	// tempA/tempNZ are the shared coefficient vectors of the temperature
	// constraints, index-aligned with rows.
	tempA  []linalg.Vector
	tempNZ [][]int
	// static holds the grid-point-independent constraints (power
	// coupling and box constraints), shared read-only by every instance.
	static []solver.Func
	// workA/workNZ and workB0 define the workload constraint: B =
	// workScale·phi with phi = FTarget/fmax.
	workA     linalg.Vector
	workNZ    []int
	workScale float64
	// gradPairs compiles the VariantGradient pairwise constraints:
	// coefficient vectors are constant, offsets are row c0 differences.
	gradPairs []gradPair

	// pattern is the compiled arrow structure of the problem's barrier
	// Hessian, shared read-only by every instance (the solver
	// re-verifies it per solve).
	pattern *solver.HessianPattern
}

// planRow is one compiled temperature row.
type planRow struct {
	step, block int
	t0Gain      float64 // ∂c0/∂TStart (row sum of A^step over the chip)
	c0Base      float64 // TStart-independent part: drive + fixed power
	coef        linalg.Vector
	// t0Row is the per-block initial-state row of A^step (aliases the
	// window response), so an explicit thermal map T0 instantiates as
	// c0 = t0Row·T0 + c0Base — the online MPC path's per-window rewrite.
	// It is nil when the plan was compiled with a pinned T0 (offsets
	// folded into c0Base outright).
	t0Row linalg.Vector
}

// compileRows is the single assembly of the temperature-row structure,
// shared by compileSweep and Spec.tempRows: one row per (window step,
// constrained block), with the fixed (uncore) power and ambient drive
// folded into the offset and the per-core power gains scaled to
// normalized units. A nil t0 selects the uniform-TStart mode — the
// window's affine map is evaluated at t0 = 0 and t0 = 1 to separate
// the TStart-independent drive (c0Base) from the TStart gain (t0Gain),
// exploiting that base is affine in a uniform starting temperature. A
// non-nil t0 pins explicit per-block temperatures: the offset is
// computed outright and t0Gain stays zero.
func compileRows(chip *power.Chip, window *thermal.WindowResponse, allBlocks bool, t0 linalg.Vector) ([]planRow, error) {
	fp := chip.Floorplan()
	nb := fp.NumBlocks()
	n := chip.NumCores()
	if window.Dt() <= 0 {
		return nil, fmt.Errorf("core: invalid window")
	}
	if t0 != nil && len(t0) != nb {
		return nil, fmt.Errorf("core: t0 has %d entries for %d blocks", len(t0), nb)
	}
	var blocks []int
	if allBlocks {
		for i := 0; i < nb; i++ {
			blocks = append(blocks, i)
		}
	} else {
		blocks = fp.CoreIndices()
	}

	fixed := chip.FixedPower()
	m := window.Steps()
	rows := make([]planRow, 0, m*len(blocks))
	for k := 1; k <= m; k++ {
		for _, bi := range blocks {
			row := planRow{step: k, block: bi}
			t0Row, drive, gain, err := window.AffineRows(k, bi)
			if err != nil {
				return nil, err
			}
			if t0 != nil {
				// Pinned starting map: the whole offset is known now.
				row.c0Base = t0Row.Dot(t0) + drive + gain.Dot(fixed)
			} else {
				// Deferred: c0(TStart) = t0Gain·TStart + c0Base for the
				// uniform sweep, or c0(T0) = t0Row·T0 + c0Base for an
				// explicit per-block map (instance.setMap).
				row.t0Row = t0Row
				row.t0Gain = t0Row.Sum()
				row.c0Base = drive + gain.Dot(fixed)
			}
			coef := linalg.NewVector(n)
			for j := 0; j < n; j++ {
				g := gain[chip.CoreBlockIndex(j)]
				if g < 0 {
					return nil, fmt.Errorf("core: negative heat gain at step %d block %d", k, bi)
				}
				coef[j] = g * chip.CoreModelOf(j).PMax
			}
			row.coef = coef
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// gradPair is one compiled pairwise-gradient constraint: rows ri and rj
// give B = c0[ri] − c0[rj]; the coefficient vector is constant.
type gradPair struct {
	ri, rj int
	a      linalg.Vector
	nz     []int
}

// compileSweep builds the plan: everything about the TableSpec's convex
// program that does not depend on (TStart, FTarget), computed exactly
// once per sweep instead of once per grid point. It is also the single
// assembly behind Spec.build(), so the cold per-point path and the
// sweep cannot drift apart.
//
// A nil t0 selects the uniform-TStart mode, where each temperature
// offset is affine in the (yet unknown) starting temperature. A non-nil
// t0 pins explicit per-block starting temperatures (Spec.T0): offsets
// are computed outright and instance.set ignores its tstart argument.
func compileSweep(ts TableSpec, t0 linalg.Vector) (*sweepPlan, error) {
	chip := ts.Chip
	fp := chip.Floorplan()
	n := chip.NumCores()
	lay := newLayout(ts.Variant, n)
	pl := &sweepPlan{ts: ts, lay: lay}

	probe := Spec{
		Chip: ts.Chip, Window: ts.Window, TMax: ts.TMax,
		Variant: ts.Variant, GradWeight: ts.GradWeight, GradStride: ts.GradStride,
		ConstrainAllBlocks: ts.ConstrainAllBlocks,
	}

	rows, err := compileRows(chip, ts.Window, ts.ConstrainAllBlocks, t0)
	if err != nil {
		return nil, err
	}
	pl.rows = rows

	// Objective (shared, stateless).
	objA := linalg.NewVector(lay.dim)
	for j := 0; j < n; j++ {
		objA[lay.pIdx(j)] += chip.CoreModelOf(j).PMax
	}
	if ts.Variant == VariantGradient {
		objA[lay.gIdx()] = probe.gradWeight()
	}
	pl.objective = &solver.Affine{A: objA}

	// Temperature-constraint coefficient vectors (shared; offsets are
	// per instance).
	pl.tempA = make([]linalg.Vector, len(pl.rows))
	pl.tempNZ = make([][]int, len(pl.rows))
	for i, r := range pl.rows {
		a := linalg.NewVector(lay.dim)
		if ts.Variant == VariantUniform {
			a[lay.pIdx(0)] = r.coef.Sum()
		} else {
			for j := 0; j < n; j++ {
				a[lay.pIdx(j)] = r.coef[j]
			}
		}
		pl.tempA[i] = a
		pl.tempNZ[i] = nonzeroIndices(a)
	}

	// Power-frequency couplings (constant, shared).
	vars := lay.freqVars()
	for j := 0; j < vars; j++ {
		model := chip.CoreModelOf(j)
		d := linalg.NewVector(lay.dim)
		d[lay.fIdx(j)] = 1 - model.IdleFrac
		a := linalg.NewVector(lay.dim)
		a[lay.pIdx(j)] = -1
		q, err := solver.NewDiagQuadratic(d, a, model.IdleFrac)
		if err != nil {
			return nil, err
		}
		pl.static = append(pl.static, q)
	}

	// Workload constraint coefficients (offset varies with FTarget).
	pl.workA = linalg.NewVector(lay.dim)
	for j := 0; j < vars; j++ {
		pl.workA[lay.fIdx(j)] = -1
	}
	pl.workScale = float64(vars)
	pl.workNZ = nonzeroIndices(pl.workA)

	// The feasibility phase maximizes Σf: the workload row's
	// coefficients, plus the tgrad price that keeps it bounded.
	phase1A := pl.workA.Clone()
	if ts.Variant == VariantGradient {
		phase1A[lay.gIdx()] = phase1TGradWeight
	}
	pl.phase1Objective = &solver.Affine{A: phase1A}

	// Box constraints (constant, shared). The shared slice keeps the
	// ordering couplings, workload, box — the workload slot is spliced
	// in by the instance.
	for j := 0; j < vars; j++ {
		lo := linalg.NewVector(lay.dim)
		lo[lay.fIdx(j)] = -1
		hi := linalg.NewVector(lay.dim)
		hi[lay.fIdx(j)] = 1
		pu := linalg.NewVector(lay.dim)
		pu[lay.pIdx(j)] = 1
		pl.static = append(pl.static,
			solver.NewSparseAffine(lo, 0),
			solver.NewSparseAffine(hi, -1),
			solver.NewSparseAffine(pu, -1),
		)
	}

	// Gradient pairwise structure (VariantGradient): coefficient vectors
	// are TStart-independent; offsets are row-c0 differences.
	if ts.Variant == VariantGradient {
		isCore := make(map[int]bool)
		for _, bi := range fp.CoreIndices() {
			isCore[bi] = true
		}
		byStep := make(map[int][]int) // step -> indices into pl.rows
		for i, r := range pl.rows {
			if isCore[r.block] {
				byStep[r.step] = append(byStep[r.step], i)
			}
		}
		stride := probe.gradStride()
		m := ts.Window.Steps()
		for k := 1; k <= m; k++ {
			if k%stride != 0 && k != m {
				continue
			}
			stepRows := byStep[k]
			for i := 0; i < len(stepRows); i++ {
				for j := 0; j < len(stepRows); j++ {
					if i == j {
						continue
					}
					ri, rj := stepRows[i], stepRows[j]
					a := linalg.NewVector(lay.dim)
					for c := 0; c < n; c++ {
						a[lay.pIdx(c)] = pl.rows[ri].coef[c] - pl.rows[rj].coef[c]
					}
					a[lay.gIdx()] = -1
					pl.gradPairs = append(pl.gradPairs, gradPair{
						ri: ri, rj: rj, a: a, nz: nonzeroIndices(a),
					})
				}
			}
		}
	}

	// Compile the arrow structure against a probe instance: every
	// sibling instance shares the same coefficient vectors, so the one
	// pattern serves the sweep, the online MPC path, every DMPC cluster
	// and the feasibility phase. The f block is the frequency variables
	// — lay.fIdx is the identity over [0, vars).
	pat, err := solver.CompileHessianPattern(pl.instance().prob, vars)
	if err != nil {
		return nil, fmt.Errorf("core: compile Hessian pattern: %w", err)
	}
	pl.pattern = pat
	return pl, nil
}

// sweepInstance is one worker's mutable view of a compiled plan: a
// problem whose constraint offsets are rewritten in place per grid
// point, plus the tempRow buffer the start heuristics consume. The
// coefficient vectors alias the plan and are never written.
type sweepInstance struct {
	plan *sweepPlan
	prob *solver.Problem
	rows []tempRow // c0 refreshed per TStart; coef aliases the plan

	temp []*solver.Affine // temperature constraints, aligned with rows
	work *solver.Affine
	grad []*solver.Affine // aligned with plan.gradPairs

	curTStart float64 // last TStart the offsets were computed for
}

// instance materializes a per-worker problem over the shared plan.
func (pl *sweepPlan) instance() *sweepInstance {
	in := &sweepInstance{plan: pl, curTStart: math.NaN()}
	in.rows = make([]tempRow, len(pl.rows))
	for i, r := range pl.rows {
		in.rows[i] = tempRow{step: r.step, block: r.block, coef: r.coef}
	}
	in.prob = &solver.Problem{Objective: pl.objective}
	in.temp = make([]*solver.Affine, len(pl.rows))
	for i := range pl.rows {
		in.temp[i] = &solver.Affine{A: pl.tempA[i], NZ: pl.tempNZ[i]}
		in.prob.Constraints = append(in.prob.Constraints, in.temp[i])
	}
	// Splice the workload constraint between the couplings and the box
	// constraints.
	couplings := pl.lay.freqVars()
	for _, c := range pl.static[:couplings] {
		in.prob.Constraints = append(in.prob.Constraints, c)
	}
	in.work = &solver.Affine{A: pl.workA, NZ: pl.workNZ}
	in.prob.Constraints = append(in.prob.Constraints, in.work)
	for _, c := range pl.static[couplings:] {
		in.prob.Constraints = append(in.prob.Constraints, c)
	}
	in.grad = make([]*solver.Affine, len(pl.gradPairs))
	for i, gp := range pl.gradPairs {
		in.grad[i] = &solver.Affine{A: gp.a, NZ: gp.nz}
		in.prob.Constraints = append(in.prob.Constraints, in.grad[i])
	}
	in.prob.Pattern = pl.pattern
	return in
}

// set instantiates the compiled problem at one grid point: refresh the
// temperature offsets when TStart changed, always refresh the workload
// offset, and return the equivalent per-point Spec (for the start
// heuristics and the final forward-simulation check). The work is a
// handful of scalar writes per constraint — no allocation, no thermal
// re-evaluation.
func (in *sweepInstance) set(tstart, ftarget float64) *Spec {
	pl := in.plan
	if tstart != in.curTStart {
		in.curTStart = tstart
		for i := range in.rows {
			c0 := pl.rows[i].t0Gain*tstart + pl.rows[i].c0Base
			in.rows[i].c0 = c0
			in.temp[i].B = c0 - pl.ts.TMax
		}
		for i, gp := range pl.gradPairs {
			in.grad[i].B = in.rows[gp.ri].c0 - in.rows[gp.rj].c0
		}
	}
	in.work.B = pl.workScale * ftarget / pl.ts.Chip.FMax()
	return &Spec{
		Chip:               pl.ts.Chip,
		Window:             pl.ts.Window,
		TStart:             tstart,
		TMax:               pl.ts.TMax,
		FTarget:            ftarget,
		Variant:            pl.ts.Variant,
		GradWeight:         pl.ts.GradWeight,
		GradStride:         pl.ts.GradStride,
		ConstrainAllBlocks: pl.ts.ConstrainAllBlocks,
	}
}

// setMap instantiates the compiled problem at an explicit per-block
// starting map instead of a uniform TStart: every temperature offset is
// rewritten as c0 = t0Row·t0 + c0Base (one short dot product per row),
// the gradient-pair and workload offsets follow, and the equivalent
// per-point Spec is returned for the start heuristics and the forward
// check. Only valid on plans compiled with a nil t0 (compileSweep's
// deferred mode); the returned Spec aliases t0, which must stay
// unmodified for the duration of the solve. This is the online MPC hot
// path: each control window observes a fresh thermal map, and the
// rewrite replaces the full problem rebuild the cold path pays.
func (in *sweepInstance) setMap(t0 linalg.Vector, ftarget float64) *Spec {
	pl := in.plan
	// Poison the uniform-TStart memo: NaN never compares equal, so a
	// later set() always refreshes the offsets this call overwrites.
	in.curTStart = math.NaN()
	for i := range in.rows {
		c0 := pl.rows[i].t0Row.Dot(t0) + pl.rows[i].c0Base
		in.rows[i].c0 = c0
		in.temp[i].B = c0 - pl.ts.TMax
	}
	for i, gp := range pl.gradPairs {
		in.grad[i].B = in.rows[gp.ri].c0 - in.rows[gp.rj].c0
	}
	in.work.B = pl.workScale * ftarget / pl.ts.Chip.FMax()
	return &Spec{
		Chip:               pl.ts.Chip,
		Window:             pl.ts.Window,
		TMax:               pl.ts.TMax,
		FTarget:            ftarget,
		Variant:            pl.ts.Variant,
		GradWeight:         pl.ts.GradWeight,
		GradStride:         pl.ts.GradStride,
		ConstrainAllBlocks: pl.ts.ConstrainAllBlocks,
		T0:                 t0,
	}
}

// warmSeed re-centers a neighboring grid point's optimum into a
// strictly feasible start for the current point. The neighbor solved a
// lower FTarget at the same TStart, so its frequency sum sits at (or
// slightly above) the old workload bound; the deficit to the new bound
// is distributed proportionally to each core's frequency headroom,
// preserving the spatial shape the optimizer found — which is exactly
// what makes the seed strictly feasible near the capacity boundary
// where the uniform heuristics fail. Powers are re-derived from the
// power law with a small slack ladder.
//
// The returned gap estimate bounds the seed's suboptimality: the new
// optimum costs at least the neighbor's (feasible sets only shrink as
// FTarget rises), so f0(seed) − f0(prevX) plus the neighbor's own
// solve tolerance over-estimates f0(seed) − p*. solver.WarmStart
// turns it into the initial barrier weight. Returns (nil, 0) when no
// slack level yields strict feasibility (the caller falls back to the
// cold ladder).
func (in *sweepInstance) warmSeed(s *Spec, prevX linalg.Vector) (linalg.Vector, float64) {
	lay := in.plan.lay
	if prevX == nil || len(prevX) != lay.dim {
		return nil, 0
	}
	n := s.Chip.NumCores()
	phi := s.FTarget / s.Chip.FMax()
	vars := lay.freqVars()

	fn := linalg.NewVector(vars)
	var sum, headroom float64
	for j := 0; j < vars; j++ {
		fn[j] = clamp01(prevX[lay.fIdx(j)])
		sum += fn[j]
		headroom += 1 - fn[j]
	}
	// Lift the frequency sum strictly above the new workload bound,
	// spreading the deficit by headroom so no core is pushed past 1.
	need := in.plan.workScale*phi + 1e-6*float64(vars) - sum
	if need > 0 {
		if headroom <= need+1e-9 {
			return nil, 0
		}
		for j := 0; j < vars; j++ {
			fn[j] += need * (1 - fn[j]) / headroom
		}
	}
	for j := 0; j < vars; j++ {
		if fn[j] <= 0 || fn[j] >= 1 {
			return nil, 0
		}
	}

	pn := linalg.NewVector(n)
	for _, slack := range []float64{1e-2, 1e-3, 1e-4} {
		x := linalg.NewVector(lay.dim)
		ok := true
		for j := 0; j < vars; j++ {
			model := s.Chip.CoreModelOf(j)
			pj := model.AtFrequency(fn[j]*model.FMax)/model.PMax + slack
			if pj >= 1 {
				ok = false
				break
			}
			x[lay.fIdx(j)] = fn[j]
			x[lay.pIdx(j)] = pj
		}
		if !ok {
			continue
		}
		for j := 0; j < n; j++ {
			pn[j] = x[lay.pIdx(j)]
		}
		worst := math.Inf(-1)
		for _, r := range in.rows {
			if t := r.c0 + r.coef.Dot(pn) - s.TMax; t > worst {
				worst = t
			}
		}
		if worst >= -1e-6 {
			continue
		}
		if lay.variant == VariantGradient {
			// A tight margin keeps the seed's objective gap — and so the
			// derived warm barrier weight — close to the optimum: tgrad at
			// the optimum sits on the max pair gap, and every 0.1 °C of
			// extra slack here costs the warm solve an extra outer stage.
			x[lay.gIdx()] = maxPairGap(s, in.rows, pn) + 0.05
		}
		// Suboptimality bound: the seed costs obj(x); the new optimum
		// costs at least the neighbor's obj(prevX) minus its solve
		// tolerance. The floor keeps the derived barrier weight finite
		// when the grid step is tiny.
		gap := in.plan.objective.Value(x) - in.plan.objective.Value(prevX) + 1e-6
		if gap < 1e-6 {
			gap = 1e-6
		}
		return x, gap
	}
	return nil, 0
}

// nonzeroIndices returns the NZ sparsity list for a constraint
// coefficient vector, delegating to solver.NewSparseAffine so the
// compiled sweep's hand-assembled Affines follow the solver's own
// sparsity convention.
func nonzeroIndices(a linalg.Vector) []int {
	return solver.NewSparseAffine(a, 0).NZ
}
