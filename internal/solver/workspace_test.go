package solver

import (
	"errors"
	"math"
	"testing"

	"protemp/internal/linalg"
)

// wsBoxProblem is a small LP over the unit box with known optimum:
// minimize cᵀx subject to 0 <= x <= 1, solved at the vertex selected
// by the signs of c.
func wsBoxProblem(t *testing.T, c linalg.Vector) *Problem {
	t.Helper()
	n := len(c)
	p := &Problem{Objective: &Affine{A: c}}
	for j := 0; j < n; j++ {
		lo := linalg.NewVector(n)
		lo[j] = -1
		hi := linalg.NewVector(n)
		hi[j] = 1
		p.Constraints = append(p.Constraints,
			NewSparseAffine(lo, 0),
			NewSparseAffine(hi, -1),
		)
	}
	return p
}

func wsBoxOptimum(c linalg.Vector) linalg.Vector {
	x := linalg.NewVector(len(c))
	for j, cj := range c {
		if cj < 0 {
			x[j] = 1
		}
	}
	return x
}

// TestWorkspaceReuseMatchesFresh solves a family of problems twice —
// once with a single shared workspace, once allocating per solve — and
// requires bitwise-equal trajectories: the workspace is pure scratch
// and must never leak state between solves.
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	costs := []linalg.Vector{
		linalg.VectorOf(1, -2, 3),
		linalg.VectorOf(-1, -1, -1),
		linalg.VectorOf(2, 0.5, -0.25),
	}
	ws := NewWorkspace(3)
	for _, c := range costs {
		p := wsBoxProblem(t, c)
		x0 := linalg.Constant(3, 0.5)
		shared, err := BarrierWS(p, x0, Options{}, ws)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Barrier(p, x0, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !shared.X.Equal(fresh.X, 0) {
			t.Errorf("c=%v: shared-workspace X %v != fresh X %v", c, shared.X, fresh.X)
		}
		if shared.NewtonIters != fresh.NewtonIters {
			t.Errorf("c=%v: shared %d iters, fresh %d", c, shared.NewtonIters, fresh.NewtonIters)
		}
		if !shared.X.Equal(wsBoxOptimum(c), 1e-5) {
			t.Errorf("c=%v: optimum %v, want %v", c, shared.X, wsBoxOptimum(c))
		}
	}
}

// TestWorkspaceResizes runs problems of different dimensions through
// one workspace.
func TestWorkspaceResizes(t *testing.T) {
	ws := NewWorkspace(2)
	for _, n := range []int{2, 4, 2, 3} {
		c := linalg.Constant(n, 1)
		res, err := BarrierWS(wsBoxProblem(t, c), linalg.Constant(n, 0.5), Options{}, ws)
		if err != nil {
			t.Fatal(err)
		}
		if !res.X.Equal(linalg.NewVector(n), 1e-5) {
			t.Errorf("n=%d: X = %v, want origin", n, res.X)
		}
	}
}

// TestWarmStartFromNeighborOptimum replays the sweep pattern: solve one
// problem cold, shift the objective slightly, and warm-start the
// neighbor from the previous optimum. The warm solve must reach the
// same optimum as a cold solve of the shifted problem, in fewer
// iterations given an honest gap estimate.
func TestWarmStartFromNeighborOptimum(t *testing.T) {
	p1 := wsBoxProblem(t, linalg.VectorOf(1, 1, -1))
	ws := NewWorkspace(3)
	res1, err := BarrierWS(p1, linalg.Constant(3, 0.5), Options{}, ws)
	if err != nil {
		t.Fatal(err)
	}

	p2 := wsBoxProblem(t, linalg.VectorOf(1.05, 0.95, -1.02))
	cold, err := Barrier(p2, linalg.Constant(3, 0.5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The previous optimum sits on the boundary, so re-centering must
	// blend toward the supplied interior anchor.
	anchor := linalg.Constant(3, 0.5)
	gapEst := math.Abs(p2.Objective.Value(res1.X)-p2.Objective.Value(cold.X)) + 1e-6
	warm, err := WarmStart(p2, res1.X, anchor, gapEst, Options{}, ws)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.X.Equal(cold.X, 1e-4) {
		t.Errorf("warm optimum %v != cold optimum %v", warm.X, cold.X)
	}
	if warm.NewtonIters >= cold.NewtonIters {
		t.Errorf("warm start took %d iters, cold %d — no saving", warm.NewtonIters, cold.NewtonIters)
	}
}

// TestWarmStartRejectsHopelessSeed: a seed outside the feasible set
// with no anchor must return ErrWarmStart (fall back cold), not solve
// or fail numerically.
func TestWarmStartRejectsHopelessSeed(t *testing.T) {
	p := wsBoxProblem(t, linalg.VectorOf(1, 1))
	_, err := WarmStart(p, linalg.VectorOf(5, 5), nil, 1, Options{}, nil)
	if !errors.Is(err, ErrWarmStart) {
		t.Fatalf("err = %v, want ErrWarmStart", err)
	}
	// With an interior anchor the same seed re-centers and solves.
	res, err := WarmStart(p, linalg.VectorOf(5, 5), linalg.Constant(2, 0.5), 1, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.X.Equal(linalg.NewVector(2), 1e-4) {
		t.Errorf("X = %v, want origin", res.X)
	}
}

// TestOptionsValidation pins the loud-rejection contract: zero always
// selects defaults, legitimate unusual tunings are kept verbatim, and
// nonsensical ones error out of Barrier instead of being silently
// replaced.
func TestOptionsValidation(t *testing.T) {
	p := wsBoxProblem(t, linalg.VectorOf(1, 1))
	x0 := linalg.Constant(2, 0.5)

	// A barely-above-one Mu is slow but legitimate: it must be honored,
	// which shows up as far more outer iterations than the default 20.
	slow, err := Barrier(p, x0, Options{Mu: 1.5, MaxOuter: 200})
	if err != nil {
		t.Fatal(err)
	}
	def, err := Barrier(p, x0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if slow.OuterIters <= def.OuterIters {
		t.Errorf("Mu=1.5 ran %d outer iters, default %d — custom Mu was not honored",
			slow.OuterIters, def.OuterIters)
	}

	bad := []Options{
		{Mu: 1},
		{Mu: 0.5},
		{Mu: math.NaN()},
		{Tol: -1},
		{Tol: math.Inf(1)},
		{NewtonTol: -1},
		{MaxNewton: -1},
		{MaxOuter: -1},
		{Alpha: 0.7},
		{Alpha: -0.1},
		{Beta: 1.5},
		{T0: -2},
		{T0: math.NaN()},
	}
	for _, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("Options %+v passed Validate", o)
		}
		if _, err := Barrier(p, x0, o); err == nil {
			t.Errorf("Barrier accepted invalid Options %+v", o)
		}
	}
	if err := (Options{}).Validate(); err != nil {
		t.Errorf("zero Options rejected: %v", err)
	}
	if err := (Options{Mu: 1.0001}).Validate(); err != nil {
		t.Errorf("legitimate Mu=1.0001 rejected: %v", err)
	}
}
