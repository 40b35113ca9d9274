package core

import (
	"context"
	"testing"

	"protemp/internal/floorplan"
	"protemp/internal/obs"
	"protemp/internal/power"
	"protemp/internal/thermal"
)

// centeringCounter is a recorder that sums the Newton iterations of the
// barrier centerings it observes.
type centeringCounter struct{ centerings, iters int }

func (r *centeringCounter) SolveStart(float64)              {}
func (r *centeringCounter) WarmDecision(bool, bool, string) {}
func (r *centeringCounter) Rung(string)                     {}
func (r *centeringCounter) SolveEnd(bool, error)            {}
func (r *centeringCounter) Outer(int, float64, float64)     {}
func (r *centeringCounter) Fallback(string)                 {}
func (r *centeringCounter) Cluster(int) obs.Recorder        { return r }
func (r *centeringCounter) Centering(_ float64, iters int, _ bool, _, _, _ int64) {
	r.centerings++
	r.iters += iters
}

// manyCoreSpec is a 64-core ManyCore(8, 8) mesh of Niagara cores on the
// fixture's 1 ms / 100-step window.
func manyCoreSpec(t *testing.T) OnlineSpec {
	t.Helper()
	fp, err := floorplan.ManyCore(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	chip, err := power.NewChip(fp, power.NiagaraCore(), power.UncoreShare)
	if err != nil {
		t.Fatal(err)
	}
	model, err := thermal.NewRC(fp, thermal.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	disc, err := model.Discretize(1e-3)
	if err != nil {
		t.Fatal(err)
	}
	window, err := disc.Window(100)
	if err != nil {
		t.Fatal(err)
	}
	return OnlineSpec{Chip: chip, Window: window, TMax: 100}
}

// TestInfeasibleSolveReportsCost pins that an infeasible verdict is not
// free: the Assignment and the step stats carry the feasibility phase's
// Newton iterations and assembly time, and the recorder sees the same
// iterations as centerings.
func TestInfeasibleSolveReportsCost(t *testing.T) {
	o, err := NewOnlineSolver(onlineSpec(t, VariantVariable))
	if err != nil {
		t.Fatal(err)
	}
	rec := &centeringCounter{}
	o.SetRecorder(rec)
	a, st, err := o.Solve(context.Background(), 95, nil, 0.95*o.Chip().FMax())
	if err != nil {
		t.Fatal(err)
	}
	if a.Feasible {
		t.Fatal("95 °C at 95% of fmax should be infeasible")
	}
	if a.NewtonIters <= 0 || a.AssembleNanos <= 0 {
		t.Fatalf("infeasible verdict reports %d Newton iterations, %d ns assembly", a.NewtonIters, a.AssembleNanos)
	}
	if st.NewtonIters != a.NewtonIters || st.AssembleNanos != a.AssembleNanos || st.FactorNanos != a.FactorNanos {
		t.Fatalf("step stats %+v disagree with the assignment's cost", st)
	}
	if rec.iters != a.NewtonIters {
		t.Fatalf("recorder saw %d Newton iterations, the verdict reports %d", rec.iters, a.NewtonIters)
	}
}

// TestInfeasibleWindowBounded is the bounded-infeasibility gate, counted
// in Newton iterations: on one thermal map, an infeasible window costs
// at most 5× the iterations of a feasible cold solve, at 8 and 64
// cores; a window too hot even for idle returns without entering the
// barrier.
func TestInfeasibleWindowBounded(t *testing.T) {
	const tstart, maxRatio = 95, 5
	cases := []struct {
		name  string
		short bool
		spec  func(*testing.T) OnlineSpec
	}{
		{"cores8", true, func(t *testing.T) OnlineSpec { return onlineSpec(t, VariantVariable) }},
		{"cores64", false, manyCoreSpec},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if !tc.short && testing.Short() {
				t.Skip("64-core solves in -short mode")
			}
			spec := tc.spec(t)
			fmax := spec.Chip.FMax()
			solve := func(tstart, target float64) (*Assignment, *centeringCounter) {
				t.Helper()
				o, err := NewOnlineSolver(spec)
				if err != nil {
					t.Fatal(err)
				}
				rec := &centeringCounter{}
				o.SetRecorder(rec)
				a, _, err := o.Solve(context.Background(), tstart, nil, target)
				if err != nil {
					t.Fatal(err)
				}
				return a, rec
			}

			feasible, _ := solve(tstart, 0.4*fmax)
			if !feasible.Feasible || feasible.NewtonIters <= 0 {
				t.Fatalf("reference solve feasible=%v iters=%d", feasible.Feasible, feasible.NewtonIters)
			}
			for _, share := range []float64{0.7, 0.95} {
				a, _ := solve(tstart, share*fmax)
				if a.Feasible {
					t.Fatalf("%.0f%% of fmax at %d °C should be infeasible", 100*share, tstart)
				}
				if a.NewtonIters == 0 {
					t.Fatalf("%.0f%% of fmax: verdict reports no Newton iterations, so its cost is unbounded by this gate", 100*share)
				}
				if a.NewtonIters > maxRatio*feasible.NewtonIters {
					t.Errorf("%.0f%% of fmax: infeasible verdict took %d Newton iterations, > %d× the feasible solve's %d",
						100*share, a.NewtonIters, maxRatio, feasible.NewtonIters)
				}
				t.Logf("%.0f%% of fmax: %d iterations vs %d feasible", 100*share, a.NewtonIters, feasible.NewtonIters)
			}

			idle, rec := solve(130, 0.5*fmax)
			if idle.Feasible {
				t.Fatal("130 °C start should be infeasible even at idle")
			}
			if idle.NewtonIters != 0 || rec.centerings != 0 {
				t.Fatalf("idle-infeasible window entered the barrier: %d iterations, %d centerings", idle.NewtonIters, rec.centerings)
			}
		})
	}
}
