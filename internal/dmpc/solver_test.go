package dmpc

import (
	"context"
	"testing"

	"protemp/internal/floorplan"
	"protemp/internal/metrics"
	"protemp/internal/power"
	"protemp/internal/thermal"
)

func niagaraSolver(t *testing.T, opts Options) *Solver {
	t.Helper()
	chip, err := power.NewChip(floorplan.Niagara(), power.NiagaraCore(), power.UncoreShare)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Chip:   chip,
		Params: thermal.DefaultParams(),
		Dt:     1e-3,
		Steps:  100,
		TMax:   100,
		Opts:   opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSolveBasic(t *testing.T) {
	s := niagaraSolver(t, Options{Clusters: 2})
	hist := &metrics.Histogram{}
	s.ClusterNanos = hist
	a, stats, err := s.Solve(context.Background(), 80, nil, 0.6e9)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Feasible || len(a.Freqs) != 8 {
		t.Fatalf("assignment: feasible=%v cores=%d", a.Feasible, len(a.Freqs))
	}
	for k, f := range a.Freqs {
		if f < 0 || f > s.Chip().FMax() {
			t.Fatalf("core %d frequency %g out of range", k, f)
		}
	}
	if stats.OuterIters < 1 || stats.ClusterSolves < 2 {
		t.Fatalf("stats: %+v", stats)
	}
	if hist.Count() != uint64(stats.ClusterSolves) {
		t.Fatalf("cluster latency histogram has %d samples for %d solves", hist.Count(), stats.ClusterSolves)
	}
	// A second window from a mild state should ride the warm chain.
	_, stats2, err := s.Solve(context.Background(), 80, nil, 0.6e9)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.WarmHits == 0 {
		t.Fatalf("no warm hits on the second window: %+v", stats2)
	}
}

func TestInvalidateResetsWarmAndDuals(t *testing.T) {
	s := niagaraSolver(t, Options{Clusters: 2})
	if _, _, err := s.Solve(context.Background(), 85, nil, 0.7e9); err != nil {
		t.Fatal(err)
	}
	for c := range s.lambda {
		s.lambda[c][0] = 3.5 // pretend consensus state accumulated
	}
	s.Invalidate()
	for c, sub := range s.subs {
		if sub.ol.Warm() {
			t.Fatalf("cluster %d still warm after Invalidate", c)
		}
		for hi, l := range s.lambda[c] {
			if l != 0 {
				t.Fatalf("cluster %d dual %d = %g after Invalidate", c, hi, l)
			}
		}
	}
}

// TestFallbackCentralized forces the consensus loop to give up after
// one iteration with an unreachable tolerance; on a chip under the
// FallbackCores limit the centralized rung must produce the decision.
func TestFallbackCentralized(t *testing.T) {
	s := niagaraSolver(t, Options{Clusters: 2, MaxOuter: 1, PrimalTolC: 1e-12, AcceptTolC: 1e-12})
	a, stats, err := s.Solve(context.Background(), 85, nil, 0.7e9)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Fallback || stats.Converged {
		t.Fatalf("expected fallback, got %+v", stats)
	}
	if !a.Feasible || len(a.Freqs) != 8 {
		t.Fatalf("fallback assignment: %+v", a)
	}
	if s.central == nil {
		t.Fatal("centralized rung never compiled")
	}
}

// TestCentralFallbackDowngradeCountsWarmOutcome forces central-fallback
// windows that downgrade: from a hot start the target is unsupportable,
// so the centralized rung bisects and re-solves. After the first such
// window every solver — each cluster's and the central one — holds an
// optimum, so every solve of the second window reports a warm hit or a
// warm reject, the downgraded central re-solve included.
func TestCentralFallbackDowngradeCountsWarmOutcome(t *testing.T) {
	s := niagaraSolver(t, Options{Clusters: 2, MaxOuter: 1, PrimalTolC: 1e-12, AcceptTolC: 1e-12})
	var stats StepStats
	for w := 0; w < 2; w++ {
		var err error
		if _, stats, err = s.Solve(context.Background(), 95, nil, 0.95e9); err != nil {
			t.Fatal(err)
		}
		if !stats.Fallback || stats.Downgrades == 0 || stats.Idles != 0 {
			t.Fatalf("window %d: want a downgrading fallback window, got %+v", w, stats)
		}
	}
	if got := stats.WarmHits + stats.WarmRejects; got != stats.ClusterSolves {
		t.Fatalf("warm hits %d + rejects %d cover %d of %d solves",
			stats.WarmHits, stats.WarmRejects, got, stats.ClusterSolves)
	}
}

// TestFallbackWorstCase forces the conservative rung (FallbackCores
// below the chip size): every halo pinned to TMax must still yield a
// usable, in-range decision.
func TestFallbackWorstCase(t *testing.T) {
	s := niagaraSolver(t, Options{Clusters: 2, MaxOuter: 1, PrimalTolC: 1e-12, AcceptTolC: 1e-12, FallbackCores: 1})
	a, stats, err := s.Solve(context.Background(), 85, nil, 0.7e9)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Fallback {
		t.Fatalf("expected fallback, got %+v", stats)
	}
	if s.central != nil {
		t.Fatal("worst-case rung should not compile the centralized solver")
	}
	for k, f := range a.Freqs {
		if f < 0 || f > s.Chip().FMax() {
			t.Fatalf("core %d frequency %g out of range", k, f)
		}
	}
}

// TestManyCoreSolve exercises the scaling target: a 64-core mesh under
// the default partition solves windows without ever compiling a dense
// full-chip problem.
func TestManyCoreSolve(t *testing.T) {
	if testing.Short() {
		t.Skip("many-core solve in short mode")
	}
	fp, err := floorplan.ManyCore(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	chip, err := power.NewChip(fp, power.NiagaraCore(), power.UncoreShare)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Chip:   chip,
		Params: thermal.DefaultParams(),
		Dt:     0.4e-3,
		Steps:  100,
		TMax:   100,
		Opts:   Options{Workers: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Clusters() != 8 {
		t.Fatalf("default clusters = %d, want 8", s.Clusters())
	}
	a, stats, err := s.Solve(context.Background(), 75, nil, 0.5e9)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Freqs) != 64 {
		t.Fatalf("%d freqs for 64 cores", len(a.Freqs))
	}
	if stats.ClusterSolves < 8 {
		t.Fatalf("stats: %+v", stats)
	}
	if s.central != nil {
		t.Fatal("dense centralized problem was compiled")
	}
	if a.AvgFreq <= 0 {
		t.Fatalf("average frequency %g", a.AvgFreq)
	}
}

func TestConfigRejections(t *testing.T) {
	chip, err := power.NewChip(floorplan.Niagara(), power.NiagaraCore(), power.UncoreShare)
	if err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Params: thermal.DefaultParams(), Dt: 1e-3, Steps: 100, TMax: 100},
		{Chip: chip, Params: thermal.DefaultParams(), Dt: 0, Steps: 100, TMax: 100},
		{Chip: chip, Params: thermal.DefaultParams(), Dt: 1e-3, Steps: 0, TMax: 100},
		{Chip: chip, Params: thermal.DefaultParams(), Dt: 1e-3, Steps: 100, TMax: 0},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: New accepted %+v", i, cfg)
		}
	}
	if _, _, err := niagaraSolver(t, Options{}).Solve(context.Background(), 80, make([]float64, 3), 0.5e9); err == nil {
		t.Error("short t0 accepted")
	}
}
