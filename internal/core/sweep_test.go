package core

import (
	"context"
	"math"
	"sync"
	"testing"
)

// sweepGrid is the grid the equivalence tests sweep: wide enough to
// cross the capacity boundary (feasible and infeasible points, warm
// chains of length > 1) while staying fast.
var (
	sweepTStarts  = []float64{47, 77, 97}
	sweepFTargets = []float64{250e6, 500e6, 750e6, 1000e6}
)

func sweepSpec(t *testing.T, v Variant) TableSpec {
	f := niagaraFixture(t)
	return TableSpec{
		Chip:     f.chip,
		Window:   f.window,
		TMax:     100,
		TStarts:  sweepTStarts,
		FTargets: sweepFTargets,
		Variant:  v,
	}
}

// TestSweepMatchesColdPath is the golden equivalence test of the
// warm-started sweep pipeline: for every variant, GenerateTable (the
// compiled, neighbor-seeded path) must produce the identical
// feasibility mask as solving each grid point independently via
// SolveContext (the cold path), with Freqs and TotalPower agreeing
// within solver tolerance.
func TestSweepMatchesColdPath(t *testing.T) {
	for _, v := range []Variant{VariantVariable, VariantUniform, VariantGradient} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			ts := sweepSpec(t, v)
			tbl, err := GenerateTable(context.Background(), ts)
			if err != nil {
				t.Fatal(err)
			}
			for ti, tstart := range ts.TStarts {
				for fi, ftarget := range ts.FTargets {
					cold, err := SolveContext(context.Background(), &Spec{
						Chip: ts.Chip, Window: ts.Window, TStart: tstart,
						TMax: ts.TMax, FTarget: ftarget, Variant: v,
					})
					if err != nil {
						t.Fatal(err)
					}
					e := tbl.Entries[ti][fi]
					if e.Feasible != cold.Feasible {
						t.Fatalf("(%g, %g): sweep feasible=%v, cold feasible=%v",
							tstart, ftarget, e.Feasible, cold.Feasible)
					}
					if !e.Feasible {
						continue
					}
					// Both paths solve to a 1e-7 W duality gap; the unique
					// optimum makes per-core frequencies agree far tighter
					// than the 10 kHz (1e-5 fmax) bound used here.
					for j := range e.Freqs {
						if d := math.Abs(e.Freqs[j] - cold.Freqs[j]); d > 1e4 {
							t.Errorf("(%g, %g) core %d: sweep %g Hz vs cold %g Hz (Δ %g)",
								tstart, ftarget, j, e.Freqs[j], cold.Freqs[j], d)
						}
					}
					if d := math.Abs(e.TotalPower - cold.TotalPower); d > 1e-3 {
						t.Errorf("(%g, %g): sweep power %g W vs cold %g W (Δ %g)",
							tstart, ftarget, e.TotalPower, cold.TotalPower, d)
					}
					if d := math.Abs(e.AvgFreq - cold.AvgFreq); d > 1e4 {
						t.Errorf("(%g, %g): sweep avg %g Hz vs cold %g Hz",
							tstart, ftarget, e.AvgFreq, cold.AvgFreq)
					}
				}
			}
		})
	}
}

// pinnedMasks are the feasibility masks of the 7×8 grid below (rows
// TStart 47…100 °C, columns FTarget 125…1000 MHz, TMax 100) as the
// slack-variable Phase-I decided them before the feasibility phase
// replaced it; '#' marks a feasible entry.
var (
	pinnedTStarts  = []float64{47, 57, 67, 77, 87, 97, 100}
	pinnedFTargets = []float64{125e6, 250e6, 375e6, 500e6, 625e6, 750e6, 875e6, 1000e6}
	pinnedMasks    = map[Variant][]string{
		VariantVariable: {"######..", "######..", "######..", "#####...", "#####...", "#####...", "####...."},
		VariantUniform:  {"######..", "######..", "#####...", "#####...", "#####...", "####....", "####...."},
		VariantGradient: {"######..", "######..", "######..", "#####...", "#####...", "#####...", "####...."},
	}
)

// TestSweepMonotoneFeasibility is the property Phase-2 lookup relies
// on, asserted on warm-started tables: along each TStart row the
// feasible entries form a prefix (no holes as FTarget rises), and at
// each FTarget column feasibility never improves as the starting
// temperature rises. On the pinned grid every verdict must also match
// its recorded mask, so a single point the infeasibility certificate
// calls differently fails.
func TestSweepMonotoneFeasibility(t *testing.T) {
	for _, v := range []Variant{VariantVariable, VariantUniform, VariantGradient} {
		ts := sweepSpec(t, v)
		tbl, err := GenerateTable(context.Background(), ts)
		if err != nil {
			t.Fatal(err)
		}
		checkMonotone(t, v, tbl)

		ts.TStarts, ts.FTargets = pinnedTStarts, pinnedFTargets
		pinned, err := GenerateTable(context.Background(), ts)
		if err != nil {
			t.Fatal(err)
		}
		checkMonotone(t, v, pinned)
		for ti, want := range pinnedMasks[v] {
			got := make([]byte, len(pinned.FTargets))
			for fi, e := range pinned.Entries[ti] {
				got[fi] = '.'
				if e.Feasible {
					got[fi] = '#'
				}
			}
			if string(got) != want {
				t.Errorf("%s: %g °C row mask %s, want %s", v, pinned.TStarts[ti], got, want)
			}
		}
	}
}

func checkMonotone(t *testing.T, v Variant, tbl *Table) {
	t.Helper()
	for ti := range tbl.Entries {
		for fi := 1; fi < len(tbl.FTargets); fi++ {
			if tbl.Entries[ti][fi].Feasible && !tbl.Entries[ti][fi-1].Feasible {
				t.Errorf("%s: row %d has a feasibility hole at column %d", v, ti, fi)
			}
		}
	}
	for fi := range tbl.FTargets {
		for ti := 1; ti < len(tbl.TStarts); ti++ {
			if tbl.Entries[ti][fi].Feasible && !tbl.Entries[ti-1][fi].Feasible {
				t.Errorf("%s: column %d regains feasibility at hotter row %d", v, fi, ti)
			}
		}
	}
}

// TestSweepWarmStats checks the sweep's cost ledger: warm hits happen
// (ascending-FTarget rows with more than one feasible point must chain)
// and the counters are internally consistent.
func TestSweepWarmStats(t *testing.T) {
	ts := sweepSpec(t, VariantVariable)
	tbl, err := GenerateTable(context.Background(), ts)
	if err != nil {
		t.Fatal(err)
	}
	s := tbl.Stats
	if s.Solves != len(ts.TStarts)*len(ts.FTargets) {
		t.Errorf("solves = %d, want %d", s.Solves, len(ts.TStarts)*len(ts.FTargets))
	}
	if s.WarmHits == 0 {
		t.Error("sweep recorded no warm hits; neighbor seeding is not engaging")
	}
	if s.WarmHits > s.Feasible {
		t.Errorf("warm hits %d exceed feasible count %d", s.WarmHits, s.Feasible)
	}
	if s.WarmIters > s.NewtonIters {
		t.Errorf("warm iters %d exceed total %d", s.WarmIters, s.NewtonIters)
	}
	if s.WallNanos <= 0 {
		t.Error("solve wall time not recorded")
	}
	if saved := s.IterationsSaved(); saved < 0 {
		t.Errorf("negative iterations saved %d", saved)
	}
}

// TestSweepObserver checks the progress callback: one serialized call
// per grid point, Done covering 1..Total exactly once.
func TestSweepObserver(t *testing.T) {
	ts := sweepSpec(t, VariantVariable)
	var mu sync.Mutex
	seen := make(map[int]SweepProgress)
	ts.Observer = func(p SweepProgress) {
		mu.Lock()
		defer mu.Unlock()
		if _, dup := seen[p.Done]; dup {
			t.Errorf("duplicate Done value %d", p.Done)
		}
		seen[p.Done] = p
	}
	if _, err := GenerateTable(context.Background(), ts); err != nil {
		t.Fatal(err)
	}
	total := len(ts.TStarts) * len(ts.FTargets)
	if len(seen) != total {
		t.Fatalf("observer saw %d points, want %d", len(seen), total)
	}
	for done, p := range seen {
		if done < 1 || done > total {
			t.Errorf("Done = %d outside [1, %d]", done, total)
		}
		if p.Total != total {
			t.Errorf("Total = %d, want %d", p.Total, total)
		}
		if p.TStart != ts.TStarts[p.TI] || p.FTarget != ts.FTargets[p.FI] {
			t.Errorf("progress coordinates (%g, %g) disagree with indices (%d, %d)",
				p.TStart, p.FTarget, p.TI, p.FI)
		}
	}
}

// TestSweepCacheKeyIgnoresObserverAndWorkers pins the CacheKey
// compatibility promise: the sweep pipeline's new Observer field, like
// Workers, changes cost, not content.
func TestSweepCacheKeyIgnoresObserverAndWorkers(t *testing.T) {
	a := sweepSpec(t, VariantVariable)
	b := sweepSpec(t, VariantVariable)
	b.Observer = func(SweepProgress) {}
	b.Workers = 3
	if a.CacheKey() != b.CacheKey() {
		t.Error("CacheKey depends on Observer or Workers")
	}
}
