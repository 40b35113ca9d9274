package protemp

import (
	"context"
	"fmt"

	"protemp/internal/core"
	"protemp/internal/floorplan"
	"protemp/internal/power"
	"protemp/internal/thermal"
)

// Option configures an Engine. Options are applied over the paper's
// defaults (Niagara-8 floorplan, 1 GHz / 4 W cores, 30% uncore share,
// 0.4 ms thermal step, 250-step = 100 ms DFS window, 100 °C limit,
// per-core variable-frequency variant). An option always takes effect,
// so legitimate zero values are representable (WithUncoreShare(0)
// means no uncore power) and invalid ones are rejected explicitly
// (WithTMax(0)) rather than silently replaced by a default.
type Option func(*engineConfig) error

// engineConfig is the resolved option set an Engine is built from.
type engineConfig struct {
	fp            *floorplan.Floorplan
	coreModel     power.CoreModel
	uncoreShare   float64
	thermalParams thermal.Params
	dt            float64
	windowSteps   int
	tmax          float64
	variant       core.Variant
	tstarts       []float64
	ftargets      []float64 // nil means DefaultFTargets(fmax)
	workers       int
	cacheSize     int
	store         TableStore
	fetcher       TableFetcher
	observer      core.SweepObserver
	// Distributed-MPC (ADMM) configuration; zero fields select the
	// dmpc package defaults.
	clusters       int
	admmMaxOuter   int
	admmTolC       float64
	admmAcceptTolC float64
	admmWorkers    int
	// Flight-recorder configuration; zero lastN leaves tracing off.
	flightLastN int
	flightSlowN int
}

func defaultEngineConfig() engineConfig {
	return engineConfig{
		fp:            floorplan.Niagara(),
		coreModel:     power.NiagaraCore(),
		uncoreShare:   power.UncoreShare,
		thermalParams: thermal.DefaultParams(),
		dt:            0.4e-3,
		windowSteps:   250,
		tmax:          100,
		variant:       core.VariantVariable,
		tstarts:       core.DefaultTStarts(),
		ftargets:      nil,
		workers:       0,
		cacheSize:     8,
	}
}

// WithFloorplan sets the chip floorplan (default the paper's
// Niagara-8 plan).
func WithFloorplan(fp *floorplan.Floorplan) Option {
	return func(c *engineConfig) error {
		if fp == nil {
			return fmt.Errorf("protemp: nil floorplan")
		}
		c.fp = fp
		return nil
	}
}

// WithCoreModel sets the per-core DVFS power law (default the paper's
// 1 GHz / 4 W cores).
func WithCoreModel(m power.CoreModel) Option {
	return func(c *engineConfig) error {
		if err := m.Validate(); err != nil {
			return err
		}
		c.coreModel = m
		return nil
	}
}

// WithUncoreShare sets the fixed non-core power as a fraction of the
// cores' total maximum power (default the paper's 0.30). Zero is a
// legitimate value: a chip whose caches and interconnect draw nothing.
func WithUncoreShare(share float64) Option {
	return func(c *engineConfig) error {
		if share < 0 {
			return fmt.Errorf("protemp: negative uncore share %g", share)
		}
		c.uncoreShare = share
		return nil
	}
}

// WithThermalParams sets the RC-synthesis parameters (default
// thermal.DefaultParams()).
func WithThermalParams(p thermal.Params) Option {
	return func(c *engineConfig) error {
		c.thermalParams = p
		return nil
	}
}

// WithWindow sets the thermal co-simulation step dt (seconds) and the
// DFS window horizon in steps; dt·steps is the control period (the
// paper uses 0.4 ms × 250 = 100 ms).
func WithWindow(dt float64, steps int) Option {
	return func(c *engineConfig) error {
		if dt <= 0 {
			return fmt.Errorf("protemp: non-positive thermal step %g", dt)
		}
		if steps < 1 {
			return fmt.Errorf("protemp: window of %d steps", steps)
		}
		c.dt = dt
		c.windowSteps = steps
		return nil
	}
}

// WithTMax sets the temperature limit in °C (default 100).
func WithTMax(tmax float64) Option {
	return func(c *engineConfig) error {
		if tmax <= 0 {
			return fmt.Errorf("protemp: non-positive tmax %g", tmax)
		}
		c.tmax = tmax
		return nil
	}
}

// WithVariant sets the default optimization model variant used by
// Optimize, GenerateTable and NewSession (default
// core.VariantVariable).
func WithVariant(v core.Variant) Option {
	return func(c *engineConfig) error {
		switch v {
		case core.VariantVariable, core.VariantUniform, core.VariantGradient:
			c.variant = v
			return nil
		default:
			return fmt.Errorf("protemp: unknown variant %v", v)
		}
	}
}

// WithTableGrid sets the default Phase-1 grids: ascending starting
// temperatures (°C) and ascending target frequencies (Hz). Defaults
// are core.DefaultTStarts() and core.DefaultFTargets(fmax).
func WithTableGrid(tstarts, ftargets []float64) Option {
	return func(c *engineConfig) error {
		if len(tstarts) == 0 || len(ftargets) == 0 {
			return fmt.Errorf("protemp: empty table grid (%d temps, %d freqs)", len(tstarts), len(ftargets))
		}
		c.tstarts = append([]float64(nil), tstarts...)
		c.ftargets = append([]float64(nil), ftargets...)
		return nil
	}
}

// SweepProgress reports one completed grid point of a Phase-1 sweep;
// SweepObserver receives it. Aliased from internal/core so external
// modules can name the types the observer API trades in.
type (
	SweepProgress = core.SweepProgress
	SweepObserver = core.SweepObserver
)

// WithSweepObserver installs a progress callback invoked after every
// grid-point solve of a Phase-1 sweep run by this engine — the hook a
// CLI progress display or a job status endpoint taps. Calls are
// serialized but may come from any sweep worker goroutine, and only
// actual generations report progress: table-cache or store hits never
// invoke the observer. A nil observer is rejected; simply omit the
// option instead.
func WithSweepObserver(fn SweepObserver) Option {
	return func(c *engineConfig) error {
		if fn == nil {
			return fmt.Errorf("protemp: nil sweep observer")
		}
		c.observer = fn
		return nil
	}
}

// WithWorkers bounds the parallel Phase-1 solves (default GOMAXPROCS).
func WithWorkers(n int) Option {
	return func(c *engineConfig) error {
		if n < 0 {
			return fmt.Errorf("protemp: negative worker count %d", n)
		}
		c.workers = n
		return nil
	}
}

// WithTableCacheSize bounds the engine's LRU cache of generated
// Phase-1 tables (default 8). Zero disables in-memory caching;
// concurrent callers then each pay for their own generation (though a
// configured table store is still consulted).
func WithTableCacheSize(n int) Option {
	return func(c *engineConfig) error {
		if n < 0 {
			return fmt.Errorf("protemp: negative cache size %d", n)
		}
		c.cacheSize = n
		return nil
	}
}

// WithTableStore installs a persistent second tier under the engine's
// table cache: in-memory misses consult the store before running a
// Phase-1 sweep, and fresh sweeps are written through, so restarts
// come up warm. Store failures degrade to generation and are counted
// in CacheStats.StoreErrors, never surfaced to callers.
func WithTableStore(ts TableStore) Option {
	return func(c *engineConfig) error {
		if ts == nil {
			return fmt.Errorf("protemp: nil table store")
		}
		c.store = ts
		return nil
	}
}

// TableFetcher is a network tier under the engine's table cache: given
// a cache key it returns the table from elsewhere (a cluster peer's
// store, a blob service) or reports a miss. It runs after the local
// persistent store misses and before a Phase-1 generation is paid for;
// a fetched table is written through to the local store. Fetchers must
// be safe for concurrent use and should treat every failure as a miss
// — the engine always falls back to generating locally.
type TableFetcher func(ctx context.Context, key string) (*core.Table, bool)

// WithTableFetcher installs a network tier between the engine's
// persistent table store and Phase-1 generation: on a store miss the
// fetcher is consulted, and only when it also misses does the engine
// run the sweep. Combined with each node serving its stored tables,
// this turns N nodes' stores into one content-addressed table service.
func WithTableFetcher(fn TableFetcher) Option {
	return func(c *engineConfig) error {
		if fn == nil {
			return fmt.Errorf("protemp: nil table fetcher")
		}
		c.fetcher = fn
		return nil
	}
}

// WithClusters sets the cluster count a distributed-MPC session or
// policy partitions the floorplan into (default one cluster per 8
// cores). It affects only the dmpc mode; table and online sessions
// ignore it.
func WithClusters(k int) Option {
	return func(c *engineConfig) error {
		if k < 1 {
			return fmt.Errorf("protemp: cluster count %d < 1", k)
		}
		c.clusters = k
		return nil
	}
}

// WithADMMIterations bounds the consensus (ADMM outer) iterations a
// distributed-MPC window may spend before accepting or falling back
// (default 6).
func WithADMMIterations(n int) Option {
	return func(c *engineConfig) error {
		if n < 1 {
			return fmt.Errorf("protemp: ADMM iteration bound %d < 1", n)
		}
		c.admmMaxOuter = n
		return nil
	}
}

// WithADMMTolerance sets the consensus stopping tolerance in °C: the
// largest admissible owner-vs-observer disagreement on a boundary
// block's temperature (default 0.25).
func WithADMMTolerance(tolC float64) Option {
	return func(c *engineConfig) error {
		if tolC <= 0 {
			return fmt.Errorf("protemp: non-positive ADMM tolerance %g", tolC)
		}
		c.admmTolC = tolC
		return nil
	}
}

// WithADMMAcceptance sets the acceptance band in °C for an unconverged
// distributed-MPC iterate: primal residuals at or under it keep the
// latest decision (the duals carry the contraction into the next
// window), while residuals beyond it trigger the fallback ladder
// (default 1.0, never below the consensus tolerance).
func WithADMMAcceptance(tolC float64) Option {
	return func(c *engineConfig) error {
		if tolC <= 0 {
			return fmt.Errorf("protemp: non-positive ADMM acceptance band %g", tolC)
		}
		c.admmAcceptTolC = tolC
		return nil
	}
}

// WithFlightRecorder enables the engine's solve-trace flight recorder:
// every MPC Session.Step records a structured trace (warm-seed
// decision, ladder rung, barrier centerings, and for distributed
// sessions per-cluster spans plus the ADMM residual timeline), and the
// recorder retains the last lastN traces, the slowest slowN, and every
// errored or fallback step. Non-positive arguments select the defaults
// (obs.DefaultLastN / obs.DefaultSlowN). Without this option tracing
// is off and Step pays only a nil check.
func WithFlightRecorder(lastN, slowN int) Option {
	return func(c *engineConfig) error {
		if lastN <= 0 {
			lastN = -1 // normalized: any non-positive means "default"
		}
		if slowN <= 0 {
			slowN = -1
		}
		c.flightLastN = lastN
		c.flightSlowN = slowN
		return nil
	}
}

// WithADMMWorkers bounds the cluster subproblems solved in parallel
// per consensus iteration (default GOMAXPROCS).
func WithADMMWorkers(n int) Option {
	return func(c *engineConfig) error {
		if n < 0 {
			return fmt.Errorf("protemp: negative ADMM worker count %d", n)
		}
		c.admmWorkers = n
		return nil
	}
}

// WithTableStoreDir is WithTableStore backed by the built-in
// directory store (one atomic file per table, shareable between
// processes). The directory is created if needed.
func WithTableStoreDir(dir string) Option {
	return func(c *engineConfig) error {
		ts, err := OpenTableStore(dir)
		if err != nil {
			return err
		}
		c.store = ts
		return nil
	}
}
