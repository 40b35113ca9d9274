package protemp

import (
	"context"
	"fmt"
	"sync"
	"time"

	"protemp/internal/core"
	"protemp/internal/dmpc"
	"protemp/internal/linalg"
	"protemp/internal/sim"
)

// State is what a control session observes at a DFS boundary: the
// sensor summary the paper's run-time phase consumes.
type State struct {
	// MaxCoreTemp is the hottest core sensor reading in °C — the single
	// value the paper's table lookup keys on.
	MaxCoreTemp float64
	// RequiredFreq is the average frequency (Hz) needed to clear the
	// pending work within the next window.
	RequiredFreq float64
	// BlockTemps optionally holds the full per-block thermal map
	// (length NumBlocks, °C). Table sessions ignore it; online (MPC)
	// sessions solve on it when present, recovering the headroom the
	// single-value rounding gives away.
	BlockTemps []float64
	// SensingDegraded reports that this window's state is pure
	// prediction or held-over readings (every sensor dropped out).
	// Online sessions drop their warm solver state on it so a blind
	// window's optimum never seeds the next real solve; table sessions
	// ignore it.
	SensingDegraded bool
}

// Session is a reusable, goroutine-safe control session: configure the
// engine once, then drive any number of Step calls — one per DFS
// window — from any number of goroutines. A table session answers from
// the cached Phase-1 table in O(log n); an online session solves the
// convex program on the observed thermal map each step.
//
// An online session owns warm solver state — a problem compiled once
// at NewOnlineSession, a reusable solver workspace, and the previous
// window's optimum as the next window's barrier seed — so concurrent
// Step calls remain safe but serialize their solves on the session;
// callers needing solve parallelism open one session per stream.
type Session struct {
	engine *Engine
	ctrl   *core.Controller // table-driven when non-nil

	// solveMu serializes online and distributed solves: the compiled
	// problem instances, workspaces and warm state all mutate in place.
	solveMu sync.Mutex
	online  *core.OnlineSolver // online (MPC) when non-nil
	dsolver *dmpc.Solver       // distributed (ADMM) when non-nil

	mu          sync.Mutex
	steps       uint64
	downgrades  uint64
	idles       uint64
	solves      uint64 // online: window solves; dmpc: cluster subproblem solves
	warmHits    uint64 // online solves carried by the previous optimum
	warmRejects uint64 // online solves where the warm seed fell back cold
	outerIters  uint64 // dmpc only: consensus iterations across all steps
	fallbacks   uint64 // dmpc only: windows decided by a fallback rung
}

// NewSession opens a table-driven control session on the engine's
// configured grid and variant. The Phase-1 table comes from the
// engine's cache: concurrent NewSession calls on one configuration
// trigger exactly one generation. Cancelling ctx aborts a table
// generation in progress.
func (e *Engine) NewSession(ctx context.Context) (*Session, error) {
	table, err := e.GenerateTable(ctx)
	if err != nil {
		return nil, err
	}
	ctrl, err := core.NewController(table)
	if err != nil {
		return nil, err
	}
	return &Session{engine: e, ctrl: ctrl}, nil
}

// NewSessionFromTable opens a session on an explicit table (for
// example one deserialized from disk).
func (e *Engine) NewSessionFromTable(table *core.Table) (*Session, error) {
	ctrl, err := core.NewController(table)
	if err != nil {
		return nil, err
	}
	return &Session{engine: e, ctrl: ctrl}, nil
}

// NewOnlineSession opens a model-predictive session that solves the
// convex program at every Step on the full thermal map — no Phase-1
// table, one interior-point solve per window. The problem structure is
// compiled here, once: every Step after that rewrites only the
// state-dependent constraint offsets and warm-starts the barrier from
// the previous window's optimum (cold ladder as fallback), which is
// what makes the per-window solve cheap enough to serve live traffic.
func (e *Engine) NewOnlineSession() (*Session, error) {
	ol, err := core.NewOnlineSolver(core.OnlineSpec{
		Chip:    e.chip,
		Window:  e.window,
		TMax:    e.cfg.tmax,
		Variant: e.cfg.variant,
	})
	if err != nil {
		return nil, err
	}
	return &Session{engine: e, online: ol}, nil
}

// NewDMPCSession opens a distributed model-predictive session: the
// chip partitioned into thermally-coupled clusters (WithClusters, or
// one per 8 cores by default), one warm-startable subproblem compiled
// per cluster here, once. Every Step then solves the clusters in
// parallel under ADMM-style boundary-temperature consensus — the
// many-core mode, where compiling or solving the dense full-chip
// program is the cost being avoided. On a single-cluster partition it
// degenerates to exactly the online session's decisions.
func (e *Engine) NewDMPCSession() (*Session, error) {
	sol, err := e.newDMPCSolver(0, e.cfg.variant, 0)
	if err != nil {
		return nil, err
	}
	return &Session{engine: e, dsolver: sol}, nil
}

// Online reports whether the session solves the centralized program
// online; false for table-driven and distributed sessions.
func (s *Session) Online() bool { return s.online != nil }

// Mode names the session's decision path: "table", "online" or "dmpc".
func (s *Session) Mode() string {
	switch {
	case s.online != nil:
		return "online"
	case s.dsolver != nil:
		return "dmpc"
	default:
		return "table"
	}
}

// Clusters returns the distributed session's partition size, or zero
// for table and online sessions.
func (s *Session) Clusters() int {
	if s.dsolver == nil {
		return 0
	}
	return s.dsolver.Clusters()
}

// ADMMStats reports a distributed session's consensus work: outer
// iterations accumulated across steps and windows decided by a
// fallback rung. Both are zero for table and online sessions.
func (s *Session) ADMMStats() (outerIters, fallbacks uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.outerIters, s.fallbacks
}

// Table returns the session's Phase-1 table, or nil for an online
// session.
func (s *Session) Table() *core.Table {
	if s.ctrl == nil {
		return nil
	}
	return s.ctrl.Table()
}

// Stats reports session activity: windows stepped, downgraded
// decisions (required frequency unsupportable, a lower point
// substituted), idle windows, and — for online sessions — convex
// solves performed.
func (s *Session) Stats() (steps, downgrades, idles, solves uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.steps, s.downgrades, s.idles, s.solves
}

// WarmStats reports an online session's warm-start effectiveness:
// solves carried by the previous window's re-centered optimum versus
// solves where a previous optimum existed but the seed was rejected
// and the cold start ladder ran. Both are zero for table sessions and
// for a session's first solve (nothing to seed from).
func (s *Session) WarmStats() (hits, rejects uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.warmHits, s.warmRejects
}

// Step decides the per-core frequency command (Hz, length NumCores)
// for the next DFS window from the observed state. It is safe to call
// from multiple goroutines; each call is one window decision.
// Cancelling ctx aborts an online solve at its next Newton iteration;
// table lookups are effectively instant but still honor an
// already-cancelled context.
//
// Online and distributed sessions run on warm solver state under
// solveMu; a cancelled or failed solve invalidates that state (never
// the session), so the next Step under a live context performs a
// correct cold solve.
func (s *Session) Step(ctx context.Context, st State) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.ctrl != nil {
		return s.stepTable(st), nil
	}
	e := s.engine
	if st.BlockTemps != nil && len(st.BlockTemps) != e.cfg.fp.NumBlocks() {
		return nil, fmt.Errorf("protemp: state has %d block temps for %d blocks",
			len(st.BlockTemps), e.cfg.fp.NumBlocks())
	}
	required := core.WindowTarget(st.RequiredFreq, e.chip.FMax())

	s.mu.Lock()
	s.steps++
	s.mu.Unlock()

	s.solveMu.Lock()
	defer s.solveMu.Unlock()

	// A fully-degraded sensing window means this solve runs on guessed
	// state: perform it (idling blind is worse — the prediction is the
	// best available map) but never let its optimum, or the consensus
	// duals, warm-start the next real window.
	if st.SensingDegraded {
		s.invalidate()
		defer s.invalidate()
	}
	if s.dsolver != nil {
		return s.stepDMPC(ctx, st, required)
	}
	return s.stepOnline(ctx, st, required)
}

// stepDMPC decides one window through the distributed solver (caller
// holds solveMu). The decision ladder runs per cluster inside Solve.
// Tracing: the recorder install/teardown and the trace itself exist
// only on the enabled branch, so a flight-less engine pays one nil
// check here.
func (s *Session) stepDMPC(ctx context.Context, st State, required float64) ([]float64, error) {
	fr := s.engine.flight
	tr := fr.StartStep("dmpc")
	if tr != nil {
		s.dsolver.SetRecorder(tr)
	}
	start := time.Now()
	a, stats, err := s.dsolver.Solve(ctx, st.MaxCoreTemp, st.BlockTemps, required)
	elapsed := time.Since(start)
	if tr != nil {
		s.dsolver.SetRecorder(nil)
		fr.EndStep(tr, err)
	}
	s.mu.Lock()
	s.solves += uint64(stats.ClusterSolves)
	s.warmHits += uint64(stats.WarmHits)
	s.warmRejects += uint64(stats.WarmRejects)
	s.downgrades += uint64(stats.Downgrades)
	s.idles += uint64(stats.Idles)
	s.outerIters += uint64(stats.OuterIters)
	if stats.Fallback {
		s.fallbacks++
	}
	s.mu.Unlock()
	s.engine.observeDMPCStep(elapsed, stats, err)
	if err != nil {
		return nil, err
	}
	return a.Freqs, nil
}

func (s *Session) stepTable(st State) []float64 {
	d := s.ctrl.Decide(st.MaxCoreTemp, st.RequiredFreq)
	s.mu.Lock()
	s.steps++
	if d.Downgraded {
		s.downgrades++
	}
	if d.Idle {
		s.idles++
	}
	s.mu.Unlock()
	return d.Freqs
}

// stepOnline decides one centralized window through the online
// solver's decision ladder (caller holds solveMu) and folds each
// solve's latency and warm-start outcome into the session counters and
// the engine's step_* instruments. With tracing on, a bisected window
// is marked a "bisect-downgrade" fallback.
func (s *Session) stepOnline(ctx context.Context, st State, required float64) ([]float64, error) {
	fr := s.engine.flight
	tr := fr.StartStep("online")
	if tr != nil {
		s.online.SetRecorder(tr)
	}
	a, ds, err := s.online.Decide(ctx, st.MaxCoreTemp, st.BlockTemps, required)
	if tr != nil {
		if ds.Bisected {
			tr.Fallback("bisect-downgrade")
		}
		s.online.SetRecorder(nil)
		fr.EndStep(tr, err)
	}
	s.mu.Lock()
	for _, sst := range ds.Solves[:ds.NSolves] {
		s.solves++
		if sst.Warm {
			s.warmHits++
		}
		if sst.WarmRejected {
			s.warmRejects++
		}
	}
	if ds.Downgraded {
		s.downgrades++
	}
	if ds.Idle {
		s.idles++
	}
	s.mu.Unlock()
	s.engine.observeStepDecide(ds, err)
	if err != nil {
		return nil, err
	}
	return a.Freqs, nil
}

// invalidate drops the online or distributed warm state (caller holds
// solveMu).
func (s *Session) invalidate() {
	if s.online != nil {
		s.online.Invalidate()
	} else {
		s.dsolver.Invalidate()
	}
}

// InvalidateWarm drops an online session's warm solver state so the
// next Step performs a cold solve. It is the explicit spelling of what
// a SensingDegraded state does implicitly — for callers that learn of
// a sensing fault out of band (a stream gap, a sensor health alarm)
// rather than through the per-window flag. A table session has no warm
// state; the call is a no-op.
func (s *Session) InvalidateWarm() {
	if s.ctrl != nil {
		return
	}
	s.solveMu.Lock()
	s.invalidate()
	s.solveMu.Unlock()
}

// Policy adapts the session into a sim.Policy so it can drive
// Engine.Simulate or a sim.Stepper. Pass the same ctx given to
// Simulate: each window's Step runs under it, so cancellation reaches
// an online session's in-flight solve rather than waiting for the next
// window boundary. Decide never fails: on a solve error (including
// cancellation) the window is idled, which is always thermally safe,
// and the simulator's own boundary check surfaces ctx.Err().
func (s *Session) Policy(ctx context.Context) sim.Policy {
	if ctx == nil {
		ctx = context.Background()
	}
	return sessionPolicy{s: s, ctx: ctx}
}

type sessionPolicy struct {
	s   *Session
	ctx context.Context
}

// Name implements sim.Policy.
func (p sessionPolicy) Name() string {
	switch p.s.Mode() {
	case "online":
		return "Pro-Temp-Session-Online"
	case "dmpc":
		return "Pro-Temp-Session-DMPC"
	default:
		return "Pro-Temp-Session"
	}
}

// Decide implements sim.Policy.
func (p sessionPolicy) Decide(st sim.WindowState) linalg.Vector {
	freqs, err := p.s.Step(p.ctx, State{
		MaxCoreTemp:     st.MaxCoreTemp,
		RequiredFreq:    st.RequiredFreq,
		BlockTemps:      st.BlockTemps,
		SensingDegraded: st.SensingDegraded,
	})
	if err != nil {
		return linalg.NewVector(p.s.engine.chip.NumCores())
	}
	return linalg.VectorOf(freqs...)
}
