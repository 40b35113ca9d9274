// Package obs is a lightweight, allocation-conscious tracing layer for
// the per-window solve path. A Recorder observes the anatomy of one
// Session.Step — the warm-seed decision, the ladder rung that produced
// the assignment, every barrier centering (t schedule + Newton
// iterations), and for distributed sessions the per-cluster solve spans
// and the ADMM outer-iteration/primal-residual timeline.
//
// The disabled path is a nil check: engines without a FlightRecorder
// pass a nil Recorder down the stack and the hot path performs zero
// additional allocations. Enabled traces are written once by the step
// that owns them and become immutable when EndStep files them into the
// FlightRecorder, so readers (HTTP handlers, CLI dumps) may marshal
// them without copying.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Recorder observes one window solve. Implementations must tolerate
// being driven concurrently only through Cluster sub-recorders: the
// root recorder itself is driven by a single goroutine, while each
// Cluster(c) recorder is driven by the one worker solving cluster c.
//
// Callers hold a concrete non-nil implementation; a disabled trace is
// represented by a nil interface, never a typed-nil pointer.
type Recorder interface {
	// SolveStart opens a solve span for one solver invocation at the
	// given frequency target. Spans do not nest.
	SolveStart(ftargetHz float64)
	// WarmDecision records whether a warm seed existed and whether it
	// was accepted; reason explains a rejection ("uncentered", error
	// text) and is empty on acceptance.
	WarmDecision(had, accepted bool, reason string)
	// Rung names the ladder rung that produced the open span's result:
	// "warm", "heuristic", "phase1" (the feasibility phase),
	// "full-speed", "bisect", ...
	Rung(name string)
	// Centering records one barrier centering: the barrier parameter t,
	// the Newton iterations spent, whether the centering converged, and
	// the centering's wall time split into Hessian assembly, KKT
	// factorization+solve, and line search (nanoseconds).
	Centering(t float64, newtonIters int, converged bool, assembleNs, factorNs, linesearchNs int64)
	// SolveEnd closes the open span with the solver verdict.
	SolveEnd(feasible bool, err error)
	// Outer records one ADMM consensus round with its residuals (°C).
	Outer(iter int, primalC, dualC float64)
	// Fallback marks the whole step as having taken a fallback rung
	// ("central", "worst-case", "bisect-downgrade", ...).
	Fallback(rung string)
	// Cluster derives a sub-recorder whose spans are tagged with the
	// given cluster index (-1 denotes the centralized solver).
	Cluster(c int) Recorder
}

// CenteringStep is one barrier centering inside a solve span. The
// *Ns fields split the centering's wall time by phase, so a trace
// shows whether a slow solve spent its budget assembling Hessians,
// factoring them, or backtracking.
type CenteringStep struct {
	T            float64 `json:"t"`
	Newton       int     `json:"newton"`
	Converged    bool    `json:"converged"`
	AssembleNs   int64   `json:"assemble_ns,omitempty"`
	FactorNs     int64   `json:"factor_ns,omitempty"`
	LinesearchNs int64   `json:"linesearch_ns,omitempty"`
}

// SolveSpan is one solver invocation: a monolithic window solve, one
// cluster subproblem round, or the centralized fallback (Cluster -1).
type SolveSpan struct {
	Cluster      int             `json:"cluster"`
	FTargetHz    float64         `json:"ftarget_hz"`
	WarmHad      bool            `json:"warm_had"`
	WarmAccepted bool            `json:"warm_accepted"`
	WarmReason   string          `json:"warm_reason,omitempty"`
	Rung         string          `json:"rung,omitempty"`
	Centerings   []CenteringStep `json:"centerings,omitempty"`
	NewtonIters  int             `json:"newton_iters"`
	Feasible     bool            `json:"feasible"`
	Err          string          `json:"err,omitempty"`
	ElapsedNs    int64           `json:"elapsed_ns"`
}

// OuterRound is one ADMM consensus iteration.
type OuterRound struct {
	Iter    int     `json:"iter"`
	PrimalC float64 `json:"primal_c"`
	DualC   float64 `json:"dual_c"`
}

// Trace is the full record of one Session.Step. It implements Recorder
// for the root (single-goroutine) solve path; cluster workers write
// through Cluster sub-recorders that append finished spans under the
// trace mutex. A Trace is mutable until FlightRecorder.EndStep files
// it, immutable afterwards.
type Trace struct {
	ID           uint64       `json:"id"`
	Mode         string       `json:"mode"`
	Start        time.Time    `json:"start"`
	ElapsedNs    int64        `json:"elapsed_ns"`
	Err          string       `json:"err,omitempty"`
	FallbackRung string       `json:"fallback,omitempty"`
	Solves       []SolveSpan  `json:"solves"`
	Outers       []OuterRound `json:"outers,omitempty"`

	mu    sync.Mutex
	cur   SolveSpan
	curT0 time.Time
}

// SolveStart implements Recorder.
func (t *Trace) SolveStart(ftargetHz float64) {
	t.mu.Lock()
	t.cur = SolveSpan{Cluster: -1, FTargetHz: ftargetHz}
	t.curT0 = time.Now()
	t.mu.Unlock()
}

// WarmDecision implements Recorder.
func (t *Trace) WarmDecision(had, accepted bool, reason string) {
	t.mu.Lock()
	t.cur.WarmHad = had
	t.cur.WarmAccepted = accepted
	t.cur.WarmReason = reason
	t.mu.Unlock()
}

// Rung implements Recorder.
func (t *Trace) Rung(name string) {
	t.mu.Lock()
	t.cur.Rung = name
	t.mu.Unlock()
}

// Centering implements Recorder.
func (t *Trace) Centering(tval float64, newtonIters int, converged bool, assembleNs, factorNs, linesearchNs int64) {
	t.mu.Lock()
	t.cur.Centerings = append(t.cur.Centerings, CenteringStep{
		T: tval, Newton: newtonIters, Converged: converged,
		AssembleNs: assembleNs, FactorNs: factorNs, LinesearchNs: linesearchNs,
	})
	t.cur.NewtonIters += newtonIters
	t.mu.Unlock()
}

// SolveEnd implements Recorder.
func (t *Trace) SolveEnd(feasible bool, err error) {
	t.mu.Lock()
	span := t.cur
	span.Feasible = feasible
	if err != nil {
		span.Err = err.Error()
	}
	span.ElapsedNs = time.Since(t.curT0).Nanoseconds()
	t.Solves = append(t.Solves, span)
	t.cur = SolveSpan{}
	t.mu.Unlock()
}

// Outer implements Recorder.
func (t *Trace) Outer(iter int, primalC, dualC float64) {
	t.mu.Lock()
	t.Outers = append(t.Outers, OuterRound{Iter: iter, PrimalC: primalC, DualC: dualC})
	t.mu.Unlock()
}

// Fallback implements Recorder.
func (t *Trace) Fallback(rung string) {
	t.mu.Lock()
	t.FallbackRung = rung
	t.mu.Unlock()
}

// Cluster implements Recorder.
func (t *Trace) Cluster(c int) Recorder {
	return &clusterRecorder{parent: t, cluster: c}
}

// clusterRecorder tags spans with a cluster index and appends them to
// the parent trace. One is created per cluster per step and driven by
// exactly one worker goroutine, so its scratch span needs no lock; only
// the append into the parent synchronizes.
type clusterRecorder struct {
	parent  *Trace
	cluster int
	cur     SolveSpan
	t0      time.Time
}

func (c *clusterRecorder) SolveStart(ftargetHz float64) {
	c.cur = SolveSpan{Cluster: c.cluster, FTargetHz: ftargetHz}
	c.t0 = time.Now()
}

func (c *clusterRecorder) WarmDecision(had, accepted bool, reason string) {
	c.cur.WarmHad = had
	c.cur.WarmAccepted = accepted
	c.cur.WarmReason = reason
}

func (c *clusterRecorder) Rung(name string) { c.cur.Rung = name }

func (c *clusterRecorder) Centering(tval float64, newtonIters int, converged bool, assembleNs, factorNs, linesearchNs int64) {
	c.cur.Centerings = append(c.cur.Centerings, CenteringStep{
		T: tval, Newton: newtonIters, Converged: converged,
		AssembleNs: assembleNs, FactorNs: factorNs, LinesearchNs: linesearchNs,
	})
	c.cur.NewtonIters += newtonIters
}

func (c *clusterRecorder) SolveEnd(feasible bool, err error) {
	span := c.cur
	span.Feasible = feasible
	if err != nil {
		span.Err = err.Error()
	}
	span.ElapsedNs = time.Since(c.t0).Nanoseconds()
	c.cur = SolveSpan{}
	c.parent.mu.Lock()
	c.parent.Solves = append(c.parent.Solves, span)
	c.parent.mu.Unlock()
}

func (c *clusterRecorder) Outer(iter int, primalC, dualC float64) {
	c.parent.Outer(iter, primalC, dualC)
}

func (c *clusterRecorder) Fallback(rung string) { c.parent.Fallback(rung) }

func (c *clusterRecorder) Cluster(n int) Recorder { return c.parent.Cluster(n) }

// FlightRecorder keeps a bounded in-memory record of recent window
// traces: a ring of the last N, the slowest N seen so far, and a ring
// of every errored or fallback step. A nil *FlightRecorder is the
// disabled state: StartStep returns nil and EndStep is a no-op, so the
// hot path pays exactly one pointer comparison.
type FlightRecorder struct {
	seq atomic.Uint64

	mu      sync.Mutex
	lastN   int
	slowN   int
	last    []*Trace
	lastPos int
	slow    []*Trace
	errs    []*Trace
	errPos  int
}

// DefaultLastN and DefaultSlowN size NewFlightRecorder when callers
// pass non-positive capacities.
const (
	DefaultLastN = 32
	DefaultSlowN = 8
)

// NewFlightRecorder builds a recorder keeping the last lastN and the
// slowest slowN traces (non-positive values take the defaults).
// Errored/fallback traces are retained in a separate ring sized lastN.
func NewFlightRecorder(lastN, slowN int) *FlightRecorder {
	if lastN <= 0 {
		lastN = DefaultLastN
	}
	if slowN <= 0 {
		slowN = DefaultSlowN
	}
	return &FlightRecorder{lastN: lastN, slowN: slowN}
}

// StartStep opens a trace for one window step. On a nil receiver it
// returns nil, which callers must not hand to a Recorder-typed
// variable (a typed-nil interface would defeat downstream nil checks).
func (f *FlightRecorder) StartStep(mode string) *Trace {
	if f == nil {
		return nil
	}
	return &Trace{ID: f.seq.Add(1), Mode: mode, Start: time.Now()}
}

// EndStep stamps the trace's elapsed time and step error, then files it
// into the retention rings. After EndStep the trace is immutable.
func (f *FlightRecorder) EndStep(tr *Trace, err error) {
	if f == nil || tr == nil {
		return
	}
	tr.ElapsedNs = time.Since(tr.Start).Nanoseconds()
	if err != nil {
		tr.Err = err.Error()
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.last) < f.lastN {
		f.last = append(f.last, tr)
	} else {
		f.last[f.lastPos] = tr
		f.lastPos = (f.lastPos + 1) % f.lastN
	}
	if len(f.slow) < f.slowN {
		f.slow = append(f.slow, tr)
	} else {
		minIdx, minNs := 0, f.slow[0].ElapsedNs
		for i, s := range f.slow[1:] {
			if s.ElapsedNs < minNs {
				minIdx, minNs = i+1, s.ElapsedNs
			}
		}
		if tr.ElapsedNs > minNs {
			f.slow[minIdx] = tr
		}
	}
	if tr.Err != "" || tr.FallbackRung != "" {
		if len(f.errs) < f.lastN {
			f.errs = append(f.errs, tr)
		} else {
			f.errs[f.errPos] = tr
			f.errPos = (f.errPos + 1) % f.lastN
		}
	}
}

// Traces returns every retained trace (last + slowest + errored,
// deduplicated), newest first. The traces are finished and immutable;
// the slice is a fresh snapshot.
func (f *FlightRecorder) Traces() []*Trace {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	seen := make(map[uint64]bool, len(f.last)+len(f.slow)+len(f.errs))
	out := make([]*Trace, 0, len(f.last)+len(f.slow)+len(f.errs))
	for _, ring := range [][]*Trace{f.last, f.slow, f.errs} {
		for _, tr := range ring {
			if !seen[tr.ID] {
				seen[tr.ID] = true
				out = append(out, tr)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID > out[j].ID })
	return out
}

// Trace returns the retained trace with the given ID, or nil.
func (f *FlightRecorder) Trace(id uint64) *Trace {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, ring := range [][]*Trace{f.last, f.slow, f.errs} {
		for _, tr := range ring {
			if tr.ID == id {
				return tr
			}
		}
	}
	return nil
}

// Slowest returns the slowest retained trace, or nil when empty.
func (f *FlightRecorder) Slowest() *Trace {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var worst *Trace
	for _, tr := range f.slow {
		if worst == nil || tr.ElapsedNs > worst.ElapsedNs {
			worst = tr
		}
	}
	return worst
}
