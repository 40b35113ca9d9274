package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"protemp"
	"protemp/internal/floorplan"
	"protemp/internal/linalg"
	"protemp/internal/obs"
	"protemp/internal/sim"
	"protemp/internal/workload"
)

// loopWorkload is a closed-loop workload: one MPC session decides every
// DFS window of a fleet scenario's trace while the simulator advances
// the chip, episode after episode, until the time budget is spent.
// Episode e of a run with seed s replays the scenario trace built from
// seed s·1000+e, so a seed fixes the inputs whatever the program's
// speed. The loop is the one Engine.Simulate runs (sim.Run over a
// sim.Stepper), driven window by window so a run can stop on its
// budget and keep its partial result.
type loopWorkload struct {
	name     string
	scenario string
	// horizon is the arrival horizon of one episode's trace (s); the
	// episode runs on until the backlog drains, maxSim is reached or the
	// run's budget is spent.
	horizon float64
	maxSim  float64
	// warmup is how many windows at the start of every episode are
	// decided, simulated and checked but not measured.
	warmup int
	// streams > 1 builds each episode's trace as the superposition of
	// that many independent scenario traces, each sized for an equal
	// share of the cores: the same offered load and task mix, with
	// independent bursts.
	streams int
	// mean_wait_s is the mean, over waitSegments segments after the
	// first waitSkip, of the mean wait of the tasks finished in each. A
	// segment is a block of waitBlock measured windows, or with
	// waitBlock 0 a whole episode's measured span, so the figure covers
	// the same simulated spans on every run; the pass goes on past its
	// budget until it has them.
	waitSkip, waitSegments, waitBlock int
	opts                              func() ([]protemp.Option, error)
	session                           func(*protemp.Engine) (*protemp.Session, error)
	// setupReps is how many times a run builds the engine and session;
	// setup_s is the median.
	setupReps int
	// tailPct is the step_cpu_tail_ms and wall.step_tail_ms percentile (README.md gives the
	// reason for each workload's choice).
	tailPct float64
	// guard errors out of a run whose measured windows did not make the
	// thermal constraints bind.
	guard func(*loopPass) error
}

// quickWindow is the benchmark fidelity: 1 ms thermal steps, a 100-step
// (100 ms) DFS window, which is also the per-step deadline.
var quickWindow = protemp.WithWindow(1e-3, 100)

func runNiagaraOnline(cfg runConfig) (*outcome, error) {
	return runLoop(cfg, &loopWorkload{
		name:         "niagara-online-hot",
		scenario:     "ambient-hot",
		horizon:      2,
		maxSim:       60,
		waitSegments: 80,
		opts: func() ([]protemp.Option, error) {
			return []protemp.Option{quickWindow}, nil
		},
		session:   (*protemp.Engine).NewOnlineSession,
		setupReps: 201,
		tailPct:   99,
		guard: func(p *loopPass) error {
			if p.downgrades == 0 || p.warmRejects == 0 {
				return fmt.Errorf("constraints did not bind: %d downgrades, %d warm rejects in %d windows",
					p.downgrades, p.warmRejects, p.windows)
			}
			return nil
		},
	})
}

func runGridDMPC(cfg runConfig) (*outcome, error) {
	return runLoop(cfg, &loopWorkload{
		name:         "grid64-dmpc-hot",
		scenario:     "manycore-hot",
		horizon:      120,
		maxSim:       150,
		warmup:       30,
		streams:      4,
		waitSkip:     6,
		waitSegments: 6,
		waitBlock:    50,
		opts: func() ([]protemp.Option, error) {
			fp, err := floorplan.ManyCore(8, 8)
			if err != nil {
				return nil, err
			}
			return []protemp.Option{quickWindow, protemp.WithFloorplan(fp)}, nil
		},
		session:   (*protemp.Engine).NewDMPCSession,
		setupReps: 15,
		tailPct:   90,
		guard: func(p *loopPass) error {
			if p.downgrades == 0 {
				return fmt.Errorf("constraints did not bind: no cluster downgrades in %d windows", p.windows)
			}
			return nil
		},
	})
}

// loopPass is one measured pass: a decision path driven over
// consecutive episodes, with every answer checked and every measured
// window timed.
type loopPass struct {
	w   *loopWorkload
	eng *protemp.Engine // the chip, thermal model and window simulated
	// step decides one window: Session.Step, or a step over HTTP.
	step func(context.Context, protemp.State) ([]float64, error)
	sess *protemp.Session // nil when step is not a local session
	chk  *checker
	ctx  context.Context

	measuring bool // false during an episode's warm-up
	// The latest Decide's Step time, wall and process CPU.
	last, lastCPU time.Duration
	lastErr       error

	// Measured windows.
	lat       []float64 // per-step wall time, ms
	cpuLat    []float64 // per-step process CPU time, ms
	decide    time.Duration
	simWall   time.Duration // decide + simulate
	windows   int
	misses    int       // steps over the deadline (wall) or failed
	cpuMisses int       // steps whose CPU time exceeds the deadline, or failed
	segWaits  []float64 // per-segment mean task wait, s
	episodes  int
	// rates holds the windows per CPU-second of each measured second of
	// process CPU time; the chunk fields fill the current second.
	rates        []float64
	chunkCPU     time.Duration
	chunkWindows int

	// Every decided window, warm-up included.
	attempted, failed int // failed: step errors (wrong answers are counted by chk)
	warmupWindows     int
	warmupWall        time.Duration
	warmupMax         time.Duration

	// Session counters and engine metrics over the measured windows.
	base                                             sessionCounters
	steps, downgrades, solves, warmHits, warmRejects uint64
	outerIters, fallbacks                            uint64
	before, after                                    map[string]uint64

	// Traced passes only: the flight recorder and the span sums read
	// from its traces after every measured step.
	fr                      *obs.FlightRecorder
	lastTrace               uint64
	assembleNs, factorNs    int64
	linesearchNs            int64
	spanSolves, newtonIters int
}

// sessionCounters is one reading of a session's Stats, WarmStats and
// ADMMStats.
type sessionCounters struct {
	steps, downgrades, solves, warmHits, warmRejects, outerIters, fallbacks uint64
}

func readCounters(s *protemp.Session) sessionCounters {
	var c sessionCounters
	if s == nil {
		return c
	}
	c.steps, c.downgrades, _, c.solves = s.Stats()
	c.warmHits, c.warmRejects = s.WarmStats()
	c.outerIters, c.fallbacks = s.ADMMStats()
	return c
}

// Name implements sim.Policy.
func (p *loopPass) Name() string { return "perfbench-" + p.w.name }

// Decide implements sim.Policy: it times one step with the state
// mapping Session.Policy uses, but keeps the step error that
// Session.Policy would turn into a silent idle window, and checks the
// answer.
func (p *loopPass) Decide(st sim.WindowState) linalg.Vector {
	t0, c0 := time.Now(), cpuNow()
	freqs, err := p.step(p.ctx, protemp.State{
		MaxCoreTemp:     st.MaxCoreTemp,
		RequiredFreq:    st.RequiredFreq,
		BlockTemps:      st.BlockTemps,
		SensingDegraded: st.SensingDegraded,
	})
	p.lastCPU, p.last, p.lastErr = cpuNow()-c0, time.Since(t0), err
	if p.fr != nil {
		p.collectTraces()
	}
	if err != nil {
		return linalg.NewVector(p.eng.Chip().NumCores()) // idle: always thermally safe
	}
	p.chk.freqs(p.w.name+" step", freqs)
	return linalg.VectorOf(freqs...)
}

// collectTraces folds the flight recorder's traces newer than the last
// one seen into the span sums (measured windows only). Steps are
// serial, so the recorder's last-N ring always still holds the newest
// trace.
func (p *loopPass) collectTraces() {
	newest := p.lastTrace
	for _, tr := range p.fr.Traces() {
		if tr.ID <= p.lastTrace {
			continue
		}
		newest = max(newest, tr.ID)
		if !p.measuring {
			continue
		}
		for _, s := range tr.Solves {
			p.spanSolves++
			p.newtonIters += s.NewtonIters
			for _, c := range s.Centerings {
				p.assembleNs += c.AssembleNs
				p.factorNs += c.FactorNs
				p.linesearchNs += c.LinesearchNs
			}
		}
	}
	p.lastTrace = newest
}

// startMeasuring snapshots, on the first measured window, the counters
// the measured deltas start from.
func (p *loopPass) startMeasuring() {
	p.measuring = true
	if p.before == nil {
		p.base = readCounters(p.sess)
		p.before = p.eng.MetricsSnapshot()
	}
}

// run drives episodes until budget is spent on measured windows and at
// least minWaits segment waits are read.
func (p *loopPass) run(seed int64, budget time.Duration, minWaits int) error {
	sc, ok := protemp.FleetScenarios().Get(p.w.scenario)
	if !ok {
		return fmt.Errorf("fleet scenario %q missing", p.w.scenario)
	}
	deadline := time.Duration(p.eng.WindowSeconds() * float64(time.Second))
	done := func() bool { return len(p.segWaits) >= minWaits && p.simWall >= budget }
	for ep := 0; !done(); ep++ {
		trace, err := p.w.trace(sc, seed*1000+int64(ep), p.eng.Chip().NumCores())
		if err != nil {
			return err
		}
		st, err := sim.NewStepper(sim.Config{
			Chip:    p.eng.Chip(),
			Disc:    p.eng.Disc(),
			Policy:  p,
			Trace:   trace,
			Window:  p.eng.WindowSeconds(),
			TMax:    p.eng.TMax(),
			T0:      sc.T0C,
			MaxTime: p.w.maxSim,
		})
		if err != nil {
			return err
		}
		// Wait totals at the start of the current segment; the first
		// starts after the warm-up, whose tasks are left out.
		var segSum float64
		var segN int
		readSegment := func(keep bool) {
			w := st.Result().Wait
			sum, n := w.Mean()*float64(w.Count()), w.Count()
			if keep && n > segN {
				p.segWaits = append(p.segWaits, (sum-segSum)/float64(n-segN))
			}
			segSum, segN = sum, n
		}
		for k := 0; !st.Done() && !done(); k++ {
			if k == p.w.warmup {
				p.startMeasuring()
				readSegment(false)
			}
			t0, c0 := time.Now(), cpuNow()
			if err := st.Step(); err != nil {
				return err
			}
			cpu, wall := cpuNow()-c0, time.Since(t0)
			p.attempted++
			if p.lastErr != nil {
				p.failed++
			}
			if !p.measuring {
				p.warmupWindows++
				p.warmupWall += wall
				p.warmupMax = max(p.warmupMax, p.last)
				continue
			}
			p.windows++
			p.simWall += wall
			p.chunkCPU += cpu
			if p.chunkWindows++; p.chunkCPU >= time.Second {
				p.rates = append(p.rates, float64(p.chunkWindows)/p.chunkCPU.Seconds())
				p.chunkCPU, p.chunkWindows = 0, 0
			}
			p.decide += p.last
			p.lat = append(p.lat, ms(p.last))
			p.cpuLat = append(p.cpuLat, ms(p.lastCPU))
			if p.last > deadline || p.lastErr != nil {
				p.misses++
			}
			if p.lastCPU > deadline || p.lastErr != nil {
				p.cpuMisses++
			}
			if p.w.waitBlock > 0 && (k+1-p.w.warmup)%p.w.waitBlock == 0 {
				readSegment(true)
			}
		}
		if p.w.waitBlock == 0 && st.Done() {
			readSegment(true)
		}
		p.measuring = false
		p.chk.peak(fmt.Sprintf("%s episode %d", p.w.name, ep), st.Result().MaxCoreTemp)
		p.episodes++
	}
	c := readCounters(p.sess)
	p.steps = c.steps - p.base.steps
	p.downgrades = c.downgrades - p.base.downgrades
	p.solves = c.solves - p.base.solves
	p.warmHits = c.warmHits - p.base.warmHits
	p.warmRejects = c.warmRejects - p.base.warmRejects
	p.outerIters = c.outerIters - p.base.outerIters
	p.fallbacks = c.fallbacks - p.base.fallbacks
	p.after = p.eng.MetricsSnapshot()
	if p.w.guard == nil {
		return nil
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d episodes, %d measured windows (%d warm-up, %.1f s, slowest step %v), %d downgrades, %d warm rejects, %d deadline misses; step p50/p90/p95/p98/p99 %.2f/%.2f/%.2f/%.2f/%.2f ms\n",
		p.w.name, p.episodes, p.windows, p.warmupWindows, p.warmupWall.Seconds(), p.warmupMax.Round(time.Millisecond),
		p.downgrades, p.warmRejects, p.misses,
		quantile(p.lat, 50), quantile(p.lat, 90), quantile(p.lat, 95), quantile(p.lat, 98), quantile(p.lat, 99))
	return p.w.guard(p)
}

// trace builds one episode's trace from traceSeed: the scenario's
// trace, or with streams > 1 the superposition of streams independent
// ones (seeds traceSeed·streams + k), each for cores/streams cores.
func (w *loopWorkload) trace(sc protemp.FleetScenario, traceSeed int64, cores int) (*workload.Trace, error) {
	if w.streams <= 1 {
		return sc.Build(traceSeed, cores, w.horizon)
	}
	merged := &workload.Trace{}
	for k := 0; k < w.streams; k++ {
		tr, err := sc.Build(traceSeed*int64(w.streams)+int64(k), cores/w.streams, w.horizon)
		if err != nil {
			return nil, err
		}
		merged.Tasks = append(merged.Tasks, tr.Tasks...)
	}
	sort.SliceStable(merged.Tasks, func(i, j int) bool { return merged.Tasks[i].Arrival < merged.Tasks[j].Arrival })
	for i := range merged.Tasks {
		merged.Tasks[i].ID = i
	}
	return merged, merged.Validate()
}

// build constructs the workload's engine and session, with extra
// engine options appended.
func (w *loopWorkload) build(extra ...protemp.Option) (*protemp.Engine, *protemp.Session, error) {
	opts, err := w.opts()
	if err != nil {
		return nil, nil, err
	}
	eng, err := protemp.New(append(opts, extra...)...)
	if err != nil {
		return nil, nil, err
	}
	sess, err := w.session(eng)
	if err != nil {
		return nil, nil, err
	}
	return eng, sess, nil
}

// newPass prepares a pass over a local session's Step.
func (w *loopWorkload) newPass(eng *protemp.Engine, sess *protemp.Session) *loopPass {
	return &loopPass{
		w: w, eng: eng, step: sess.Step, sess: sess, ctx: context.Background(),
		chk: newChecker(eng.Chip().NumCores(), eng.Chip().FMax(), eng.TMax()),
		fr:  eng.FlightRecorder(),
	}
}

// gated returns the pass's end-to-end metrics. The time figures are
// process CPU time, which leaves out the time the host runs other
// tenants on our virtual CPUs (README.md, "Why CPU time"); the
// wall-time figures are per-layer (wallMetrics).
func (p *loopPass) gated(setups []float64) metrics {
	m := metrics{}
	m.set("setup_s", "s", median(setups))
	m.set("windows_per_cpu_s", "1/s", p.windowsPerCPUS())
	m.set("step_cpu_p50_ms", "ms", quantile(p.cpuLat, 50))
	m.set("step_cpu_tail_ms", "ms", quantile(p.cpuLat, p.w.tailPct))
	m.set("cpu_deadline_hit_ratio", "ratio", 1-float64(p.cpuMisses)/float64(p.windows))
	m.set("mean_wait_s", "s", p.meanWait())
	return m
}

// wallMetrics adds the pass's wall-clock figures, the ones a user of
// the loop waits on, to a traced run's metrics.
func (p *loopPass) wallMetrics(m metrics, wallSetups []float64) {
	m.set("wall.setup_s", "s", median(wallSetups))
	m.set("wall.windows_per_s", "1/s", float64(p.windows)/p.simWall.Seconds())
	m.set("wall.step_p50_ms", "ms", quantile(p.lat, 50))
	m.set("wall.step_tail_ms", "ms", quantile(p.lat, p.w.tailPct))
	m.set("deadline_miss_ratio", "ratio", float64(p.misses)/float64(p.windows))
}

// windowsPerCPUS is the median over the pass's measured CPU-seconds of
// the windows decided and simulated in each: one second that a garbage
// collection or a slow window lands in cannot set the figure on its
// own. A pass shorter than a CPU-second gives its plain rate.
func (p *loopPass) windowsPerCPUS() float64 {
	if len(p.rates) == 0 {
		return float64(p.windows) / p.chunkCPU.Seconds()
	}
	return median(p.rates)
}

// meanWait is sim.Result.Wait averaged over the workload's fixed
// segments: the decisions alone set it, so a speed-up that changes the
// decisions moves it.
func (p *loopPass) meanWait() float64 {
	return mean(p.segWaits[p.w.waitSkip : p.w.waitSkip+p.w.waitSegments])
}

// failures is the pass's failed-operation count: step errors plus
// wrong answers.
func (p *loopPass) failures() int { return p.failed + p.chk.count() }

func runLoop(cfg runConfig, w *loopWorkload) (*outcome, error) {
	// Set-up: engine (floorplan, RC model, window response) and session
	// (problem compile), built setupReps times; the last one is used.
	var (
		eng                *protemp.Engine
		sess               *protemp.Session
		setups, wallSetups []float64
	)
	for i := 0; i < w.setupReps; i++ {
		runtime.GC() // every set-up starts from a collected heap
		t0, c0 := time.Now(), cpuNow()
		var err error
		if eng, sess, err = w.build(); err != nil {
			return nil, err
		}
		setups = append(setups, (cpuNow() - c0).Seconds())
		wallSetups = append(wallSetups, time.Since(t0).Seconds())
	}

	if !cfg.trace {
		p := w.newPass(eng, sess)
		if err := p.run(cfg.seed, cfg.budget, w.waitSkip+w.waitSegments); err != nil {
			return nil, err
		}
		return &outcome{attempted: p.attempted, failed: p.failures(), metrics: p.gated(setups)}, nil
	}

	// Traced run: half the budget untraced, half on a second engine with
	// the flight recorder on, both from episode 0, so the overhead ratio
	// compares the same inputs.
	plain := w.newPass(eng, sess)
	if err := plain.run(cfg.seed, cfg.budget/2, 0); err != nil {
		return nil, err
	}
	teng, tsess, err := w.build(protemp.WithFlightRecorder(4, 1))
	if err != nil {
		return nil, err
	}
	p := w.newPass(teng, tsess)
	if err := p.run(cfg.seed, cfg.budget/2, w.waitSkip+w.waitSegments); err != nil {
		return nil, err
	}
	delta := func(key string) float64 { return counterDelta(p.before, p.after, key) }

	steps := float64(p.steps)
	m := metrics{}
	p.wallMetrics(m, wallSetups)
	m.set("step_samples", "count", float64(p.windows))
	m.set("loop.warmup_s", "s", p.warmupWall.Seconds())
	m.set("loop.warmup_step_max_ms", "ms", ms(p.warmupMax))
	m.set("solver.assemble_s", "s", float64(p.assembleNs)/1e9)
	m.set("solver.factor_s", "s", float64(p.factorNs)/1e9)
	m.set("solver.linesearch_s", "s", float64(p.linesearchNs)/1e9)
	m.set("core.newton_iters_per_solve", "count", ratio(float64(p.newtonIters), float64(p.spanSolves)))
	m.set("protemp.session.warm_rejects", "count", float64(p.warmRejects))
	m.set("protemp.session.warm_hit_ratio", "ratio", ratio(float64(p.warmHits), float64(p.solves)))
	m.set("protemp.session.downgrade_ratio", "ratio", ratio(float64(p.downgrades), steps))
	m.set("protemp.session.solves_per_step", "count", ratio(float64(p.solves), steps))
	m.set("sim.self_s", "s", (p.simWall - p.decide).Seconds())
	m.set("trace.overhead_ratio", "ratio", quantile(p.cpuLat, 50)/quantile(plain.cpuLat, 50))
	if tsess.Mode() == "online" {
		solveS := delta("step_solve_nanos_sum") / 1e9
		m.set("core.solve_s", "s", solveS)
		m.set("core.solve_ms_p99", "ms", float64(p.after["step_solve_nanos_p99"])/1e6)
		m.set("core.ladder_s", "s", p.decide.Seconds()-solveS)
	} else {
		clusterNs := delta("dmpc_cluster_solve_nanos_sum")
		m.set("dmpc.outer_iters_per_step", "count", ratio(float64(p.outerIters), steps))
		m.set("dmpc.cluster_solve_s", "s", clusterNs/1e9)
		m.set("dmpc.fallback_ratio", "ratio", ratio(float64(p.fallbacks), steps))
		m.set("dmpc.converged_ratio", "ratio", ratio(delta("dmpc_converged"), delta("dmpc_steps")))
		m.set("dmpc.parallel_efficiency", "ratio",
			ratio(clusterNs, delta("dmpc_step_solve_nanos_sum")*float64(runtime.GOMAXPROCS(0))))
	}
	return &outcome{
		attempted: plain.attempted + p.attempted,
		failed:    plain.failures() + p.failures(),
		metrics:   m,
	}, nil
}
