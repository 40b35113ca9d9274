package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"protemp"
	"protemp/api"
	"protemp/client"
	"protemp/internal/cluster"
	"protemp/internal/core"
	"protemp/internal/server"
)

// serve-cluster parameters.
const (
	// serveSetupReps is how many times a run builds the two-node
	// cluster; setup_s is the median.
	serveSetupReps = 5
	// refRate is the reference offered rate (steps/s) at which the step
	// latency, deadline and error figures are taken.
	refRate = 1000
	// stepsPerSessionPerS is each table session's step rate: one step
	// per 100 ms DFS window.
	stepsPerSessionPerS = 10
	// p99LimitMs is the ladder's pass limit on the step p99: a fifth of
	// the DFS window.
	p99LimitMs = 20
	// pairEvery schedules one create+delete pair per this many steps.
	pairEvery = 50
	// sampleShare is the seeded share of steps re-decided in-process.
	sampleShare = 0.05
	// maxLagMs invalidates a run whose load generator, at the reference
	// rate, woke this late (p99) while it had nothing else to do: the
	// ladder's p99 limit.
	maxLagMs = p99LimitMs
)

// ladder holds the offered rates (steps/s) serve.max_rate_steps_per_s
// climbs in a traced run; refRate is one of them.
var ladder = []float64{500, refRate, 2000, 4000, 8000}

// node is one in-process cluster member on a loopback listener.
type node struct {
	url string
	hs  *http.Server
	srv *server.Server
	eng *protemp.Engine
	clu *cluster.Cluster
	cl  *client.Client // admin client: set-up, metrics, re-decision table
}

// servedSession is one table session of the pinned pool.
type servedSession struct {
	id    string
	local bool // owned by node A, the node every request enters through
}

// serveCluster is a built two-node cluster with its session pool.
type serveCluster struct {
	a, b  *node
	gen   *client.Client // load-generator client to node A
	tr    *http.Transport
	ctrl  *core.Controller // in-process re-decision on the served table
	pool  []servedSession  // alternating A-owned, B-owned
	sweep time.Duration    // Phase-1 sweep wall time (node metrics)
	chk   *checker
}

// newNode starts one member; urls lists every member's URL.
func newNode(ln net.Listener, urls []string) (*node, error) {
	self := "http://" + ln.Addr().String()
	clu, err := cluster.New(cluster.Config{Self: self, Peers: urls})
	if err != nil {
		return nil, err
	}
	eng, err := protemp.New(quickWindow, protemp.WithTableFetcher(clu.TableFetcher()))
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Engine: eng, Cluster: clu, SessionTTL: -1})
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go hs.Serve(ln)
	cl, err := client.New(self)
	if err != nil {
		return nil, err
	}
	return &node{url: self, hs: hs, srv: srv, eng: eng, clu: clu, cl: cl}, nil
}

func (n *node) close() {
	n.hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	n.srv.Shutdown(ctx)
}

// buildServeCluster starts two nodes, runs the cluster-wide Phase-1
// sweep on the table's ring owner, and creates a pool of sessions
// through node A pinned to exactly half A-owned, half B-owned.
func buildServeCluster(ctx context.Context, sessions int) (*serveCluster, error) {
	lns := make([]net.Listener, 2)
	urls := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i], urls[i] = ln, "http://"+ln.Addr().String()
	}
	c := &serveCluster{}
	var err error
	if c.a, err = newNode(lns[0], urls); err != nil {
		return nil, err
	}
	if c.b, err = newNode(lns[1], urls); err != nil {
		c.a.close()
		return nil, err
	}
	c.chk = newChecker(c.a.eng.Chip().NumCores(), c.a.eng.Chip().FMax(), c.a.eng.TMax())

	// The sweep runs on the table key's ring owner; the other node then
	// fetches the table over the peer tier instead of sweeping again.
	owner := c.a
	if _, remote := c.a.clu.TableOwner(c.a.eng.TableKey(nil, nil, c.a.eng.Variant())); remote {
		owner = c.b
	}
	tr, err := owner.cl.GenerateTable(ctx, api.TablesRequest{})
	if err != nil {
		c.close()
		return nil, fmt.Errorf("table: %w", err)
	}
	table, err := core.ReadTableJSON(bytes.NewReader(tr.Table))
	if err != nil {
		c.close()
		return nil, err
	}
	if c.ctrl, err = core.NewController(table); err != nil {
		c.close()
		return nil, err
	}

	c.tr = &http.Transport{MaxConnsPerHost: senders(), MaxIdleConnsPerHost: senders()}
	if c.gen, err = client.New(c.a.url, client.WithHTTPClient(&http.Client{Transport: c.tr})); err != nil {
		c.close()
		return nil, err
	}
	if err := c.grow(ctx, sessions); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// senders is the load generator's goroutine and connection count.
func senders() int { return runtime.NumCPU() }

// grow creates sessions through node A until the pool holds n (even)
// sessions, exactly half owned by each node; creates landing on an
// owner whose half is full are deleted.
func (c *serveCluster) grow(ctx context.Context, n int) error {
	var local, remote []servedSession
	for _, s := range c.pool {
		if s.local {
			local = append(local, s)
		} else {
			remote = append(remote, s)
		}
	}
	for tries := 0; len(local) < n/2 || len(remote) < n/2; tries++ {
		if tries > 8*n {
			return fmt.Errorf("could not pin %d sessions per node", n/2)
		}
		info, err := c.a.cl.CreateSession(ctx, api.SessionCreateRequest{Mode: "table"})
		if err != nil {
			return err
		}
		s := servedSession{id: info.ID, local: info.Node == c.a.clu.Self()}
		switch {
		case s.local && len(local) < n/2:
			local = append(local, s)
		case !s.local && len(remote) < n/2:
			remote = append(remote, s)
		default:
			if err := c.a.cl.DeleteSession(ctx, info.ID); err != nil {
				return err
			}
		}
	}
	c.pool = c.pool[:0]
	for i := range local {
		c.pool = append(c.pool, local[i], remote[i])
	}
	return nil
}

func (c *serveCluster) close() {
	if c.tr != nil {
		c.tr.CloseIdleConnections()
	}
	c.a.close()
	if c.b != nil {
		c.b.close()
	}
}

// scrape returns node A's and node B's /metrics.
func (c *serveCluster) scrape(ctx context.Context) ([2]map[string]uint64, error) {
	var out [2]map[string]uint64
	for i, n := range []*node{c.a, c.b} {
		m, err := n.cl.Metrics(ctx)
		if err != nil {
			return out, err
		}
		out[i] = m
	}
	return out, nil
}

// sum adds one key over both nodes.
func sum(m [2]map[string]uint64, key string) float64 { return float64(m[0][key] + m[1][key]) }

// op is one scheduled load-generator operation: a step of a pool
// session, or (sess < 0) a create+delete pair.
type op struct {
	due    time.Duration // offset from the phase start
	sess   int
	req    api.StepRequest
	sample bool // re-decide in-process after the phase
}

// phase is the measured outcome of one offered rate.
type phase struct {
	offered              float64   // scheduled steps per second
	achieved             float64   // completed steps per second
	lat                  []float64 // step latency from due time, ms
	local, proxied       []float64 // the same, split by session owner
	creates, deletes     []float64 // write-path latency, ms
	lag                  []float64 // generator wake-up lag, ms
	steps, pairs, failed int
	overrun              time.Duration // last completion past the schedule's end
}

// quantile is the phase's p-th percentile step latency in ms.
func (p *phase) quantile(pct float64) float64 { return quantile(p.lat, pct) }

// p99 is the phase's step p99 in ms.
func (p *phase) p99() float64 { return p.quantile(99) }

// passes reports whether the rung meets the ladder's limits: step p99
// within p99LimitMs, no failures, and no backlog left at the end.
func (p *phase) passes() bool {
	return p.failed == 0 && p.p99() <= p99LimitMs && p.overrun < p99LimitMs*time.Millisecond
}

// schedule lays out dur of offered load at rate: every pool session
// steps once per DFS window, phases staggered evenly, plus one
// create+delete pair per pairEvery steps. States are drawn from rng.
func schedule(rng *rand.Rand, rate float64, dur time.Duration, nsess int, fmax float64) []op {
	n := int(rate * dur.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	ops := make([]op, 0, n+n/pairEvery)
	for j := 0; j < n; j++ {
		ops = append(ops, op{
			due:  time.Duration(j) * interval,
			sess: j % nsess,
			req: api.StepRequest{
				MaxCoreTempC:   60 + 39*rng.Float64(),
				RequiredFreqHz: (0.1 + 0.9*rng.Float64()) * fmax,
			},
			sample: rng.Float64() < sampleShare,
		})
		if j%pairEvery == pairEvery/2 {
			ops = append(ops, op{due: time.Duration(j)*interval + interval/2, sess: -1})
		}
	}
	return ops
}

// offer runs one open-loop phase: senders() goroutines pull operations
// in due order, each sleeping until its operation is due. A step's
// latency runs from its due time to its response, less the sender's
// own wake-up lag: when a sender was idle, the time it overslept
// (Go's timer granularity is about a millisecond) is the generator's,
// reported as loadgen lag; when every sender was still busy at the due
// time, the wait counts against the system, so a backlog shows in the
// latency instead of being omitted.
func (c *serveCluster) offer(ctx context.Context, ops []op) *phase {
	p := &phase{}
	var (
		next    atomic.Int64
		mu      sync.Mutex
		lastEnd time.Time
		wg      sync.WaitGroup
	)
	type sampled struct {
		req  api.StepRequest
		resp []float64
	}
	var samples []sampled
	start := time.Now().Add(5 * time.Millisecond)
	for g := 0; g < senders(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				if j >= len(ops) {
					return
				}
				o := &ops[j]
				due := start.Add(o.due)
				free := time.Now()
				if d := due.Sub(free); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				lag := sent.Sub(maxTime(due, free))
				if o.sess < 0 {
					cl, dl, err := c.pair(ctx)
					mu.Lock()
					p.pairs++
					if err != nil {
						p.failed++
					} else {
						p.creates = append(p.creates, ms(cl))
						p.deletes = append(p.deletes, ms(dl))
					}
					mu.Unlock()
					continue
				}
				s := c.pool[o.sess]
				resp, err := c.gen.Step(ctx, s.id, o.req)
				end := time.Now()
				lat := end.Sub(due) - lag
				ok := err == nil && c.chk.freqs("serve step", resp.FreqsHz)
				mu.Lock()
				p.steps++
				p.lat = append(p.lat, ms(lat))
				if s.local {
					p.local = append(p.local, ms(lat))
				} else {
					p.proxied = append(p.proxied, ms(lat))
				}
				if free.Before(due) {
					p.lag = append(p.lag, ms(lag))
				}
				if err != nil {
					p.failed++
					if p.failed <= 5 {
						fmt.Fprintf(os.Stderr, "perfbench: serve step: %v\n", err)
					}
				}
				if ok && o.sample {
					samples = append(samples, sampled{o.req, resp.FreqsHz})
				}
				if end.After(lastEnd) {
					lastEnd = end
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	span := ops[len(ops)-1].due
	p.overrun = lastEnd.Sub(start.Add(span))
	p.achieved = float64(p.steps) / lastEnd.Sub(start).Seconds()
	for _, s := range samples {
		d := c.ctrl.Decide(s.req.MaxCoreTempC, s.req.RequiredFreqHz)
		c.chk.equal("serve re-decision", s.resp, d.Freqs)
	}
	return p
}

// pair is one write-path operation: create a table session through
// node A, then delete it.
func (c *serveCluster) pair(ctx context.Context) (create, del time.Duration, err error) {
	t0 := time.Now()
	info, err := c.gen.CreateSession(ctx, api.SessionCreateRequest{Mode: "table"})
	if err != nil {
		return 0, 0, err
	}
	t1 := time.Now()
	err = c.gen.DeleteSession(ctx, info.ID)
	return t1.Sub(t0), time.Since(t1), err
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// servedLoop closes the control loop through the cluster: the fleet
// ambient-hot scenario simulated in-process, each window decided by a
// B-owned table session stepped through node A, so every decision takes
// the HTTP path and the proxy hop. Only one request is in flight at a
// time, so the process CPU time spent during a step is that step's cost
// on both nodes and the client.
var servedLoop = &loopWorkload{
	name:         "serve-cluster loop",
	scenario:     "ambient-hot",
	horizon:      2,
	maxSim:       60,
	waitSegments: 200,
	tailPct:      99,
}

func runServeCluster(cfg runConfig) (*outcome, error) {
	ctx := context.Background()
	refSessions := refRate / stepsPerSessionPerS

	// Set-up: two nodes, the cluster-wide sweep and the pinned pool,
	// built serveSetupReps times; the last cluster is measured. Every
	// build must run exactly one Phase-1 generation cluster-wide.
	var (
		c                  *serveCluster
		setups, wallSetups []float64
		failures           int
	)
	for i := 0; i < serveSetupReps; i++ {
		if c != nil {
			failures += c.chk.count()
			c.close()
		}
		runtime.GC() // every set-up starts from a collected heap
		t0, c0 := time.Now(), cpuNow()
		var err error
		if c, err = buildServeCluster(ctx, refSessions); err != nil {
			return nil, err
		}
		setups = append(setups, (cpuNow() - c0).Seconds())
		wallSetups = append(wallSetups, time.Since(t0).Seconds())
		m, err := c.scrape(ctx)
		if err != nil {
			c.close()
			return nil, err
		}
		if g := sum(m, "table_cache_generations"); g != 1 {
			c.chk.fail("cluster ran %g Phase-1 generations, want exactly 1", g)
		}
		c.sweep = time.Duration(sum(m, "sweep_solve_nanos"))
	}
	defer c.close()
	fmt.Fprintf(os.Stderr, "perfbench: serve-cluster: set-ups %.3f s CPU, %.3f s wall\n", setups, wallSetups)
	before, err := c.scrape(ctx)
	if err != nil {
		return nil, err
	}

	// Budget: three fifths to the served closed loop, which the gated
	// figures come from, and two fifths to the open loop at the
	// reference rate. The traced run gives the loop a fifth, the
	// reference rate two fifths and the other rungs of the ladder the
	// rest.
	loopBudget, refDur, rungDur := cfg.budget*3/5, cfg.budget*2/5, time.Duration(0)
	if cfg.trace {
		loopBudget = cfg.budget / 5
		rungDur = (cfg.budget - loopBudget - refDur) / time.Duration(len(ladder)-1)
	}
	fmax := c.a.eng.Chip().FMax()

	loop := &loopPass{w: servedLoop, eng: c.a.eng, chk: c.chk, ctx: ctx}
	loop.step = func(ctx context.Context, st protemp.State) ([]float64, error) {
		resp, err := c.gen.Step(ctx, c.pool[1].id, api.StepRequest{
			MaxCoreTempC: st.MaxCoreTemp, RequiredFreqHz: st.RequiredFreq,
		})
		return resp.FreqsHz, err
	}
	if err := loop.run(cfg.seed, loopBudget, servedLoop.waitSegments); err != nil {
		return nil, err
	}

	// The open loop: the reference rate, and in a traced run the whole
	// ladder in rate order, up to the first rung above the reference
	// that fails. Each rung draws its step states from its own seeded
	// stream.
	var (
		rungs               []*phase
		ref                 *phase
		refBefore, refAfter [2]map[string]uint64
	)
	for i, rate := range ladder {
		if rate != refRate && !cfg.trace {
			continue
		}
		dur := rungDur
		if rate == refRate {
			dur = refDur
			if refBefore, err = c.scrape(ctx); err != nil {
				return nil, err
			}
		}
		// An even pool, half per node, stepping once per window each.
		n := 2 * int(rate/(2*stepsPerSessionPerS))
		if err := c.grow(ctx, n); err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewPCG(uint64(cfg.seed), uint64(i)))
		offered := float64(n * stepsPerSessionPerS)
		p := c.offer(ctx, schedule(rng, offered, dur, n, fmax))
		p.offered = offered
		fmt.Fprintf(os.Stderr, "perfbench: serve-cluster: %6.0f/s offered, %7.1f/s achieved, p50 %.3f ms, p99 %.3f ms, lag p99 %.3f ms, overrun %v, failed %d\n",
			p.offered, p.achieved, quantile(p.lat, 50), p.p99(), quantile(p.lag, 99), p.overrun.Round(time.Microsecond), p.failed)
		rungs = append(rungs, p)
		if rate == refRate {
			ref = p
			if refAfter, err = c.scrape(ctx); err != nil {
				return nil, err
			}
			if lag := quantile(ref.lag, 99); lag > maxLagMs {
				return nil, fmt.Errorf("invalid run: load generator lag p99 %.2f ms over %d ms at the reference rate", lag, maxLagMs)
			}
		}
		if rate > refRate && !p.passes() {
			break
		}
	}

	attempted, failed := loop.attempted, loop.failed
	for _, p := range rungs {
		attempted += p.steps + p.pairs
		failed += p.failed
	}
	failed += failures + c.chk.count()

	if !cfg.trace {
		return &outcome{attempted: attempted, failed: failed, metrics: loop.gated(setups)}, nil
	}

	after, err := c.scrape(ctx)
	if err != nil {
		return nil, err
	}
	delta := func(key string) float64 { return sum(after, key) - sum(before, key) }
	var creates, deletes []float64
	for _, p := range rungs {
		creates = append(creates, p.creates...)
		deletes = append(deletes, p.deletes...)
	}
	local, proxied := quantile(ref.local, 50), quantile(ref.proxied, 50)
	m := metrics{}
	loop.wallMetrics(m, wallSetups)
	m.set("step_samples", "count", float64(loop.windows))
	m.set("sim.self_s", "s", (loop.simWall - loop.decide).Seconds())
	m.set("client.step_ms_p50", "ms", ref.quantile(50))
	m.set("client.step_ms_p99", "ms", ref.p99())
	m.set("client.step_local_ms_p50", "ms", local)
	m.set("client.step_proxied_ms_p50", "ms", proxied)
	m.set("cluster.proxy_hop_ms", "ms", proxied-local)
	m.set("cluster.proxied_share", "ratio",
		ratio(float64(refAfter[0]["cluster_proxied_requests"]-refBefore[0]["cluster_proxied_requests"]),
			float64(refAfter[0]["http_requests"]-refBefore[0]["http_requests"])))
	m.set("cluster.proxy_errors", "count", delta("cluster_proxy_errors"))
	m.set("cluster.steps_rejected", "count", delta("cluster_steps_rejected"))
	m.set("server.http_errors", "count", delta("http_errors"))
	m.set("server.create_ms_p50", "ms", quantile(creates, 50))
	m.set("server.delete_ms_p50", "ms", quantile(deletes, 50))
	m.set("core.sweep_s", "s", c.sweep.Seconds())
	m.set("tablecache.generations", "count", sum(after, "table_cache_generations"))
	m.set("tablecache.peer_hits", "count", sum(after, "cluster_peer_table_hits"))
	m.set("loadgen.lag_ms_p99", "ms", quantile(ref.lag, 99))
	m.set("serve.max_rate_steps_per_s", "1/s", maxRate(rungs))
	return &outcome{attempted: attempted, failed: failed, metrics: m}, nil
}

// maxRate is the highest offered rate of the ladder the cluster
// sustains within its limits: the last passing rung, in rate order, up
// to the first that fails. Zero when the lowest rung fails.
func maxRate(rungs []*phase) float64 {
	best := 0.0
	for _, p := range rungs {
		if !p.passes() {
			break
		}
		best = p.offered
	}
	return best
}
