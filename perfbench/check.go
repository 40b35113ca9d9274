package main

import (
	"fmt"
	"math"
	"os"
	"sync"
)

// peakSlackC is the tolerance on the paper's guarantee that no core
// exceeds TMax: the closed-loop peak may read at most this far above
// the limit (°C) before the answer counts as wrong.
const peakSlackC = 0.01

// checker validates the program's answers and counts the ones that are
// wrong. Every failed check counts in the run's failed total and its
// error ratio. It is safe for concurrent use.
type checker struct {
	cores int
	fmax  float64
	tmax  float64
	quiet bool // self-test: count, but do not report

	mu       sync.Mutex
	failures int
}

func newChecker(cores int, fmax, tmax float64) *checker {
	return &checker{cores: cores, fmax: fmax, tmax: tmax}
}

// fail counts one wrong answer, reporting the first few on stderr.
func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	c.failures++
	n := c.failures
	c.mu.Unlock()
	if !c.quiet && n <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// count returns the wrong answers seen so far.
func (c *checker) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failures
}

// freqs checks one frequency decision: one value per core, each a
// number in [0, fmax].
func (c *checker) freqs(what string, f []float64) bool {
	if len(f) != c.cores {
		c.fail("%s: %d frequencies for %d cores", what, len(f), c.cores)
		return false
	}
	for i, v := range f {
		if math.IsNaN(v) || v < 0 || v > c.fmax {
			c.fail("%s: core %d frequency %g outside [0, %g]", what, i, v, c.fmax)
			return false
		}
	}
	return true
}

// peak checks the closed-loop guarantee: the hottest core temperature
// reached stays within TMax + peakSlackC.
func (c *checker) peak(what string, maxCoreTemp float64) bool {
	if math.IsNaN(maxCoreTemp) || maxCoreTemp > c.tmax+peakSlackC {
		c.fail("%s: peak core temperature %.4f °C above TMax %.2f °C", what, maxCoreTemp, c.tmax)
		return false
	}
	return true
}

// equal checks a served decision against an independent re-decision
// of the same state: the same frequency, bit for bit, on every core.
func (c *checker) equal(what string, got, want []float64) bool {
	if len(got) != len(want) {
		c.fail("%s: %d frequencies, re-decision has %d", what, len(got), len(want))
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			c.fail("%s: core %d served %g Hz, re-decision %g Hz", what, i, got[i], want[i])
			return false
		}
	}
	return true
}

// selfTest feeds the checker one deliberately wrong answer of each
// kind and confirms every one is counted, and that right answers are
// not. A checker that lets a wrong answer through makes the whole run
// meaningless, so the benchmark refuses to measure with one.
func selfTest() error {
	c := newChecker(2, 1e9, 100)
	c.quiet = true
	good := []float64{5e8, 1e9}
	if !c.freqs("good", good) || !c.peak("good", 100) || !c.equal("good", good, []float64{5e8, 1e9}) {
		return fmt.Errorf("checker rejected a correct answer")
	}
	wrong := []func() bool{
		func() bool { return c.freqs("short", good[:1]) },
		func() bool { return c.freqs("too fast", []float64{5e8, 1.5e9}) },
		func() bool { return c.freqs("negative", []float64{-1, 0}) },
		func() bool { return c.freqs("nan", []float64{math.NaN(), 0}) },
		func() bool { return c.peak("hot", 100.02) },
		func() bool { return c.peak("nan peak", math.NaN()) },
		func() bool { return c.equal("differs", good, []float64{5e8, 0.95e9}) },
		func() bool { return c.equal("length", good, good[:1]) },
	}
	for i, w := range wrong {
		if w() {
			return fmt.Errorf("checker accepted wrong answer %d", i)
		}
	}
	if got := c.count(); got != len(wrong) {
		return fmt.Errorf("checker counted %d of %d wrong answers", got, len(wrong))
	}
	return nil
}
