package main

import (
	"regexp"
	"strings"
	"time"
)

// The end-to-end times and throughputs are quoted at a reference host
// speed. On the shared reference box the same code runs, in spells of
// seconds to minutes, at speeds up to twice apart, on every rung and
// workload alike, while the CPU clock shows the process running the
// whole time: the host's cores, caches and memory are shared with other
// guests. probeHost times a fixed piece of work from Go's standard
// library right before each timed segment, set-up or build: the regexp
// matcher, a bytecode interpreter like the runtime's own, scanning a text
// that holds no match. No change to the repository can change that work,
// so its time against probeRef says how fast the host runs the benchmark
// at that moment, and every figure is scaled by it: a throughput divided
// by the host speed, a duration multiplied by it (README.md gives the
// spreads across runs with and without the scaling).

// probeRef is the probe's CPU time at the reference speed, the typical
// probe time on the reference box.
const probeRef = 160 * time.Microsecond

var (
	probeRe   = regexp.MustCompile(`GET /[a-z]*\.html`)
	probeText = []byte(strings.Repeat("GET /abc.htm HTTP/1.1 POST /x.html GET /.htmx ", 90))
)

// probeHost runs the probe. It returns the host speed, probeRef over the
// probe's CPU time (below 1 on a slower host), and that CPU time.
func probeHost() (speed float64, cost time.Duration) {
	c0 := cpuNow()
	for i := 0; i < 4; i++ {
		if probeRe.Match(probeText) {
			panic("perfbench: the host probe's text matched its pattern")
		}
	}
	cost = cpuNow() - c0
	return float64(probeRef) / float64(cost), cost
}
