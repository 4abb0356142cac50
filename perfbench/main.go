// Command perfbench is the repository's host-time benchmark of the JIT
// ladder. It drives one closed-loop workload (a single caller: every
// call into the runtime waits for the previous one), checks every
// output against an independent oracle, checks the workload's virtual
// clock against the figures recorded in baseline.json with zero
// tolerance, and prints its metrics by name with units and sample
// counts. The last line of standard output is one JSON object.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload pow_ladder --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 25   # every workload, one process
//	bash perfbench/run.sh --smoke                                # every workload briefly
//	bash perfbench/run.sh --record-gate                          # rewrite the virtual-clock gate
//
// With --trace 0 the metrics are the end-to-end ones (process CPU
// clock, see cpuNow). With --trace 1 the workload runs twice, untraced
// then traced, each for half the window, followed by a sweep over every
// layer on the workload's program; the metrics are
// the per-layer ones, and the report adds a self-time table and the
// tracing overhead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strings"
	"time"

	"cascade/internal/toolchain"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name, Unit string
}

// endToEnd lists the end-to-end metrics in report order. The times and
// throughputs are on the process CPU clock (see cpuNow), scaled to the
// reference host speed (see probeHost). The throughputs are medians over
// fixed-size tick segments of a rung (over builds for nw_builds), and
// time_to_fabric_s the median over ladders (over builds of new variants).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
	{"sw_ticks_per_s", "1/s"},
	{"fabric_ticks_per_s", "1/s"},
	{"time_to_fabric_s", "s"},
}

// Outcome is what one workload run measured.
type Outcome struct {
	Attempted, Failed int
	Setup             Sample             // seconds per set-up
	Rates             map[string]*Sample // rung -> ticks per second, per segment
	TTF               Sample             // seconds from Eval to the first fabric step
	Clocks            clockShare         // CPU and wall time over the timed segments or builds
	Speeds            Sample             // host speed before each timed segment, set-up or build (probeHost)
	Extra             []string           // workload-specific report lines
	Layer             map[string]float64 // traced runs: per-layer metrics the run itself yields
	LayerN            map[string]int     // sample counts behind Layer
	Swaps             Sample             // traced runs: wall ms of each step that moved user logic to another rung
	Counters          struct{ ticks, steps, msgs, roundTrips, bytes uint64 }
	Compile           toolchain.Stats // the compiling toolchain's counters at the end of the run
}

func newOutcome() *Outcome {
	return &Outcome{Rates: map[string]*Sample{}, Layer: map[string]float64{}, LayerN: map[string]int{}}
}

// fail records one failed operation with its reason.
func (o *Outcome) fail(format string, args ...any) {
	o.Failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
}

// endToEndValues extracts the end-to-end metrics with their sample counts.
func (o *Outcome) endToEndValues() (map[string]Quantile, error) {
	rss, err := maxRSSMB()
	if err != nil {
		return nil, err
	}
	rate := func(r string) Quantile {
		if s, ok := o.Rates[r]; ok {
			return s.Median()
		}
		return Quantile{Value: math.NaN()}
	}
	v := map[string]Quantile{
		"setup_s":            o.Setup.Median(),
		"max_rss_mb":         {Value: rss, N: 1},
		"sw_ticks_per_s":     rate(rungSW),
		"fabric_ticks_per_s": rate(rungFabric),
		"time_to_fabric_s":   o.TTF.Median(),
	}
	for _, m := range endToEnd {
		if q := v[m.Name]; q.N == 0 || math.IsNaN(q.Value) || q.Value <= 0 {
			return nil, fmt.Errorf("metric %s was not measured (n=%d)", m.Name, q.N)
		}
	}
	return v, nil
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	// One Go processor: the runtime still dispatches its two lanes, but
	// the caller, the lanes, the compile workers and the garbage
	// collector share one core, so a co-tenant on the host's other core
	// does not move the measurement.
	goruntime.GOMAXPROCS(1)
	wlName := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 25, "wall-clock seconds one run measures")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	smoke := flag.Bool("smoke", false, "run every workload briefly with oracles and the virtual-clock gate")
	record := flag.Bool("record-gate", false, "recompute the virtual-clock gate figures into baseline.json")
	flag.Parse()

	dir, err := benchDir()
	if err != nil {
		fatal(err)
	}
	base, err := loadBaseline(filepath.Join(dir, "baseline.json"))
	if err != nil {
		fatal(err)
	}
	switch {
	case *record:
		if err := recordGate(base, filepath.Join(dir, "baseline.json")); err != nil {
			fatal(err)
		}
		return
	case *smoke:
		if !runSmoke(base) {
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}
	window := time.Duration(*seconds * float64(time.Second))
	if *wlName == "all" {
		ok := true
		for _, w := range workloads {
			ok = runOne(base, w, *seed, window, *trace == 1) && ok
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	w, ok := workloadByName(*wlName)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (want one of %s or all)", *wlName, strings.Join(workloadNames(), ", ")))
	}
	runOne(base, w, *seed, window, *trace == 1)
}

// runOne runs a workload, prints its report and its JSON result line,
// and reports whether it was correct. An unmeasurable metric is fatal.
func runOne(base *Baseline, w *workload, seed uint64, window time.Duration, traced bool) bool {
	fmt.Printf("== %s  seed=%d  window=%v  load=closed loop, 1 caller  trace=%v\n", w.name, seed, window, traced)
	var res jsonResult
	if traced {
		res = runTraced(base, w, seed, window)
	} else {
		o, err := w.run(&runCtx{seed: seed, window: window, model: base.model(w), setups: setupsPerRun, rounds: ladderRounds})
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		gateOutcome(base, w, o)
		vals, err := o.endToEndValues()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		printEndToEnd(w, o, vals)
		res = jsonResult{Attempted: o.Attempted, Failed: o.Failed, Metrics: map[string]jsonMetric{}}
		for _, m := range endToEnd {
			res.Metrics[m.Name] = jsonMetric{Value: vals[m.Name].Value, Unit: m.Unit}
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	fmt.Printf("ops: failed/attempted = %d/%d\n", res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	return res.Correct
}

// printEndToEnd prints every end-to-end metric with unit and sample count.
func printEndToEnd(w *workload, o *Outcome, vals map[string]Quantile) {
	fmt.Println("  times and throughputs: process CPU clock, scaled to the reference host speed")
	for _, m := range endToEnd {
		q := vals[m.Name]
		fmt.Printf("  %-20s %14.4f %-4s n=%-5d (%s)\n", m.Name, q.Value, m.Unit, q.N, w.meaning[m.Name])
	}
	rungs := make([]string, 0, len(o.Rates))
	for r := range o.Rates {
		rungs = append(rungs, r)
	}
	sort.Strings(rungs)
	for _, r := range rungs {
		s := o.Rates[r]
		fmt.Printf("  rung %-8s ticks/s p10=%.0f p50=%.0f p90=%.0f n=%d segments\n",
			r, s.Percentile(10).Value, s.Median().Value, s.Percentile(90).Value, s.N())
	}
	fmt.Printf("  time to fabric s p50=%.4f p90=%.4f n=%d\n", o.TTF.Median().Value, o.TTF.Percentile(90).Value, o.TTF.N())
	fmt.Printf("  CPU clock / wall clock over the timed spans: %s\n", o.Clocks)
	fmt.Printf("  host speed (reference = 1) p10=%.3f p50=%.3f p90=%.3f n=%d probes\n",
		o.Speeds.Percentile(10).Value, o.Speeds.Median().Value, o.Speeds.Percentile(90).Value, o.Speeds.N())
	for _, line := range o.Extra {
		fmt.Println("  " + line)
	}
}

// benchDir locates the benchmark's own directory (holding baseline.json)
// relative to the working directory: the repository root or perfbench.
func benchDir() (string, error) {
	for _, d := range []string{"perfbench", "."} {
		if _, err := os.Stat(filepath.Join(d, "baseline.json")); err == nil {
			return d, nil
		}
	}
	return "", fmt.Errorf("baseline.json not found: run from the repository root")
}

// buildDir is where the benchmark writes traces (inside the checkout).
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
