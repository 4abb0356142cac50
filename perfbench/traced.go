package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"cascade/internal/runtime"
)

// setupsPerRun is how many set-ups setup_s takes the median of.
const setupsPerRun = 20

// noteStats accumulates a runtime's final counters for the per-tick
// ratios the traced run reports.
func (o *Outcome) noteStats(st runtime.Stats) {
	o.Counters.ticks += st.Ticks
	o.Counters.steps += st.Steps
	o.Counters.msgs += st.Time.Messages
	o.Counters.roundTrips += st.Xport.RoundTrips
	o.Counters.bytes += st.Xport.BytesIn + st.Xport.BytesOut
}

// counterLayers turns the accumulated counters into per-tick ratios.
func (o *Outcome) counterLayers() {
	c := o.Counters
	t := float64(c.ticks)
	for name, v := range map[string]uint64{
		"runtime.steps_per_tick":        c.steps,
		"runtime.messages_per_tick":     c.msgs,
		"transport.roundtrips_per_tick": c.roundTrips,
		"transport.bytes_per_tick":      c.bytes,
	} {
		o.Layer[name] = Ratio{float64(v), t}.Value()
		o.LayerN[name] = int(c.ticks)
	}
	o.Layer["toolchain.hit_ratio"] = Ratio{float64(o.Compile.CacheHits), float64(o.Compile.Submitted)}.Value()
	o.LayerN["toolchain.hit_ratio"] = o.Compile.Submitted
	o.Layer["toolchain.synthesized"] = float64(o.Compile.Synthesized)
	o.LayerN["toolchain.synthesized"] = 1
}

// spanMedianMS is the median duration of the spans with the given name.
func spanMedianMS(spans []Span, name string) Quantile {
	var s Sample
	for _, sp := range spans {
		if sp.Name == name {
			s.Add(ms(sp.End - sp.Start))
		}
	}
	return s.Median()
}

// runTraced runs the workload untraced, then traced, each for half the
// window, then sweeps every layer on its program, and reports the
// per-layer metrics.
func runTraced(base *Baseline, w *workload, seed uint64, window time.Duration) jsonResult {
	model := base.model(w)
	half := func(tr *Tracer) *runCtx {
		return &runCtx{seed: seed, window: window / 2, model: model, setups: setupsPerRun / 2, rounds: ladderRounds / 2, tr: tr}
	}
	untraced, err := w.run(half(nil))
	if err != nil {
		fatal(fmt.Errorf("%s untraced: %w", w.name, err))
	}
	uvals, err := untraced.endToEndValues()
	if err != nil {
		fatal(fmt.Errorf("%s untraced: %w", w.name, err))
	}

	runID := fmt.Sprintf("%s-seed%d-%d", w.name, seed, time.Now().UnixNano())
	tr := NewTracer(runID)
	root := tr.Begin("workload run")
	traced, err := w.run(half(tr))
	tr.End(root)
	if err != nil {
		fatal(fmt.Errorf("%s traced: %w", w.name, err))
	}
	tvals, err := traced.endToEndValues()
	if err != nil {
		fatal(fmt.Errorf("%s traced: %w", w.name, err))
	}
	sw, err := runSweep(w.target(seed), model, tr)
	if err != nil {
		fatal(fmt.Errorf("%s layer sweep: %w", w.name, err))
	}
	gateOutcome(base, w, traced)

	// Per-layer values: the sweep, then what the traced run itself
	// measured (it wins where both have a figure).
	vals, counts := sw.vals, sw.n
	spans := tr.Spans()
	for span, key := range map[string]string{"runtime.Eval": "runtime.eval_ms", "runtime.Shutdown": "runtime.shutdown_ms"} {
		q := spanMedianMS(spans, span)
		vals[key], counts[key] = q.Value, q.N
	}
	q := traced.Swaps.Median()
	vals["runtime.hot_swap_ms"], counts["runtime.hot_swap_ms"] = q.Value, q.N
	traced.counterLayers()
	for k, v := range traced.Layer {
		vals[k], counts[k] = v, traced.LayerN[k]
	}

	fmt.Printf("-- untraced run\n")
	printEndToEnd(w, untraced, uvals)
	fmt.Printf("-- traced run\n")
	printEndToEnd(w, traced, tvals)
	fmt.Printf("-- tracing overhead: traced vs untraced end-to-end figures\n")
	for _, m := range endToEnd {
		if m.Name == "max_rss_mb" {
			continue
		}
		u, t := uvals[m.Name].Value, tvals[m.Name].Value
		fmt.Printf("  %-20s traced %.4f vs untraced %.4f %s: change %s\n", m.Name, t, u, m.Unit, Ratio{t - u, u})
	}
	path, err := writeTraceFile(fmt.Sprintf("%s/traces", buildDir()), runID, spans)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("-- self time per span, %s (%d spans written to %s)\n", w.name, len(spans), path)
	fmt.Print(FormatSelfTable(SelfTable(spans)))
	fmt.Printf("-- per-layer metrics (wall clock unless a count), with the end-to-end metric each should move\n")
	pred := map[string]string{}
	for _, p := range base.Predictions {
		pred[p.Metric] = p.Moves
	}
	res := jsonResult{
		Attempted: untraced.Attempted + traced.Attempted,
		Failed:    untraced.Failed + traced.Failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, m := range perLayer {
		v, ok := vals[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fatal(fmt.Errorf("%s: per-layer metric %s was not measured", w.name, m.Name))
		}
		fmt.Printf("  %-32s %14.4f %-5s n=%-7d -> %s\n", m.Name, v, m.Unit, counts[m.Name], pred[m.Name])
		res.Metrics[m.Name] = jsonMetric{Value: v, Unit: m.Unit}
	}
	return res
}

// runSmoke runs every workload briefly, with oracles and the gate on,
// and reports whether all were correct.
func runSmoke(base *Baseline) bool {
	ok := true
	for _, w := range workloads {
		o, err := w.run(&runCtx{seed: base.Seeds.Baseline, window: 2 * time.Second, model: base.model(w), setups: 2, rounds: 2})
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: smoke %s: %v\n", w.name, err)
			ok = false
			continue
		}
		gateOutcome(base, w, o)
		vals, err := o.endToEndValues()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: smoke %s: %v\n", w.name, err)
			ok = false
			continue
		}
		fmt.Printf("== smoke %s\n", w.name)
		printEndToEnd(w, o, vals)
		fmt.Printf("  ops: failed/attempted = %d/%d\n", o.Failed, o.Attempted)
		ok = ok && o.Failed == 0
	}
	if ok {
		fmt.Println("smoke: every workload passed its oracle and the virtual-clock gate")
	}
	return ok
}
