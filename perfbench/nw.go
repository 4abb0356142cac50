package main

import (
	"fmt"
	goruntime "runtime"
	"strings"
	"time"

	"cascade/internal/fpga"
	"cascade/internal/runtime"
	"cascade/internal/toolchain"
	"cascade/internal/workloads/nw"
)

// nwNewShare is the probability that a build compiles a variant not
// built before; the rest repeat an earlier variant, as a student
// re-running an unchanged design does, so the bitstream cache can
// serve them.
const nwNewShare = 0.3

// nwPassBuilds is how many builds one session (one toolchain) runs.
const nwPassBuilds = 250

// nwPlan generates the seeded edit-build-test sequence.
type nwPlan struct {
	r        *rng
	variants []nw.Config
}

func newNWPlan(seed uint64) *nwPlan { return &nwPlan{r: newRng(seed)} }

func (p *nwPlan) variant() nw.Config {
	seq := func() []byte {
		b := make([]byte, 8+p.r.intn(9))
		for i := range b {
			b[i] = "ACGT"[p.r.intn(4)]
		}
		return b
	}
	return nw.Config{
		SeqA: seq(), SeqB: seq(),
		Match: 1 + p.r.intn(2), Mismatch: -1 - p.r.intn(2), Gap: -1 - p.r.intn(2),
		Display: true, Finish: true,
	}
}

// next returns the next build's configuration and whether it repeats an
// earlier build's program.
func (p *nwPlan) next() (nw.Config, bool) {
	if len(p.variants) == 0 || float64(p.r.next()%1000)/1000 < nwNewShare {
		c := p.variant()
		p.variants = append(p.variants, c)
		return c, false
	}
	return p.variants[p.r.intn(len(p.variants))], true
}

// nwBuild is what one build measured.
type nwBuild struct {
	total        time.Duration // runtime construction -> $finish, CPU clock
	wall         time.Duration // the same span on the wall clock
	toFabric     time.Duration // program Eval -> first open-loop step, CPU clock; <0 if none
	swTicks      uint64
	swCPU        time.Duration
	fabricTicks  uint64
	fabricCPU    time.Duration
	swapStep     time.Duration // traced builds: the step in which user logic left software (wall clock)
	stats        runtime.Stats // the runtime's counters at $finish
	swPs, olAtPs uint64        // virtual: time spent before leaving software, open-loop start (0: none)
	finalPs      uint64
	ticks        uint64
}

// buildNW runs one build in a fresh runtime on the shared device and
// toolchain, checks its score against nw.Config.Score, and shuts the
// runtime down.
func buildNW(dev *fpga.Device, tc *toolchain.Toolchain, cfg nw.Config, tr *Tracer, gate bool) (nwBuild, error) {
	var b nwBuild
	b.toFabric = -1
	span := tr.Begin("build")
	defer tr.End(span)
	c0, w0 := cpuNow(), time.Now()
	view := &lineView{}
	opts := runtime.Options{Device: dev, Toolchain: tc, View: view, Parallelism: lanes, OpenLoopTargetPs: openLoopTarget}
	if gate {
		opts.Observer = pinnedObserver()
	}
	var r *runtime.Runtime
	tr.Time("runtime.New", func() { r = runtime.New(opts) })
	defer tr.Time("runtime.Shutdown", func() { r.Shutdown() })
	var err error
	tr.Time("runtime.Eval/prelude", func() { err = r.Eval(runtime.DefaultPrelude) })
	if err != nil {
		return b, err
	}
	evalCPU := cpuNow()
	tr.Time("runtime.Eval", func() { err = r.Eval(nw.GenerateProgram(cfg)) })
	if err != nil {
		return b, err
	}
	runSpan := tr.Begin("runtime.Step/build")
	swStart := cpuNow()
	var swEnd, olAt time.Duration // CPU clock readings; 0 until reached
	var olTicks uint64
	limit := uint64(4*cfg.Cycles() + 1000)
	for !r.Finished() && r.Steps() < limit {
		s0 := time.Now()
		r.Step()
		p := r.Phase()
		if swEnd == 0 && p != runtime.PhaseSoftware && p != runtime.PhaseInlined {
			swEnd = cpuNow()
			b.swapStep = time.Since(s0)
			b.swTicks, b.swPs = r.Ticks(), r.VirtualNow()
		}
		if olAt == 0 && p == runtime.PhaseOpenLoop {
			olAt = cpuNow()
			olTicks, b.olAtPs = r.Ticks(), r.VirtualNow()
			b.toFabric = olAt - evalCPU
		}
	}
	end := cpuNow()
	tr.End(runSpan)
	b.total, b.wall = end-c0, time.Since(w0)
	b.ticks, b.finalPs = r.Ticks(), r.VirtualNow()
	b.stats = r.Stats()
	if swEnd == 0 {
		b.swapStep = -1
		swEnd = end
		b.swTicks, b.swPs = b.ticks, b.finalPs
	}
	b.swCPU = swEnd - swStart
	if olAt != 0 {
		b.fabricTicks, b.fabricCPU = b.ticks-olTicks, end-olAt
	}
	if !r.Finished() {
		return b, fmt.Errorf("build did not reach $finish within %d steps", limit)
	}
	var oerr error
	tr.Time("oracle", func() { oerr = checkNWScore(cfg, view) })
	return b, oerr
}

// checkNWScore compares the displayed score, decoded as 16-bit two's
// complement, with nw.Config.Score.
func checkNWScore(cfg nw.Config, view *lineView) error {
	if len(view.errs) > 0 {
		return fmt.Errorf("runtime error: %v", view.errs[0])
	}
	lines := view.take()
	if len(lines) != 1 {
		return fmt.Errorf("want one score line, got %q", lines)
	}
	var score uint64
	var cells int
	if _, err := fmt.Sscanf(strings.TrimSpace(lines[0]), "NW score=%d cells=%d", &score, &cells); err != nil {
		return fmt.Errorf("unexpected output %q", lines[0])
	}
	if got, want := int(int16(uint16(score))), cfg.Score(); got != want {
		return fmt.Errorf("score %d (raw %d), oracle expects %d", got, score, want)
	}
	if want := len(cfg.SeqA) * len(cfg.SeqB); cells != want {
		return fmt.Errorf("%d cells computed, want %d", cells, want)
	}
	return nil
}

func runNW(rc *runCtx) (*Outcome, error) {
	o := newOutcome()
	first, _ := newNWPlan(rc.seed).next()
	// setup times one set-up: device, toolchain and runtime construction
	// and Eval of the plan's first variant. The set-ups are spread over
	// the run, so setup_s samples all of it rather than one instant.
	setup := func() error {
		goruntime.GC() // as for the ladder workloads' set-ups (see runRounds)
		speed, _ := probeHost()
		c0 := cpuNow()
		dev, tc := rc.model.newToolchain()
		r := runtime.New(runtime.Options{Device: dev, Toolchain: tc, View: &lineView{}, Parallelism: lanes, OpenLoopTargetPs: openLoopTarget})
		err := r.Eval(runtime.DefaultPrelude)
		if err == nil {
			err = r.Eval(nw.GenerateProgram(first))
		}
		o.Setup.Add((cpuNow() - c0).Seconds() * speed)
		o.Speeds.Add(speed)
		// Let the background compile finish before the runtime closes,
		// so that it does not run during the builds that follow.
		r.CompileReadyAt()
		r.Shutdown()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		return nil
	}
	var builds, repeats, reachedFabric, hits, submitted, synthesized int
	var buildMS, hitTTF Sample
	sw, fab := &Sample{}, &Sample{}
	var dev *fpga.Device
	var tc *toolchain.Toolchain
	var plan *nwPlan
	endPass := func() {
		if tc != nil {
			st := tc.Stats()
			hits, submitted, synthesized = hits+st.CacheHits, submitted+st.Submitted, synthesized+st.Synthesized
		}
	}
	start := time.Now()
	hardStop := start.Add(3 * rc.window)
	for (time.Since(start) < rc.window || builds < 100) && time.Now().Before(hardStop) {
		if o.Setup.N() < rc.setups && time.Since(start) >= time.Duration(o.Setup.N())*rc.window/time.Duration(rc.setups) {
			if err := setup(); err != nil {
				return nil, err
			}
		}
		if builds%nwPassBuilds == 0 {
			// A new pass: the same seeded session against a fresh device
			// and toolchain, so the cache a run holds, and its memory,
			// do not grow with how many builds fit in the window.
			endPass()
			dev, tc = rc.model.newToolchain()
			plan = newNWPlan(rc.seed)
		}
		cfg, repeat := plan.next()
		// Every figure of the build is scaled to the reference host speed
		// (see probeHost): a duration multiplied, a throughput divided.
		speed, _ := probeHost()
		o.Speeds.Add(speed)
		b, err := buildNW(dev, tc, cfg, rc.tr, false)
		builds++
		o.Attempted++
		if repeat {
			repeats++
		}
		if err != nil {
			o.fail("nw_builds build %d: %v", builds, err)
			continue
		}
		buildMS.Add(ms(b.total) * speed)
		o.Clocks.add(b.total, b.wall)
		o.noteStats(b.stats)
		if rc.tr != nil && b.swapStep >= 0 {
			o.Swaps.Add(ms(b.swapStep))
		}
		if b.swTicks > 0 && b.swCPU > 0 {
			sw.Add(float64(b.swTicks) / b.swCPU.Seconds() / speed)
		}
		if b.toFabric >= 0 {
			reachedFabric++
			// time_to_fabric_s is the fresh-design path: Eval, the
			// interpreter while the compile is in flight, the hot swap.
			// A repeated variant is served from the cache within a step.
			if repeat {
				hitTTF.Add(ms(b.toFabric) * speed)
			} else {
				o.TTF.Add(b.toFabric.Seconds() * speed)
			}
			if b.fabricTicks > 0 && b.fabricCPU > 0 {
				fab.Add(float64(b.fabricTicks) / b.fabricCPU.Seconds() / speed)
			}
		}
	}
	endPass()
	for o.Setup.N() == 0 {
		if err := setup(); err != nil {
			return nil, err
		}
	}
	o.Rates[rungSW], o.Rates[rungFabric] = sw, fab
	p50, p90 := buildMS.Percentile(50), buildMS.Percentile(90)
	o.Extra = append(o.Extra,
		fmt.Sprintf("build_ms_p50         %14.3f ms   n=%d builds (CPU clock, construction -> $finish)", p50.Value, p50.N),
		fmt.Sprintf("build_ms_p90         %14.3f ms   n=%d builds (CPU clock)", p90.Value, p90.N),
		fmt.Sprintf("repeated-build share %s builds, in passes of %d", Ratio{float64(repeats), float64(builds)}, nwPassBuilds),
		fmt.Sprintf("builds reaching fabric before $finish %s", Ratio{float64(reachedFabric), float64(builds)}),
		fmt.Sprintf("time to fabric of repeated builds (cache hits) p50 %.3f ms, n=%d builds (CPU clock)", hitTTF.Median().Value, hitTTF.N()),
		fmt.Sprintf("toolchain cache hits per submission %s; synthesized %d", Ratio{float64(hits), float64(submitted)}, synthesized))
	o.Compile = toolchain.Stats{CacheHits: hits, Submitted: submitted, Synthesized: synthesized}
	return o, nil
}

// nwGateBuilds is how many builds of the plan the gate replays.
const nwGateBuilds = 6

// gateNW replays the plan's first builds with a pinned wall clock and
// records each build's virtual timeline.
func gateNW(seed uint64, m Model) (Figures, error) {
	dev, tc := m.newToolchain()
	plan := newNWPlan(seed)
	f := Figures{}
	for i := 0; i < nwGateBuilds; i++ {
		cfg, _ := plan.next()
		b, err := buildNW(dev, tc, cfg, nil, true)
		if err != nil {
			return nil, fmt.Errorf("build %d: %w", i, err)
		}
		f[fmt.Sprintf("build%d_final_ps", i)] = b.finalPs
		f[fmt.Sprintf("build%d_open_loop_at_ps", i)] = b.olAtPs
		f["sw_ticks"] += b.swTicks
		f["sw_ps"] += b.swPs
		f["ticks"] += b.ticks
	}
	st := tc.Stats()
	f["cache_hits"], f["submitted"] = uint64(st.CacheHits), uint64(st.Submitted)
	return f, nil
}

var nwBuilds = &workload{
	name: "nw_builds",
	meaning: map[string]string{
		"setup_s":            "device + toolchain + runtime construction and Eval of the first variant, median of set-ups",
		"max_rss_mb":         "peak resident set of the process",
		"sw_ticks_per_s":     "each build's interpreter phase, median over builds",
		"fabric_ticks_per_s": "each build's open-loop phase up to $finish, median over builds",
		"time_to_fabric_s":   "program Eval -> first open-loop step, median over builds of variants new to the session",
	},
	run:  runNW,
	gate: gateNW,
	target: func(seed uint64) layerTarget {
		// The sweep's variant is larger than the builds' so that every
		// rung runs a few thousand ticks before $finish.
		cfg := newNWPlan(seed).variant()
		r := newRng(seed)
		for _, s := range []*[]byte{&cfg.SeqA, &cfg.SeqB} {
			*s = make([]byte, 64)
			for i := range *s {
				(*s)[i] = "ACGT"[r.intn(4)]
			}
		}
		return layerTarget{program: nw.GenerateProgram(cfg), kernel: nw.Generate(cfg)}
	},
}
