package main

import (
	"strings"
	"time"

	"cascade/internal/runtime"
)

// lineView is the runtime View the benchmark installs: it collects
// $display output as whole lines for the oracles and keeps errors.
type lineView struct {
	partial string
	lines   []string
	errs    []error
}

func (v *lineView) Display(text string) {
	text = v.partial + text
	parts := strings.Split(text, "\n")
	v.partial = parts[len(parts)-1]
	v.lines = append(v.lines, parts[:len(parts)-1]...)
}

func (v *lineView) Info(string, ...any) {}

func (v *lineView) Error(err error) { v.errs = append(v.errs, err) }

// take returns and clears the complete lines collected so far.
func (v *lineView) take() []string {
	l := v.lines
	v.lines = nil
	return l
}

// Rung names used for segment bookkeeping.
const (
	rungSW     = "sw"
	rungNative = "native"
	rungFabric = "fabric"
	rungRemote = "remote"
	rungOther  = "transition"
)

// localRung names the rung a local runtime's user logic runs on. Fabric
// counts only once the open loop has started; the few lock-step
// hardware steps before it are a transition.
func localRung(r *runtime.Runtime) string {
	st := r.Stats()
	for _, e := range st.Engines {
		switch e.Tier {
		case "interpreter":
			return rungSW
		case "native":
			return rungNative
		case "fabric":
			if st.Phase == runtime.PhaseOpenLoop {
				return rungFabric
			}
			return rungOther
		}
	}
	if st.Phase == runtime.PhaseOpenLoop {
		return rungFabric
	}
	return rungOther
}

// ladder drives one runtime through its JIT rungs in fixed-size
// segments from a single closed-loop caller: each Step waits for the
// previous one. It records per-segment throughput by rung and the time
// from the program's Eval to the first step on the fabric, both on the
// process CPU clock and scaled to the reference host speed (probeHost).
type ladder struct {
	r       *runtime.Runtime
	tr      *Tracer
	rung    func() string // current rung (called between segments)
	onHW    func() bool   // reports whether the fabric rung has begun (called after every step)
	evalCPU time.Duration // CPU clock at the program's Eval

	rates    map[string]*Sample // ticks per CPU second at reference speed, one value per whole-rung segment
	clocks   clockShare         // CPU and wall time over all segments
	speeds   Sample             // host speed before each segment
	swapMS   Sample             // traced runs: the longest step (wall clock) of each rung-changing segment
	fabricAt time.Duration      // Eval -> first fabric step at reference speed; <0 until reached
	climbed  time.Duration      // the climb so far at reference speed, from Eval to mark
	mark     time.Duration      // CPU clock up to which climbed accounts
	segments int
}

func newLadder(r *runtime.Runtime, tr *Tracer, evalCPU time.Duration, rung func() string, onHW func() bool) *ladder {
	return &ladder{
		r: r, tr: tr, evalCPU: evalCPU, rung: rung, onHW: onHW,
		rates:    map[string]*Sample{},
		fabricAt: -1,
		mark:     evalCPU,
	}
}

// segment runs n ticks (or until $finish). A segment whose rung
// changed part-way is not a throughput sample.
func (l *ladder) segment(n uint64) {
	before := l.rung()
	traced := l.tr != nil
	span := l.tr.Begin("runtime.Step/" + before)
	k0 := l.r.Ticks()
	goal := k0 + n
	var longest time.Duration
	// The climb to the fabric is the CPU time from Eval, less probing,
	// with each stretch scaled by the host speed probed at its end (the
	// work between segments) or start (the segment).
	p0 := cpuNow()
	speed, _ := probeHost()
	l.speeds.Add(speed)
	scaled := func(d time.Duration) time.Duration { return time.Duration(float64(d) * speed) }
	t0, c0 := time.Now(), cpuNow()
	if l.fabricAt < 0 {
		l.climbed += scaled(p0 - l.mark)
		l.mark = c0
	}
	for l.r.Ticks() < goal && !l.r.Finished() {
		var s0 time.Time
		if traced {
			s0 = time.Now()
		}
		l.r.Step()
		if traced {
			if d := time.Since(s0); d > longest {
				longest = d
			}
		}
		if l.fabricAt < 0 && l.onHW() {
			l.fabricAt = l.climbed + scaled(cpuNow()-l.mark)
		}
	}
	cpu, wall := cpuNow()-c0, time.Since(t0)
	l.clocks.add(cpu, wall)
	if l.fabricAt < 0 {
		l.climbed += scaled(cpu)
		l.mark = c0 + cpu
	}
	l.tr.End(span)
	ticks := l.r.Ticks() - k0
	l.segments++
	after := l.rung()
	if before != after {
		if traced {
			l.swapMS.Add(ms(longest))
		}
		return
	}
	if ticks > 0 && cpu > 0 {
		sampleOf(l.rates, before).Add(float64(ticks) / cpu.Seconds() / speed)
	}
}

// rungSegments reports how many whole-rung segments were measured on rung.
func (l *ladder) rungSegments(rung string) int {
	if s, ok := l.rates[rung]; ok {
		return s.N()
	}
	return 0
}

func sampleOf(m map[string]*Sample, key string) *Sample {
	s, ok := m[key]
	if !ok {
		s = &Sample{}
		m[key] = s
	}
	return s
}
