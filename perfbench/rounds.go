package main

import (
	"fmt"
	goruntime "runtime"
	"time"

	"cascade/internal/runtime"
)

// ladderRounds is how many fresh runtimes a ladder workload climbs per
// run; time_to_fabric_s is their median and the rung throughputs pool
// their segments. Many short ladders rather than a few long ones make
// every rung sample the whole run, so a spell of a slower or faster
// host lands on all rungs alike.
const ladderRounds = 10

// round is one set-up runtime climbing the ladder, with the workload's
// hooks around each segment.
type round struct {
	r       *runtime.Runtime
	evalCPU time.Duration // CPU clock at the program's Eval
	rung    func() string
	onHW    func() bool
	feed    func(segTicks uint64) // before each segment (may be nil)
	check   func() error          // after each segment: the oracle
	finish  func() error          // after the last segment, before close (may be nil)
	close   func()                // tear down
}

// roundSpec describes a ladder workload.
type roundSpec struct {
	name     string
	rungs    []string          // rungs that each need segments before a round may end
	segTicks map[string]uint64 // segment size per rung
	setup    func() (*round, error)
}

// minSegments is how many whole-rung segments every listed rung needs
// in each round.
const minSegments = 5

// runRounds climbs the ladder in rc.rounds fresh runtimes, each for a
// share of the window. Every segment is one closed-loop operation,
// checked by the oracle. The rc.setups timed set-ups are spread over
// the rounds (each round's runtime is the last of its set-ups), so
// setup_s samples the whole run rather than its first milliseconds.
func runRounds(rc *runCtx, o *Outcome, spec roundSpec) error {
	// Every set-up, like every round, starts from a collected heap, so a
	// collection the previous work left due does not land in setup_s.
	timedSetup := func() (*round, error) {
		goruntime.GC()
		speed, _ := probeHost()
		c0 := cpuNow()
		rd, err := spec.setup()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		o.Setup.Add((cpuNow() - c0).Seconds() * speed)
		o.Speeds.Add(speed)
		return rd, nil
	}
	share := rc.window / time.Duration(rc.rounds)
	for i := 0; i < rc.rounds; i++ {
		for k := 1; k < rc.setups/rc.rounds; k++ {
			rd, err := timedSetup()
			if err != nil {
				return err
			}
			// Let the set-up's background compiles finish before it
			// closes, so that none of them runs during the measured round.
			rd.r.CompileReadyAt()
			rd.close()
		}
		// timedSetup starts every round from the same collected heap: the
		// garbage collector's pacing, and with it the allocation-heavy
		// rungs' throughput, otherwise depends on what earlier rounds left.
		rd, err := timedSetup()
		if err != nil {
			return err
		}
		l := newLadder(rd.r, rc.tr, rd.evalCPU, rd.rung, rd.onHW)
		start := time.Now()
		hardStop := start.Add(2*share + 5*time.Second)
		for {
			enough := true
			for _, r := range spec.rungs {
				enough = enough && l.rungSegments(r) >= minSegments
			}
			if (time.Since(start) >= share && enough) || time.Now().After(hardStop) || rd.r.Finished() {
				break
			}
			seg := spec.segTicks[l.rung()]
			if rd.feed != nil {
				rc.tr.Time("feed", func() { rd.feed(seg) })
			}
			l.segment(seg)
			o.Attempted++
			var cerr error
			rc.tr.Time("oracle", func() { cerr = rd.check() })
			if cerr != nil {
				o.fail("%s round %d segment %d: %v", spec.name, i, l.segments, cerr)
			}
		}
		if rd.finish != nil {
			o.Attempted++
			if err := rd.finish(); err != nil {
				o.fail("%s round %d: %v", spec.name, i, err)
			}
		}
		st := rd.r.Stats()
		o.noteStats(st)
		o.Compile = st.Compile
		rc.tr.Time("runtime.Shutdown", rd.close)
		for r, s := range l.rates {
			sampleOf(o.Rates, r).Values = append(sampleOf(o.Rates, r).Values, s.Values...)
		}
		if l.fabricAt >= 0 {
			o.TTF.Add(l.fabricAt.Seconds())
		} else {
			o.fail("%s round %d never reached the fabric", spec.name, i)
		}
		o.Swaps.Values = append(o.Swaps.Values, l.swapMS.Values...)
		o.Clocks.add(l.clocks.cpu, l.clocks.wall)
		o.Speeds.Values = append(o.Speeds.Values, l.speeds.Values...)
	}
	return nil
}
