package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
	"time"

	"cascade/internal/runtime"
	"cascade/internal/vclock"
	"cascade/internal/workloads/pow"
)

// powTarget solves about one hash in 64, so a run displays a steady
// stream of nonces on every rung.
const powTarget = 0x04000000

// powConfig derives the miner's header and start nonce from the seed.
func powConfig(seed uint64) pow.Config {
	r := newRng(seed)
	var c pow.Config
	for i := range c.Header {
		c.Header[i] = byte(r.next())
	}
	c.Target = powTarget
	c.StartNonce = uint32(r.next())
	c.Display = true
	return c
}

// powProgram is the Figure 11 miner driven by the global clock, its
// module renamed to name and instantiated as inst.
func powProgram(c pow.Config, name, inst string) string {
	mod := strings.Replace(pow.Generate(c), "module Pow(", "module "+name+"(", 1)
	return mod + fmt.Sprintf(`
wire [31:0] %[1]s_hashes, %[1]s_nonce, %[1]s_hash0, %[1]s_sol;
wire %[1]s_found;
%[2]s %[1]s(.clk(clk.val), .hashes(%[1]s_hashes), .nonce(%[1]s_nonce),
          .found(%[1]s_found), .hash0(%[1]s_hash0), .solution(%[1]s_sol));
`, inst, name)
}

// powOracle checks displayed nonces against crypto/sha256 and
// pow.Config.FindNonce: each line must name the next solving nonce
// after the previous one, with the right first digest word.
type powOracle struct {
	cfg  pow.Config
	next uint32
	seen int
}

func newPowOracle(c pow.Config) *powOracle { return &powOracle{cfg: c, next: c.StartNonce} }

// check verifies one display line; it returns an error on any mismatch.
func (o *powOracle) check(line string) error {
	var nonceHex, hashHex string
	if _, err := fmt.Sscanf(line, "FOUND nonce=%s hash0=%s", &nonceHex, &hashHex); err != nil {
		return fmt.Errorf("unexpected output %q", line)
	}
	nonce, err1 := strconv.ParseUint(nonceHex, 16, 32)
	hash0, err2 := strconv.ParseUint(hashHex, 16, 32)
	if err1 != nil || err2 != nil {
		return fmt.Errorf("unparsable output %q", line)
	}
	c := o.cfg
	c.StartNonce = o.next
	want, ok := c.FindNonce(1 << 24)
	if !ok || uint32(nonce) != want {
		return fmt.Errorf("nonce %08x displayed, oracle expects %08x", nonce, want)
	}
	block := c.BlockBytes(want)
	sum := sha256.Sum256(block[:48])
	if w0 := binary.BigEndian.Uint32(sum[:4]); uint32(hash0) != w0 || w0 >= c.Target {
		return fmt.Errorf("nonce %08x: hash0 %08x displayed, sha256 gives %08x", nonce, hash0, w0)
	}
	o.next = want + 1
	o.seen++
	return nil
}

// checkLines runs the oracle over a segment's output and reports
// whether all of it was correct.
func (o *powOracle) checkLines(lines []string) error {
	for _, l := range lines {
		if err := o.check(l); err != nil {
			return err
		}
	}
	return nil
}

// Segment sizes per rung, in clock ticks: each is about ten wall
// milliseconds on the reference box, so a median over many segments
// is robust to brief stalls of the host.
var powSegments = map[string]uint64{rungSW: 200, rungNative: 1000, rungFabric: 1000, rungOther: 200}

type powSetup struct {
	r       *runtime.Runtime
	view    *lineView
	evalCPU time.Duration // CPU clock at the program's Eval
}

func newPowRuntime(rc *runCtx, cfg pow.Config) (powSetup, error) {
	view := &lineView{}
	span := rc.tr.Begin("setup")
	defer rc.tr.End(span)
	var r *runtime.Runtime
	rc.tr.Time("runtime.New", func() {
		dev, tc := rc.model.newToolchain()
		r = runtime.New(runtime.Options{
			Device: dev, Toolchain: tc, View: view, Parallelism: lanes, OpenLoopTargetPs: openLoopTarget,
			Features: runtime.Features{NativeTier: true},
		})
	})
	var err error
	rc.tr.Time("runtime.Eval/prelude", func() { err = r.Eval(runtime.DefaultPrelude) })
	if err != nil {
		return powSetup{}, err
	}
	evalCPU := cpuNow()
	rc.tr.Time("runtime.Eval", func() { err = r.Eval(powProgram(cfg, "Pow", "miner")) })
	return powSetup{r: r, view: view, evalCPU: evalCPU}, err
}

func runPow(rc *runCtx) (*Outcome, error) {
	o := newOutcome()
	cfg := powConfig(rc.seed)
	nonces := 0
	err := runRounds(rc, o, roundSpec{
		name:     "pow_ladder",
		rungs:    []string{rungSW, rungNative, rungFabric},
		segTicks: powSegments,
		setup: func() (*round, error) {
			s, err := newPowRuntime(rc, cfg)
			if err != nil {
				return nil, err
			}
			r := s.r
			oracle := newPowOracle(cfg)
			return &round{
				r: r, evalCPU: s.evalCPU,
				rung:  func() string { return localRung(r) },
				onHW:  func() bool { return r.Phase() == runtime.PhaseOpenLoop },
				check: func() error { return oracle.checkLines(s.view.take()) },
				finish: func() error {
					nonces += oracle.seen
					if len(s.view.errs) > 0 {
						return fmt.Errorf("runtime error: %v", s.view.errs[0])
					}
					if oracle.seen == 0 {
						return fmt.Errorf("no nonce displayed")
					}
					return nil
				},
				close: func() { r.Shutdown() },
			}, nil
		},
	})
	if err != nil {
		return nil, err
	}
	nat := sampleOf(o.Rates, rungNative)
	o.Extra = append(o.Extra,
		fmt.Sprintf("native_ticks_per_s   %14.1f 1/s  n=%d segments (median)", nat.Median().Value, nat.N()),
		fmt.Sprintf("nonces checked by oracle: %d over %d rounds", nonces, rc.rounds))
	return o, nil
}

var powLadder = &workload{
	name: "pow_ladder",
	meaning: map[string]string{
		"setup_s":            "runtime construction + Eval of the miner, median of set-ups",
		"max_rss_mb":         "peak resident set of the process",
		"sw_ticks_per_s":     "interpreter rung, median of 200-tick segments over the ladders",
		"fabric_ticks_per_s": "fabric open loop, median of 1000-tick segments over the ladders",
		"time_to_fabric_s":   "program Eval -> first open-loop step, through the native rung; median of the ladders",
	},
	run:  runPow,
	gate: gatePow,
	target: func(seed uint64) layerTarget {
		cfg := powConfig(seed)
		return layerTarget{program: powProgram(cfg, "Pow", "miner"), kernel: pow.Generate(cfg)}
	},
}

// gatePow replays the ladder on virtual time alone: 400 interpreter
// ticks, idle to the native promotion, 4000 native ticks, idle to the
// fabric, 40000 open-loop ticks.
func gatePow(seed uint64, m Model) (Figures, error) {
	cfg := powConfig(seed)
	dev, tc := m.newToolchain()
	view := &lineView{}
	r := runtime.New(runtime.Options{
		Device: dev, Toolchain: tc, View: view, Parallelism: lanes, OpenLoopTargetPs: openLoopTarget,
		Features: runtime.Features{NativeTier: true}, Observer: pinnedObserver(),
	})
	defer r.Shutdown()
	if err := r.Eval(runtime.DefaultPrelude); err != nil {
		return nil, err
	}
	if err := r.Eval(powProgram(cfg, "Pow", "miner")); err != nil {
		return nil, err
	}
	f := Figures{"startup_ps": r.StartupPs()}
	measureVirtual(f, r, "sw", 400)
	if err := idleUntil(r, vclock.S, func() bool { return localRung(r) == rungNative }); err != nil {
		return nil, fmt.Errorf("native promotion: %w", err)
	}
	f["native_promoted_by_ps"] = r.VirtualNow()
	measureVirtual(f, r, "native", 4000)
	if err := reachOpenLoop(r); err != nil {
		return nil, err
	}
	f["open_loop_at_ps"] = r.VirtualNow()
	measureVirtual(f, r, "fabric", 40_000)
	f["end_ps"], f["ticks_at_end"] = r.VirtualNow(), r.Ticks()
	oracle := newPowOracle(cfg)
	if err := oracle.checkLines(view.take()); err != nil {
		return nil, err
	}
	f["nonces"] = uint64(oracle.seen)
	return f, nil
}
