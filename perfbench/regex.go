package main

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"time"

	"cascade/internal/runtime"
	"cascade/internal/stdlib"
	"cascade/internal/workloads/regexgen"
)

// regexPattern is Figure 12's Snort-style pattern.
const regexPattern = `GET /[a-z]*\.html`

// regexChunk is how many bytes of the stream are generated at a time.
const regexChunk = 16 << 10

// regexProgram is the Figure 12 matcher fed by the standard-library
// FIFO, plus a $display of the stream offset at which each match ends.
func regexProgram() (string, error) {
	prog, _, err := regexgen.GenerateStreaming(regexPattern)
	if err != nil {
		return "", err
	}
	return prog + "always @(posedge clk.val) if (mtch) $display(\"M %d\", consumed);\n", nil
}

// regexStreamGen generates the seeded byte stream in chunks of whole
// newline-terminated records: planted matches, near misses, and noise
// over the pattern's own alphabet. It also computes, with Go's regexp
// (an implementation independent of the generated matcher), the stream
// offset at which every match ends. No match can contain a newline, so
// matching chunk by chunk finds every match.
type regexStreamGen struct {
	r        *rng
	re       *regexp.Regexp
	produced uint64
	expected []uint64 // 1-based offsets of the last byte of each match
}

func newRegexStreamGen(seed uint64) *regexStreamGen {
	return &regexStreamGen{r: newRng(seed), re: regexp.MustCompile(regexPattern)}
}

func (g *regexStreamGen) letters(min, max int) string {
	n := min + g.r.intn(max-min+1)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + g.r.intn(26))
	}
	return string(b)
}

// chunk returns the next chunk of the stream.
func (g *regexStreamGen) chunk() []byte {
	var sb strings.Builder
	for sb.Len() < regexChunk {
		switch g.r.intn(6) {
		case 0, 1:
			sb.WriteString("GET /" + g.letters(0, 10) + ".html HTTP/1.1")
		case 2:
			sb.WriteString("GET /" + g.letters(1, 8) + ".png HTTP/1.1")
		case 3:
			sb.WriteString("POST /" + g.letters(1, 8) + ".html HTTP/1.1")
		case 4:
			sb.WriteString("GET /" + g.letters(1, 4) + "/" + g.letters(1, 4) + ".html")
		default:
			const noise = "GET /.htmlabcxyz  "
			n := 8 + g.r.intn(40)
			for i := 0; i < n; i++ {
				sb.WriteByte(noise[g.r.intn(len(noise))])
			}
		}
		sb.WriteByte('\n')
	}
	b := []byte(sb.String())
	for _, m := range g.re.FindAllIndex(b, -1) {
		g.expected = append(g.expected, g.produced+uint64(m[1]))
	}
	g.produced += uint64(len(b))
	return b
}

// regexOracle compares displayed match offsets, in order, with the
// generator's expected offsets.
type regexOracle struct {
	gen  *regexStreamGen
	seen int
}

func (o *regexOracle) checkLines(lines []string) error {
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) != 2 || f[0] != "M" {
			return fmt.Errorf("unexpected output %q", l)
		}
		off, err := strconv.ParseUint(f[1], 10, 64)
		if err != nil {
			return fmt.Errorf("unparsable output %q", l)
		}
		if o.seen >= len(o.gen.expected) {
			return fmt.Errorf("match at offset %d displayed, oracle expects none there", off)
		}
		if want := o.gen.expected[o.seen]; off != want {
			return fmt.Errorf("match %d displayed at offset %d, oracle expects %d", o.seen, off, want)
		}
		o.seen++
	}
	return nil
}

// feed keeps at least min bytes queued toward the device.
func (g *regexStreamGen) feed(s *stdlib.Stream, min int) {
	for s.PendingIn() < min {
		s.PushBytes(g.chunk())
	}
}

var regexSegments = map[string]uint64{rungSW: 200, rungFabric: 500, rungOther: 200}

type regexSetup struct {
	r       *runtime.Runtime
	view    *lineView
	evalCPU time.Duration // CPU clock at the program's Eval
}

func newRegexRuntime(rc *runCtx, prog string, obs bool) (regexSetup, error) {
	view := &lineView{}
	span := rc.tr.Begin("setup")
	defer rc.tr.End(span)
	var r *runtime.Runtime
	rc.tr.Time("runtime.New", func() {
		dev, tc := rc.model.newToolchain()
		opts := runtime.Options{Device: dev, Toolchain: tc, View: view, Parallelism: lanes, OpenLoopTargetPs: openLoopTarget}
		if obs {
			opts.Observer = pinnedObserver()
		}
		r = runtime.New(opts)
	})
	var err error
	rc.tr.Time("runtime.Eval/prelude", func() { err = r.Eval(runtime.DefaultPrelude) })
	if err != nil {
		return regexSetup{}, err
	}
	evalCPU := cpuNow()
	rc.tr.Time("runtime.Eval", func() { err = r.Eval(prog) })
	return regexSetup{r: r, view: view, evalCPU: evalCPU}, err
}

func runRegex(rc *runCtx) (*Outcome, error) {
	o := newOutcome()
	prog, err := regexProgram()
	if err != nil {
		return nil, err
	}
	var matches int
	var bytes uint64
	err = runRounds(rc, o, roundSpec{
		name:     "regex_stream",
		rungs:    []string{rungSW, rungFabric},
		segTicks: regexSegments,
		setup: func() (*round, error) {
			s, err := newRegexRuntime(rc, prog, false)
			if err != nil {
				return nil, err
			}
			r := s.r
			gen := newRegexStreamGen(rc.seed)
			oracle := &regexOracle{gen: gen}
			stream := r.World().Stream("main.fifo")
			return &round{
				r: r, evalCPU: s.evalCPU,
				rung:  func() string { return localRung(r) },
				onHW:  func() bool { return r.Phase() == runtime.PhaseOpenLoop },
				feed:  func(seg uint64) { gen.feed(stream, int(seg)+1024) },
				check: func() error { return oracle.checkLines(s.view.take()) },
				finish: func() error {
					// Drain: stop feeding until the matcher has consumed
					// every byte delivered; then every match in the stream
					// must have been displayed.
					for i := 0; stream.PendingIn() > 0 && i < 10_000; i++ {
						r.RunTicks(512)
					}
					r.RunTicks(512)
					if err := oracle.checkLines(s.view.take()); err != nil {
						return err
					}
					matches += oracle.seen
					bytes += gen.produced
					if len(s.view.errs) > 0 {
						return fmt.Errorf("runtime error: %v", s.view.errs[0])
					}
					if stream.PendingIn() != 0 || oracle.seen != len(gen.expected) {
						return fmt.Errorf("%d matches displayed, oracle finds %d in %d bytes (%d undelivered)",
							oracle.seen, len(gen.expected), gen.produced, stream.PendingIn())
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
	o.Extra = append(o.Extra, fmt.Sprintf("matches checked by oracle: %d in %d bytes over %d rounds", matches, bytes, rc.rounds))
	return o, nil
}

// gateRegex: 300 interpreter ticks, idle to the fabric, 30000
// open-loop ticks, all over the seeded stream.
func gateRegex(seed uint64, m Model) (Figures, error) {
	prog, err := regexProgram()
	if err != nil {
		return nil, err
	}
	s, err := newRegexRuntime(&runCtx{model: m}, prog, true)
	if err != nil {
		return nil, err
	}
	r := s.r
	defer r.Shutdown()
	gen := newRegexStreamGen(seed)
	gen.feed(r.World().Stream("main.fifo"), 40_000)
	f := Figures{"startup_ps": r.StartupPs()}
	measureVirtual(f, r, "sw", 300)
	if err := reachOpenLoop(r); err != nil {
		return nil, err
	}
	f["open_loop_at_ps"] = r.VirtualNow()
	measureVirtual(f, r, "fabric", 30_000)
	f["end_ps"], f["ticks_at_end"] = r.VirtualNow(), r.Ticks()
	oracle := &regexOracle{gen: gen}
	if err := oracle.checkLines(s.view.take()); err != nil {
		return nil, err
	}
	f["matches"] = uint64(oracle.seen)
	return f, nil
}

var regexStream = &workload{
	name: "regex_stream",
	meaning: map[string]string{
		"setup_s":            "runtime construction + Eval of the matcher, median of set-ups",
		"max_rss_mb":         "peak resident set of the process",
		"sw_ticks_per_s":     "interpreter phase, one byte per bus transaction, median of 200-tick segments over the ladders",
		"fabric_ticks_per_s": "fabric open loop, median of 500-tick segments over the ladders",
		"time_to_fabric_s":   "program Eval -> first open-loop step, median of the ladders",
	},
	run:  runRegex,
	gate: gateRegex,
	target: func(seed uint64) layerTarget {
		prog, err := regexProgram()
		if err != nil {
			panic(err) // the pattern is a constant known to compile
		}
		kernel, _, err := regexgen.Generate(regexPattern)
		if err != nil {
			panic(err)
		}
		gen := newRegexStreamGen(seed)
		return layerTarget{
			program: prog,
			kernel:  kernel,
			inputs:  map[string]uint64{"valid": 1, "byte_in": 'G'},
			feed:    func(r *runtime.Runtime) { gen.feed(r.World().Stream("main.fifo"), 64<<10) },
		}
	},
}
