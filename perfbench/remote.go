package main

import (
	"fmt"
	"net"
	"strings"
	"time"

	"cascade/internal/fpga"
	"cascade/internal/runtime"
	"cascade/internal/toolchain"
	"cascade/internal/transport"
	"cascade/internal/vclock"
	"cascade/internal/workloads/pow"
)

// remoteMiners is how many un-inlined miners the program instantiates.
const remoteMiners = 4

// remoteProgram instantiates four independently seeded miners and
// mirrors the XOR of their digest words onto the LEDs.
func remoteProgram(seed uint64) string {
	r := newRng(seed)
	var sb strings.Builder
	var leds []string
	for i := 0; i < remoteMiners; i++ {
		inst := fmt.Sprintf("m%d", i)
		sb.WriteString(powProgram(powConfig(r.next()), fmt.Sprintf("Pow%d", i), inst))
		leds = append(leds, inst+"_hash0[7:0]")
	}
	sb.WriteString("assign led.val = " + strings.Join(leds, " ^ ") + ";\n")
	return sb.String()
}

// engineHost is an in-process transport.Host served over TCP loopback.
type engineHost struct {
	l    net.Listener
	tc   *toolchain.Toolchain
	done chan struct{}
}

func startHost(m Model) (*engineHost, error) {
	dev := fpga.NewCycloneV()
	tc := toolchain.New(dev, m.options())
	h := transport.NewHost(transport.HostOptions{Device: dev, Toolchain: tc})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	eh := &engineHost{l: l, tc: tc, done: make(chan struct{})}
	go func() {
		defer close(eh.done)
		_ = h.ServeListener(l) // returns once the listener is closed
	}()
	return eh, nil
}

func (h *engineHost) addr() string { return h.l.Addr().String() }

// stop closes the listener and waits for the accept loop to exit.
func (h *engineHost) stop() {
	h.l.Close()
	<-h.done
}

// remoteRung names where the remote engines run: the host's fabric
// once every one of them is promoted, its interpreter until then.
func remoteRung(r *runtime.Runtime) string {
	remote := 0
	for _, e := range r.Stats().Engines {
		if e.Transport != "tcp" {
			continue
		}
		remote++
		if e.Location != "hardware" {
			return rungSW
		}
	}
	if remote == 0 {
		return rungOther
	}
	return rungFabric
}

type remoteSetup struct {
	host    *engineHost
	r       *runtime.Runtime
	view    *lineView
	evalCPU time.Duration // CPU clock at the program's Eval
}

func (s remoteSetup) close() {
	s.r.Shutdown()
	s.host.stop()
}

func newRemoteRuntime(rc *runCtx, prog string, obs bool) (remoteSetup, error) {
	span := rc.tr.Begin("setup")
	defer rc.tr.End(span)
	var host *engineHost
	var err error
	rc.tr.Time("transport.Host start", func() { host, err = startHost(rc.model) })
	if err != nil {
		return remoteSetup{}, err
	}
	view := &lineView{}
	var r *runtime.Runtime
	rc.tr.Time("runtime.New", func() {
		opts := runtime.Options{
			View: view, Parallelism: lanes,
			Features: runtime.Features{DisableInline: true},
			Remote:   &runtime.RemoteOptions{Addr: host.addr()},
		}
		if obs {
			opts.Observer = pinnedObserver()
		}
		r = runtime.New(opts)
	})
	s := remoteSetup{host: host, r: r, view: view}
	rc.tr.Time("runtime.Eval/prelude", func() { err = r.Eval(runtime.DefaultPrelude) })
	if err == nil {
		s.evalCPU = cpuNow()
		rc.tr.Time("runtime.Eval", func() { err = r.Eval(prog) })
	}
	if err != nil {
		s.close()
		return remoteSetup{}, err
	}
	return s, nil
}

// remoteSeg is one segment's observable output: its tick count, the
// LEDs at its end, and its display lines.
type remoteSeg struct {
	ticks uint64
	led   uint64
	lines []string
}

const remoteSegTicks = 20

func runRemote(rc *runCtx) (*Outcome, error) {
	o := newOutcome()
	prog := remoteProgram(rc.seed)
	checked := 0
	err := runRounds(rc, o, roundSpec{
		name:     "remote_fanout",
		rungs:    []string{rungSW, rungFabric},
		segTicks: map[string]uint64{rungSW: remoteSegTicks, rungFabric: remoteSegTicks, rungOther: remoteSegTicks},
		setup: func() (*round, error) {
			s, err := newRemoteRuntime(rc, prog, false)
			if err != nil {
				return nil, err
			}
			r := s.r
			var segs []remoteSeg
			var last uint64
			return &round{
				r: r, evalCPU: s.evalCPU,
				rung: func() string { return remoteRung(r) },
				onHW: func() bool { return remoteRung(r) == rungFabric },
				check: func() error {
					// Record the segment's observable output for the
					// serial local replay that checks it at the end.
					segs = append(segs, remoteSeg{ticks: r.Ticks() - last, led: r.World().Led("main.led"), lines: s.view.take()})
					last = r.Ticks()
					return nil
				},
				finish: func() error {
					if len(s.view.errs) > 0 {
						return fmt.Errorf("runtime error: %v", s.view.errs[0])
					}
					checked += len(segs)
					return checkRemoteAgainstLocal(prog, segs, o)
				},
				close: func() {
					s.close()
					o.Compile = s.host.tc.Stats()
				},
			}, nil
		},
	})
	if err != nil {
		return nil, err
	}
	c := o.Counters
	o.Extra = append(o.Extra,
		fmt.Sprintf("round trips per tick %s; wire bytes per tick %s",
			Ratio{float64(c.roundTrips), float64(c.ticks)}, Ratio{float64(c.bytes), float64(c.ticks)}),
		fmt.Sprintf("segments checked against a serial local run: %d over %d rounds", checked, rc.rounds))
	return o, nil
}

// checkRemoteAgainstLocal replays the segments on a local serial
// interpreter; each segment that differs is one failed operation.
func checkRemoteAgainstLocal(prog string, segs []remoteSeg, o *Outcome) error {
	view := &lineView{}
	ref := runtime.New(runtime.Options{View: view, Parallelism: 1,
		Features: runtime.Features{DisableInline: true, DisableJIT: true}})
	defer ref.Shutdown()
	if err := ref.Eval(runtime.DefaultPrelude); err != nil {
		return err
	}
	if err := ref.Eval(prog); err != nil {
		return err
	}
	for i, sg := range segs {
		ref.RunTicks(sg.ticks)
		led, lines := ref.World().Led("main.led"), view.take()
		if led != sg.led || strings.Join(lines, "\n") != strings.Join(sg.lines, "\n") {
			o.fail("remote_fanout segment %d: remote leds=%02x output=%q, local serial leds=%02x output=%q",
				i, sg.led, sg.lines, led, lines)
		}
	}
	return nil
}

// gateRemote: 100 ticks on the host's interpreters, idle to the host's
// promotion, 100 ticks on its fabric.
func gateRemote(seed uint64, m Model) (Figures, error) {
	s, err := newRemoteRuntime(&runCtx{model: m}, remoteProgram(seed), true)
	if err != nil {
		return nil, err
	}
	defer s.close()
	r := s.r
	f := Figures{"startup_ps": r.StartupPs()}
	measureVirtual(f, r, "sw", 100)
	promoted := func() bool {
		r.RunTicks(1)
		return remoteRung(r) == rungFabric
	}
	if err := idleUntil(r, vclock.S, promoted); err != nil {
		return nil, fmt.Errorf("remote promotion: %w", err)
	}
	f["fabric_by_ps"] = r.VirtualNow()
	measureVirtual(f, r, "fabric", 100)
	st := r.Stats()
	f["end_ps"], f["ticks_at_end"], f["messages"] = r.VirtualNow(), r.Ticks(), st.Time.Messages
	f["displays"] = uint64(len(s.view.take()))
	return f, nil
}

var remoteFanout = &workload{
	name: "remote_fanout",
	meaning: map[string]string{
		"setup_s":            "engine host start + runtime construction + Eval (spawns over TCP), median of set-ups",
		"max_rss_mb":         "peak resident set of the process",
		"sw_ticks_per_s":     "remote_ticks_per_s with the engines on the host's interpreter, median of 20-tick segments over the ladders",
		"fabric_ticks_per_s": "remote_ticks_per_s with every engine on the host's fabric, median of 20-tick segments over the ladders",
		"time_to_fabric_s":   "program Eval -> first step with every remote engine on the host's fabric, median of the ladders",
	},
	run:  runRemote,
	gate: gateRemote,
	target: func(seed uint64) layerTarget {
		return layerTarget{
			program:  remoteProgram(seed),
			features: runtime.Features{DisableInline: true},
			kernel:   pow.Generate(powConfig(seed)),
		}
	},
}
