package main

import (
	"context"
	"fmt"
	goruntime "runtime"
	"time"

	"cascade/internal/bits"
	"cascade/internal/elab"
	"cascade/internal/engine"
	"cascade/internal/engine/hweng"
	"cascade/internal/engine/sweng"
	"cascade/internal/fpga"
	"cascade/internal/ir"
	"cascade/internal/netlist"
	"cascade/internal/njit"
	"cascade/internal/proto"
	"cascade/internal/runtime"
	"cascade/internal/sim"
	"cascade/internal/stdlib"
	"cascade/internal/transport"
	"cascade/internal/vclock"
	"cascade/internal/verilog"
)

// layerTarget is the program a traced run's layer sweep measures: the
// workload's whole program for the front end, synthesis, the toolchain
// and the runtime tiers, and its kernel module for the evaluator ticks.
type layerTarget struct {
	program  string
	features runtime.Features  // for the remote rung
	kernel   string            // one module declaration with a clk input
	inputs   map[string]uint64 // constant kernel inputs besides clk
	feed     func(*runtime.Runtime)
}

// perLayer lists the per-layer metrics in report order.
var perLayer = []metricDef{
	{"sim.tick_us", "us"}, {"sim.allocs_per_tick", "count"},
	{"njit.tick_us", "us"}, {"njit.allocs_per_tick", "count"}, {"njit.compile_ms", "ms"},
	{"netlist.tick_us", "us"}, {"netlist.allocs_per_tick", "count"},
	{"netlist.synth_ms", "ms"}, {"netlist.cells", "count"},
	{"hweng.openloop_tick_us", "us"},
	{"verilog.parse_ms", "ms"}, {"verilog.parse_allocs", "count"},
	{"ir.build_ms", "ms"}, {"ir.build_allocs", "count"},
	{"ir.inline_ms", "ms"}, {"ir.inline_allocs", "count"},
	{"elab.elaborate_ms", "ms"}, {"elab.elaborate_allocs", "count"},
	{"toolchain.miss_ms", "ms"}, {"toolchain.hit_us", "us"},
	{"toolchain.hit_ratio", "ratio"}, {"toolchain.synthesized", "count"},
	{"runtime.eval_ms", "ms"}, {"runtime.hot_swap_ms", "ms"}, {"runtime.shutdown_ms", "ms"},
	{"runtime.step_us.sw", "us"}, {"runtime.step_us.native", "us"},
	{"runtime.step_us.fabric", "us"}, {"runtime.step_us.remote", "us"},
	{"runtime.allocs_per_tick.sw", "count"}, {"runtime.allocs_per_tick.native", "count"},
	{"runtime.allocs_per_tick.fabric", "count"}, {"runtime.allocs_per_tick.remote", "count"},
	{"runtime.steps_per_tick", "count"}, {"runtime.messages_per_tick", "count"},
	{"transport.local_call_us", "us"}, {"transport.local_allocs_per_call", "count"},
	{"transport.tcp_call_us", "us"}, {"transport.roundtrips_per_tick", "count"},
	{"transport.bytes_per_tick", "B"},
	{"proto.encode_ns", "ns"}, {"proto.decode_ns", "ns"},
}

// sweep collects per-layer figures with their sample counts.
type sweep struct {
	tr   *Tracer
	vals map[string]float64
	n    map[string]int
}

func (s *sweep) set(name string, v float64, n int) {
	s.vals[name] = v
	s.n[name] = n
}

// timeOp runs op reps times inside a span and returns the median wall
// time of one call and the mean heap allocations per call.
func (s *sweep) timeOp(span string, reps int, op func() error) (median time.Duration, allocs float64, err error) {
	var d Sample
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	id := s.tr.Begin(span)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := op(); err != nil {
			s.tr.End(id)
			return 0, 0, fmt.Errorf("%s: %w", span, err)
		}
		d.Add(float64(time.Since(t0)))
	}
	s.tr.End(id)
	goruntime.ReadMemStats(&m1)
	return time.Duration(d.Median().Value), float64(m1.Mallocs-m0.Mallocs) / float64(reps), nil
}

// frontEnd measures parse, IR build, inlining and elaboration of the
// program and returns the elaborated inlined root module.
func (s *sweep) frontEnd(t layerTarget) (*elab.Flat, error) {
	const reps = 15
	src := runtime.DefaultPrelude + "\n" + t.program
	var mods []*verilog.Module
	var items []verilog.Item
	d, a, err := s.timeOp("verilog.ParseProgramFragment", reps, func() error {
		var errs []error
		mods, items, errs = verilog.ParseProgramFragment(src)
		if len(errs) > 0 {
			return errs[0]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.set("verilog.parse_ms", ms(d), reps)
	s.set("verilog.parse_allocs", a, reps)
	var design *ir.Design
	d, a, err = s.timeOp("ir.Build", reps, func() error {
		p := ir.NewProgram()
		for _, m := range mods {
			if err := p.DeclareModule(m); err != nil {
				return err
			}
		}
		p.AddRootItems(items...)
		var err error
		design, err = ir.Build(p, stdlib.Registry())
		return err
	})
	if err != nil {
		return nil, err
	}
	s.set("ir.build_ms", ms(d), reps)
	s.set("ir.build_allocs", a, reps)
	var inl *ir.Design
	d, a, err = s.timeOp("ir.Inline", reps, func() error {
		var err error
		inl, err = ir.Inline(design)
		return err
	})
	if err != nil {
		return nil, err
	}
	s.set("ir.inline_ms", ms(d), reps)
	s.set("ir.inline_allocs", a, reps)
	var flat *elab.Flat
	d, a, err = s.timeOp("elab.Elaborate", reps, func() error {
		var err error
		flat, err = elab.Elaborate(inl.Sub(ir.RootPath).Module, ir.RootPath, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	s.set("elab.elaborate_ms", ms(d), reps)
	s.set("elab.elaborate_allocs", a, reps)
	return flat, nil
}

// backEnd measures synthesis, native compilation and the toolchain's
// miss and hit paths on the elaborated root module.
func (s *sweep) backEnd(root *elab.Flat, model Model) error {
	const reps = 7
	var prog *netlist.Program
	d, _, err := s.timeOp("netlist.Compile", reps, func() error {
		var err error
		prog, err = netlist.Compile(root)
		return err
	})
	if err != nil {
		return err
	}
	s.set("netlist.synth_ms", ms(d), reps)
	s.set("netlist.cells", float64(prog.Stats.Cells), 1)
	d, _, err = s.timeOp("njit.Compile", reps, func() error {
		njit.Compile(netlist.NewMachine(prog))
		return nil
	})
	if err != nil {
		return err
	}
	s.set("njit.compile_ms", ms(d), reps)

	var miss, hit Sample
	hits := 0
	for i := 0; i < 3; i++ {
		// A fresh toolchain per round: the first submission misses, the
		// identical second one is served from the bitstream cache.
		_, tc := model.newToolchain()
		for _, out := range []*Sample{&miss, &hit} {
			id := s.tr.Begin("toolchain.Submit")
			t0 := time.Now()
			j := tc.Submit(context.Background(), root, true, 0)
			res := j.Result()
			// Observing the job ready on the virtual clock is what
			// publishes its bitstream to the cache.
			if at, ok := j.ReadyAt(); ok {
				j.Ready(at)
			}
			out.Add(float64(time.Since(t0)))
			s.tr.End(id)
			if res == nil || res.Err != nil {
				return fmt.Errorf("toolchain compile failed: %v", res)
			}
		}
		hits += tc.Stats().CacheHits
	}
	if hits != 3 {
		return fmt.Errorf("toolchain: %d of 3 repeated submissions were cache hits", hits)
	}
	s.set("toolchain.miss_ms", ms(time.Duration(miss.Median().Value)), miss.N())
	s.set("toolchain.hit_us", time.Duration(hit.Median().Value).Seconds()*1e6, hit.N())
	return nil
}

// kernelTicks measures one tick of the kernel module on each
// evaluator: the interpreter (sim), the netlist machine, njit, and the
// hweng open loop.
func (s *sweep) kernelTicks(t layerTarget) error {
	st, errs := verilog.ParseSourceText(t.kernel)
	if errs != nil {
		return fmt.Errorf("parse kernel: %v", errs[0])
	}
	flat, err := elab.Elaborate(st.Modules[0], "k", nil)
	if err != nil {
		return fmt.Errorf("elaborate kernel: %w", err)
	}
	prog, err := netlist.Compile(flat)
	if err != nil {
		return fmt.Errorf("synthesize kernel: %w", err)
	}
	clk := flat.VarNamed("clk")
	if clk == nil {
		return fmt.Errorf("kernel has no clk input")
	}
	hi, lo := bits.FromUint64(1, 1), bits.FromUint64(1, 0)
	type evaluator interface {
		SetInput(*elab.Var, *bits.Vector)
		HasActive() bool
		HasUpdates() bool
		Evaluate()
		Update()
	}
	setInputs := func(e evaluator) {
		for name, v := range t.inputs {
			if iv := flat.VarNamed(name); iv != nil {
				e.SetInput(iv, bits.FromUint64(iv.Width, v))
			}
		}
	}
	tickLoop := func(name string, e evaluator, after func(), n int) {
		settle := func() {
			for e.HasActive() || e.HasUpdates() {
				e.Evaluate()
				if e.HasUpdates() {
					e.Update()
				}
			}
			after()
		}
		setInputs(e)
		settle()
		d, a, _ := s.timeOp(name+" tick", 1, func() error {
			for i := 0; i < n; i++ {
				e.SetInput(clk, hi)
				settle()
				e.SetInput(clk, lo)
				settle()
			}
			return nil
		})
		s.set(name+".tick_us", d.Seconds()*1e6/float64(n), n)
		s.set(name+".allocs_per_tick", a/float64(n), n)
	}
	sm := sim.New(flat, sim.Options{Display: func(string) {}, Finish: func(int) {}, Now: func() uint64 { return 0 }})
	tickLoop("sim", sm, sm.EndStep, 1000)
	m := netlist.NewMachine(prog)
	tickLoop("netlist", m, func() { m.EndStep(); m.DrainEvents() }, 1000)
	m2 := netlist.NewMachine(prog)
	ev := njit.Compile(m2)
	tickLoop("njit", &njitEval{ev, m2}, func() { m2.EndStep(); m2.DrainEvents() }, 20000)

	// hweng: the kernel placed on a device with a forwarded Clock, run
	// open loop the way the runtime's fabric phase runs it.
	dev := fpga.NewCycloneV()
	hw, err := hweng.New("k", prog, dev, 1, discardIO{}, false, func() uint64 { return 0 })
	if err != nil {
		return fmt.Errorf("place kernel: %w", err)
	}
	defer hw.Release()
	for name, v := range t.inputs {
		if iv := flat.VarNamed(name); iv != nil {
			hw.Read(engine.Event{Var: name, Val: bits.FromUint64(iv.Width, v)})
		}
	}
	hw.Forward("clock", stdlib.NewClock("clock"))
	hw.ForwardWire("clock", "val", "", "clk")
	const iters = 20000
	var done int
	d, _, _ := s.timeOp("hweng.OpenLoop", 1, func() error {
		done = hw.OpenLoop("clk", iters)
		return nil
	})
	if done < 2 {
		return fmt.Errorf("hweng open loop made no progress")
	}
	s.set("hweng.openloop_tick_us", d.Seconds()*1e6/(float64(done)/2), done/2)
	return nil
}

// njitEval adapts njit.Eval (which reads inputs through its machine)
// to the tick loop.
type njitEval struct {
	*njit.Eval
	m *netlist.Machine
}

func (e *njitEval) SetInput(v *elab.Var, val *bits.Vector) { e.m.SetInput(v, val) }

type discardIO struct{}

func (discardIO) Display(string, bool) {}
func (discardIO) Finish(int)           {}

// transportCalls measures the engine-ABI call through the Local
// transport on an interpreter engine of the kernel, and the protocol
// codec on a typical request.
func (s *sweep) transportCalls(t layerTarget) error {
	st, errs := verilog.ParseSourceText(t.kernel)
	if errs != nil {
		return fmt.Errorf("parse kernel: %v", errs[0])
	}
	flat, err := elab.Elaborate(st.Modules[0], "k", nil)
	if err != nil {
		return err
	}
	c := transport.NewLocalClient(sweng.New(flat, discardIO{}, func() uint64 { return 0 }, false), nil)
	const calls = 100_000
	d, a, _ := s.timeOp("transport.Local call", 1, func() error {
		for i := 0; i < calls/2; i++ {
			c.ThereAreEvals()
			c.ThereAreUpdates()
		}
		return nil
	})
	s.set("transport.local_call_us", d.Seconds()*1e6/calls, calls)
	s.set("transport.local_allocs_per_call", a/calls, calls)

	req := &proto.Request{Kind: proto.KindRead, Engine: 3, Now: 1234, VNow: 5678 * vclock.Us,
		Var: "clk", Val: bits.FromUint64(1, 1)}
	const n = 50_000
	buf := make([]byte, 0, 256)
	d, _, _ = s.timeOp("proto.EncodeRequest", 1, func() error {
		for i := 0; i < n; i++ {
			buf = proto.EncodeRequest(buf[:0], req)
		}
		return nil
	})
	s.set("proto.encode_ns", float64(d.Nanoseconds())/n, n)
	d, _, err = s.timeOp("proto.DecodeRequest", 1, func() error {
		for i := 0; i < n; i++ {
			if _, err := proto.DecodeRequest(buf); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	s.set("proto.decode_ns", float64(d.Nanoseconds())/n, n)
	return nil
}

// tierRun runs the whole program for n ticks on one rung and records
// the runtime's wall µs and heap allocations per tick there. For the
// remote rung it also derives the TCP round-trip time.
func (s *sweep) tierRun(t layerTarget, model Model, rung string, n uint64) error {
	// Local rungs run the program inlined, the way the runtime runs it
	// by default; the workload's own features apply to the remote rung.
	var feats runtime.Features
	m := model
	var host *engineHost
	opts := runtime.Options{View: &lineView{}, Parallelism: lanes, OpenLoopTargetPs: openLoopTarget}
	switch rung {
	case rungSW:
		feats.DisableJIT = true
	case rungNative:
		feats.NativeTier = true
		m = Model{Scale: 1} // the fabric stays minutes of virtual time away
	case rungFabric:
		m = Model{Scale: 1e6}
	case rungRemote:
		var err error
		if host, err = startHost(Model{Scale: 1}); err != nil {
			return err
		}
		defer host.stop()
		opts.Remote = &runtime.RemoteOptions{Addr: host.addr()}
		feats = t.features
		feats.DisableJIT = true
	}
	opts.Features = feats
	opts.Device, opts.Toolchain = m.newToolchain()
	r := runtime.New(opts)
	defer r.Shutdown()
	if err := r.Eval(runtime.DefaultPrelude); err != nil {
		return err
	}
	if err := r.Eval(t.program); err != nil {
		return err
	}
	feed := func() {
		if t.feed != nil {
			t.feed(r)
		}
	}
	feed()
	switch rung {
	case rungNative:
		if err := idleUntil(r, vclock.S/10, func() bool { return localRung(r) == rungNative }); err != nil {
			return fmt.Errorf("native rung: %w", err)
		}
	case rungFabric:
		if err := reachOpenLoop(r); err != nil {
			return fmt.Errorf("fabric rung: %w", err)
		}
	}
	r.RunTicks(100) // warm up
	feed()
	x0 := r.Stats().Xport
	var ticks uint64
	d, a, _ := s.timeOp("runtime.RunTicks/"+rung, 1, func() error {
		k0 := r.Ticks()
		r.RunTicks(n)
		ticks = r.Ticks() - k0
		return nil
	})
	if ticks == 0 {
		return fmt.Errorf("%s rung ran no ticks", rung)
	}
	s.set("runtime.step_us."+rung, d.Seconds()*1e6/float64(ticks), int(ticks))
	s.set("runtime.allocs_per_tick."+rung, a/float64(ticks), int(ticks))
	if rung == rungRemote {
		rt := r.Stats().Xport.RoundTrips - x0.RoundTrips
		if rt == 0 {
			return fmt.Errorf("remote rung made no round trips")
		}
		s.set("transport.tcp_call_us", d.Seconds()*1e6/float64(rt), int(rt))
	}
	return nil
}

// runSweep measures every layer on the workload's program.
func runSweep(t layerTarget, model Model, tr *Tracer) (*sweep, error) {
	s := &sweep{tr: tr, vals: map[string]float64{}, n: map[string]int{}}
	id := tr.Begin("layer sweep")
	defer tr.End(id)
	root, err := s.frontEnd(t)
	if err != nil {
		return nil, err
	}
	if err := s.backEnd(root, model); err != nil {
		return nil, err
	}
	if err := s.kernelTicks(t); err != nil {
		return nil, err
	}
	if err := s.transportCalls(t); err != nil {
		return nil, err
	}
	for _, rt := range []struct {
		rung string
		n    uint64
	}{{rungSW, 2000}, {rungNative, 10000}, {rungFabric, 20000}, {rungRemote, 100}} {
		if err := s.tierRun(t, model, rt.rung, rt.n); err != nil {
			return nil, err
		}
	}
	return s, nil
}
