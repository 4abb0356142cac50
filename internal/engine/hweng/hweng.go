// Package hweng implements Cascade-Go's hardware engines (paper §5.2).
// A hardware engine is a subprogram synthesized to a netlist "bitstream"
// executing on the simulated FPGA (internal/fpga), reached through an
// AXI-style memory-mapped stub that this package models: every ABI
// request and data-plane event crossing the host/fabric boundary is
// counted as a bus transaction and billed on the virtual clock.
//
// Hardware engines implement the two optional ABI capabilities that give
// Cascade its performance (paper §4.3–4.4): Forward absorbs
// standard-library component engines so the user-logic engine answers the
// runtime on their behalf, and OpenLoop runs many scheduler iterations
// entirely on the fabric, returning control only when the iteration
// budget is spent or a system task needs the runtime.
package hweng

import (
	"cascade/internal/elab"
	"cascade/internal/engine"
	"cascade/internal/fault"
	"cascade/internal/fpga"
	"cascade/internal/netlist"
	"cascade/internal/njit"
	"cascade/internal/sim"
)

// kernel is the evaluator behind an engine's evaluate/update schedule:
// the netlist.Machine interpreter, or the njit compilation of that same
// Machine (which shares its state and falls back to it for wide ops).
type kernel interface {
	HasActive() bool
	Evaluate()
	HasUpdates() bool
	Update()
}

// route is a data-plane wire inside the forward group. Engine names are
// instance paths; "" denotes the user-logic machine itself.
type route struct {
	fromName, fromVar string
	toName, toVar     string
}

// Engine is a hardware engine.
type Engine struct {
	name string
	flat *elab.Flat
	m    *netlist.Machine
	dev  *fpga.Device
	io   engine.IOHandler

	// k is the evaluation kernel: the Machine until the first open-loop
	// burst compiles it to njit (ev). Compiling lazily keeps the
	// hot-swap step — which constructs the engine — as cheap as placing
	// the bitstream; machineOnly pins the Machine (the tests' oracle).
	k           kernel
	ev          *njit.Eval
	machineOnly bool

	// Native engines carry no ABI wrapper (paper §4.5): full fabric
	// speed, no state access, no system tasks.
	native bool

	inner  map[string]engine.Engine // forwarded components
	order  []string
	routes []route

	// Separate change-tracking for the runtime-facing data plane
	// (DrainWrites) and the group-internal routing (drainGroup): an
	// internal delivery must not hide a change from the runtime.
	outs     *netlist.OutputTracker
	ints     *netlist.OutputTracker
	finished bool

	// Fault handling: the engine consults the device's injector on
	// control-plane transactions (bus faults) and at step boundaries
	// (region faults), and latches the first hit. A latched fault does
	// not corrupt execution — detection happens on the MMIO handshake,
	// and the ABI wrapper's shadow registers (Figure 10) keep the
	// engine's state readable — it signals the runtime to evict this
	// engine back to software between steps.
	flt     *fault.Injector
	fault   error
	areaLEs int

	// Perf counters, drained by the runtime's virtual clock.
	cycles uint64 // fabric cycles consumed
	msgs   uint64 // MMIO transactions
}

// New places a compiled program on the device and returns its engine.
func New(name string, prog *netlist.Program, dev *fpga.Device, areaLEs int, io engine.IOHandler, native bool, now func() uint64) (*Engine, error) {
	if err := dev.Place(name, areaLEs); err != nil {
		return nil, err
	}
	m := netlist.NewMachine(prog)
	m.NowFn = now
	return &Engine{
		name:    name,
		flat:    prog.Flat,
		m:       m,
		k:       m,
		dev:     dev,
		io:      io,
		native:  native,
		flt:     dev.Faults(),
		areaLEs: areaLEs,
		inner:   map[string]engine.Engine{},
		outs:    netlist.NewOutputTracker(m),
		ints:    netlist.NewOutputTracker(m),
	}, nil
}

// Release frees the engine's fabric region.
func (e *Engine) Release() { e.dev.Release(e.name) }

// AreaLEs returns the fabric area this engine's region reserves.
func (e *Engine) AreaLEs() int { return e.areaLEs }

// Fault returns the first injected hardware fault observed by this
// engine (nil while healthy). The runtime polls it between time steps
// and responds with a hardware→software eviction.
func (e *Engine) Fault() error { return e.fault }

// checkBus runs one bus-fault trial, latching the first hit.
func (e *Engine) checkBus() {
	if e.fault != nil {
		return
	}
	if err := e.flt.Bus(e.name); err != nil {
		e.fault = err
	}
}

// checkRegion runs one region-integrity trial, latching the first hit.
func (e *Engine) checkRegion() {
	if e.fault != nil {
		return
	}
	if err := e.flt.Region(e.name); err != nil {
		e.fault = err
	}
}

// Flat exposes the engine's elaborated subprogram.
func (e *Engine) Flat() *elab.Flat { return e.flat }

// Name implements engine.Engine.
func (e *Engine) Name() string { return e.name }

// Loc implements engine.Engine.
func (e *Engine) Loc() engine.Location { return engine.Hardware }

// Finished reports whether $finish has executed.
func (e *Engine) Finished() bool { return e.finished }

// CyclesDelta returns fabric cycles consumed since the last call.
func (e *Engine) CyclesDelta() uint64 {
	d := e.cycles
	e.cycles = 0
	return d
}

// MsgsDelta returns MMIO transactions since the last call.
func (e *Engine) MsgsDelta() uint64 {
	d := e.msgs
	e.msgs = 0
	return d
}

// UsageDelta implements engine.UsageReporter.
func (e *Engine) UsageDelta() engine.Usage {
	return engine.Usage{Cycles: e.CyclesDelta(), Msgs: e.MsgsDelta()}
}

// bill records one MMIO control transaction (and gives the fault
// schedule one shot at it).
func (e *Engine) bill() {
	e.msgs++
	e.dev.CountWrite(1)
	e.checkBus()
}

// GetState implements engine.Engine. Reading state out of the fabric
// costs one bus read per 32-bit word (the ABI's address-mapped access,
// Figure 10 lines 49–53).
func (e *Engine) GetState() *sim.State {
	st := e.m.GetState()
	words := uint64(0)
	for _, v := range st.Scalars {
		words += uint64((v.Width() + 31) / 32)
	}
	for _, ws := range st.Arrays {
		for _, v := range ws {
			words += uint64((v.Width() + 31) / 32)
		}
	}
	e.msgs += words
	e.dev.CountRead(words)
	return st
}

// SetState implements engine.Engine (bus writes, symmetric to GetState).
func (e *Engine) SetState(st *sim.State) {
	words := uint64(0)
	for _, v := range st.Scalars {
		words += uint64((v.Width() + 31) / 32)
	}
	for _, ws := range st.Arrays {
		for _, v := range ws {
			words += uint64((v.Width() + 31) / 32)
		}
	}
	e.msgs += words
	e.dev.CountWrite(words)
	e.m.SetState(st)
	if e.ev != nil {
		e.ev.InvalidateAll()
	}
}

// Read implements engine.Engine: one bus write per input event.
func (e *Engine) Read(ev engine.Event) {
	v := e.flat.VarNamed(ev.Var)
	if v == nil {
		return
	}
	e.msgs++
	e.dev.CountWrite(1)
	e.m.SetInput(v, ev.Val)
}

// DrainWrites implements engine.Engine: one bus read per changed output.
func (e *Engine) DrainWrites() []engine.Event {
	var evs []engine.Event
	for i, v := range e.flat.Outputs {
		if cur, changed := e.outs.Changed(i); changed {
			evs = append(evs, engine.Event{Var: v.Name, Val: cur.Clone()})
			e.msgs++
			e.dev.CountRead(1)
		}
	}
	return evs
}

// ThereAreEvals implements engine.Engine, answering for forwarded
// components as well (ABI forwarding, paper §4.3).
func (e *Engine) ThereAreEvals() bool {
	e.bill()
	if e.k.HasActive() {
		return true
	}
	for _, name := range e.order {
		if e.inner[name].ThereAreEvals() {
			return true
		}
	}
	return false
}

// Evaluate implements engine.Engine: one fabric cycle plus recursive
// evaluation of forwarded components, with group-internal data routing.
func (e *Engine) Evaluate() {
	e.bill()
	e.cycles++
	if e.k.HasActive() {
		e.k.Evaluate()
	}
	e.drainGroup()
	for _, name := range e.order {
		in := e.inner[name]
		if in.ThereAreEvals() {
			in.Evaluate()
		}
	}
	e.drainGroup()
	e.drainMachineEvents()
}

// ThereAreUpdates implements engine.Engine.
func (e *Engine) ThereAreUpdates() bool {
	e.bill()
	if e.k.HasUpdates() {
		return true
	}
	for _, name := range e.order {
		if e.inner[name].ThereAreUpdates() {
			return true
		}
	}
	return false
}

// Update implements engine.Engine: one fabric cycle (the latch write of
// Figure 10) plus forwarded updates.
func (e *Engine) Update() {
	e.bill()
	e.cycles++
	if e.k.HasUpdates() {
		e.k.Update()
	}
	for _, name := range e.order {
		in := e.inner[name]
		if in.ThereAreUpdates() {
			in.Update()
		}
	}
	e.drainGroup()
}

// EndStep implements engine.Engine. The step boundary is also where the
// region's integrity is checked (a lost bitstream surfaces here).
func (e *Engine) EndStep() {
	e.m.EndStep()
	e.drainMachineEvents()
	for _, name := range e.order {
		e.inner[name].EndStep()
	}
	e.checkRegion()
}

// End implements engine.Engine.
func (e *Engine) End() {
	for _, name := range e.order {
		e.inner[name].End()
	}
}

// Forward implements engine.Forwarder.
func (e *Engine) Forward(name string, inner engine.Engine) {
	if _, dup := e.inner[name]; !dup {
		e.order = append(e.order, name)
	}
	e.inner[name] = inner
}

// ForwardWire implements engine.Forwarder: registers a data-plane route
// internal to the forward group, used during open-loop execution.
func (e *Engine) ForwardWire(fromName, fromVar, toName, toVar string) {
	e.routes = append(e.routes, route{fromName, fromVar, toName, toVar})
}

// Inner returns the forwarded component with the given path (nil if not
// forwarded here).
func (e *Engine) Inner(name string) engine.Engine { return e.inner[name] }

// drainMachineEvents forwards captured $display/$finish side effects to
// the runtime's IO handler.
func (e *Engine) drainMachineEvents() bool {
	evs := e.m.DrainEvents()
	for _, ev := range evs {
		if ev.Finish {
			e.finished = true
			if e.io != nil {
				e.io.Finish(0)
			}
			continue
		}
		if e.io != nil {
			e.io.Display(ev.Text, ev.Newline)
		}
	}
	return len(evs) > 0
}

// deliver routes an event within the forward group.
func (e *Engine) deliver(fromName, fromVar string, ev engine.Event) {
	for _, r := range e.routes {
		if r.fromName != fromName || r.fromVar != fromVar {
			continue
		}
		if r.toName == "" {
			if v := e.flat.VarNamed(r.toVar); v != nil {
				e.m.SetInput(v, ev.Val)
			}
			continue
		}
		if in, ok := e.inner[r.toName]; ok {
			in.Read(engine.Event{Var: r.toVar, Val: ev.Val})
		}
	}
}

// drainGroup broadcasts pending output changes inside the group. It is a
// no-op until components have been forwarded, so it never interferes with
// the runtime-facing DrainWrites tracking. The machine's changed outputs
// are lent, not cloned: every receiver (SetInput, the stdlib components'
// Read) copies what it keeps, as a value routed to several receivers
// always required.
func (e *Engine) drainGroup() {
	if len(e.routes) == 0 && len(e.order) == 0 {
		return
	}
	for i, v := range e.flat.Outputs {
		if cur, changed := e.ints.Changed(i); changed {
			e.deliver("", v.Name, engine.Event{Var: v.Name, Val: cur})
		}
	}
	for _, name := range e.order {
		for _, ev := range e.inner[name].DrainWrites() {
			e.deliver(name, ev.Var, ev)
		}
	}
}

// OpenLoop implements engine.OpenLooper: it replicates the Cascade
// scheduler entirely inside the fabric for up to steps scheduler
// iterations (two iterations per clock tick), stopping early if a system
// task fires. It returns the number of iterations completed. The clock
// toggling comes from the forwarded Clock component's own updates, so
// the schedule is identical to the runtime's — only the per-iteration
// messages disappear, which is what lets the virtual clock approach
// fabric speed. clk names the engine's clock input and must exist.
func (e *Engine) OpenLoop(clk string, steps int) int {
	e.bill()
	e.checkRegion() // one integrity trial per burst
	if e.flat.VarNamed(clk) == nil {
		return 0
	}
	if e.ev == nil && !e.machineOnly {
		e.ev = njit.Compile(e.m)
		e.k = e.ev
	}
	done := 0
	for done < steps {
		// One scheduler iteration: settle evaluations and updates, then
		// end the step for the whole group (the Clock re-arms here).
		e.settleGroup()
		e.m.EndStep()
		for _, name := range e.order {
			e.inner[name].EndStep()
		}
		e.drainGroup()
		done++
		if e.native {
			// Native designs spend one fabric cycle per tick.
			if done%2 == 0 {
				e.cycles++
			}
		} else {
			// ABI wrapper overhead: latch commit + clock toggle + task
			// check cost ~3 cycles per tick (Figure 10), the source of
			// the paper's ~2.9x open-loop gap to native.
			if done%2 == 0 {
				e.cycles += 3
			}
		}
		if e.drainMachineEvents() || e.finished {
			break
		}
	}
	return done
}

// settleGroup runs the evaluate/update fixpoint across the machine and
// forwarded components, routing data internally.
func (e *Engine) settleGroup() {
	for {
		progress := true
		for progress {
			progress = false
			if e.k.HasActive() {
				e.k.Evaluate()
				progress = true
			}
			e.drainGroup()
			for _, name := range e.order {
				in := e.inner[name]
				if in.ThereAreEvals() {
					in.Evaluate()
					progress = true
				}
			}
			e.drainGroup()
		}
		updated := false
		if e.k.HasUpdates() {
			e.k.Update()
			updated = true
		}
		for _, name := range e.order {
			in := e.inner[name]
			if in.ThereAreUpdates() {
				in.Update()
				updated = true
			}
		}
		if !updated {
			return
		}
		e.drainGroup()
	}
}
