package hweng

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cascade/internal/bits"
	"cascade/internal/engine"
	"cascade/internal/fault"
	"cascade/internal/fpga"
	"cascade/internal/netlist"
	"cascade/internal/stdlib"
	"cascade/internal/workloads/nw"
	"cascade/internal/workloads/pow"
	"cascade/internal/workloads/randprog"
	"cascade/internal/workloads/regexgen"
)

// side is one engine of a differential pair, with its own device, fault
// schedule, forwarded Clock and (when the program has an output) a
// forwarded Led fed from the group's internal routing.
type side struct {
	e     *Engine
	io    recordIO
	world *stdlib.World
}

func newSide(t *testing.T, prog *netlist.Program, flt fault.Config, machineOnly bool) *side {
	t.Helper()
	s := &side{world: stdlib.NewWorld()}
	e, err := New("main", prog, fpga.NewCycloneV(), 100, &s.io, false, func() uint64 { return 7 })
	if err != nil {
		t.Fatal(err)
	}
	// The schedule is installed after placement so that every trial on
	// it is one of the engine's own integrity checks.
	e.flt = fault.New(flt)
	e.machineOnly = machineOnly
	e.Forward("clock", stdlib.NewClock("clock"))
	e.ForwardWire("clock", "val", "", "clk")
	if outs := prog.Flat.Outputs; len(outs) > 0 {
		e.Forward("led", stdlib.NewLed("led", outs[0].Width, s.world))
		e.ForwardWire("", outs[0].Name, "led", "val")
	}
	s.e = e
	return s
}

// diffPair drives the njit kernel and a Machine-only oracle through the
// same bursts and demands byte-identical observations after each one.
type diffPair struct {
	t         *testing.T
	name      string
	prog      *netlist.Program
	jit, orcl *side
}

func newDiffPair(t *testing.T, name string, prog *netlist.Program, flt fault.Config) *diffPair {
	return &diffPair{t: t, name: name, prog: prog,
		jit: newSide(t, prog, flt, false), orcl: newSide(t, prog, flt, true)}
}

func (p *diffPair) read(name string, v *bits.Vector) {
	p.jit.e.Read(engine.Event{Var: name, Val: v.Clone()})
	p.orcl.e.Read(engine.Event{Var: name, Val: v.Clone()})
}

func (p *diffPair) burst(ctx string, steps int) {
	p.t.Helper()
	dj := p.jit.e.OpenLoop("clk", steps)
	do := p.orcl.e.OpenLoop("clk", steps)
	if dj != do {
		p.t.Fatalf("%s %s: burst ran %d iterations on njit, %d on the Machine", p.name, ctx, dj, do)
	}
	p.compare(ctx)
}

// lockStep runs one clocked step through the engine ABI, the way the
// runtime drives an engine between bursts.
func (p *diffPair) lockStep() {
	for _, s := range []*side{p.jit, p.orcl} {
		for s.e.ThereAreEvals() || s.e.ThereAreUpdates() {
			s.e.Evaluate()
			if s.e.ThereAreUpdates() {
				s.e.Update()
			}
		}
		s.e.EndStep()
	}
}

func (p *diffPair) compare(ctx string) {
	p.t.Helper()
	j, o := p.jit.e, p.orcl.e
	if a, b := j.CyclesDelta(), o.CyclesDelta(); a != b {
		p.t.Fatalf("%s %s: CyclesDelta %d on njit, %d on the Machine", p.name, ctx, a, b)
	}
	if a, b := j.MsgsDelta(), o.MsgsDelta(); a != b {
		p.t.Fatalf("%s %s: MsgsDelta %d on njit, %d on the Machine", p.name, ctx, a, b)
	}
	if a, b := j.GetState().Signature(), o.GetState().Signature(); a != b {
		p.t.Fatalf("%s %s: state divergence\nnjit:    %s\nMachine: %s", p.name, ctx, a, b)
	}
	if a, b := p.jit.io.out.String(), p.orcl.io.out.String(); a != b {
		p.t.Fatalf("%s %s: display divergence\nnjit:    %q\nMachine: %q", p.name, ctx, a, b)
	}
	if a, b := eventsString(j.DrainWrites()), eventsString(o.DrainWrites()); a != b {
		p.t.Fatalf("%s %s: DrainWrites divergence\nnjit:    %s\nMachine: %s", p.name, ctx, a, b)
	}
	if a, b := p.jit.world.Led("led"), p.orcl.world.Led("led"); a != b {
		p.t.Fatalf("%s %s: forwarded Led %d on njit, %d on the Machine", p.name, ctx, a, b)
	}
	if (j.Fault() == nil) != (o.Fault() == nil) || j.Finished() != o.Finished() || p.jit.io.finished != p.orcl.io.finished {
		p.t.Fatalf("%s %s: fault/finish divergence: njit %v/%v, Machine %v/%v", p.name, ctx, j.Fault(), j.Finished(), o.Fault(), o.Finished())
	}
}

func eventsString(evs []engine.Event) string {
	s := ""
	for _, ev := range evs {
		s += ev.Var + "=" + ev.Val.String() + " "
	}
	return s
}

// run drives the pair through rounds of fresh inputs, open-loop bursts,
// a lock-step step, and a SetState round trip, and reports the round at
// which the region fault latched (-1 if it never did).
func (p *diffPair) run(r *rand.Rand, rounds, steps int) int {
	p.t.Helper()
	latched := -1
	for round := 0; round < rounds; round++ {
		for _, v := range p.prog.Flat.Inputs {
			if v.Name != "clk" {
				p.read(v.Name, bits.FromUint64(v.Width, r.Uint64()))
			}
		}
		ctx := fmt.Sprintf("round %d", round)
		p.burst(ctx, steps)
		if latched < 0 && p.jit.e.Fault() != nil {
			latched = round
		}
		if round == rounds/2 {
			// State handoff between bursts (a hardware->hardware move or
			// a restore): scramble every narrow scalar the same way.
			st := p.orcl.e.GetState()
			p.jit.e.GetState() // same bus billing on both sides
			for name, v := range st.Scalars {
				if v.Width() <= 64 && name != "clk" {
					v.SetUint64(r.Uint64())
				}
			}
			p.jit.e.SetState(st)
			p.orcl.e.SetState(st)
			p.compare(ctx + " after SetState")
			p.burst(ctx+" burst after SetState", steps)
		}
		p.lockStep()
		p.compare(ctx + " lock-step")
		if p.jit.e.Finished() {
			break
		}
	}
	return latched
}

// The fabric's open loop runs on njit once the first burst compiles it;
// the Machine it wraps stays the oracle. Every observable — displays,
// state, billing, the data plane, faults — must match byte for byte,
// across bursts, lock-step steps, a SetState and a latched region fault.
func TestOpenLoopNjitMatchesMachine(t *testing.T) {
	rx, _, err := regexgen.Generate("(ab|cd)+e")
	if err != nil {
		t.Fatal(err)
	}
	// A latched region fault does not stop execution (the runtime evicts
	// the engine between steps), so bursts after it must still agree.
	flt := fault.Config{Seed: 5, RegionFault: 0.3, MaxRegionFaults: 1}
	// Both workloads display (and nw finishes) within the first bursts:
	// the miner starts one hash before its first solving nonce.
	powCfg := pow.DefaultConfig()
	powCfg.Display = true
	if n, ok := powCfg.FindNonce(1 << 12); ok && n > 0 {
		powCfg.StartNonce = n - 1
	}
	nwCfg := nw.DefaultConfig()
	nwCfg.Display, nwCfg.Finish = true, true
	kernels := []struct {
		name, src     string
		rounds, steps int
		want          string // display text the run must reach
	}{
		{"pow", pow.Generate(powCfg), 6, 150, "FOUND"},
		{"regex", rx, 8, 150, ""},
		{"nw", nw.Generate(nwCfg), 8, 150, "NW score"},
	}
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			p := newDiffPair(t, k.name, compile(t, k.src), flt)
			r := rand.New(rand.NewSource(3))
			p.run(r, k.rounds, k.steps)
			if out := p.jit.io.out.String(); !strings.Contains(out, k.want) {
				t.Fatalf("run never displayed %q: %q", k.want, out)
			}
		})
	}
	t.Run("random", func(t *testing.T) {
		r := rand.New(rand.NewSource(29))
		latchedMidRun := 0
		for trial := 0; trial < 30; trial++ {
			src := randprog.Generate(r, true)
			// Each integrity trial (one per burst and per lock-step
			// EndStep) may fault, so most trials latch mid-run.
			cfg := fault.Config{Seed: uint64(trial), RegionFault: 0.25, MaxRegionFaults: 1}
			p := newDiffPair(t, fmt.Sprintf("trial %d", trial), compile(t, src), cfg)
			if at := p.run(r, 6, 40); at > 0 {
				latchedMidRun++
			}
		}
		if latchedMidRun == 0 {
			t.Fatal("no random trial latched a region fault after its first burst")
		}
	})
}

// A steady-state open-loop tick on pow must stay at or under 6 heap
// allocations: the forwarded Clock's change events, nothing per output.
func TestOpenLoopAllocsPerTick(t *testing.T) {
	s := newSide(t, compile(t, pow.Generate(pow.DefaultConfig())), fault.Config{}, false)
	const ticks = 500
	s.e.OpenLoop("clk", 2*ticks) // compile the kernel, warm the trackers
	allocs := testing.AllocsPerRun(5, func() {
		if done := s.e.OpenLoop("clk", 2*ticks); done != 2*ticks {
			t.Fatalf("burst stopped after %d iterations", done)
		}
	})
	if per := allocs / ticks; per > 6 {
		t.Fatalf("open loop allocates %.2f times per tick, want <= 6", per)
	} else {
		t.Logf("%.2f allocs per open-loop tick", per)
	}
}
