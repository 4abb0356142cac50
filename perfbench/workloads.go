package main

import (
	"time"

	"cascade/internal/fpga"
	"cascade/internal/toolchain"
	"cascade/internal/vclock"
)

// runCtx carries one run's settings to a workload.
type runCtx struct {
	seed   uint64
	window time.Duration
	tr     *Tracer // nil: untraced
	model  Model   // toolchain latency model for this workload
	setups int     // set-ups measured for setup_s
	rounds int     // ladders climbed, for the ladder workloads
}

// Model is the benchmark-side toolchain latency setting of one workload,
// recorded in baseline.json. It scales the compile model so that each
// rung of the ladder gets a share of a run's wall time. NativeBaseMs
// replaces the native tier's base latency; the toolchain divides it by
// Scale like every other latency.
type Model struct {
	Scale        float64 `json:"scale"`
	NativeBaseMs uint64  `json:"native_base_virtual_ms,omitempty"`
}

// options returns the toolchain options the model describes.
func (m Model) options() toolchain.Options {
	o := toolchain.DefaultOptions()
	if m.Scale > 0 {
		o.Scale = m.Scale
	}
	if m.NativeBaseMs > 0 {
		o.NativeBasePs = m.NativeBaseMs * vclock.Ms
	}
	return o
}

// newToolchain builds a fresh device and toolchain under the model.
func (m Model) newToolchain() (*fpga.Device, *toolchain.Toolchain) {
	dev := fpga.NewCycloneV()
	return dev, toolchain.New(dev, m.options())
}

// openLoopTarget bounds each open-loop burst to about this much virtual
// time, so a burst is at most about a thousand ticks and control
// returns to the caller every few wall milliseconds.
const openLoopTarget = 50 * vclock.Us

// lanes is the runtime's worker-lane count in every workload: nproc of
// the two-core reference box, fixed so the virtual clock (which bills
// parallel batches by their makespan) does not depend on the host.
const lanes = 2

// workload is one closed-loop benchmark workload.
type workload struct {
	name    string
	meaning map[string]string // end-to-end metric -> what it measures here
	run     func(*runCtx) (*Outcome, error)
	gate    func(seed uint64, m Model) (Figures, error)
	target  func(seed uint64) layerTarget // the program the traced layer sweep measures
}

var workloads = []*workload{powLadder, regexStream, nwBuilds, remoteFanout}

func workloadNames() []string {
	var n []string
	for _, w := range workloads {
		n = append(n, w.name)
	}
	return n
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// rng is splitmix64: the benchmark's only source of input randomness,
// so one seed always yields the same inputs.
type rng struct{ s uint64 }

func newRng(seed uint64) *rng { return &rng{s: seed*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019} }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }
