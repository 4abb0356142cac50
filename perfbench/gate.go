package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"cascade/internal/obsv"
	"cascade/internal/runtime"
	"cascade/internal/vclock"
)

// Figures are a gate run's virtual-clock readings, in picoseconds or
// counts. They are deterministic, so the gate compares them exactly.
// A pair "<phase>_ticks"/"<phase>_ps" reads as that phase's virtual
// tick rate.
type Figures map[string]uint64

// Baseline is baseline.json: the benchmark's recorded settings and the
// virtual-clock gate.
type Baseline struct {
	About string `json:"about"`
	Load  string `json:"load"`
	Seeds struct {
		Baseline uint64 `json:"baseline"`
		Heldout  uint64 `json:"heldout"`
		Note     string `json:"note"`
	} `json:"seeds"`
	Workloads   map[string]*WorkloadRecord `json:"workloads"`
	Predictions []Prediction               `json:"per_layer_predictions"`
}

// WorkloadRecord is one workload's entry in baseline.json.
type WorkloadRecord struct {
	Why         string             `json:"why"`
	Toolchain   Model              `json:"toolchain_model"`
	VirtualGate map[string]Figures `json:"virtual_gate"` // seed -> figures
}

// Prediction names the end-to-end metric and workload a per-layer
// metric should move.
type Prediction struct {
	Metric string `json:"metric"`
	Moves  string `json:"moves"`
}

func loadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read baseline: %w", err)
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	for _, w := range workloads {
		if b.Workloads[w.name] == nil {
			return nil, fmt.Errorf("%s has no entry for workload %s", path, w.name)
		}
	}
	return &b, nil
}

func (b *Baseline) model(w *workload) Model { return b.Workloads[w.name].Toolchain }

func (b *Baseline) gateSeeds() []uint64 { return []uint64{b.Seeds.Baseline, b.Seeds.Heldout} }

// pinnedObserver returns an observer whose wall clock never advances.
// Open-loop burst sizing is the one place wall time steers the
// scheduler; pinning it makes a gate run's virtual timeline a pure
// function of the program and the model.
func pinnedObserver() *obsv.Observer {
	t := time.Unix(0, 0)
	return obsv.New(obsv.Options{WallClock: func() time.Time { return t }})
}

// gateOutcome runs the virtual-clock gate for both recorded seeds and
// counts each as one operation, failed on any difference.
func gateOutcome(b *Baseline, w *workload, o *Outcome) {
	rec := b.Workloads[w.name]
	for _, seed := range b.gateSeeds() {
		o.Attempted++
		got, err := w.gate(seed, rec.Toolchain)
		if err != nil {
			o.fail("%s virtual gate, seed %d: %v", w.name, seed, err)
			continue
		}
		want, ok := rec.VirtualGate[strconv.FormatUint(seed, 10)]
		if !ok {
			o.fail("%s virtual gate: no recorded figures for seed %d (run --record-gate)", w.name, seed)
			continue
		}
		if diff := diffFigures(want, got); diff != "" {
			o.fail("%s virtual gate, seed %d: virtual clock moved: %s", w.name, seed, diff)
			continue
		}
		o.Extra = append(o.Extra, fmt.Sprintf("virtual gate seed %d: %d figures identical; %s",
			seed, len(got), virtualRates(got)))
	}
}

// diffFigures lists every figure that differs ("" when identical).
func diffFigures(want, got Figures) string {
	keys := map[string]bool{}
	for k := range want {
		keys[k] = true
	}
	for k := range got {
		keys[k] = true
	}
	var diffs []string
	for _, k := range sortedKeys(keys) {
		w, wok := want[k]
		g, gok := got[k]
		if wok != gok || w != g {
			diffs = append(diffs, fmt.Sprintf("%s recorded %d, now %d", k, w, g))
		}
	}
	return strings.Join(diffs, "; ")
}

// virtualRates renders each phase's virtual tick rate (virtual clock).
func virtualRates(f Figures) string {
	var parts []string
	for _, k := range sortedFigureKeys(f) {
		phase, ok := strings.CutSuffix(k, "_ticks")
		if !ok {
			continue
		}
		ps, ok := f[phase+"_ps"]
		if !ok || ps == 0 {
			continue
		}
		hz := float64(f[k]) / (float64(ps) / float64(vclock.S))
		parts = append(parts, fmt.Sprintf("%s %.1f virtual Hz", phase, hz))
	}
	return strings.Join(parts, ", ")
}

func sortedFigureKeys(f Figures) []string {
	keys := map[string]bool{}
	for k := range f {
		keys[k] = true
	}
	return sortedKeys(keys)
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// recordGate recomputes every workload's gate figures for both seeds
// and rewrites baseline.json. Use it only in a change that sets out to
// move the virtual model.
func recordGate(b *Baseline, path string) error {
	for _, w := range workloads {
		rec := b.Workloads[w.name]
		rec.VirtualGate = map[string]Figures{}
		for _, seed := range b.gateSeeds() {
			f, err := w.gate(seed, rec.Toolchain)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			rec.VirtualGate[strconv.FormatUint(seed, 10)] = f
			fmt.Printf("%s seed %d: %s\n", w.name, seed, virtualRates(f))
		}
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// measureVirtual runs n ticks and records the virtual time they took
// as the figures "<phase>_ticks" and "<phase>_ps".
func measureVirtual(f Figures, r *runtime.Runtime, phase string, n uint64) {
	k0, v0 := r.Ticks(), r.VirtualNow()
	r.RunTicks(n)
	f[phase+"_ticks"] = r.Ticks() - k0
	f[phase+"_ps"] = r.VirtualNow() - v0
}

// idleUntil advances virtual time in steps of the given size, without
// executing, until cond holds; the JIT is serviced at every compile's
// exact ready point inside each step.
func idleUntil(r *runtime.Runtime, step uint64, cond func() bool) error {
	for i := 0; !cond(); i++ {
		if i >= 100_000 {
			return fmt.Errorf("condition not reached after %d idle steps (phase %v)", i, r.Phase())
		}
		r.Idle(step)
	}
	return nil
}

// reachOpenLoop fast-forwards to the fabric compile's ready point and
// steps into the open loop.
func reachOpenLoop(r *runtime.Runtime) error {
	readyAt, ok := r.CompileReadyAt()
	if !ok {
		return fmt.Errorf("no fabric compile in flight (phase %v)", r.Phase())
	}
	if now := r.VirtualNow(); now < readyAt {
		r.Idle(readyAt - now + 1)
	}
	if !r.WaitForPhase(runtime.PhaseOpenLoop, 50_000) {
		return fmt.Errorf("open loop never reached (phase %v)", r.Phase())
	}
	r.Step()
	return nil
}
