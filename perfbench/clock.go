package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTime is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTime = 2

// cpuNow reads the process CPU clock: the time the host has spent
// running this process, all of its threads together. Every duration
// the benchmark reports as an end-to-end metric is a difference of two
// readings of this clock, scaled to the reference host speed (probeHost).
//
// The benchmark is one closed loop on one Go processor that never
// sleeps or waits on anything outside the process, so on an idle host
// the CPU clock advances with the wall clock (the report prints their
// ratio over the timed segments). On a shared host it does not count
// the time the host's scheduler hands to other work — a co-tenant's
// process, or the hypervisor running another guest on this vCPU (steal
// time, which the kernel's paravirtual time accounting leaves out) —
// which the wall clock charges to whatever the benchmark was doing.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(fmt.Sprintf("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): %v", e))
	}
	return time.Duration(ts.Nano())
}

// clockShare accumulates how far the CPU clock and the wall clock
// advanced over the same timed spans.
type clockShare struct {
	cpu, wall time.Duration
}

func (c *clockShare) add(cpu, wall time.Duration) {
	c.cpu += cpu
	c.wall += wall
}

// String renders CPU over wall time with its base, e.g. "0.993 (19.8/19.9 s)".
func (c clockShare) String() string {
	return fmt.Sprintf("%.3f (%.1f/%.1f s)", Ratio{c.cpu.Seconds(), c.wall.Seconds()}.Value(), c.cpu.Seconds(), c.wall.Seconds())
}
