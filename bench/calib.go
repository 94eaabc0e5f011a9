package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// The host-noise guard. The reference box is a two-vCPU virtual machine
// on a shared host, and two things there slow identical code by up to
// half for seconds or minutes at a time: the hypervisor taking the CPU
// away (visible as steal in /proc/stat), and a neighbour running on the
// other hardware thread of the core a vCPU sits on (visible only to
// code that can fill the core's execution ports: a serial dependency
// chain runs at the same speed throughout, wide-issue code like the
// video encoder's block search does not). Neither is the code under
// test. The benchmark takes its timings over the parts of a run the
// hypervisor did not steal from, watches each CPU for a neighbour on
// its sibling thread (monitor.go), and refers what it measured to a
// host without one.

// calibSink keeps calibrate's result alive so the compiler cannot drop
// the loop.
var calibSink uint64

// burst runs n rounds of eight independent integer chains: enough
// instruction-level parallelism that a busy sibling hardware thread
// shows, and no memory traffic, so nothing else does. It touches no
// package of the repository and reads the same on any tree. The caller
// must keep the result alive, or the compiler drops the loop.
func burst(n int) uint64 {
	a, b, c, d, e, f, g, h := uint64(1), uint64(2), uint64(3), uint64(4), uint64(5), uint64(6), uint64(7), uint64(8)
	for i := 0; i < n; i++ {
		a = a*6364136223846793005 + 1
		b = b*6364136223846793005 + 3
		c = c*6364136223846793005 + 5
		d = d*6364136223846793005 + 7
		e ^= e << 13
		f ^= f >> 7
		g += g<<3 + 11
		h = h*31 + uint64(i)
	}
	return a + b + c + d + e + f + g + h
}

// chain runs n rounds of one serial dependency chain: it keeps one
// execution port busy, so a neighbour on the sibling hardware thread
// does not slow it, and only the clock frequency does.
func chain(n int) uint64 {
	a := uint64(1)
	for i := 0; i < n; i++ {
		a = a*6364136223846793005 + 1
	}
	return a
}

// calibrate times a fixed burst of about 200 ms. It runs before and
// after each workload and is printed as host.calib_ms.
func calibrate() time.Duration {
	t0 := time.Now()
	calibSink = burst(160_000_000)
	return time.Since(t0)
}

// calibDrift is the share by which two calibration readings may differ
// before the workload between them counts as disturbed.
const calibDrift = 0.10

func disturbed(before, after time.Duration) bool {
	lo, hi := before, after
	if lo > hi {
		lo, hi = hi, lo
	}
	return float64(hi-lo) > calibDrift*float64(lo)
}

// hostTicks reads the first line of /proc/stat: the clock ticks the
// hypervisor stole from this machine's CPUs, and all ticks, since boot.
func hostTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ { // user nice system idle iowait irq softirq steal; the rest repeat guest time
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}
