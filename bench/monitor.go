package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// monitorPeriod is how often each CPU's monitor takes a reading. A
// reading costs about 90 us, so the monitors take under half a per cent
// of each CPU.
const monitorPeriod = 20 * time.Millisecond

// monitorRounds sizes the monitor's two loops: the chain takes about
// 18 us, the burst about 24 us alone and about 42 us beside a busy
// sibling hardware thread.
const monitorRounds = 20_000

// reading is one look at one CPU: how long a wide-issue burst took
// relative to a serial dependency chain of the same length. The chain
// runs at the same speed whatever the sibling hardware thread does and
// the burst does not, so the ratio sits on a hard floor (the core's
// width) while the CPU has its core to itself and rises by up to three
// quarters while a neighbour is on the sibling thread. The clock
// frequency cancels.
type reading struct {
	at    time.Time
	ratio float64
	sink  uint64 // the loops' results, kept so the compiler cannot drop them
}

// monitor takes a reading on every CPU every monitorPeriod, each from
// an OS thread pinned to that CPU, so that for every moment of a run it
// is known how much of each CPU a neighbour took.
type monitor struct {
	stop  chan struct{}
	wg    sync.WaitGroup
	cpus  [][]reading
	procs int // GOMAXPROCS before the monitor started
}

func startMonitor() *monitor {
	m := &monitor{stop: make(chan struct{}), cpus: make([][]reading, runtime.NumCPU())}
	// One more P per monitor, so that a reading never waits for the Go
	// scheduler to take a P from a session; the monitors sleep between
	// readings, so the generator still runs no more threads at once
	// than it has sessions.
	m.procs = runtime.GOMAXPROCS(0)
	runtime.GOMAXPROCS(m.procs + len(m.cpus))
	for cpu := range m.cpus {
		cpu := cpu
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			// Never unlocked: the thread keeps its affinity, so it must end
			// with the goroutine rather than return to the runtime's pool.
			runtime.LockOSThread()
			pin(cpu)
			tick := time.NewTicker(monitorPeriod)
			defer tick.Stop()
			for {
				select {
				case <-m.stop:
					return
				case <-tick.C:
				}
				m.cpus[cpu] = append(m.cpus[cpu], read())
			}
		}()
	}
	return m
}

// read times the chain and the burst twice each and keeps the faster
// of each, which a preemption cannot inflate.
func read() reading {
	at := time.Now()
	best := [2]time.Duration{1 << 62, 1 << 62}
	var sink uint64
	for r := 0; r < 2; r++ {
		t0 := time.Now()
		sink += chain(monitorRounds)
		t1 := time.Now()
		sink += burst(monitorRounds)
		t2 := time.Now()
		if d := t1.Sub(t0); d < best[0] {
			best[0] = d
		}
		if d := t2.Sub(t1); d < best[1] {
			best[1] = d
		}
	}
	return reading{at, float64(best[1]) / float64(best[0]), sink}
}

// end stops the monitors and returns each CPU's readings.
func (m *monitor) end() [][]reading {
	close(m.stop)
	m.wg.Wait()
	runtime.GOMAXPROCS(m.procs)
	return m.cpus
}

// pin restricts the calling OS thread to one CPU. A failure leaves the
// thread unpinned; its readings then mix CPUs, which only blurs them.
func pin(cpu int) {
	var mask [16]uint64 // room for 1024 CPUs
	mask[cpu/64] = 1 << (cpu % 64)
	_, _, _ = syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
}

// exposure answers how much of the CPUs the neighbours took over any
// interval of a monitored run.
type exposure struct {
	at   [][]time.Time // per CPU, when each reading was taken
	sums [][]float64   // per CPU, prefix sums of the readings' excess
}

// floorShare is the percentile of a run's readings taken as the
// undisturbed ratio. The ratio cannot fall below the core's width, and
// every undisturbed reading sits on that floor, so a low percentile
// finds it as long as a twentieth of the readings were undisturbed.
const floorShare = 5

// newExposure turns a run's readings into each one's excess over the
// undisturbed ratio: 0 on a CPU that has its core to itself, about 0.75
// beside a busy sibling thread, capped at 1 so that a reading the
// hypervisor interrupted counts as no more than a fully shared core.
func newExposure(cpus [][]reading) *exposure {
	var all []float64
	for _, rs := range cpus {
		for _, r := range rs {
			all = append(all, r.ratio)
		}
	}
	floor := percentile(all, floorShare)
	ex := &exposure{}
	for _, rs := range cpus {
		at := make([]time.Time, len(rs))
		sums := make([]float64, len(rs)+1)
		for i, r := range rs {
			at[i] = r.at
			sums[i+1] = sums[i] + math.Max(0, math.Min(1, r.ratio/floor-1))
		}
		ex.at = append(ex.at, at)
		ex.sums = append(ex.sums, sums)
	}
	return ex
}

// over returns the mean excess over [from, to], averaged over the CPUs:
// the readings taken inside the interval and the one on either side. A
// nil exposure is an unmonitored run and reads 0 throughout.
func (ex *exposure) over(from, to time.Time) float64 {
	if ex == nil {
		return 0
	}
	var total float64
	n := 0
	for c, at := range ex.at {
		lo := sort.Search(len(at), func(i int) bool { return !at[i].Before(from) })
		hi := sort.Search(len(at), func(i int) bool { return at[i].After(to) })
		if lo > 0 {
			lo--
		}
		if hi < len(at) {
			hi++
		}
		if hi > lo {
			total += (ex.sums[c][hi] - ex.sums[c][lo]) / float64(hi-lo)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// slowdownRate is how fast cost grows with exposure: a frame, a slice's
// CPU time or a set-up at exposure e is taken to have cost exp(rate*e)
// times what it costs on a CPU that has its core to itself. The rate is
// the burst's own: fully beside a busy sibling it reads an excess of
// 0.75 and takes 1.75 times as long, and ln 1.75 / 0.75 compounds that
// over the share of the time a sibling was busy. Rates fitted to the
// seed tree's frames run by run (median slope of log latency against
// exposure) scatter around it, 0.55 to 0.9 on the full-offload
// workloads and 0.4 to 0.75 on duo_split; the fixed rate repeats better
// than the fitted one on all three.
const slowdownRate = 0.746

// undisturbed refers a cost measured at the given exposure to a host
// that left the CPUs alone.
func undisturbed(cost, exposure float64) float64 {
	return cost * math.Exp(-slowdownRate*exposure)
}
