// Package trackpool implements the server-wide batched tracking
// service: one global run queue of data-parallel batches — per-strip
// FAST/ORB extraction and per-point search-local-points work — fed by
// every session's in-flight frame and drained by a fixed set of
// long-lived workers. It replaces per-call Parallelizer fan-out
// (goroutines spawned per kernel per session) with the shape a batched
// inference server uses: sessions submit, a saturated pool executes,
// and scheduling is global, so one frame's hot loop runs to completion
// instead of timeslicing against seven neighbours.
//
// Scheduling is by QoS tier, then oldest frame first. Sessions sort by
// service class first (a headset always outranks a mapping drone),
// then each session's Stream tags its batches with the current frame's
// arrival time (feature.FrameScheduler), so within a tier the frame
// that has waited longest runs first.
//
// Work functions must not submit to the pool (a worker executing them
// would deadlock waiting on itself); the tracking kernels are leaf
// loops, so this is structural rather than a runtime check.
package trackpool

import (
	"container/heap"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"slamshare/internal/feature"
)

// Config parameterizes the pool.
type Config struct {
	// Workers is the number of long-lived worker goroutines draining
	// the run queue. 0 means GOMAXPROCS — one per schedulable core, the
	// point being that the fleet shares them instead of each session
	// fanning out its own.
	Workers int
	// MinGrain is the smallest number of work items a worker claims
	// from a batch per visit, bounding queue-lock traffic on small
	// batches. 0 means 2.
	MinGrain int
	// ReservedSlots holds back this many admission slots for QoS-0
	// frames: an admitter with a lower service class (qos > 0) is only
	// granted while inflight < MaxInflight - ReservedSlots, so a
	// top-tier frame arriving at a saturated gate takes a reserved
	// slot immediately instead of waiting out a whole lower-tier
	// frame already in service. 0 reserves nothing; at least one slot
	// always remains usable by every tier.
	ReservedSlots int
	// MaxInflight bounds the number of frames admitted concurrently:
	// BeginFrame blocks until a slot frees (EndFrame) and waiters are
	// served in the same order as the run queue. The bound is what
	// extends run-to-completion past the pooled kernels: without it the
	// serial segments between a frame's batches — pose optimization,
	// quadtree distribution, grid ops — still timeslice against every
	// other session's, and the batch-level ordering win evaporates at
	// the stage boundaries. 0 (or less) means Workers (one frame per
	// worker).
	MaxInflight int
}

// prio is the scheduling order, shared by the run queue and the
// admission gate so a tier rule cannot change in one and not the other:
// QoS tier first, then the frame's arrival, then frame admission order.
type prio struct {
	qos     int32  // session QoS class: lower outranks higher
	arrival int64  // frame arrival, UnixNano: older runs first
	seq     uint64 // frame admission order, the final tie-break
}

// before reports whether a is served ahead of o.
func (a prio) before(o prio) bool {
	if a.qos != o.qos {
		return a.qos < o.qos
	}
	if a.arrival != o.arrival {
		return a.arrival < o.arrival
	}
	return a.seq < o.seq
}

// batch is one submitted kernel: n index-disjoint work items plus its
// scheduling order. Workers claim [next, next+grain) ranges from the
// front batch until it is exhausted.
type batch struct {
	prio
	f       func(i int)
	n       int
	next    int // next unclaimed item index
	done    int // completed items
	grain   int
	st      *Stream
	enq     time.Time
	claimed bool // first worker touch recorded (queue-wait accounting)
	fin     chan struct{}
}

// admitter is one frame waiting at the admission gate.
type admitter struct {
	prio
	slot  bool // granted with a slot (false when released by Close)
	grant chan struct{}
}

// The two heaps stay concrete types: Less is then a direct, inlinable
// call on a value both hold, where one generic heap over *batch and
// *admitter would reach prio through a dictionary call under p.mu. What
// they still repeat is container/heap plumbing, no policy.
type admitHeap []*admitter

func (h admitHeap) Len() int           { return len(h) }
func (h admitHeap) Less(i, j int) bool { return h[i].before(h[j].prio) }
func (h admitHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *admitHeap) Push(x any)        { *h = append(*h, x.(*admitter)) }
func (h *admitHeap) Pop() any {
	old := *h
	n := len(old)
	a := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return a
}

type batchHeap []*batch

func (h batchHeap) Len() int           { return len(h) }
func (h batchHeap) Less(i, j int) bool { return h[i].before(h[j].prio) }
func (h batchHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *batchHeap) Push(x any)        { *h = append(*h, x.(*batch)) }
func (h *batchHeap) Pop() any {
	old := *h
	n := len(old)
	b := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return b
}

// Stats is a snapshot of pool activity for /debug/vars.
type Stats struct {
	Workers      int
	Streams      int
	QueueDepth   int // batches currently queued or partially claimed
	Inflight     int // frames currently admitted
	AdmitWaiting int // frames blocked at the admission gate
	Batches      uint64
	Items        uint64
	Busy         time.Duration // cumulative worker execution time
	QueueWait    time.Duration // cumulative queue + admission wait
}

// Pool is the shared batched tracking service. One Pool serves the
// whole server; sessions attach via NewStream.
type Pool struct {
	cfg      Config
	mu       sync.Mutex
	cond     *sync.Cond
	queue    batchHeap
	admitQ   admitHeap
	inflight int
	seq      uint64
	closed   bool
	wg       sync.WaitGroup

	streams atomic.Int64
	batches atomic.Uint64
	items   atomic.Uint64
	busyNS  atomic.Int64
	waitNS  atomic.Int64
}

// New starts a pool with the given config.
func New(cfg Config) *Pool {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MinGrain <= 0 {
		cfg.MinGrain = 2
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = cfg.Workers
	}
	p := &Pool{cfg: cfg}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go p.worker()
	}
	return p
}

// Workers returns the worker count.
func (p *Pool) Workers() int { return p.cfg.Workers }

// Stats returns a snapshot of pool activity.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	depth := len(p.queue)
	inflight := p.inflight
	waiting := len(p.admitQ)
	p.mu.Unlock()
	return Stats{
		Workers:      p.cfg.Workers,
		Streams:      int(p.streams.Load()),
		QueueDepth:   depth,
		Inflight:     inflight,
		AdmitWaiting: waiting,
		Batches:      p.batches.Load(),
		Items:        p.items.Load(),
		Busy:         time.Duration(p.busyNS.Load()),
		QueueWait:    time.Duration(p.waitNS.Load()),
	}
}

// Close drains the queue and stops the workers. Batches submitted
// before Close complete; Run calls after Close execute inline on the
// caller (so sessions racing a server shutdown still finish their
// frame, just unbatched).
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	// Release every frame blocked at the admission gate without a slot:
	// they proceed ungated (and their batches, submitted after closed,
	// run inline on the caller).
	for p.admitQ.Len() > 0 {
		a := heap.Pop(&p.admitQ).(*admitter)
		close(a.grant)
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 {
			p.mu.Unlock()
			return // closed and drained
		}
		b := p.queue[0]
		lo := b.next
		hi := lo + b.grain
		if hi >= b.n {
			hi = b.n
			heap.Pop(&p.queue)
		} else {
			b.next = hi
		}
		if !b.claimed {
			b.claimed = true
			w := time.Since(b.enq)
			b.st.queueNS.Add(int64(w))
			p.waitNS.Add(int64(w))
		}
		p.mu.Unlock()

		start := time.Now()
		for i := lo; i < hi; i++ {
			b.f(i)
		}
		p.busyNS.Add(int64(time.Since(start)))

		p.mu.Lock()
		b.done += hi - lo
		finished := b.done == b.n
		p.mu.Unlock()
		if finished {
			close(b.fin)
		}
	}
}

// Stream is one session's handle on the pool. It implements
// feature.Parallelizer (and FrameScheduler, QueueWaiter), so it drops
// into Extractor.Par unchanged; nothing it reports is modeled time. A
// Stream is used by one session goroutine at a time.
type Stream struct {
	pool    *Pool
	arrival atomic.Int64 // current frame arrival, UnixNano (0 = unset)
	// qos is the session's service class, the ordering tier above
	// arrival: under load a headset's frames are admitted and executed
	// before a mapping drone's that arrived earlier. 0 (highest) by
	// default, so sessions that never call SetQoS are ordered by
	// arrival alone.
	qos atomic.Int32
	// frameSeq is the arrival tie-break shared by every batch of the
	// current frame, assigned from the pool counter at the frame's
	// first submission and cleared by BeginFrame. Sharing it across
	// the frame is what makes ties resolve per frame, not per batch:
	// when concurrent frames carry identical arrival ticks, a per-batch
	// tie-break would interleave their kernels — frame A's second
	// kernel loses to frame B's first — reintroducing the processor
	// sharing the pool removes. Owned by the submitting goroutine;
	// copied into batches under pool.mu.
	frameSeq uint64
	// admitted is true while the stream holds an admission slot,
	// acquired in BeginFrame and released by EndFrame. Owned by the
	// submitting goroutine.
	admitted bool
	queueNS  atomic.Int64
}

var (
	_ feature.Parallelizer   = (*Stream)(nil)
	_ feature.FrameScheduler = (*Stream)(nil)
	_ feature.QueueWaiter    = (*Stream)(nil)
)

// NewStream attaches a session to the pool.
func (p *Pool) NewStream() *Stream {
	p.streams.Add(1)
	return &Stream{pool: p}
}

// SetQoS sets the stream's service class (lower outranks higher). It
// takes effect from the next BeginFrame/Run.
func (st *Stream) SetQoS(qos int) {
	st.qos.Store(int32(qos))
}

// Close detaches the stream, releasing any admission slot it still
// holds (gauge accounting otherwise; a closed stream's Run still
// works).
func (st *Stream) Close() {
	st.EndFrame()
	st.pool.streams.Add(-1)
}

// BeginFrame tags subsequent Run calls with the frame's arrival and
// blocks until the pool admits the frame (at most MaxInflight frames
// hold slots at once, granted in prio order). It implements
// feature.FrameScheduler. A frame left open on the stream is released
// first, so a missed EndFrame falls back to frame-at-a-time admission
// instead of deadlocking the session.
func (st *Stream) BeginFrame(arrival time.Time) {
	st.EndFrame()
	st.frameSeq = 0
	arr := arrival.UnixNano()
	st.arrival.Store(arr)

	p := st.pool
	now := time.Now()
	qos := st.qos.Load()
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	// Immediate grant when a slot this tier may use is free and no
	// waiter outranks the frame (a QoS-0 arrival outranks any waiting
	// lower tier, so a free reserved slot is taken on the spot).
	if p.inflight < p.admitLimit(qos) &&
		(len(p.admitQ) == 0 || (qos == 0 && p.admitQ[0].qos > 0)) {
		p.inflight++
		p.mu.Unlock()
		st.admitted = true
		return
	}
	p.seq++
	a := &admitter{prio: prio{qos: qos, arrival: arr, seq: p.seq}, grant: make(chan struct{})}
	heap.Push(&p.admitQ, a)
	p.mu.Unlock()
	<-a.grant
	st.admitted = a.slot
	// Admission wait is scheduling cost the shared pool added to this
	// frame, same as batch queue wait: both land on the track.queue
	// ledger.
	w := time.Since(now)
	st.queueNS.Add(int64(w))
	p.waitNS.Add(int64(w))
}

// admitLimit returns the inflight bound the given service class may
// fill: lower tiers stop ReservedSlots short of MaxInflight (clamped
// so at least one slot stays usable by every tier).
func (p *Pool) admitLimit(qos int32) int {
	m := p.cfg.MaxInflight
	if qos > 0 {
		m -= p.cfg.ReservedSlots
		if m < 1 {
			m = 1
		}
	}
	return m
}

// EndFrame releases the admission slot acquired by BeginFrame, waking
// the highest-priority waiting frame whose tier may use the freed
// slot. It implements feature.FrameScheduler and is idempotent. (The
// heap's best waiter is decisive: if its tier is still barred by the
// reservation, every deeper waiter is the same or a lower tier.)
func (st *Stream) EndFrame() {
	if !st.admitted {
		return
	}
	st.admitted = false
	p := st.pool
	p.mu.Lock()
	p.inflight--
	if len(p.admitQ) > 0 && p.inflight < p.admitLimit(p.admitQ[0].qos) {
		a := heap.Pop(&p.admitQ).(*admitter)
		a.slot = true
		p.inflight++
		close(a.grant)
	}
	p.mu.Unlock()
}

// QueueWait returns the cumulative time this stream's batches spent
// queued before first worker touch. It implements feature.QueueWaiter.
func (st *Stream) QueueWait() time.Duration {
	return time.Duration(st.queueNS.Load())
}

// Run submits n work items as one batch and blocks until they have all
// executed. The submitter does not help execute — deliberately: a
// submitter draining its own batch would re-create the processor
// sharing the pool exists to remove, and the arrival ordering with it.
func (st *Stream) Run(n int, f func(i int)) {
	if n <= 0 {
		return
	}
	p := st.pool
	now := time.Now()
	arr := st.arrival.Load()
	if arr == 0 {
		arr = now.UnixNano()
	}
	// Grains are deliberately much smaller than batch/Workers: the
	// worker loop re-reads the heap front between claims, so the grain
	// is the scheduler's preemption quantum. When an older frame
	// submits its next kernel mid-way through another frame's batch,
	// workers switch to it within one grain instead of head-of-line
	// blocking until the batch drains — approximate preemptive
	// oldest-first, which is what keeps the oldest frame running to
	// completion across its serial stage boundaries.
	claims := 16 * p.cfg.Workers
	grain := (n + claims - 1) / claims
	if grain < p.cfg.MinGrain {
		grain = p.cfg.MinGrain
	}
	b := &batch{
		prio: prio{qos: st.qos.Load(), arrival: arr},
		f:    f, n: n, grain: grain, st: st, enq: now, fin: make(chan struct{}),
	}

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	if st.frameSeq == 0 {
		p.seq++
		st.frameSeq = p.seq
	}
	b.seq = st.frameSeq
	heap.Push(&p.queue, b)
	p.batches.Add(1)
	p.items.Add(uint64(n))
	p.cond.Broadcast()
	p.mu.Unlock()
	<-b.fin
}
