package trackpool_test

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slamshare/internal/camera"
	"slamshare/internal/dataset"
	"slamshare/internal/feature"
	"slamshare/internal/img"
	"slamshare/internal/trackpool"
)

func noiseTexture(w, h int, seed uint64) *img.Gray {
	im := img.New(w, h)
	s := seed
	for i := range im.Pix {
		s += 0x9E3779B97F4A7C15
		z := s
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		im.Pix[i] = byte(z ^ (z >> 31))
	}
	return im
}

// waitDepth polls until the pool's queue holds want batches — used to
// force a known queue shape before releasing a blocked worker.
func waitDepth(t *testing.T, p *trackpool.Pool, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().QueueDepth != want {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth never reached %d (now %d)", want, p.Stats().QueueDepth)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// blockWorker occupies the pool's single worker with a batch that
// holds until the returned release func is called.
func blockWorker(t *testing.T, p *trackpool.Pool) (release func(), wait func()) {
	t.Helper()
	st := p.NewStream()
	started := make(chan struct{})
	gate := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		st.Run(1, func(int) {
			close(started)
			<-gate
		})
		st.Close()
	}()
	<-started
	return func() { close(gate) }, func() { <-done }
}

// TestStreamExtractionMatchesSerial is the pooled half of the
// determinism contract: extraction through a pool Stream must be
// bit-identical to SerialRunner, on cold and warm scratch alike.
func TestStreamExtractionMatchesSerial(t *testing.T) {
	im := noiseTexture(300, 200, 9)
	cfg := feature.Config{NFeatures: 300, Levels: 3, ScaleFactor: 1.2, Threshold: 25, MinThreshold: 10, StripRows: 31}
	serial := (&feature.Extractor{Cfg: cfg, Par: feature.SerialRunner{}}).Extract(im)

	p := trackpool.New(trackpool.Config{Workers: 4, MinGrain: 1})
	defer p.Close()
	st := p.NewStream()
	defer st.Close()
	ex := &feature.Extractor{Cfg: cfg, Par: st}
	for round := 0; round < 3; round++ {
		kps := ex.Extract(im)
		if len(kps) != len(serial) {
			t.Fatalf("round %d: pooled %d vs serial %d keypoints", round, len(kps), len(serial))
		}
		for i := range kps {
			if kps[i] != serial[i] {
				t.Fatalf("round %d: keypoint %d differs:\npooled %+v\nserial %+v", round, i, kps[i], serial[i])
			}
		}
	}
}

// TestExtractAllocs is the pooled half of internal/feature's ceiling of
// the same name: extraction through a pool Stream on a 752x480 MH04
// frame stays under 100 allocations a call in steady state — the
// extractor's scratch is pooled and a batch costs the stream a small
// constant, whatever its item count.
func TestExtractAllocs(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("renders dataset frames; needs sync.Pool to keep what it is given")
	}
	left, right := dataset.MH04(camera.Stereo).StereoFrame(40)
	p := trackpool.New(trackpool.Config{Workers: 2})
	defer p.Close()
	st := p.NewStream()
	defer st.Close()
	ex := &feature.Extractor{Cfg: feature.DefaultConfig(), Par: st}
	ex.Extract(left)
	ex.Extract(right)
	i := 0
	allocs := testing.AllocsPerRun(10, func() {
		if i++; i&1 == 0 {
			ex.Extract(left)
		} else {
			ex.Extract(right)
		}
	})
	t.Logf("pooled Extract steady state: %.1f allocs/op", allocs)
	if allocs > 100 {
		t.Errorf("pooled Extract allocates %.1f/op in steady state, want <= 100", allocs)
	}
}

// TestArrivalOrder pins the queue discipline: with the single worker
// busy, a batch from an earlier-arrived frame submitted second must
// still execute before a later-arrived frame's batch.
func TestArrivalOrder(t *testing.T) {
	// MaxInflight 2 admits both frames (blockWorker's batch holds no
	// slot), so their batches meet in the run queue and this test pins
	// the batch-level discipline, not the gate's.
	p := trackpool.New(trackpool.Config{Workers: 1, MinGrain: 1, MaxInflight: 2})
	defer p.Close()
	release, waitBlocked := blockWorker(t, p)

	late := p.NewStream()
	early := p.NewStream()
	defer late.Close()
	defer early.Close()
	now := time.Now()
	late.BeginFrame(now)
	early.BeginFrame(now.Add(-50 * time.Millisecond))

	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		late.Run(1, func(int) { mu.Lock(); order = append(order, "late"); mu.Unlock() })
	}()
	waitDepth(t, p, 1)
	go func() {
		defer wg.Done()
		early.Run(1, func(int) { mu.Lock(); order = append(order, "early"); mu.Unlock() })
	}()
	waitDepth(t, p, 2)
	release()
	wg.Wait()
	waitBlocked()
	if len(order) != 2 || order[0] != "early" || order[1] != "late" {
		t.Fatalf("execution order %v, want [early late]", order)
	}
}

// TestArrivalPreemptsStartedBatch pins the preemption quantum the
// package comment promises: the worker re-reads the queue front
// between grains, so a batch from an earlier-arrived frame submitted
// while a later-arrived frame's batch is mid-way runs before that
// batch's remaining grains instead of waiting for it to drain.
func TestArrivalPreemptsStartedBatch(t *testing.T) {
	p := trackpool.New(trackpool.Config{Workers: 1, MinGrain: 1, MaxInflight: 2})
	defer p.Close()

	late := p.NewStream()
	early := p.NewStream()
	defer late.Close()
	defer early.Close()
	now := time.Now()
	late.BeginFrame(now)
	early.BeginFrame(now.Add(-50 * time.Millisecond))

	var mu sync.Mutex
	var order []string
	note := func(s string) { mu.Lock(); order = append(order, s); mu.Unlock() }
	started := make(chan struct{})
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release() // a failed waitDepth must not leave the worker held
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		// Three one-item grains; the first holds the worker until the
		// early batch is queued behind it.
		late.Run(3, func(i int) {
			if i == 0 {
				close(started)
				<-gate
			}
			note("late")
		})
	}()
	<-started
	go func() {
		defer wg.Done()
		early.Run(1, func(int) { note("early") })
	}()
	waitDepth(t, p, 2) // late's unclaimed grains + early
	release()
	wg.Wait()
	if want := []string{"late", "early", "late", "late"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("execution order %v, want %v", order, want)
	}
}

// TestQoSOrdersQueue pins the QoS tier above arrival in the run
// queue: a headset (qos 0) batch runs before a mapping drone's (qos 2)
// even when the drone's frame arrived earlier.
func TestQoSOrdersQueue(t *testing.T) {
	p := trackpool.New(trackpool.Config{Workers: 1, MinGrain: 1, MaxInflight: 2})
	defer p.Close()
	release, waitBlocked := blockWorker(t, p)

	drone := p.NewStream()
	headset := p.NewStream()
	defer drone.Close()
	defer headset.Close()
	drone.SetQoS(2)
	headset.SetQoS(0)
	now := time.Now()
	// The drone's frame is older — arrival order alone would run it
	// first.
	drone.BeginFrame(now.Add(-50 * time.Millisecond))
	headset.BeginFrame(now)

	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		drone.Run(1, func(int) { mu.Lock(); order = append(order, "drone"); mu.Unlock() })
	}()
	waitDepth(t, p, 1)
	go func() {
		defer wg.Done()
		headset.Run(1, func(int) { mu.Lock(); order = append(order, "headset"); mu.Unlock() })
	}()
	waitDepth(t, p, 2)
	release()
	wg.Wait()
	waitBlocked()
	if len(order) != 2 || order[0] != "headset" {
		t.Fatalf("execution order %v, want headset first", order)
	}
}

// TestQueueWaitAccounting checks that time spent queued behind another
// session's work lands on the stream's QueueWait ledger (the source of
// the track.queue stage).
func TestQueueWaitAccounting(t *testing.T) {
	p := trackpool.New(trackpool.Config{Workers: 1, MinGrain: 1})
	defer p.Close()
	release, waitBlocked := blockWorker(t, p)

	st := p.NewStream()
	defer st.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		st.Run(1, func(int) {})
	}()
	waitDepth(t, p, 1)
	time.Sleep(15 * time.Millisecond)
	release()
	<-done
	waitBlocked()
	if w := st.QueueWait(); w < 5*time.Millisecond {
		t.Errorf("stream queue wait %v, want >= 5ms", w)
	}
	if w := p.Stats().QueueWait; w < 5*time.Millisecond {
		t.Errorf("pool queue wait %v, want >= 5ms", w)
	}
}

// TestCloseDrainsThenRunsInline: batches in flight at Close complete,
// and Run after Close falls back to inline execution so a session
// racing server shutdown still finishes its frame.
func TestCloseDrainsThenRunsInline(t *testing.T) {
	p := trackpool.New(trackpool.Config{Workers: 2, MinGrain: 1})
	st := p.NewStream()
	var ran atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		st.Run(16, func(int) {
			time.Sleep(time.Millisecond)
			ran.Add(1)
		})
	}()
	// Close while the batch is (likely) mid-flight: it must drain.
	time.Sleep(3 * time.Millisecond)
	p.Close()
	<-done
	if got := ran.Load(); got != 16 {
		t.Fatalf("drained batch ran %d/16 items", got)
	}
	batchesBefore := p.Stats().Batches
	var inline [8]int
	st.Run(8, func(i int) { inline[i] = i + 1 })
	for i, v := range inline {
		if v != i+1 {
			t.Fatalf("inline fallback item %d not executed", i)
		}
	}
	if got := p.Stats().Batches; got != batchesBefore {
		t.Errorf("post-Close Run was queued (batches %d -> %d), want inline", batchesBefore, got)
	}
	st.Close()
	p.Close() // idempotent
}

// waitAdmitWaiting polls until n frames are blocked at the admission
// gate.
func waitAdmitWaiting(t *testing.T, p *trackpool.Pool, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().AdmitWaiting != n {
		if time.Now().After(deadline) {
			t.Fatalf("admit waiters never reached %d (now %d)", n, p.Stats().AdmitWaiting)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestAdmissionGate pins the frame-level gate: with MaxInflight 1, a
// second frame's BeginFrame blocks until the first EndFrames, waiting
// frames are admitted in arrival order regardless of the order they
// queued, and the wait lands on the QueueWait ledger.
func TestAdmissionGate(t *testing.T) {
	p := trackpool.New(trackpool.Config{Workers: 1, MaxInflight: 1})
	defer p.Close()

	hold := p.NewStream()
	defer hold.Close()
	now := time.Now()
	hold.BeginFrame(now) // takes the only slot

	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	enter := func(st *trackpool.Stream, name string, arrival time.Time) {
		defer wg.Done()
		st.BeginFrame(arrival)
		mu.Lock()
		order = append(order, name)
		mu.Unlock()
		st.EndFrame()
		st.Close()
	}
	// "late" queues at the gate first but arrived after "early": the
	// gate must serve early first.
	wg.Add(1)
	go enter(p.NewStream(), "late", now.Add(30*time.Millisecond))
	waitAdmitWaiting(t, p, 1)
	wg.Add(1)
	go enter(p.NewStream(), "early", now.Add(10*time.Millisecond))
	waitAdmitWaiting(t, p, 2)

	if got := p.Stats().Inflight; got != 1 {
		t.Fatalf("inflight %d with one admitted frame, want 1", got)
	}
	time.Sleep(5 * time.Millisecond) // measurable admission wait
	hold.EndFrame()
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "early" || order[1] != "late" {
		t.Fatalf("admission order %v, want [early late]", order)
	}
	if w := p.Stats().QueueWait; w < 5*time.Millisecond {
		t.Errorf("pool queue wait %v after gated admission, want >= 5ms", w)
	}
}

// TestAdmissionReservedSlot: with ReservedSlots 1 of MaxInflight 2,
// lower-class frames can only fill one slot — a headset arriving at a
// gate saturated by drones takes the reserved slot immediately, and a
// freed slot is not handed to a drone while the reservation bars it.
func TestAdmissionReservedSlot(t *testing.T) {
	p := trackpool.New(trackpool.Config{Workers: 1, MaxInflight: 2, ReservedSlots: 1})
	defer p.Close()

	now := time.Now()
	drone1 := p.NewStream()
	defer drone1.Close()
	drone1.SetQoS(2)
	drone1.BeginFrame(now) // fills the one drone-usable slot
	if got := p.Stats().Inflight; got != 1 {
		t.Fatalf("inflight %d after first drone, want 1", got)
	}

	// Second drone blocks: the remaining slot is reserved.
	drone2 := p.NewStream()
	defer drone2.Close()
	drone2.SetQoS(2)
	admitted := make(chan struct{})
	go func() {
		drone2.BeginFrame(now)
		close(admitted)
	}()
	waitAdmitWaiting(t, p, 1)

	// A headset arrives at the saturated gate: admitted on the spot,
	// jumping the waiting drone.
	headset := p.NewStream()
	defer headset.Close()
	headset.SetQoS(0)
	done := make(chan struct{})
	go func() {
		headset.BeginFrame(now)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("headset frame blocked at the gate despite the reserved slot")
	}

	// The headset finishing does not free a drone-usable slot: drone1
	// still holds the only one lower tiers may use.
	headset.EndFrame()
	select {
	case <-admitted:
		t.Fatal("drone admitted into the reserved slot")
	case <-time.After(20 * time.Millisecond):
	}
	drone1.EndFrame()
	select {
	case <-admitted:
	case <-time.After(2 * time.Second):
		t.Fatal("drone not admitted after a drone-usable slot freed")
	}
	drone2.EndFrame()
}

// TestQoSOrdersGate pins the QoS tier above arrival at the admission
// gate, the same prio as the run queue's (TestQoSOrdersQueue): with the
// one slot held, a drone frame that arrived earlier and a handheld
// frame that arrived later both wait, and the freed slot goes to the
// handheld frame.
func TestQoSOrdersGate(t *testing.T) {
	p := trackpool.New(trackpool.Config{Workers: 1, MaxInflight: 1})
	defer p.Close()

	hold := p.NewStream()
	defer hold.Close()
	now := time.Now()
	hold.BeginFrame(now) // takes the only slot

	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	enter := func(name string, qos int, arrival time.Time) {
		defer wg.Done()
		st := p.NewStream()
		st.SetQoS(qos)
		st.BeginFrame(arrival)
		mu.Lock()
		order = append(order, name)
		mu.Unlock()
		st.EndFrame()
		st.Close()
	}
	wg.Add(2)
	go enter("drone", 2, now.Add(-50*time.Millisecond))
	waitAdmitWaiting(t, p, 1)
	go enter("handheld", 1, now)
	waitAdmitWaiting(t, p, 2)

	hold.EndFrame()
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "handheld" || order[1] != "drone" {
		t.Fatalf("admission order %v, want [handheld drone]", order)
	}
}

// TestCloseReleasesAdmission: frames blocked at the gate when the pool
// closes proceed ungated instead of hanging the session.
func TestCloseReleasesAdmission(t *testing.T) {
	p := trackpool.New(trackpool.Config{Workers: 1, MaxInflight: 1})
	hold := p.NewStream()
	hold.BeginFrame(time.Now())

	st := p.NewStream()
	done := make(chan struct{})
	go func() {
		defer close(done)
		st.BeginFrame(time.Now())
		var ran [3]bool
		st.Run(3, func(i int) { ran[i] = true }) // inline: pool is closed
		for i, v := range ran {
			if !v {
				t.Errorf("post-close item %d did not run", i)
			}
		}
		st.EndFrame()
		st.Close()
	}()
	waitAdmitWaiting(t, p, 1)
	p.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("frame stayed blocked at the admission gate across Close")
	}
	hold.Close()
}

// TestTrackPoolStress churns 8 concurrent sessions through the pool —
// mixed batch sizes, arrivals, and mid-run stream close/reopen — and
// checks every work item ran exactly once. Run under -race in CI.
func TestTrackPoolStress(t *testing.T) {
	p := trackpool.New(trackpool.Config{Workers: 4, MinGrain: 2})
	defer p.Close()
	const (
		sessions = 8
		frames   = 40
	)
	var items atomic.Uint64
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			st := p.NewStream()
			for i := 0; i < frames; i++ {
				if i%13 == 5 { // session churn mid-run
					st.Close()
					st = p.NewStream()
				}
				now := time.Now()
				switch i % 3 {
				case 0:
					st.BeginFrame(now)
				case 1: // slightly stale: interleaves with fresh frames
					st.BeginFrame(now.Add(-time.Duration(5+i%7) * time.Millisecond))
				case 2: // long queued: sorts ahead of every fresh frame
					st.BeginFrame(now.Add(-time.Second))
				}
				n := 1 + (s*7+i*13)%37
				local := make([]int32, n)
				st.Run(n, func(j int) { local[j]++ })
				for j, v := range local {
					if v != 1 {
						t.Errorf("session %d frame %d item %d ran %d times", s, i, j, v)
					}
				}
				items.Add(uint64(n))
				// Leave every ninth frame open: the next BeginFrame (or the
				// churn Close) must release the leaked admission slot itself.
				if i%9 != 7 {
					st.EndFrame()
				}
			}
			st.Close()
		}(s)
	}
	wg.Wait()
	st := p.Stats()
	if st.Items != items.Load() {
		t.Errorf("pool counted %d items, submitted %d", st.Items, items.Load())
	}
	if st.Streams != 0 {
		t.Errorf("stream gauge %d after all sessions closed, want 0", st.Streams)
	}
}
