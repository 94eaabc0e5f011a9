package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must not rely on order
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
	}{
		{10, 50, 5}, {10, 90, 9}, {10, 95, 10}, {10, 10, 1}, {10, 100, 10},
		{1, 50, 1}, {200, 95, 190}, {3, 50, 2}, {4, 50, 2},
	} {
		if got := percentile(seq(c.n), c.p); got != c.want {
			t.Errorf("percentile(1..%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing must be NaN")
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
	}{{200, 95, 10}, {199, 95, 9}, {100, 90, 10}, {62, 95, 3}, {0, 95, 0}} {
		if got := samplesBeyond(c.n, c.p); got != c.beyond {
			t.Errorf("samplesBeyond(%d, %v) = %d, want %d", c.n, c.p, got, c.beyond)
		}
		if got, want := tailTrusted(c.n, c.p), c.beyond >= 10; got != want {
			t.Errorf("tailTrusted(%d, %v) = %v, want %v", c.n, c.p, got, want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(seq(10))
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
	q1, q2, q3 = quartiles([]float64{40, 10, 20})
	if q1 != 10 || q2 != 20 || q3 != 40 {
		t.Errorf("quartiles(10,20,40) = %v %v %v", q1, q2, q3)
	}
	if got := spread(seq(10)); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "frame", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "build", Start: 10, End: 50},
		{ID: 3, Parent: 2, Name: "encode", Start: 20, End: 45}, // nested: counts against build only
		{ID: 4, Parent: 1, Name: "rtt", Start: 40, End: 80},    // overlaps build by 10
		{ID: 5, Parent: 1, Name: "late", Start: 90, End: 130},  // runs past its parent
	}
	self := selfTimes(spans)
	// frame: 100 - union([10,50],[40,80],[90,100]) = 100 - (70 + 10) = 20
	for id, want := range map[int]int64{1: 20, 2: 15, 3: 25, 4: 40, 5: 40} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	if got := unaccountedMs(spans, "frame"); got != 20e-6 {
		t.Errorf("unaccounted = %v ms, want 20e-6", got)
	}
}

func TestRecorderNilIsFree(t *testing.T) {
	var r *recorder
	id := r.begin("x", 0, 0)
	r.end(id)
	if id != 0 || r.add("y", 0, 0, 1, 2) != 0 {
		t.Error("a nil recorder must hand out span 0")
	}
	rec := newRecorder(time.Now(), 1000)
	a := rec.begin("a", 0, 7)
	b := rec.begin("b", a, 7)
	rec.end(b)
	rec.end(a)
	if a != 1001 || b != 1002 || rec.spans[1].Parent != a || rec.spans[0].End < rec.spans[1].End {
		t.Errorf("bad spans %+v", rec.spans)
	}
}

// fakeLink answers every frame after a fixed service time.
type fakeLink struct {
	service time.Duration
	sent    map[int]time.Time
	done    map[int]time.Time
	queue   []int
}

func newFakeLink(service time.Duration) *fakeLink {
	return &fakeLink{service: service, sent: map[int]time.Time{}, done: map[int]time.Time{}}
}

func (f *fakeLink) pending() int { return len(f.queue) }

func (f *fakeLink) send(k int) error {
	f.sent[k] = time.Now()
	f.queue = append(f.queue, k)
	return nil
}

func (f *fakeLink) poll(until time.Time) (bool, error) {
	if len(f.queue) == 0 {
		time.Sleep(time.Until(until))
		return false, nil
	}
	k := f.queue[0]
	ready := f.sent[k].Add(f.service)
	if ready.After(until) {
		time.Sleep(time.Until(until))
		return false, nil
	}
	time.Sleep(time.Until(ready))
	f.done[k] = time.Now()
	f.queue = f.queue[1:]
	return true, nil
}

func TestClosedLoopOneInFlightAndStop(t *testing.T) {
	f := newFakeLink(3 * time.Millisecond)
	next, err := closedLoop(f, 0, 5, time.Time{})
	if err != nil || next != 5 {
		t.Fatalf("closedLoop = %d, %v", next, err)
	}
	for k := 1; k < 5; k++ {
		if f.sent[k].Before(f.done[k-1]) {
			t.Errorf("frame %d sent before frame %d was answered", k, k-1)
		}
	}
	next, err = closedLoop(f, 5, 1000, time.Now().Add(20*time.Millisecond))
	if err != nil || next <= 5 || next > 5+10 {
		t.Errorf("closedLoop with a 20 ms stop sent up to frame %d (err %v)", next, err)
	}
}

func TestJudgeAndCount(t *testing.T) {
	good := frameRec{sentOK: true, measured: true, answers: 1, tracked: true, errM: 0.1, bytes: 1000}
	mk := func(edit func(*frameRec)) frameRec { fr := good; edit(&fr); return fr }
	cases := []struct {
		fr   frameRec
		want verdict
	}{
		{good, ok},
		{mk(func(f *frameRec) { f.answers = 0 }), missing},
		{mk(func(f *frameRec) { f.answers = 2 }), duplicate},
		{mk(func(f *frameRec) { f.shed = true }), shed},
		{mk(func(f *frameRec) { f.tracked = false }), untracked},
		{mk(func(f *frameRec) { f.errM = 0.51 }), far},
		{mk(func(f *frameRec) { f.errM = math.NaN() }), far},
		{mk(func(f *frameRec) { f.errM = 0.5 }), ok},
	}
	s := &session{}
	for _, c := range cases {
		if got := judge(&c.fr); got != c.want {
			t.Errorf("judge(%+v) = %q, want %q", c.fr, got, c.want)
		}
		s.recs = append(s.recs, c.fr)
	}
	// Warm-up frames and frames never sent are not attempts.
	s.recs = append(s.recs, mk(func(f *frameRec) { f.measured = false; f.answers = 0 }),
		mk(func(f *frameRec) { f.sentOK = false }))
	// One quiet slice spanning every frame.
	t0 := time.Now()
	for k := range s.recs {
		s.recs[k].began = t0.Add(time.Millisecond)
		s.recs[k].sent, s.recs[k].read, s.recs[k].done = t0.Add(2*time.Millisecond), t0.Add(3*time.Millisecond), t0.Add(4*time.Millisecond)
	}
	tl := count([]*outcome{{sessions: []*session{s, nil}, samples: []sample{
		{at: t0, total: 100, child: []time.Duration{0}},
		{at: t0.Add(time.Second), total: 300, child: []time.Duration{40 * time.Millisecond}, self: 10 * time.Millisecond},
	}}}, nil)
	if tl.attempted != 8 || tl.failed != 6 || len(tl.latMs) != 2 {
		t.Errorf("attempted %d failed %d good %d, want 8 6 2", tl.attempted, tl.failed, len(tl.latMs))
	}
	for _, v := range []verdict{missing, duplicate, shed, untracked} {
		if tl.by[v] != 1 {
			t.Errorf("%s counted %d times", v, tl.by[v])
		}
	}
	if tl.by[far] != 2 {
		t.Errorf("far counted %d times, want 2", tl.by[far])
	}
	if got := mean(tl.upBits); got != 8000 {
		t.Errorf("uplink bits per frame = %v, want 8000", got)
	}
	if tl.framesPerS != 2 || tl.serverCPUms != 20 || tl.clientCPUms != 5 || tl.quietShare != 1 {
		t.Errorf("2 correct frames in 1 s: %v frames/s, %v ms server, %v ms client, quiet %v",
			tl.framesPerS, tl.serverCPUms, tl.clientCPUms, tl.quietShare)
	}
}

func TestResultRoundTrip(t *testing.T) {
	in := result{Correct: true, Attempted: 62, Failed: 0, Metrics: map[string]metric{
		"pose_ms_p50": {244.047894, "ms"},
		"setup_s":     {2.4097885, "s"},
	}}
	line, err := in.line()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.ContainsRune([]byte(line), '\n') {
		t.Error("result must be one line")
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 {
		t.Errorf("result has keys %v, want exactly correct, attempted, failed, metrics", keys)
	}
	var out result
	if err := json.Unmarshal([]byte(line), &out); err != nil {
		t.Fatal(err)
	}
	if out.Correct != in.Correct || out.Attempted != in.Attempted || out.Failed != in.Failed ||
		len(out.Metrics) != 2 || out.Metrics["pose_ms_p50"] != in.Metrics["pose_ms_p50"] {
		t.Errorf("round trip changed the result: %+v", out)
	}
}

func TestParseProcStat(t *testing.T) {
	line := "1234 (slam share) S 1 1234 1234 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 4 0 100 1000 10 18446744073709551615"
	got, err := parseProcStat(line)
	if err != nil || got != 3*time.Second {
		t.Errorf("parseProcStat = %v, %v; want 3s", got, err)
	}
	if _, err := parseProcStat("garbage"); err == nil {
		t.Error("garbage must not parse")
	}
}

func TestDisturbed(t *testing.T) {
	if disturbed(200*time.Millisecond, 215*time.Millisecond) {
		t.Error("7.5 % drift is within the guard")
	}
	if !disturbed(200*time.Millisecond, 225*time.Millisecond) || !disturbed(225*time.Millisecond, 200*time.Millisecond) {
		t.Error("12.5 % drift in either direction must trip the guard")
	}
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	want, err := spec()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the code's definition; regenerate it with `go run ./bench -spec > BENCHMARK.json`")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// guardedRun builds an outcome of n half-second slices with one 100 ms
// frame in the middle of each. The hypervisor steals a tenth of the
// slices in stolen, which run their frame three times slower on the
// same CPU time.
func guardedRun(stolenSlices map[int]bool, n int) *outcome {
	t0 := time.Now()
	s := &session{}
	out := &outcome{sessions: []*session{s}}
	var steal, total int64
	var cpu time.Duration
	out.samples = append(out.samples, sample{at: t0, child: []time.Duration{0}})
	for j := 0; j < n; j++ {
		lat, use := 100*time.Millisecond, 20*time.Millisecond
		if stolenSlices[j] {
			lat *= 3
			steal += 10
		}
		begin := t0.Add(time.Duration(j)*sliceLen + 50*time.Millisecond)
		s.recs = append(s.recs, frameRec{sentOK: true, measured: true, answers: 1, tracked: true,
			began: begin, sent: begin, read: begin.Add(lat), done: begin.Add(lat)})
		total += 100
		cpu += use
		out.samples = append(out.samples, sample{at: t0.Add(time.Duration(j+1) * sliceLen),
			steal: steal, total: total, child: []time.Duration{cpu}})
	}
	return out
}

func TestCountTakesTimingsOverQuietSlices(t *testing.T) {
	// Three of nine slices are stolen from; six quiet ones are enough
	// to stand alone.
	tl := count([]*outcome{guardedRun(map[int]bool{2: true, 4: true, 5: true}, 9)}, nil)
	if tl.disturbed || len(tl.latMs) != 6 || tl.attempted != 9 || tl.failed != 0 {
		t.Fatalf("disturbed %v, %d timings of %d attempted, %d failed", tl.disturbed, len(tl.latMs), tl.attempted, tl.failed)
	}
	for _, l := range tl.latMs {
		if l != 100 {
			t.Errorf("a disturbed frame's %v ms got through the guard", l)
		}
	}
	// Throughput and CPU per frame are taken over every slice.
	if math.Abs(tl.framesPerS-2) > 1e-9 || math.Abs(tl.serverCPUms-20) > 1e-9 {
		t.Errorf("nine slices do 2 frames/s at 20 ms CPU each, got %v and %v", tl.framesPerS, tl.serverCPUms)
	}
	if want := 6.0 / 9; math.Abs(tl.quietShare-want) > 1e-9 {
		t.Errorf("quiet share %v, want %v", tl.quietShare, want)
	}
	if math.Abs(tl.stealPct-100*30.0/900) > 1e-9 {
		t.Errorf("steal %v %%, want 3.33", tl.stealPct)
	}

	// With under minQuiet of quiet time the run reports everything and
	// says so.
	tl = count([]*outcome{guardedRun(map[int]bool{0: true, 1: true, 2: true, 3: true}, 7)}, nil)
	if !tl.disturbed || len(tl.latMs) != 7 {
		t.Errorf("1.5 s quiet: disturbed %v with %d timings, want true with all 7", tl.disturbed, len(tl.latMs))
	}
}

func TestFrameAcrossBoundaryCountsOnBothSides(t *testing.T) {
	out := guardedRun(nil, 4)
	// Move frame 1 so that it straddles the boundary between slices 1 and 2.
	fr := &out.sessions[0].recs[1]
	fr.began = out.samples[2].at.Add(-25 * time.Millisecond)
	fr.sent = fr.began
	fr.read, fr.done = fr.began.Add(100*time.Millisecond), fr.began.Add(100*time.Millisecond)
	tl := count([]*outcome{out}, nil)
	if got := tl.slices[1].Frames; math.Abs(got-0.25) > 1e-9 {
		t.Errorf("slice 1 did %v of the straddling frame, want 0.25", got)
	}
	if got := tl.slices[2].Frames; math.Abs(got-1.75) > 1e-9 {
		t.Errorf("slice 2 did %v frames, want its own plus 0.75", got)
	}
}

func TestExposureOverIntervals(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// CPU 0 is alone throughout; CPU 1 has a neighbour from 100 ms on.
	// The floor is the 1.3 that most readings sit on.
	var cpus [2][]reading
	for i := 0; i < 10; i++ {
		cpus[0] = append(cpus[0], reading{at: at(20 * i), ratio: 1.3})
		r := 1.3
		if i >= 5 {
			r = 1.3 * 1.75
		}
		cpus[1] = append(cpus[1], reading{at: at(20 * i), ratio: r})
	}
	ex := newExposure(cpus[:])
	if got := ex.over(at(10), at(50)); got != 0 {
		t.Errorf("exposure before the neighbour arrived = %v", got)
	}
	// The interval holds CPU 1's readings at 100 and 120 ms, both 0.75
	// over, and takes in the one before (80 ms, alone) and the one after
	// (140 ms, 0.75 over). CPU 0 reads 0, which halves the mean.
	if got, want := ex.over(at(85), at(135)), (3*0.75/4)/2; math.Abs(got-want) > 1e-9 {
		t.Errorf("exposure beside the neighbour = %v, want %v", got, want)
	}
	// An interrupted reading counts as a fully shared core at most.
	ex = newExposure([][]reading{{{at: at(0), ratio: 1.3}, {at: at(20), ratio: 1.3}, {at: at(40), ratio: 13}}})
	if got := ex.over(at(35), at(45)); math.Abs(got-(0+1.0)/2) > 1e-9 {
		t.Errorf("capped exposure = %v, want 0.5", got)
	}
	if got := (*exposure)(nil).over(at(0), at(100)); got != 0 {
		t.Errorf("an unmonitored run reads %v", got)
	}
}

func TestCountRefersToAnUndisturbedHost(t *testing.T) {
	// Forty 100 ms frames, one per half-second slice, at 20 ms of server
	// CPU each. A neighbour sits beside both CPUs during every other
	// slice and slows frame and CPU as it slows the burst: by 7/4.
	t0 := time.Now()
	s := &session{}
	out := &outcome{sessions: []*session{s}, samples: []sample{{at: t0, child: []time.Duration{0}}}}
	var cpus [2][]reading
	var cpu time.Duration
	for j := 0; j < 40; j++ {
		lat, use, ratio := 100*time.Millisecond, 20*time.Millisecond, 1.3
		if j%2 == 1 {
			lat, use, ratio = lat*7/4, use*7/4, 1.3*1.75
		}
		from := t0.Add(time.Duration(j) * sliceLen)
		for c := range cpus {
			for k := 0; k < 25; k++ {
				cpus[c] = append(cpus[c], reading{at: from.Add(time.Duration(k)*monitorPeriod + time.Millisecond), ratio: ratio})
			}
		}
		begin := from.Add(150 * time.Millisecond)
		s.recs = append(s.recs, frameRec{sentOK: true, measured: true, answers: 1, tracked: true,
			began: begin, sent: begin, read: begin.Add(lat), done: begin.Add(lat)})
		cpu += use
		out.samples = append(out.samples, sample{at: from.Add(sliceLen), total: int64(100 * (j + 1)), child: []time.Duration{cpu}})
	}
	tl := count([]*outcome{out}, newExposure(cpus[:]))
	if got := percentile(tl.latMs, 50); got != 100 {
		t.Errorf("measured median %v, want 100 (nearest rank of 20 fast and 20 slow frames)", got)
	}
	for _, l := range tl.poseMs {
		if math.Abs(l-100) > 0.5 {
			t.Errorf("a frame reads %v ms on an undisturbed host, want 100", l)
		}
	}
	if math.Abs(tl.serverCPUadj-20) > 0.1 || math.Abs(tl.serverCPUms-27.5) > 1e-6 {
		t.Errorf("server CPU per frame %v referred, %v measured; want 20 and 27.5", tl.serverCPUadj, tl.serverCPUms)
	}
	if math.Abs(tl.exposurePct-37.5) > 1 {
		t.Errorf("exposure %v %%, want 37.5", tl.exposurePct)
	}
}

func TestMonitorReadsEveryCPUAndCleansUp(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	m := startMonitor()
	time.Sleep(5 * monitorPeriod)
	cpus := m.end()
	if got := runtime.GOMAXPROCS(0); got != procs {
		t.Errorf("GOMAXPROCS left at %d, was %d", got, procs)
	}
	if len(cpus) != runtime.NumCPU() {
		t.Fatalf("readings for %d CPUs, have %d", len(cpus), runtime.NumCPU())
	}
	for c, rs := range cpus {
		if len(rs) < 2 {
			t.Errorf("CPU %d was read %d times in five periods", c, len(rs))
		}
		for _, r := range rs {
			if !(r.ratio > 0.5 && r.ratio < 50) {
				t.Errorf("CPU %d: burst/chain ratio %v", c, r.ratio)
			}
		}
	}
}
