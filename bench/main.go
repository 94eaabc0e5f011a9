// Command bench is the repository's benchmark: it builds
// cmd/slamshare-server and cmd/slamshare-front, runs them as child
// processes, drives them over loopback TCP from this one generator
// process, checks the answers, and prints every metric by name and
// unit. README.md in this directory describes the workloads, the
// metrics and how they interact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// outDir receives result files, trace files and the children's logs.
const outDir = "bench/out"

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all four)")
		seed    = flag.Int64("seed", 1, "offsets the sequences' pixel and IMU noise; the programs under test see only the frames")
		seconds = flag.Float64("seconds", runSeconds, "length of the measured phase")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		smoke   = flag.Bool("smoke", false, "quick pre-push run: every workload, both modes, 2 s each, all checks on")
		aa      = flag.Int("aa", 0, "A/A mode: two interleaved sets of this many full runs each (>= 3)")
		asSpec  = flag.Bool("spec", false, "print BENCHMARK.json as this package defines it and exit")
	)
	flag.Parse()
	if *asSpec {
		b, err := spec()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		os.Stdout.Write(b)
		return
	}
	if err := run(*name, *seed, *seconds, *trace != 0, *smoke, *aa); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace, smoke bool, aa int) error {
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	build, err := buildBinaries()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "build_s %.3f\n", build.Seconds())
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}

	switch {
	case aa > 0:
		return runAA(aa, seed, seconds)
	case smoke:
		for _, tr := range []bool{false, true} {
			if err := runSuite(seed, 2, tr, false); err != nil {
				return err
			}
		}
		return nil
	case name == "":
		return runSuite(seed, seconds, trace, true)
	}

	// One workload, one run: the form the driver invokes.
	w := workloadByName(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	rp, err := runGuarded(w, seed, seconds, trace, false)
	if err != nil {
		return err
	}
	rp.print(os.Stderr)
	if err := save(rp); err != nil {
		return err
	}
	line, err := rp.Result.line()
	if err != nil {
		return err
	}
	fmt.Println(line)
	if !rp.Result.Correct {
		return fmt.Errorf("%s: run-level checks failed", w.name)
	}
	return nil
}

// runSuite runs all four workloads once and prints one table each; the
// last line of standard output is the JSON object of their results by
// workload. retry lets the host-noise guard run a disturbed workload
// once more.
func runSuite(seed int64, seconds float64, trace, retry bool) error {
	all := make(map[string]result)
	failed := false
	for _, w := range workloads {
		rp, err := runGuarded(w, seed, seconds, trace, retry)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		rp.print(os.Stdout)
		if err := save(rp); err != nil {
			return err
		}
		all[w.name] = rp.Result
		failed = failed || !rp.Result.Correct
	}
	b, err := json.Marshal(all)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if failed {
		return fmt.Errorf("run-level checks failed")
	}
	return nil
}

// runGuarded brackets one run of a workload with the host-noise guard.
// If the calibration readings before and after differ by more than
// calibDrift the run was disturbed; with retry set it is run once more,
// and marked disturbed only if the second run was disturbed too.
func runGuarded(w *workload, seed int64, seconds float64, trace, retry bool) (*report, error) {
	for attempt := 0; ; attempt++ {
		before := calibrate()
		rp, err := runWorkload(w, seed, seconds, trace)
		if err != nil {
			return nil, err
		}
		after := calibrate()
		rp.CalibMs = [2]float64{ms(before), ms(after)}
		rp.Disturbed = rp.Disturbed || disturbed(before, after)
		if !rp.Disturbed || !retry || attempt > 0 {
			return rp, nil
		}
		fmt.Fprintf(os.Stderr, "%s: host.calib_ms moved %.2f -> %.2f, running it once more\n",
			w.name, ms(before), ms(after))
	}
}

// runWorkload generates the inputs and performs one run in either mode.
func runWorkload(w *workload, seed int64, seconds float64, trace bool) (*report, error) {
	rp := &report{Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace}
	dir := filepath.Join(outDir, "run-"+w.name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	// Either mode runs its sessions for a lap at a time. An end-to-end
	// run measures `laps` of them; a traced run one, and spends the rest
	// of its time in the server pass and the kernels.
	lap := seconds / laps
	t0 := time.Now()
	in := prepare(w, seed, lap)
	rp.InputS = time.Since(t0).Seconds()
	var err error
	if trace {
		err = runTraced(w, in, dir, lap, rp)
	} else {
		err = runEndToEnd(w, in, dir, lap, rp)
	}
	if err != nil {
		return nil, err
	}
	if rp.Result.Correct {
		// Logs and checkpoints are only worth keeping from a bad run.
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	return rp, nil
}

// runLaps performs n laps under one monitor and returns what each
// produced and what the host did meanwhile.
func runLaps(w *workload, in *inputs, dir string, lap float64, n int, recs []*recorder) ([]*outcome, *exposure, error) {
	mon := startMonitor()
	var outs []*outcome
	var err error
	for i := 0; i < n && err == nil; i++ {
		var o *outcome
		o, err = pass(w, in, dir, lap, recs)
		if o == nil {
			mon.end()
			return nil, nil, err
		}
		if err != nil {
			err = fmt.Errorf("lap %d: %w", i, err)
		}
		outs = append(outs, o)
	}
	return outs, newExposure(mon.end()), err
}

// runEndToEnd performs the laps of an untraced run and fills in the
// end-to-end metrics.
func runEndToEnd(w *workload, in *inputs, dir string, lap float64, rp *report) error {
	outs, ex, err := runLaps(w, in, dir, lap, laps, nil)
	if outs == nil {
		return err
	}
	t := count(outs, ex)
	rp.fill(w, outs, t)

	// Set-up is the median of the laps'; a set-up the hypervisor stole
	// from is left out if any was spared. Each is referred to an
	// undisturbed host like the frames it mostly consists of.
	var setups, quietSetups []float64
	for _, o := range outs {
		s := undisturbed(o.setup.Seconds(), ex.over(o.began, o.began.Add(o.setup)))
		setups = append(setups, s)
		if o.setupSteal <= maxSteal {
			quietSetups = append(quietSetups, s)
		}
	}
	if len(quietSetups) > 0 {
		setups = quietSetups
	}
	rp.Result.Metrics = map[string]metric{
		"pose_ms_p50":             {percentile(t.poseMs, 50), "ms"},
		"server_cpu_ms_per_frame": {t.serverCPUadj, "ms"},
		"uplink_kbit_per_frame":   {mean(t.upBits) / 1000, "kbit"},
		"setup_s":                 {median(setups), "s"},
	}
	// Measured here too, but too noisy on a shared box to gate; the
	// traced run reports them as per-layer figures. These are as
	// measured, not referred to an undisturbed host.
	rp.Ungated = map[string]metric{
		"pose.p50_measured_ms":    {percentile(t.latMs, 50), "ms"},
		"pose.p95_ms":             {percentile(t.latMs, 95), "ms"},
		"pose.frames_per_s":       {t.framesPerS, "1/s"},
		"client.cpu_ms_per_frame": {t.clientCPUms, "ms"},
		"server.cpu_measured_ms":  {t.serverCPUms, "ms"},
		"host.exposure_pct":       {t.exposurePct, "%"},
	}
	return nil
}

// fill copies the laps' accounting and the run-level checks' findings
// into the report.
func (rp *report) fill(w *workload, outs []*outcome, t *tally) {
	for i, o := range outs {
		for _, p := range checks(w, o) {
			rp.Problems = append(rp.Problems, fmt.Sprintf("lap %d: %s", i, p))
		}
	}
	if t.attempted == 0 {
		rp.Problems = append(rp.Problems, "no frame was measured")
	}
	rp.Failures = t.by
	rp.Samples = len(t.latMs)
	rp.TailOK = tailTrusted(len(t.latMs), 95)
	rp.StealPct = t.stealPct
	rp.ExposurePct = t.exposurePct
	rp.QuietShare = t.quietShare
	rp.Slices = t.slices
	rp.Frames = t.frames
	rp.Disturbed = t.disturbed
	rp.Result = result{
		Correct:   len(rp.Problems) == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
	}
	if rp.Result.Attempted < 1 {
		rp.Result.Attempted = 1 // the driver requires a positive count even for a run that sent nothing
	}
}

// save writes the report to bench/out.
func save(rp *report) error {
	mode := "e2e"
	if rp.Trace {
		mode = "trace"
	}
	b, err := json.MarshalIndent(rp, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, fmt.Sprintf("result-%s-%s.json", mode, rp.Workload)), b, 0o644)
}
