package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// runAA measures the benchmark's own noise floor: 2n full end-to-end
// runs of the same tree, assigned alternately to set A and set B
// (A B A B ...), each with its own seed as the driver would pass. For
// every workload and metric it prints each set's median and quartiles
// and judges them against the metric's bound: neither median may be
// worse than the other by more than the bound, and, with at least
// spreadRuns runs per set, both spreads must stay within the bound too
// (the quartiles of fewer runs are little more than their extremes).
// The table is also written to bench/out/aa.md.
func runAA(n int, seed int64, seconds float64) error {
	if n < 3 {
		return fmt.Errorf("-aa needs at least 3 runs per set")
	}
	// values[set][workload][metric] -> one value per run
	var values [2]map[string]map[string][]float64
	for s := range values {
		values[s] = make(map[string]map[string][]float64)
	}
	for r := 0; r < 2*n; r++ {
		set := r % 2
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "aa: run %d/%d (set %c) %s\n", r+1, 2*n, 'A'+set, w.name)
			rp, err := runGuarded(w, seed+int64(r), seconds, false, true)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if !rp.Result.Correct || rp.Result.Failed > 0 {
				rp.print(os.Stderr)
				return fmt.Errorf("%s: run %d was not clean", w.name, r+1)
			}
			m := values[set][w.name]
			if m == nil {
				m = make(map[string][]float64)
				values[set][w.name] = m
			}
			for name, v := range rp.Result.Metrics {
				m[name] = append(m[name], v.Value)
			}
		}
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "| workload | metric | A median [q1, q3] | B median [q1, q3] | spread A | spread B | worse by | bound | verdict |\n")
	fmt.Fprintf(&sb, "|---|---|---|---|---|---|---|---|---|\n")
	allPass := true
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := values[0][w.name][d.Name], values[1][w.name][d.Name]
			aq1, amed, aq3 := quartiles(a)
			bq1, bmed, bq3 := quartiles(b)
			worse := worseBy(d, amed, bmed)
			pass := worse <= d.Bound
			if n >= spreadRuns && d.Name != "setup_s" { // set-up is gated on its median only
				pass = pass && spread(a) <= d.Bound && spread(b) <= d.Bound
			}
			verdict := "pass"
			if !pass {
				verdict, allPass = "FAIL", false
			}
			fmt.Fprintf(&sb, "| %s | %s | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] | %.1f %% | %.1f %% | %.1f %% | %.0f %% | %s |\n",
				w.name, d.Name, amed, aq1, aq3, bmed, bq1, bq3,
				100*spread(a), 100*spread(b), 100*worse, 100*d.Bound, verdict)
		}
	}
	fmt.Print(sb.String())
	if err := os.WriteFile(filepath.Join(outDir, "aa.md"), []byte(sb.String()), 0o644); err != nil {
		return err
	}
	if !allPass {
		return fmt.Errorf("A/A: two sets of runs of the same tree disagree beyond a bound")
	}
	return nil
}

// spreadRuns is the set size from which an A/A run judges spreads: the
// number of runs the driver takes its quartiles over.
const spreadRuns = 10

// worseBy is the larger of the shares by which one set's median is
// worse than the other's, in the metric's own direction.
func worseBy(d metricDef, a, b float64) float64 {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo <= 0 {
		return 0
	}
	if d.Better == "higher" {
		return (hi - lo) / hi
	}
	return (hi - lo) / lo
}
