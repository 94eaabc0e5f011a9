package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints as the last line of its standard
// output. The driver reads exactly these four keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// line encodes the result as one line of JSON.
func (r *result) line() (string, error) {
	b, err := json.Marshal(r)
	return string(b), err
}

// report is what a run keeps beside the driver-facing result: the
// workload's name and the notes that have no place in the four keys.
type report struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Seconds     float64           `json:"seconds"`
	Trace       bool              `json:"trace"`
	Samples     int               `json:"samples"`
	TailOK      bool              `json:"tail_trusted"`  // >= tailBeyond samples beyond p95
	CalibMs     [2]float64        `json:"host_calib_ms"` // before and after
	Disturbed   bool              `json:"disturbed"`
	StealPct    float64           `json:"host_steal_pct"`    // over the whole measured phase
	ExposurePct float64           `json:"host_exposure_pct"` // how much of the CPUs' cores neighbours on sibling threads took, 75 being a sibling busy throughout
	QuietShare  float64           `json:"quiet_share"`       // part of the measured phase the metrics were taken over
	InputS      float64           `json:"input_s"`
	Failures    map[verdict]int   `json:"failures,omitempty"`
	Problems    []string          `json:"problems,omitempty"`
	Slices      []sliceInfo       `json:"slices,omitempty"`
	Frames      []frameInfo       `json:"frames,omitempty"`  // in the saved file, for reading a run frame by frame
	Ungated     map[string]metric `json:"ungated,omitempty"` // measured end to end, reported without a bound
	Result      result            `json:"result"`
}

// print writes the report as a table of metrics by name and unit.
func (rp *report) print(w io.Writer) {
	mode := "end-to-end"
	if rp.Trace {
		mode = "per-layer"
	}
	fmt.Fprintf(w, "\n== %s (%s, seed %d, %.0f s) ==\n", rp.Workload, mode, rp.Seed, rp.Seconds)
	for _, set := range []map[string]metric{rp.Result.Metrics, rp.Ungated} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  %-38s %14.4f %s\n", n, set[n].Value, set[n].Unit)
		}
	}
	fmt.Fprintf(w, "  ops %d  failed %d %v  latency samples %d (p95 tail trusted: %v)\n",
		rp.Result.Attempted, rp.Result.Failed, rp.Failures, rp.Samples, rp.TailOK)
	fmt.Fprintf(w, "  input_s %.3f  host.calib_ms %.2f -> %.2f  host.steal_pct %.2f  host.exposure_pct %.1f  quiet share %.2f  disturbed %v  correct %v\n",
		rp.InputS, rp.CalibMs[0], rp.CalibMs[1], rp.StealPct, rp.ExposurePct, rp.QuietShare, rp.Disturbed, rp.Result.Correct)
	for _, p := range rp.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}
