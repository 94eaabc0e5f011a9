package main

import (
	"encoding/json"
	"strings"
)

// metricDef declares one metric. Layer and Moves document, for a
// per-layer metric, which package it belongs to and which end-to-end
// metric it should move on which workload; BENCHMARK.json has no room
// for them, so they live here and in README.md.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: allowed worsening as a share of the parent's median
	Layer  string
	Moves  string
}

// runSeconds is the measured length the driver passes as --seconds:
// three laps of eight seconds.
const runSeconds = 24

// endToEnd is what a user of the system sees. Every workload reports
// every one of them.
var endToEnd = []metricDef{
	{Name: "pose_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "server_cpu_ms_per_frame", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "uplink_kbit_per_frame", Unit: "kbit", Better: "lower", Bound: 0.01},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// kernelDefs expands one fixed-input kernel into its three metrics.
func kernelDefs(name, unit, layer, moves string) []metricDef {
	return []metricDef{
		{Name: name + "_" + unit, Unit: unit, Better: "lower", Layer: layer, Moves: moves},
		{Name: name + ".allocs_per_op", Unit: "count", Better: "lower", Layer: layer, Moves: "deterministic; gate exact-or-better"},
		{Name: name + ".bytes_per_op", Unit: "B", Better: "lower", Layer: layer, Moves: "deterministic; gate exact-or-better"},
	}
}

// perLayer is every figure a traced run reports. A figure that does not
// apply to a workload reads 0 there.
var perLayer = func() []metricDef {
	low, high := "lower", "higher"
	defs := []metricDef{
		{"pose.p95_ms", "ms", low, 0, "end to end", "the tail: keyframe and merge frames; too few samples per run to gate"},
		{"pose.frames_per_s", "1/s", high, 0, "end to end", "closed loop: the inverse of mean latency; open loop: the offered rate"},
		{"client.build_ms", "ms", low, 0, "client", "pose_ms_p50, client.cpu_ms_per_frame on solo_full and duo_split"},
		{"video.encode_ms", "ms", low, 0, "video", "pose_ms_p50, client.cpu_ms_per_frame on solo_full only"},
		{"client.apply_ms", "ms", low, 0, "client", "pose_ms_p50 marginally"},
		{"client.cpu_ms_per_frame", "ms", low, 0, "client", "the device's compute (paper Fig. 13): solo_full and duo_split; generator overhead on the replays"},
		{"client.ate_cm", "cm", low, 0, "client", "nothing; accuracy check, must stay under 25"},
		{"protocol.frame_codec_us", "us", low, 0, "protocol", "pose_ms_p50 marginally on solo_full"},
		{"protocol.keypoint_codec_us", "us", low, 0, "protocol", "pose_ms_p50 marginally on duo_split"},
		{"protocol.pose_codec_us", "us", low, 0, "protocol", "pose_ms_p50 marginally, all workloads"},
		{"protocol.uplink_bytes", "B", low, 0, "protocol", "uplink_kbit_per_frame"},
		{"transport.rtt_ms", "ms", low, 0, "transport", "pose_ms_p50: transport plus everything server-side"},
		{"transport.direct_ms", "ms", low, 0, "transport", "pose_ms_p50 on solo_full and duo_split"},
		{"cluster.front_hop_ms", "ms", low, 0, "cluster", "pose_ms_p50 on replay_cluster only"},
		{"cluster.front_cpu_ms_per_frame", "ms", low, 0, "cluster", "server_cpu_ms_per_frame on replay_cluster only"},
		{"cluster.shard_cpu_ms_per_frame", "ms", low, 0, "cluster", "server_cpu_ms_per_frame on replay_cluster only"},
		{"server.handle_ms", "ms", low, 0, "server", "pose_ms_p50 on replay_cluster most; server_cpu_ms_per_frame everywhere"},
		{"server.other_ms", "ms", low, 0, "server", "handle minus tracking: decode, mapping, merge, bookkeeping"},
		{"server.allocs_per_frame", "count", low, 0, "server", "server_cpu_ms_per_frame through GC"},
		{"tracking.extract_ms", "ms", low, 0, "tracking", "pose_ms_p50, server_cpu_ms_per_frame; replay_cluster more than solo_full; 0 on duo_split"},
		{"tracking.match_ms", "ms", low, 0, "tracking", "as tracking.extract_ms"},
		{"tracking.pose_predict_ms", "ms", low, 0, "tracking", "pose_ms_p50, server_cpu_ms_per_frame, all workloads"},
		{"tracking.search_local_ms", "ms", low, 0, "tracking", "pose_ms_p50, server_cpu_ms_per_frame, all workloads"},
		{"tracking.total_ms", "ms", low, 0, "tracking", "pose_ms_p50, server_cpu_ms_per_frame, all workloads"},
		{"trackpool.queue_ms", "ms", low, 0, "trackpool", "pose.p95_ms on duo_split (two sessions)"},
		{"trackpool.busy_ms", "ms", low, 0, "trackpool", "server_cpu_ms_per_frame"},
		{"trackpool.batches", "count", low, 0, "trackpool", "trackpool.queue_ms"},
		{"merge.total_ms", "ms", low, 0, "merge", "pose.p95_ms (one frame), never p50; duo_split"},
		{"merge.detect_ms", "ms", low, 0, "merge", "as merge.total_ms"},
		{"merge.ba_ms", "ms", low, 0, "merge", "as merge.total_ms"},
		{"merge.fused_points", "count", high, 0, "merge", "nothing; sanity"},
		{"smap.keyframes", "count", low, 0, "smap", "nothing; repeats exactly on single-session passes"},
		{"smap.mappoints", "count", low, 0, "smap", "nothing; repeats exactly on single-session passes"},
		{"trace.frame_ms", "ms", low, 0, "trace", "the traced frames' own median, to set the rows above against"},
		{"trace.unaccounted_ms", "ms", low, 0, "trace", "must stay under 15 % of pose_ms_p50"},
		{"trace.overhead_pct", "%", low, 0, "trace", "traced against untraced frames of one run; must stay near 0"},
		{"host.calib_ms", "ms", low, 0, "host", "nothing in the repository; moves only when the machine does"},
		{"host.exposure_pct", "%", low, 0, "host", "nothing in the repository; how much of the cores neighbours took during the run"},
	}
	for _, k := range [][4]string{
		{"dataset.render", "ms", "dataset", "nothing; camera stand-in"},
		{"video.encode_eye", "ms", "video", "video.encode_ms"},
		{"video.decode_eye", "ms", "video", "server.other_ms"},
		{"img.pyramid", "ms", "img", "tracking.extract_ms"},
		{"feature.extract", "ms", "feature", "tracking.extract_ms; client.build_ms on duo_split"},
		{"feature.stereo_match", "ms", "feature", "tracking.match_ms; client.build_ms on duo_split"},
		{"tracking.process_extracted", "ms", "tracking", "tracking.pose_predict_ms + tracking.search_local_ms"},
		{"mapping.process_keyframe", "ms", "mapping", "server.other_ms; pose.p95_ms"},
		{"optimize.pose", "ms", "optimize", "tracking.pose_predict_ms, tracking.search_local_ms"},
		{"bow.query", "us", "bow", "merge.detect_ms"},
		{"wire.encode_map", "ms", "wire", "persist checkpoints, shard handoff"},
		{"wire.decode_map", "ms", "wire", "recovery, shard handoff"},
		{"persist.journal_append", "us", "persist", "server.other_ms on duo_split"},
	} {
		defs = append(defs, kernelDefs(k[0], k[1], k[2], k[3])...)
	}
	return defs
}()

// spec renders BENCHMARK.json as this package defines the benchmark, so
// that the file at the root cannot drift from the code unnoticed.
func spec() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return nil, err
	}
	return []byte(sb.String()), nil
}
