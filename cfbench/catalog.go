package main

// scope is the set of workloads a metric is defined on.
type scope uint8

const (
	onPeerSim scope = 1 << iota
	onCloud100k
	onStream
	onBigWorld

	onSim  = onPeerSim | onCloud100k
	onLive = onStream | onBigWorld
	onAll  = onSim | onLive
)

type metricDef struct {
	name  string
	unit  string
	scope scope
}

// gateMetrics are the end-to-end metrics BENCHMARK.json bounds. Each is
// defined, non-zero and measured on every workload, so a regression on any
// workload shows in the same name. Where the two halves of the system
// count work differently, "work" is a player-subcycle in the simulator
// and a video frame delivered to a player in the live prototype.
//
// Wall-clock throughput (sim_playerticks_per_s, delivered_fps) is printed
// but not bounded: on the shared 2-vCPU machine the benchmark was defined
// on, host CPU steal of 0-26% moved the simulator's throughput by up to 2x
// between runs, while CPU per unit of work stayed within the bound.
var gateMetrics = []metricDef{
	// Median set-up cost, in process CPU seconds (getrusage user+sys):
	// NewSystem for the simulator; NewCloudServer through the last
	// NewFogNode (replica seeded) for the prototype. CPU rather than wall
	// time because host steal moved the wall-clock median by a quarter
	// between sets of runs; setup_wall_s is printed beside it.
	{"setup_s", "s", onAll},
	// The largest live heap a full collection finds at the run's fixed
	// checkpoints (runtime/metrics /gc/heap/live:bytes).
	{"heap_peak_mb", "MB", onAll},
	// Process CPU (getrusage user+sys) per unit of work: per
	// player-subcycle inside Run, or per delivered frame
	// (cpu_ms_per_frame × 1000).
	{"cpu_us_per_work", "us", onAll},
}

// qoeMetrics are the user-facing end-to-end metrics, each on the workloads
// that have it. Every run prints them (n/a outside their scope); they are
// not bounded in BENCHMARK.json because a bound needs a value on every
// workload.
var qoeMetrics = []metricDef{
	{"setup_s", "s", onAll},
	{"setup_wall_s", "s", onAll},
	{"sim_playerticks_per_s", "1/s", onSim},
	{"heap_peak_mb", "MB", onAll},
	{"join_ms_p50", "ms", onBigWorld},
	{"join_ms_p90", "ms", onBigWorld},
	{"first_frame_ms_p50", "ms", onBigWorld},
	{"first_frame_ms_p90", "ms", onBigWorld},
	{"delivered_fps", "1/s", onLive},
	{"frame_gap_ms_p99", "ms", onLive},
	{"cpu_ms_per_frame", "ms", onLive},
	{"cloud_kbps_per_player", "kbps", onLive},
	{"video_kbps_per_player", "kbps", onLive},
	{"failed_frac", "frac", onAll},
}

// layerMetrics are the per-layer metrics of a traced run, named
// <module>.<metric>. Suffixes: _ns_pt is CPU per player-subcycle, _s per
// NewSystem, _ms_frame CPU per delivered frame, _ms_tick CPU per cloud
// tick. Which end-to-end metric each should move, and on which workload,
// is recorded in spec.json.
var layerMetrics = []metricDef{
	{"core.eval_compute_ns_pt", "ns", onSim},
	{"core.eval_apply_ns_pt", "ns", onSim},
	{"core.join_leave_ns_pt", "ns", onSim},
	{"core.provision_ns_pt", "ns", onSim},
	{"core.assignment_ns_pt", "ns", onSim},
	{"core.tick_other_ns_pt", "ns", onSim},
	{"core.cpu_util", "frac", onSim},
	{"core.allocs_pt", "count", onSim},
	{"core.alloc_bytes_pt", "B", onSim},
	{"cloudinfra.self_ns_pt", "ns", onSim},
	{"social.self_ns_pt", "ns", onSim},
	{"rng.self_ns_pt", "ns", onSim},
	{"stats.self_ns_pt", "ns", onSim},
	{"netmodel.self_ns_pt", "ns", onSim},
	{"fog.self_ns_pt", "ns", onSim},
	{"selection.self_ns_pt", "ns", onSim},
	{"adaptation.self_ns_pt", "ns", onSim},
	{"reputation.self_ns_pt", "ns", onSim},
	{"streaming.self_ns_pt", "ns", onSim},
	{"assignment.self_ns_pt", "ns", onSim},
	{"social.build_s", "s", onSim},
	{"rng.build_s", "s", onSim},
	{"core.build_other_s", "s", onSim},
	{"runtime.gc_ns_pt", "ns", onSim},
	{"runtime.gc_cycles", "1/s", onAll},
	{"virtualworld.snapshot_ms_frame", "ms", onLive},
	{"virtualworld.step_ms_tick", "ms", onLive},
	{"virtualworld.self_ms_frame", "ms", onLive},
	{"render.ms_frame", "ms", onLive},
	{"videocodec.encode_ms_frame", "ms", onLive},
	{"videocodec.decode_ms_frame", "ms", onLive},
	{"protocol.self_ms_frame", "ms", onLive},
	{"transport.self_ms_frame", "ms", onLive},
	{"fognet.self_ms_frame", "ms", onLive},
	{"runtime.gc_ms_frame", "ms", onLive},
	{"runtime.syscall_ms_frame", "ms", onLive},
	{"other_ms_frame", "ms", onLive},
	{"fognet.join_reply_ms_p50", "ms", onBigWorld},
	{"fognet.attach_ms_p50", "ms", onBigWorld},
	{"fognet.first_frame_wait_ms_p50", "ms", onBigWorld},
	{"fognet.fog_keyframes_per_join", "count", onBigWorld},
	{"fognet.tick_to_frame_ms_p50", "ms", onLive},
	{"fognet.tick_to_frame_ms_p99", "ms", onLive},
	{"transport.update_bytes_per_tick", "B", onLive},
	{"transport.update_write_us_p99", "us", onLive},
	{"transport.update_lag_ms_p99", "ms", onLive},
	{"fognet.fog_cell_batches_per_tick", "count", onBigWorld},
	{"fognet.cloud_tick_rate_frac", "frac", onLive},
	{"fognet.cloud_send_queue_drops", "count", onLive},
	{"fognet.fog_stale_deltas", "count", onLive},
	{"fognet.player_stall_ms", "ms", onLive},
	{"fognet.player_decode_errors", "count", onLive},
	{"transport.dgram_frames_frac", "frac", onBigWorld},
	{"transport.dgram_lost_frac", "frac", onBigWorld},
	{"transport.dgram_stale", "count", onBigWorld},
	{"transport.dgram_fallbacks", "count", onBigWorld},
	{"bench.gen_late_ms_p99", "ms", onBigWorld},
}
