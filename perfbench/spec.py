"""Declared workloads and metrics of the repository benchmark.

BENCHMARK.json at the repository root is generated from this file:

    python3 perfbench/spec.py > BENCHMARK.json

and test_perfbench.py checks that the two agree. The per-layer table also
records, for each layer metric, the end-to-end metric and workload it
should move (BENCHMARK.json has no field for that).
"""

import json
import sys

# batch_mixed (large frontier solves beside small ones, 2 threads per solve,
# tight memory budget) is not a gated workload: its run-to-run spread on a
# shared 4-core host reached the largest bound allowed. solo_large's traced
# run measures the batch-engine layer on batch_mixed-class batches instead.

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 20

WORKLOADS = [
    ("solo_large",
     "one client, large single solves over all four patterns plus a "
     "symmetry case, cpu/gpu/hetero x full/frontier: kernels, front runner, "
     "storage"),
    ("batch_small",
     "one client streams small lev/lcs/nw/sw/gotoh/dtw requests into one "
     "BatchEngine: admission, lane cohorts and schedule merge/packing"),
]

# name, unit, better, bound (share of the parent's median). Wall-clock
# metrics move 5-15% between runs on a shared 4-core host (quartile
# distance over seeds), so their bounds are the widest allowed; the
# simulated makespan is deterministic per seed and only varies with the
# seeded input sizes.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("throughput_solves_per_s", "1/s", "higher", 0.25),
    ("throughput_cells_per_s", "cells/s", "higher", 0.25),
    ("latency_ms_p50", "ms", "lower", 0.25),
    ("latency_ms_p90", "ms", "lower", 0.25),
    ("latency_ms_tail", "ms", "lower", 0.25),
    ("sim_makespan_ms", "ms", "lower", 0.06),
    ("peak_rss_mb", "MB", "lower", 0.2),
]

# name, unit, better, the end-to-end metric and workload it should move
PER_LAYER = [
    ("problems.kernel_ns_per_cell", "ns", "lower",
     "throughput_cells_per_s on solo_large; barely anything on batch_small"),
    ("problems.kernel_bytes_per_cell_computed", "bytes", "lower",
     "computed from the span shape, not measured; with kernel_ns_per_cell "
     "gives the roofline fraction"),
    ("problems.kernel_roofline_frac", "frac", "higher",
     "throughput_cells_per_s on solo_large"),
    ("core.front_runner.ns_per_cell", "ns", "lower",
     "latency_ms_p50 on solo_large"),
    ("core.lane_cohort.ns_per_cell", "ns", "lower",
     "throughput_solves_per_s on batch_small"),
    ("cpu.dispatch_us_per_front", "us", "lower",
     "latency_ms_p50 on solo_large"),
    ("cpu.span_overhead_ms", "ms", "lower",
     "latency_ms_p50 on solo_large"),
    ("cpu.parallel_speedup", "x", "higher",
     "latency_ms_p50 on solo_large"),
    ("tables.alloc_ms", "ms", "lower",
     "peak_rss_mb and latency_ms_p90 on solo_large"),
    ("tables.peak_table_mb", "MB", "lower", "peak_rss_mb on solo_large"),
    ("tables.checkpoint_rows", "count", "lower", "peak_rss_mb on solo_large"),
    ("tables.remat_bands", "count", "lower",
     "latency_ms_p90 on solo_large"),
    ("tables.remat_cells", "count", "lower", "latency_ms_p90 on solo_large"),
    ("tables.work_inflation", "frac", "lower",
     "latency_ms_p90 on solo_large"),
    ("tables.traceback_ms", "ms", "lower", "latency_ms_p90 on solo_large"),
    ("sim.ops", "count", "lower",
     "throughput_solves_per_s and latency_ms_tail on batch_small"),
    ("sim.ops_per_cell", "1/cell", "lower",
     "throughput_solves_per_s and latency_ms_tail on batch_small"),
    ("sim.merge_ms", "ms", "lower",
     "throughput_solves_per_s and latency_ms_tail on batch_small"),
    ("sim.merge_ns_per_op", "ns", "lower",
     "throughput_solves_per_s and latency_ms_tail on batch_small"),
    ("sim.cpu_busy_ms", "ms", "lower", "sim_makespan_ms on every workload"),
    ("sim.gpu_busy_ms", "ms", "lower", "sim_makespan_ms on every workload"),
    ("sim.dma_ms", "ms", "lower", "sim_makespan_ms on every workload"),
    ("sim.h2d_mb", "MB", "lower", "sim_makespan_ms on every workload"),
    ("sim.d2h_mb", "MB", "lower", "sim_makespan_ms on every workload"),
    ("core.framework.solve_ms", "ms", "lower",
     "latency_ms_p50 on solo_large"),
    ("core.batch_engine.submit_us_p50", "us", "lower",
     "throughput_solves_per_s and latency_ms_p50 on batch_small"),
    ("core.batch_engine.submit_us_p99", "us", "lower",
     "throughput_solves_per_s and latency_ms_p50 on batch_small"),
    ("core.batch_engine.wait_ms", "ms", "lower",
     "throughput_solves_per_s on batch_small"),
    ("core.batch_engine.lane_hit_rate", "frac", "higher",
     "throughput_solves_per_s on batch_small"),
    ("core.batch_engine.lane_occupancy", "frac", "higher",
     "throughput_solves_per_s on batch_small"),
    ("core.batch_engine.arena_hit_rate", "frac", "higher",
     "throughput_solves_per_s on batch_small"),
    ("core.batch_engine.packs", "count", "higher",
     "sim_makespan_ms on batch_small"),
    ("core.batch_engine.pack_saved_ms", "ms", "higher",
     "sim_makespan_ms on batch_small"),
    ("core.batch_engine.budget_deferrals", "count", "lower",
     "peak_rss_mb and latency_ms_tail of batch_mixed-class batches"),
    ("core.batch_engine.peak_inflight_table_mb", "MB", "lower",
     "peak_rss_mb and latency_ms_tail of batch_mixed-class batches"),
    ("host.stream_gb_s", "GB/s", "higher", "reference bound, moves nothing"),
    ("host.simd_gops", "Gop/s", "higher", "reference bound, moves nothing"),
    ("trace.overhead_frac", "frac", "lower",
     "tracing cost: traced minus untraced throughput, as a share"),
    ("trace.overhead_ms_p50", "ms", "lower",
     "tracing cost: traced minus untraced latency_ms_p50"),
]


def benchmark_json():
    """The BENCHMARK.json document, as a dict."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER
        ],
    }


if __name__ == "__main__":
    json.dump(benchmark_json(), sys.stdout, indent=2)
    sys.stdout.write("\n")
