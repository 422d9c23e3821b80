"""Turns the benchmark binary's raw measurements into named metrics."""

import math
import statistics

import spec

# Percentiles are reported only with at least this many samples beyond them.
MIN_BEYOND = 10


def tail_percentile(samples, q, min_beyond=MIN_BEYOND):
    """Nearest-rank q-quantile of `samples` and the sample count, or None
    when fewer than `min_beyond` samples lie beyond it."""
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))
    if n - rank < min_beyond:
        return None
    return sorted(samples)[rank - 1], n


def grouped_percentile(latencies, unit_samples, q):
    """Median over groups of consecutive units of each group's q-quantile,
    and the sample count. A group takes whole units until it holds enough
    samples for MIN_BEYOND of them to lie beyond the quantile; leftover
    units join the last group. None when no group is large enough."""
    need = math.ceil(round(MIN_BEYOND / (1.0 - q), 9))
    groups, start, size = [], 0, 0
    for count in unit_samples:
        size += int(count)
        if size >= need:
            groups.append((start, start + size))
            start, size = start + size, 0
    if not groups:
        return None
    groups[-1] = (groups[-1][0], len(latencies))
    got = [tail_percentile(latencies[a:b], q) for a, b in groups]
    got = [g[0] for g in got if g is not None]
    if not got:
        return None
    return statistics.median(got), len(latencies)


def failure_fraction(checks):
    """Failed, refused or wrong-answer requests over requests attempted."""
    return failed_count(checks) / max(1, checks["attempted"])


def failed_count(checks):
    return (checks["exceptions"] + checks["refused"] + checks["mismatches"]
            + checks.get("probe_failed", 0))


def solves_per_s(phase):
    """Median over units of each unit's completed solves per wall second."""
    return statistics.median(
        n / w for n, w in zip(phase["unit_solves"], phase["unit_wall_s"]))


def end_to_end(raw):
    """Every end-to-end metric of one untraced workload run, plus the
    percentile sample counts: ({name: value}, {name: samples})."""
    phase = raw["phase"]
    rate = solves_per_s(phase)
    values = {
        "setup_s": statistics.median(raw["setup_s"]),
        "throughput_solves_per_s": rate,
        "throughput_cells_per_s": rate * phase["cells"] / phase["solves"],
        "sim_makespan_ms": phase["sim_makespan_ms"],
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    counts = {}
    for name, q in (("latency_ms_p50", 0.50), ("latency_ms_p90", 0.90),
                    ("latency_ms_tail", raw["tail_percentile"])):
        got = grouped_percentile(phase["latency_ms"], phase["unit_samples"],
                                 q)
        if got is not None:
            values[name], counts[name] = got
    return values, counts


def per_layer(raw):
    """Every per-layer metric of one traced workload run."""
    declared = [name for name, *_ in spec.PER_LAYER]
    values = {k: v for k, v in raw["layers"].items() if k in declared}
    for q, name in ((0.50, "core.batch_engine.submit_us_p50"),
                    (0.99, "core.batch_engine.submit_us_p99")):
        got = tail_percentile(raw["submit_us"], q)
        if got is not None:
            values[name] = got[0]
    untraced, traced = raw["phase"], raw["traced_phase"]
    values["trace.overhead_frac"] = (
        1.0 - solves_per_s(traced) / solves_per_s(untraced))
    p50 = grouped_percentile(untraced["latency_ms"],
                             untraced["unit_samples"], 0.5)
    traced_p50 = grouped_percentile(traced["latency_ms"],
                                    traced["unit_samples"], 0.5)
    if p50 is not None and traced_p50 is not None:
        values["trace.overhead_ms_p50"] = traced_p50[0] - p50[0]
    return values


def units():
    """Unit of every declared metric, by name."""
    out = {name: unit for name, unit, *_ in spec.END_TO_END}
    out.update({name: unit for name, unit, *_ in spec.PER_LAYER})
    return out
