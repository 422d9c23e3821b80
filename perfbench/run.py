#!/usr/bin/env python3
"""Repository benchmark: builds the benchmark binary from source, runs one
workload, checks every answer and prints its metrics.

    python3 perfbench/run.py --workload solo_large --seed 1 --trace 0

--workload is solo_large, batch_small or all (both in one process). --trace 0 prints the end-to-end metrics; --trace 1 runs a
separate traced phase and prints the per-layer metrics. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; the lines before it carry the provenance stanza and details
(percentile sample counts, failed_frac, self times). Build output goes to
standard error. The exit code is non-zero when any answer is wrong.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import spec  # noqa: E402


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return ROOT / target / "perfbench"


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not (ROOT / "src" / "core" / "framework.h").is_file():
        sys.exit("perfbench: library sources not found under src/")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed")
    return out / "perfbench"


def git_sha():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, check=True)
        lines = top.stdout.split()
        if Path(lines[0]).resolve() == ROOT:
            return lines[1]
    except (OSError, subprocess.CalledProcessError, IndexError):
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the library and benchmark sources (stands in for the
    git SHA in checkouts that are not repositories)."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(top.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def summarize(raw, trace):
    """(metrics, details) of one workload run."""
    units = metrics.units()
    if trace:
        values, details = metrics.per_layer(raw), {}
        details["self_ms"] = raw["self_ms"]
        details["spans"] = raw["spans"]
        details["trace_file"] = raw["trace_file"]
        details["host"] = raw["host"]
        details["sim.replay_makespan_ms"] = raw["layers"].get(
            "sim.replay_makespan_ms")
    else:
        values, counts = metrics.end_to_end(raw)
        details = {"samples": counts,
                   "tail_percentile": raw["tail_percentile"]}
    declared = [n for n, *_ in (spec.PER_LAYER if trace else spec.END_TO_END)]
    details["missing"] = [n for n in declared if n not in values]
    details["failed_frac"] = metrics.failure_fraction(raw["checks"])
    details["checks"] = raw["checks"]
    details["sim_stable"] = raw["phase"]["sim_stable"]
    out = {n: {"value": values[n], "unit": units[n]}
           for n in declared if n in values}
    return out, details


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--units", type=int, default=0,
                    help="run exactly this many units instead of timing")
    ap.add_argument("--corrupt-answer", type=int, default=-1,
                    help="flip one collected answer (tests the check)")
    args = ap.parse_args()
    names = [n for n, _ in spec.WORKLOADS]
    if args.workload not in names + ["all"]:
        sys.exit(f"perfbench: unknown workload {args.workload}")

    binary = build()
    out_dir = ROOT / ".bench_out"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--units", str(args.units), "--out", str(out_dir),
           "--corrupt-answer", str(args.corrupt_answer)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: benchmark binary failed ({proc.returncode})")
    runs = json.loads(lines[-1])["runs"]

    sha, digest = git_sha(), source_digest()
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for raw in runs:
        prov = dict(raw["provenance"])
        prov.update({"git_sha": sha, "source_sha256": digest,
                     "seed": args.seed, "workload": raw["workload"],
                     "inputs_digest": raw["inputs_digest"],
                     "requests": {"per_unit": raw["unit_requests"],
                                  "units": raw["phase"]["units"],
                                  "attempted": raw["checks"]["attempted"]}})
        values, details = summarize(raw, args.trace == 1)
        checks = raw["checks"]
        ok = (checks["mismatches"] == 0 and details["sim_stable"]
              and checks.get("probe_failed", 0) == 0)
        result["correct"] = result["correct"] and ok
        result["attempted"] += checks["attempted"]
        result["failed"] += metrics.failed_count(checks)
        if len(runs) > 1:
            values = {f"{raw['workload']}.{k}": v for k, v in values.items()}
        result["metrics"].update(values)
        print(json.dumps({"provenance": prov}))
        print(json.dumps({"workload": raw["workload"], "details": details}))
        out_dir.mkdir(exist_ok=True)
        record = out_dir / (f"result-{raw['workload']}-{args.seed}"
                            f"-trace{args.trace}.json")
        record.write_text(json.dumps({"provenance": prov, "metrics": values,
                                      "details": details, "raw": raw}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
