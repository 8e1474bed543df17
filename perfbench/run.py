"""Benchmark of hornalg's four workloads: solve, closure, model and query.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table
    python3 perfbench/run.py --workload query --trace 1   # per-layer metrics
    python3 perfbench/run.py --self-test               # short smoke of each workload
    python3 perfbench/run.py --write-pins              # re-pin expected outcomes

Each workload runs in fresh child processes (child.py) with a pinned
PYTHONHASHSEED.  The last line of output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it print
every metric by name with its unit, and the provenance of the run.  See
README.md for the workloads, the metrics and why they were chosen.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
RESULTS = HERE / "results"
WORKLOADS = ("solve", "closure", "model", "query")
HASH_SEED = "0"
TIMED_PROCESSES = 2
SETUPS_PER_GAP = 2
RUN_BUDGET_S = 170.0  # a run must end within 180 s
RUNAWAY_LIMIT_S = 2.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    return json.loads(path.read_text())


def units(spec: dict, section: str) -> dict:
    return {m["name"]: m["unit"] for m in spec[section]}


def child(workload: str, mode: str, seed: int, deadline: float, flags=()) -> dict:
    """Run one child process to completion and return its JSON result."""
    cmd = [sys.executable, str(CHILD), "--workload", workload, "--mode", mode,
           "--seed", str(seed), *flags]
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for the {mode} process of {workload}")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"{workload} {mode} process ran out of time") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int) -> dict:
    return {
        "commit": git_commit(),
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "pythonhashseed": HASH_SEED,
    }


def hd_quantile(values: list, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics, weighted by a Beta(p(n+1), (1-p)(n+1)) density integrated
    over each one's share of [0, 1].  With 110-200 ops the plain p90 moved
    by up to 15% whenever two neighbouring ops swapped ranks."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64  # midpoint rule per order statistic
    weights = []
    for i in range(n):
        xs = ((i + (j + 0.5) / steps) / n for j in range(steps))
        weights.append(sum(math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
                           for x in xs))
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def p50_p90(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    return hd_quantile(values, 0.5), hd_quantile(values, 0.9)


def timed_run(workload: str, seed: int, seconds: float, deadline: float, smoke: bool):
    """End-to-end metrics, with tracing off.

    The measuring time is split over TIMED_PROCESSES fresh processes, and
    set-up is timed in fresh processes before, between and after them, so
    each median spans several processes and several of the host's speed
    phases.  An op's latency is the median of its samples; p50 and p90
    are taken over the ops."""
    flags = ["--smoke"] if smoke else []
    parts = 1 if smoke else TIMED_PROCESSES
    setups, runs = [], []
    for part in range(parts + 1):
        setups += [child(workload, "setup", seed, deadline, flags)
                   for _ in range(1 if smoke else SETUPS_PER_GAP)]
        if part < parts:
            runs.append(child(workload, "timed", seed, deadline,
                              flags + ["--seconds", str(seconds / parts), "--part", str(part)]))
    samples: dict = {}
    for run in runs:
        for op_id, values in run["samples"].items():
            samples.setdefault(op_id, []).extend(values)
    per_op_s = [statistics.median(s for s, _ in v) for v in samples.values()]
    p50_ru, p90_ru = p50_p90([statistics.median(r for _, r in v) for v in samples.values()])
    p50_s, p90_s = p50_p90(per_op_s)
    kernel_ms = sorted(1000 * k for run in runs for k in run["kernel_s"])
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "op_p50_ru": p50_ru,
        "op_p90_ru": p90_ru,
        "peak_rss_mb": max(run["peak_rss_mb"] for run in runs),
    }
    context = {
        "failed_ratio": failed / attempted,
        "op_p50_ms": p50_s * 1000,
        "op_p90_ms": p90_s * 1000,
        "ops_per_s": len(per_op_s) / sum(per_op_s),  # one pass at median latencies
        "ref_kernel_ms": {"median": statistics.median(kernel_ms),
                          "min": kernel_ms[0], "max": kernel_ms[-1]},
        "distinct_ops": len(samples),
        "measure_wall_s": sum(run["measure_wall_s"] for run in runs),
        "setup_samples_s": [s["setup_s"] for s in setups],
        "import_s": statistics.median(s["import_s"] for s in setups),
    }
    failures = [f for run in runs for f in run["failures"]]
    return metrics, context, attempted, failed, failures


def traced_run(workload: str, seed: int, deadline: float, smoke: bool, spec: dict):
    """Per-layer metrics from two traced passes, and the overhead against
    one untraced pass; every count must agree between the traced passes."""
    flags = ["--smoke"] if smoke else []
    plain = child(workload, "pass", seed, deadline, flags)
    traced = [child(workload, "traced", seed, deadline, flags) for _ in range(2)]
    first, second = traced[0]["layers"], traced[1]["layers"]
    layer_units = units(spec, "per_layer")
    unstable = [name for name in first  # timings ("s", "s/s") may differ, counts not
                if layer_units.get(name) not in ("s", "s/s") and first[name] != second[name]]
    metrics = dict(first)
    metrics["trace.overhead_ratio"] = traced[0]["op_wall_s"] / plain["op_wall_s"]
    runs = [plain] + traced
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    failures += [f"count {name} differs between traced runs: {first[name]} vs {second[name]}"
                 for name in unstable]
    context = {"failed_ratio": failed / attempted, "counts_identical": not unstable,
               "untraced_op_wall_s": plain["op_wall_s"],
               "traced_op_wall_s": [t["op_wall_s"] for t in traced]}
    return metrics, context, attempted, failed, failures


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float,
                 spec: dict, smoke: bool = False) -> dict:
    if trace:
        metrics, context, attempted, failed, failures = traced_run(
            workload, seed, deadline, smoke, spec)
    else:
        metrics, context, attempted, failed, failures = timed_run(
            workload, seed, seconds, deadline, smoke)
    section = "per_layer" if trace else "end_to_end"
    metric_units = units(spec, section)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": metric_units.get(name, "?")}
                    for name, value in metrics.items()},
    }
    for name, value in metrics.items():
        print(f"{workload:8} {name:34} {value:14.6g} {metric_units.get(name, '?')}")
    print(f"{workload:8} {'failed_ratio':34} {context['failed_ratio']:14.6g} ratio")
    for line in failures[:10]:
        print(f"{workload:8} FAILED {line}", file=sys.stderr)
    record = {"workload": workload, "trace": int(trace), "provenance": provenance(seed),
              "context": context, "failures": failures, "result": result}
    print("provenance: " + json.dumps({**record["provenance"], **context}))
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return result


def self_test(spec: dict) -> list:
    """Smoke each workload in both modes and check the runaway limit;
    returns the problems found."""
    problems = []
    wanted = {0: {m["name"] for m in spec["end_to_end"]},
              1: {m["name"] for m in spec["per_layer"]}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            deadline = time.monotonic() + RUN_BUDGET_S
            result = run_workload(workload, 1, 0.0, bool(trace), deadline, spec, smoke=True)
            names = set(result["metrics"])
            if names != wanted[trace]:
                problems.append(f"{workload} trace {trace}: metrics differ from BENCHMARK.json: "
                                f"{sorted(names ^ wanted[trace])}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{workload} trace {trace}: {result['failed']} failed ops")
    out = child("model", "runaway", 1, time.monotonic() + RUN_BUDGET_S,
                ["--limit", str(RUNAWAY_LIMIT_S)])
    if out["failed"] != 1 or "per-op limit" not in out["failures"][0]:
        problems.append(f"runaway op was not recorded as over the limit: {out}")
    print(f"runaway tree-d3 under a {RUNAWAY_LIMIT_S:g} s limit: {out['failures']}")
    return problems


def write_pins() -> None:
    pins = {}
    for workload in WORKLOADS:
        out = child(workload, "pins", 0, time.monotonic() + 1800)
        pins[workload] = out["pins"]
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark hornalg's workloads.")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="measuring time per run "
                    "(default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--write-pins", action="store_true")
    args = ap.parse_args(argv)
    try:
        if not (ROOT / "src" / "hornalg" / "__init__.py").is_file():
            raise BenchError(f"no hornalg sources under {ROOT / 'src'}")
        spec = load_spec()
        if args.write_pins:
            write_pins()
            return 0
        if args.self_test:
            problems = self_test(spec)
            for p in problems:
                print("SELF-TEST FAILED: " + p, file=sys.stderr)
            print("self-test " + ("failed" if problems else "passed"))
            return 1 if problems else 0
        if args.workload is None:
            ap.error("--workload is required")
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        if args.workload == "all":
            results = {}
            for workload in WORKLOADS:
                deadline = time.monotonic() + RUN_BUDGET_S
                results[workload] = run_workload(workload, args.seed, seconds, bool(args.trace),
                                                 deadline, spec)
            print(json.dumps(results))
            return 0 if all(r["correct"] for r in results.values()) else 1
        deadline = time.monotonic() + RUN_BUDGET_S
        result = run_workload(args.workload, args.seed, seconds, bool(args.trace), deadline, spec)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
