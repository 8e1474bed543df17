"""One workload in its own process; `run.py` starts it and reads the last
line of its output, a JSON object.

The process starts cold, as a `hornalg` command-line user's does, and
each op starts with a cold canonical-key cache and a fresh `Evaluator`.
Modes:

  setup   import and set up once, and report how long that took.
  timed   set up, then repeat passes over the op population in seeded
          orders until --seconds have passed; report every sample.
  pass    set up once and run one pass (the untraced side of a traced run).
  traced  the same with the layer wrappers of tracing.py installed.
  runaway run the known runaway op once under --limit.
  pins    run every op once and print its outcome, for pins.json.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from hornalg import syntax  # noqa: E402
from hornalg.errors import BudgetError  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from refkernel import time_kernel  # noqa: E402

_IMPORT_S = time.perf_counter() - _START

OP_LIMIT_S = 10.0
PINS = HERE / "pins.json"


class OpTimeout(Exception):
    """Raised in the main thread by SIGALRM when an op exceeds its limit."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def _canon_cache():
    """The engine's canonical-key LRU cache, if it still has one."""
    return getattr(syntax, "_canonicalize", None)


class Runner:
    """Runs ops, judges their outcomes, and keeps per-op samples."""

    def __init__(self, pins: dict, limit: float, tracer=None):
        self.pins = pins
        self.limit = limit
        self.tracer = tracer
        self.samples: dict = {}  # op id -> list of (seconds, ru)
        self.attempted = 0
        self.failures: list = []
        self.kernel_s: list = []
        self.canon_hits = 0
        self.canon_misses = 0

    def call(self, op):
        cache = _canon_cache()
        if cache is not None:
            cache.cache_clear()
        if self.tracer:
            self.tracer.active = True
        signal.setitimer(signal.ITIMER_REAL, self.limit)
        start = time.perf_counter()
        try:
            result, exc = op.run(), None
        except Exception as e:  # judged below, like any other outcome
            result, exc = None, e
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start
            if self.tracer:
                self.tracer.active = False
        if cache is not None:
            info = cache.cache_info()
            self.canon_hits += info.hits
            self.canon_misses += info.misses
        return result, exc, elapsed

    def judge(self, op, result, exc, first: bool):
        """None when the outcome is right, else what went wrong."""
        if isinstance(exc, OpTimeout):
            return f"exceeded the {self.limit:g} s per-op limit"
        pin = self.pins.get(op.id)
        if pin is None:
            return "no pinned outcome"
        if exc is not None:
            if isinstance(exc, BudgetError) and pin == outcome_of(exc):
                return None
            return f"raised {type(exc).__name__}: {exc}"
        got = op.digest(result)
        if got != pin:
            return f"result digest {got} differs from pinned {pin}"
        return op.oracle(result) if first and op.oracle else None

    def run(self, op):
        before = time_kernel()
        result, exc, elapsed = self.call(op)
        after = time_kernel()
        self.kernel_s += (before, after)
        first = op.id not in self.samples
        self.samples.setdefault(op.id, []).append((elapsed, elapsed / ((before + after) / 2)))
        self.attempted += 1
        fault = self.judge(op, result, exc, first)
        if fault is not None:
            self.failures.append(f"{op.id}: {fault}")

    def latency_ru(self, op_id: str) -> float:
        return statistics.median(ru for _, ru in self.samples[op_id])

    def passes(self, ops, rng, deadline=None):
        """One pass in a seeded order; more until `deadline` when given.

        After the first pass, an op slower than twice the p90 latency is
        not repeated: more samples of it could barely move p50 or p90, and
        the time goes to the ops near them instead."""
        order = list(ops)
        while True:
            rng.shuffle(order)
            for op in order:
                self.run(op)
                if deadline is not None and len(self.samples) == len(ops) \
                        and time.perf_counter() >= deadline:
                    return
            if deadline is None:
                return
            latencies = [self.latency_ru(op.id) for op in ops]
            if len(latencies) >= 2:
                tail = 2 * statistics.quantiles(latencies, n=10)[8]
                order = [op for op in ops if self.latency_ru(op.id) <= tail]


def outcome_of(exc: BaseException) -> str:
    return f"raises:{type(exc).__name__}"


def peak_rss_mb() -> float:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def smoke_subset(ops: list) -> list:
    return [op for i, op in enumerate(sorted(ops, key=lambda o: o.id)) if i % 12 == 0]


def setup(workload: str, seed: int, smoke: bool, oracle_scope=contextlib.nullcontext) -> list:
    ops = workloads.SETUPS[workload](random.Random(seed), oracle_scope)
    # The inputs and oracles stay alive for the whole run; keep them out of
    # the collector's scans, which a one-shot command would not make.
    gc.freeze()
    return smoke_subset(ops) if smoke else ops


def setup_only(args) -> dict:
    start = time.perf_counter()
    setup(args.workload, args.seed, args.smoke)
    return {"setup_s": _IMPORT_S + time.perf_counter() - start, "import_s": _IMPORT_S}


def timed(args, pins) -> dict:
    ops = setup(args.workload, args.seed, args.smoke)
    runner = Runner(pins, args.limit)
    start = time.perf_counter()
    runner.passes(ops, random.Random(f"{args.seed}:{args.part}"),
                  deadline=start + args.seconds)
    return {
        "samples": runner.samples,
        "kernel_s": runner.kernel_s,
        "measure_wall_s": time.perf_counter() - start,
        "peak_rss_mb": peak_rss_mb(),
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures[:20],
    }


def one_pass(args, pins, traced: bool) -> dict:
    tracer = None
    scope = contextlib.nullcontext
    if traced:
        tracer = tracing.Tracer()
        tracing.install(tracer)

        @contextlib.contextmanager
        def scope():  # oracle preparation is not traced
            tracer.parsing = False
            try:
                yield
            finally:
                tracer.parsing = True

        tracer.parsing = True
    ops = setup(args.workload, args.seed, args.smoke, scope)
    if tracer:
        tracer.parsing = False
    runner = Runner(pins, args.limit, tracer)
    runner.passes(ops, random.Random(args.seed))
    out = {
        "op_wall_s": sum(s for v in runner.samples.values() for s, _ in v),
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures[:20],
    }
    if tracer:
        out["layers"] = tracing.layer_metrics(tracer, runner.canon_hits, runner.canon_misses)
    return out


def runaway(args) -> dict:
    runner = Runner({}, args.limit)
    runner.run(workloads.runaway_op())
    return {"attempted": runner.attempted, "failed": len(runner.failures),
            "failures": runner.failures}


def write_pins(args) -> dict:
    ops = setup(args.workload, args.seed, False)
    runner = Runner({}, args.limit)
    out = {}
    for op in ops:
        result, exc, _ = runner.call(op)
        if isinstance(exc, BudgetError):
            out[op.id] = outcome_of(exc)
        elif exc is not None:
            raise RuntimeError(f"{op.id} raised {exc!r}; refusing to pin it")
        else:
            fault = op.oracle(result) if op.oracle else None
            if fault:
                raise RuntimeError(f"{op.id} fails its oracle: {fault}")
            out[op.id] = op.digest(result)
    return {"pins": out}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.SETUPS), required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "pass", "traced", "runaway", "pins"),
                    required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--part", type=int, default=0, help="which of a run's timed processes")
    ap.add_argument("--limit", type=float, default=OP_LIMIT_S)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGALRM, _on_alarm)
    pins = json.loads(PINS.read_text())[args.workload] if PINS.exists() else {}
    if args.mode == "setup":
        out = setup_only(args)
    elif args.mode == "timed":
        out = timed(args, pins)
    elif args.mode in ("pass", "traced"):
        out = one_pass(args, pins, args.mode == "traced")
    elif args.mode == "runaway":
        out = runaway(args)
    else:
        out = write_pins(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
