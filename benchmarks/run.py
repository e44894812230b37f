"""Benchmark of the blockspin package: one closed-loop client in one process.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload flow --seed 0 --seconds 26 --trace 0

The last line of standard output is the result as one JSON object; the line
before it records the environment and details of the run.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
SETUP_RUNS = 3
SETUP_TIMEOUT_S = 120
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
TAIL_BEYOND = 10
#: a request fails when it raises one of these, returns converged=False, or fails its check
REQUEST_ERRORS = (RuntimeError, ValueError, ArithmeticError)

E2E_UNITS = {
    "setup_s": "s",
    "throughput_rps": "req/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "completed_frac": "1",
    "peak_rss_mb": "MB",
}


def pin_threads() -> dict[str, str]:
    """Run BLAS/OpenMP single-threaded; must happen before numpy loads.

    The fiber matrices here are at most a few hundred rows, where a second
    BLAS thread costs more than it saves, and a thread pool that waits on a
    core another process holds makes wall times swing from run to run.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_VARS}


def environment(seed: int, pins: dict) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    digest = hashlib.sha256()
    for path in sorted((SRC / "blockspin").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_pins": pins,
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


class RequestStream:
    """Requests 0, 1, 2, ... of a workload for one seed, generated a deck at a time."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.requests = []
        self[0]  # the first deck, before any timing

    def __getitem__(self, i: int):
        deck = len(self.workload.slots)
        while i >= len(self.requests):  # between decks, outside any request's time
            start = len(self.requests)
            self.requests.extend(self.workload.request(self.seed, j) for j in range(start, start + deck))
        return self.requests[i]


@dataclass(slots=True)
class Record:
    request: object
    latency: float
    outcome: str  # "ok", or why the request failed
    result: object


def execute(workload, req) -> Record:
    start = perf_counter()
    try:
        result, converged = workload.execute(req)
        outcome = "ok" if converged else "unconverged"
    except REQUEST_ERRORS as exc:
        result, outcome = None, f"raised {type(exc).__name__}: {exc}"
    return Record(req, perf_counter() - start, outcome, result)


def check(workload, records) -> None:
    """Check every completed result; a wrong one becomes a failed request."""
    for rec in records:
        if rec.outcome == "ok":
            reason = workload.check(rec.request, rec.result)
            if reason is not None:
                rec.outcome = f"check failed: {reason}"
        rec.result = None


def ranked_latencies(records) -> list[float]:
    """Latencies in seconds, ascending, with failed requests ranked slowest.

    A failed request counts as missing any latency limit; it takes the
    latency of the slowest completed request (or, with none completed, of the
    slowest attempted one) so that every percentile reads as a number.
    """
    done = sorted(r.latency for r in records if r.outcome == "ok")
    ceiling = done[-1] if done else max(r.latency for r in records)
    return done + [ceiling] * (len(records) - len(done))


def harrell_davis(ranked: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile of ascending values.

    A beta-weighted mean of the order statistics around rank q*n: with a few
    dozen requests of mixed kinds, the plain order statistic jumps by a whole
    gap between neighbouring requests when one of them jitters.
    """
    import numpy as np
    from scipy.special import betainc

    n = len(ranked)
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    edges = betainc(a, b, np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), ranked))


def latency_summary(records) -> dict:
    n = len(records)
    ranked = ranked_latencies(records)
    completed = sum(r.outcome == "ok" for r in records)
    tail_q = (n - TAIL_BEYOND) / n if n > TAIL_BEYOND else 1.0
    return {
        "requests": n,
        "completed": completed,
        "p50_s": harrell_davis(ranked, 0.5),
        "tail_s": harrell_davis(ranked, tail_q) if tail_q < 1.0 else ranked[-1],
        "tail_percentile": 100.0 * tail_q,
        "tail_in_failed_block": n - TAIL_BEYOND > completed,
    }


def failure_summary(records) -> dict:
    """Count of each distinct (kind, reason) among the failed requests."""
    return dict(Counter(f"{r.request.kind}: {r.outcome.splitlines()[0][:160]}" for r in records if r.outcome != "ok"))


def setup_times(workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that import, generate inputs and warm up."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_RUNS):
        start = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              timeout=SETUP_TIMEOUT_S)
        times.append(perf_counter() - start)
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed with code {proc.returncode}:\n{proc.stderr}")
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def run_plain(workload, stream, seconds: float):
    """Closed loop over whole decks, starting a new deck while under ``seconds``."""
    records = []
    deck = len(workload.slots)
    start = perf_counter()
    while perf_counter() - start < seconds:
        for _ in range(deck):
            records.append(execute(workload, stream[len(records)]))
    return records, perf_counter() - start


def run_traced(workload, stream, seconds: float, tracer, installed):
    """As run_plain, but each request runs untraced and traced, alternating which goes first."""
    plain, traced = [], []
    deck = len(workload.slots)
    start = perf_counter()
    while perf_counter() - start < seconds:
        for _ in range(deck):
            i = len(traced)
            req = stream[i]
            for traced_now in ((False, True) if i % 2 == 0 else (True, False)):
                if traced_now:
                    tracer.request = i
                    with installed(tracer):
                        traced.append(execute(workload, req))
                else:
                    plain.append(execute(workload, req))
    return plain, traced


def result_line(correct: bool, records, metrics: dict, units: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": len(records),
            "failed": sum(r.outcome != "ok" for r in records),
            "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("flow", "solve", "spectrum"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "blockspin" / "__init__.py").is_file():
        print(f"benchmark: no package source at {SRC / 'blockspin'}", file=sys.stderr)
        return 2
    pins = pin_threads()
    setup = None if args.setup_probe or args.trace else setup_times(args.workload, args.seed)

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import blockspin

    if Path(blockspin.__file__).resolve().parent != (SRC / "blockspin").resolve():
        print(f"benchmark: imported blockspin from {blockspin.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    from workloads import WORKLOADS

    warnings.simplefilter("ignore")
    workload = WORKLOADS[args.workload]
    stream = RequestStream(workload, args.seed)
    warm = execute(workload, workload.warmup())
    if warm.outcome != "ok":
        print(f"benchmark: warm-up request failed: {warm.outcome}", file=sys.stderr)
        return 3
    if args.setup_probe:
        return 0

    if args.trace:
        tracer = tracing.Tracer()
        plain, records = run_traced(workload, stream, args.seconds, tracer, tracing.installed)
    else:
        plain, (records, wall) = [], run_plain(workload, stream, args.seconds)
    rss = peak_rss_mb()
    check(workload, plain + records)
    correct = not any(r.outcome.startswith("check failed") for r in plain + records)

    detail = {"workload": args.workload, "trace": args.trace, "latency": latency_summary(records),
              "failures": failure_summary(records)}
    if args.trace:
        overhead = sum(r.latency for r in records) / sum(r.latency for r in plain) - 1.0
        metrics = tracing.layer_metrics(tracer, len(records), overhead)
        units = tracing.per_layer_units()
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans_{args.workload}_seed{args.seed}.jsonl"
        tracer.write(spans_path)
        detail["spans"] = {"count": len(tracer.spans), "file": str(spans_path.relative_to(ROOT))}
        detail["untraced_check"] = failure_summary(plain)
    else:
        lat = detail["latency"]
        metrics = {
            "setup_s": statistics.median(setup),
            "throughput_rps": lat["completed"] / wall,
            "latency_p50_ms": 1e3 * lat["p50_s"],
            "latency_tail_ms": 1e3 * lat["tail_s"],
            "completed_frac": lat["completed"] / lat["requests"],
            "peak_rss_mb": rss,
        }
        units = E2E_UNITS
        detail["setup_runs_s"] = setup
        detail["wall_s"] = wall
    print(json.dumps({"env": environment(args.seed, pins), "detail": detail}))
    print(result_line(correct, records, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
