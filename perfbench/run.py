"""End-to-end and per-layer benchmark of ``ncerg run --suite full``.

    python3 perfbench/run.py --workload default --seed 1 --seconds 30 --trace 0

One operation is one in-process ``ncerg.cli.main(["run", "--config", cfg,
"--suite", "full", "--out", <fresh dir>, "--seed", seed])``, run in a closed
loop: the next invocation starts when the previous one has returned.  The
invocations run in fresh interpreters (``worker.py``) started one after
another, never two at once, so import cost and peak memory belong to the
workload and the samples span several processes.  ``NCERG_THREADS`` is
removed from the workers' environment and OpenBLAS runs on one thread
(README.md says why).

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (see ``tracer.py``).  Every invocation must
exit 0, record a passing full run, and write a tree byte-identical to the
first invocation of the run; traced invocations must also repeat each
other's counts exactly.  Human-readable lines come first; the last line of
standard output is the JSON result.

Every time is rescaled to a reference host speed.  The shared host's speed
drifts by tens of percent over minutes, so each worker times a fixed
calibration workload (``worker.calibrate``, which does not call ``ncerg``)
right after import and after every invocation, and a time ``t`` measured
next to calibration runs of ``c`` seconds on average is reported as
``t * CALIBRATION_REF_S / c``: seconds on a host where the calibration takes
``CALIBRATION_REF_S``.  A change to the program moves the reported times as
much as the wall times; a change of host speed cancels out.  The raw wall
times and the calibration time are printed above the result.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402

# Each workload is a config for `ncerg run --suite full`; the benchmark seed
# is written into it and passed as --seed.  All use the unitary_flow variant
# and the default weight unless noted.
WORKLOADS: dict[str, dict] = {
    # What users run: the default config, blocks (2,4), n_random=20.  Bound by
    # small-matrix overhead in algebra and bau (SVD operator norms, Projection
    # validation, proj_meet); propagate_stack is about a ninth of a run.
    "default": {},
    # Propagator-bound: at blocks (8,16) the unoptimised 3-operand einsum of
    # UnitaryFlow grows as O(t n^4) and propagate_stack is three quarters of
    # a run; choi_blocks adds validation cost.  Counts are cut and the blocks
    # kept below (10,20) (12 s, 83% propagator) so a run holds four or more
    # invocations; the full (16,32) size took 75 s even at reduced counts.
    "large-unitary": {"blocks": [8, 16], "n_random": 2, "weighted_cases": 8, "T_n": 24},
    # The same propagator layer used differently: GeneratorExp runs expm on
    # a cache miss and reads its per-t cache on a hit (about 0.8 of calls hit);
    # n_random sets how much the inputs share.  A cache or closed-form change
    # shows here as a trade between time and memory.
    "lindblad": {
        "blocks": [3, 6],
        "semigroup": {"variant": "generator_exp"},
        "n_random": 4,
        "weighted_cases": 16,
    },
}

SLOT_S_SHARE = 3  # a sampling process aims for seconds / SLOT_S_SHARE of invocations
SETUP_SAMPLES = 4  # import-only processes per untraced run, besides the sampling ones
WORKER_GRACE_S = 120.0  # a worker may overrun its budget by this much
STANDARD_PERCENTILES = (50, 75, 90, 95, 99, 99.9)
CALIBRATION_REF_S = 0.25  # calibration seconds at the reference host speed


class BenchmarkError(RuntimeError):
    """The benchmark cannot measure this checkout."""


def spawn(spec: dict) -> tuple[float, dict | None]:
    """Run one worker; returns (seconds from start to ready, its result)."""
    env = dict(os.environ)
    env.pop("NCERG_THREADS", None)
    env["OPENBLAS_NUM_THREADS"] = "1"
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            stdout=subprocess.PIPE,
            env=env,
            cwd=ROOT,
            timeout=spec["budget_s"] + WORKER_GRACE_S,
            check=False,
        )
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        return math.nan, None
    if proc.returncode != 0:
        return math.nan, None
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    return result["ready"] - started, result


def scaled(seconds: float, calibration_s: float) -> float:
    """A time measured next to a calibration run, at the reference host speed."""
    return seconds * CALIBRATION_REF_S / calibration_s


def percentile_line(values: list[float]) -> str:
    """Highest standard percentile with at least ten samples beyond it."""
    n = len(values)
    fit = [p for p in STANDARD_PERCENTILES if n * (1 - p / 100.0) >= 10]
    if not fit:
        return f"no percentile has 10 samples beyond it at n={n}"
    p = fit[-1]
    q = statistics.quantiles(values, n=1000, method="inclusive")[int(p * 10) - 1]
    return f"p{p:g} {q:.4f} s"


def sample(config: dict, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Start worker processes one after another for about ``seconds``.

    Each process is a fresh interpreter; the samples therefore span several
    processes, which is where most of the noise comes from (README.md).  A
    traced run uses at least two processes, each alternating an untraced and
    a traced invocation, so counts are compared across processes and the
    tracing overhead is measured on interleaved invocations.
    """
    if not (ROOT / "src" / "ncerg" / "__init__.py").is_file():
        raise BenchmarkError(f"no ncerg package under {ROOT / 'src'}")
    work.mkdir(parents=True)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps({**config, "seed": seed}, sort_keys=True))
    base = {
        "src": str(ROOT / "src"),
        "config": str(cfg_path),
        "seed": seed,
        "budget_s": 0.0,
        "min_invocations": 0,
        "mode": "setup",
        "env": False,
    }
    n = 0

    def worker(**kw) -> tuple[float, dict | None]:
        nonlocal n
        n += 1
        return spawn({**base, "out": str(work / f"w{n}"), **kw})

    # Untimed: compiles bytecode, warms the file cache, records the environment.
    _, warm = worker(env=True)
    if warm is None:
        raise BenchmarkError("a worker could not import ncerg or parse the config")
    setups = [] if trace else [worker() for _ in range(SETUP_SAMPLES)]
    processes: list[dict | None] = []
    start = time.monotonic()
    last = 0.0
    while len(processes) < (2 if trace else 1) or time.monotonic() - start + last / 2 < seconds:
        t0 = time.monotonic()
        setup_s, res = worker(
            mode="trace" if trace else "run",
            budget_s=seconds / SLOT_S_SHARE,
            min_invocations=2 if trace else 1,
        )
        last = time.monotonic() - t0
        setups.append((setup_s, res))
        processes.append(res)
        if res is None:
            break
    return {"env": warm.get("env", {}), "setups": setups, "processes": processes}


def summarize(seed: int, trace: bool, runs: dict) -> dict:
    """Check the samples and reduce them to the metrics of the run."""
    processes = runs["processes"]
    samples = [s for res in processes if res for s in res["samples"]]
    dead = sum(res is None for res in processes)
    problems = ["a worker process died"] * dead + [s["error"] for s in samples if s["error"]]
    # A worker that died counts as one failed invocation.
    attempted = len(samples) + dead
    failed = dead + sum(bool(s["error"]) for s in samples)
    good = [s for s in samples if not s["error"]]
    if not good:
        raise BenchmarkError("no invocation completed: " + "; ".join(problems[:3]))
    for s in good[1:]:
        if s["tree"] != good[0]["tree"]:
            failed += 1
            problems.append("an invocation wrote a tree unlike the first one's")
    correct = failed == 0

    def times(traced: bool, raw: bool = False) -> list[float]:
        group = [s for s in samples if s["traced"] == traced]
        group = [s for s in group if not s["error"]] or group
        return [s["full_s"] if raw else scaled(s["full_s"], s["calibration_s"]) for s in group]

    metrics: dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    lines = [
        f"seed {seed}: {attempted} invocations in {len(processes)} processes, {failed} failed",
        "env " + json.dumps(runs["env"], sort_keys=True),
    ]
    if trace:
        traced = [s["layers"] for s in samples if s["traced"]]
        if not traced:
            raise BenchmarkError("no traced invocation completed")
        counts = [
            {(p, k): v for p, stats in t.items() for k, v in stats.items() if k in tracer.COUNT_STATS}
            for t in traced
        ]
        repeat = all(c == counts[0] for c in counts[1:])
        if not repeat:
            correct = False
            problems.append("traced invocations disagree on their counts")
        factors = [scaled(1.0, s["calibration_s"]) for s in samples if s["traced"]]
        for prefix, stat, unit in tracer.metrics():
            values = [t[prefix][stat] for t in traced]
            if unit == "s":
                put(f"{prefix}.{stat}", statistics.median(v * f for v, f in zip(values, factors)), unit)
            else:
                put(f"{prefix}.{stat}", values[0], unit)
        missing = sorted({m for res in processes if res for m in res["missing"]})
        put("trace.missing_targets", len(missing), "count")
        traced_s, untraced_s = statistics.median(times(True)), statistics.median(times(False))
        put("trace.traced_full_s", traced_s, "s")
        put("trace.untraced_full_s", untraced_s, "s")
        put("trace.overhead_s", traced_s - untraced_s, "s")
        put("host.calibration_s", statistics.median(s["calibration_s"] for s in samples), "s")
        lines.append(f"traced invocations: {len(traced)}, untraced: {len(times(False))}; "
                     f"counts repeat exactly: {repeat}")
        if missing:
            lines.append("targets the program no longer has: " + ", ".join(missing))
    else:
        full = times(False)
        setups = [(s, r["ready_calibration_s"]) for s, r in runs["setups"] if r]
        put("full_s", statistics.median(full), "s")
        put("setup_s", statistics.median(scaled(s, c) for s, c in setups), "s")
        put("peak_rss_mb", statistics.median(r["peak_rss_mb"] for r in processes if r), "MB")
        calibrations = [s["calibration_s"] for s in samples] + [c for _, c in setups]
        lines.append(f"full_s samples: {len(full)}; {percentile_line(full)}")
        lines.append(f"setup_s samples: {len(setups)}")
        lines.append(f"raw wall medians: full {statistics.median(times(False, raw=True)):.4f} s, "
                     f"setup {statistics.median(s for s, _ in setups):.4f} s; calibration "
                     f"{statistics.median(calibrations):.4f} s (reference {CALIBRATION_REF_S} s)")
        lines.append(f"error_rate {failed / attempted:.4f} ratio ({failed}/{attempted})")
    for name, m in metrics.items():
        lines.append(f"{name:56s} {m['value']:.6g} {m['unit']}")
    lines += [f"problem: {p.strip().splitlines()[-1]}" for p in problems[:5]]
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return {"result": result, "lines": lines}


def measure(config: dict, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Sample the workload config and return the result object plus a report."""
    try:
        return summarize(seed, trace, sample(config, seed, seconds, trace, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # only succeeds once no run is left
            work.parent.rmdir()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    try:
        out = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(f"workload {args.workload} (trace {args.trace})")
    print("\n".join(out["lines"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
