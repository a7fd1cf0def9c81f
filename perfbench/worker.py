"""One fresh interpreter of the ncerg benchmark.

``run.py`` starts this file once per process it samples; it is not meant to
be run by hand.  Its only argument is a JSON object:

    src              directory that holds the ``ncerg`` package to measure
    config           config file passed to ``ncerg run --config``
    seed             value passed to ``ncerg run --seed``
    out              directory under which each invocation gets a fresh --out
    mode             "setup" (import and parse only), "run" or "trace"
    budget_s         seconds of invocations to aim for (closed loop)
    min_invocations  start at least this many invocations
    env              also report the library versions and thread settings

It prints one JSON line: ``ready`` (CLOCK_MONOTONIC seconds when ``ncerg``
was imported and the config parsed, i.e. when a CLI call could start),
``ready_calibration_s`` (a calibration run right after that), the
per-invocation ``samples``, ``peak_rss_mb`` and, when asked, ``env``.

The calibration is a fixed piece of numpy and plain-Python work that does not
touch ``ncerg``.  It runs between invocations, so each invocation has one
just before and one just after it; their mean says how fast the shared host
ran at that moment, and ``run.py`` rescales every time by it.
"""
import json
import math
import os
import sys
import time

CALIBRATION_ROUNDS = 4800  # about 0.25 s on the 2-vCPU host measured in README.md


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import ncerg
    import ncerg.cli

    ncerg.ExperimentConfig.from_file(spec["config"])
    ready = time.monotonic()

    if not os.path.realpath(ncerg.__file__).startswith(os.path.realpath(spec["src"]) + os.sep):
        print(f"perfbench: imported ncerg from {ncerg.__file__}, not from {spec['src']}",
              file=sys.stderr)
        return 3
    # The checkout's perfbench directory is this file's directory.
    sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))
    import resource

    from tracer import Tracer

    calibrate(warm_up=True)
    ready_calibration_s = calibrate()
    tracer = Tracer() if spec["mode"] == "trace" else None
    samples = run_loop(ncerg.cli, spec, tracer, ready_calibration_s)
    result = {
        "ready": ready,
        "ready_calibration_s": ready_calibration_s,
        "samples": samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "missing": tracer.missing if tracer else [],
    }
    if spec.get("env"):
        result["env"] = environment()
    print(json.dumps(result))
    return 0


def calibrate(warm_up: bool = False) -> float:
    """Seconds of a fixed workload that stands for the host's speed.

    Small complex SVDs, eigh and einsum, a 24x24 product and dict work: the
    mix of small-matrix overhead and plain Python that ncerg spends its time
    on, without calling ncerg, so a change to the program cannot move it.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    small = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(8)]
    big = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(1 if warm_up else CALIBRATION_ROUNDS):
        m = small[i % 8]
        acc += np.linalg.svd(m, compute_uv=False)[0]
        _, v = np.linalg.eigh(m + m.conj().T)
        acc += float(np.einsum("ij,jk->ik", v, m).real.sum())
        if i % 8 == 0:
            acc += float(np.abs(big @ big @ big).sum())
        acc += sum({k: k * i for k in range(20)}.values())
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise RuntimeError("calibration produced a non-finite value")
    return elapsed


def run_loop(cli, spec: dict, tracer, calibration_s: float) -> list[dict]:
    """Closed loop: the next invocation starts when the previous one returned.

    Another invocation starts while it is expected to end no later than half
    an invocation past the budget, so a worker lasts about its budget.  A
    traced worker alternates untraced and traced invocations.  A calibration
    run follows every invocation; ``calibration_s`` is the one before the
    first.
    """
    samples: list[dict] = []
    if spec["mode"] == "setup":
        return samples
    start = time.perf_counter()
    while len(samples) < spec["min_invocations"] or (
        time.perf_counter() - start + samples[-1]["full_s"] / 2 < spec["budget_s"]
    ):
        out = os.path.join(spec["out"], f"i{len(samples)}")
        traced = tracer is not None and len(samples) % 2 == 1
        if traced:
            tracer.reset()
            with tracer.installed():
                sample = invoke(cli, spec["config"], out, spec["seed"])
            sample["layers"] = tracer.collect()
        else:
            sample = invoke(cli, spec["config"], out, spec["seed"])
        sample["traced"] = traced
        sample.update(check_tree(out, sample["error"]))
        after = calibrate()
        sample["calibration_s"] = (calibration_s + after) / 2
        calibration_s = after
        samples.append(sample)
    return samples


def invoke(cli, config: str, out: str, seed: int) -> dict:
    import contextlib
    import io
    import traceback

    argv = ["run", "--config", config, "--suite", "full", "--out", out, "--seed", str(seed)]
    buf = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code
    except Exception:  # a raising invocation is a failed sample, not a crash
        code = None
        error = traceback.format_exc(limit=3)
    full_s = time.perf_counter() - t0
    if error is None and code != 0:
        error = f"exit code {code}: {buf.getvalue()[-500:]}"
    return {"full_s": full_s, "error": error}


def check_tree(out: str, error) -> dict:
    """Hash the output tree, check its report, then delete it."""
    import hashlib
    import shutil

    from tracer import SUITES

    digest = hashlib.sha256()
    problem = None
    try:
        for dirpath, dirnames, filenames in os.walk(out):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    data = fh.read()
                rel = os.path.relpath(path, out)
                digest.update(f"{rel}\0{len(data)}\0".encode())
                digest.update(data)
        if error is None:
            with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
                report = json.load(fh)
            suites = {name.split(":")[0] for name in report["passed"]}
            if report["experiment"] != "full" or not all(report["passed"].values()):
                problem = "report.json does not record a passing full run"
            elif suites != set(SUITES):
                problem = f"report.json covers suites {sorted(suites)}"
    except (OSError, ValueError, KeyError) as exc:
        problem = f"unreadable output tree: {exc}"
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return {"tree": digest.hexdigest(), "error": error or problem}


def environment() -> dict:
    """Library versions and the thread settings the run used."""
    import platform

    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "NCERG_THREADS": os.environ.get("NCERG_THREADS", "unset"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
    }


def blas_threads() -> dict:
    """Thread count of every OpenBLAS this process has loaded."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return {}
    counts = {}
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "scipy_openblas_get_num_threads64_",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                counts[os.path.basename(path)] = fn()
                break
    return counts


if __name__ == "__main__":
    sys.exit(main())
