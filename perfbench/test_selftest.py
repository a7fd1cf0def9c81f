"""Fast self-test of the benchmark on a tiny config (about half a minute).

    python3 -m pytest perfbench/test_selftest.py -q
    python3 perfbench/test_selftest.py

It checks that an untraced and a traced run emit every metric BENCHMARK.json
names, with its unit, that no invocation fails, and that the tracer sees
every call a profiler sees and leaves no wrapper behind.
"""
from __future__ import annotations

import contextlib
import cProfile
import io
import json
import os
import pstats
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402

# Two 1x1 blocks and a Lindblad generator: every layer runs, the propagator
# cache included, in under a second per invocation.
TINY = {
    "blocks": [1, 1],
    "weights": [1.0, 0.5],
    "semigroup": {"variant": "generator_exp"},
    "n_random": 1,
    "weighted_cases": 2,
    "T_n": 4,
}
SEED = 3


def _spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _work(tag: str) -> Path:
    return run.ROOT / ".perfbench_work" / f"selftest-{tag}-{os.getpid()}"


def _check_metrics(result: dict, expected: list[dict]) -> None:
    assert result["correct"], result
    assert result["attempted"] >= 1 and result["failed"] == 0  # error_rate 0
    for m in expected:
        assert m["name"] in result["metrics"], m["name"]
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m["name"]
    assert set(result["metrics"]) == {m["name"] for m in expected}


def test_end_to_end_metrics():
    out = run.measure(TINY, SEED, 1.0, False, _work("e2e"))
    _check_metrics(out["result"], _spec()["end_to_end"])
    assert any(line.startswith("error_rate 0.0000 ratio") for line in out["lines"])


def test_per_layer_metrics():
    out = run.measure(TINY, SEED, 1.0, True, _work("trace"))
    _check_metrics(out["result"], _spec()["per_layer"])
    metrics = out["result"]["metrics"]
    assert metrics["trace.missing_targets"]["value"] == 0
    assert metrics["semigroups.propagator.calls"]["value"] > 0


def _invoke(work: Path) -> None:
    import ncerg.cli

    cfg = work / "config.json"
    cfg.write_text(json.dumps({**TINY, "seed": SEED}))
    with contextlib.redirect_stdout(io.StringIO()):
        code = ncerg.cli.main(
            ["run", "--config", str(cfg), "--suite", "full", "--out", str(work / "out"),
             "--seed", str(SEED)]
        )
    assert code == 0
    shutil.rmtree(work / "out")


def _bindings() -> dict[tuple[str, str], object]:
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name == "ncerg" or name.startswith("ncerg.")
        for attr, value in vars(mod).items()
        if callable(value)
    }


def test_tracer_rebinds_everywhere_and_restores():
    import ncerg.cli  # noqa: F401  (cli binds emit_plot_data by name)

    before = _bindings()
    originals = {prefix: tracer.resolve(mod, path) for prefix, mod, path, _, _ in tracer.TARGETS}
    t = tracer.Tracer()
    with t.installed():
        assert t.missing == []
        for prefix, mod, path, _, _ in tracer.TARGETS:
            assert getattr(tracer.resolve(mod, path), "__perfbench_traced__", False), prefix
        # No module keeps a binding of an unwrapped target.
        held = {id(fn) for fn in originals.values()}
        stale = [key for key, value in _bindings().items() if id(value) in held]
        assert stale == []
    assert _bindings() == before
    for prefix, mod, path, _, _ in tracer.TARGETS:
        assert tracer.resolve(mod, path) is originals[prefix], prefix


def test_tracer_counts_match_profiler():
    work = _work("profile")
    work.mkdir(parents=True)
    try:
        prof = cProfile.Profile()
        prof.runcall(_invoke, work)
        stats = pstats.Stats(prof).stats
        t = tracer.Tracer()
        with t.installed():
            _invoke(work)
        seen = t.collect()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    for prefix, mod, path, _, _ in tracer.TARGETS:
        code = tracer.resolve(mod, path).__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        profiled = stats[key][1] if key in stats else 0
        assert seen[prefix]["calls"] == profiled, prefix
        assert seen[prefix]["calls"] > 0, prefix


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
