import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ncerg import TracialAlgebra, averaging, semigroups
from ncerg.bau import ProjectionCertificate
from ncerg.banach import AssemblyCertificate
from ncerg.cli import main
from ncerg.experiments import (
    ConfigError,
    ExperimentConfig,
    build_schemas,
    emit_plot_data,
    run,
)
from oracles import plot_files_from_disk


SMALL = {
    "blocks": [2, 2],
    "weights": [1.0, 0.5],
    "semigroup": {"variant": "scalar_decay", "rate": 1.0},
    "n_random": 4,
    "weighted_cases": 6,
    "T_n": 12,
    "dyadic_exp_max": 10,
    "banach_map_exps": [1, 2, 3, 4],
    "seed": 7,
}


def tree_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_config_roundtrip_and_validation(tmp_path):
    cfg = ExperimentConfig.from_dict(SMALL)
    assert cfg.blocks == (2, 2)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"unknown_key": 1})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"epsilon": -1.0})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"blocks": [70], "weights": [1.0]})
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(bad)


def test_run_writes_referenced_files(tmp_path):
    cfg = ExperimentConfig.from_dict(SMALL)
    report = run(cfg, "validate-semigroup", tmp_path / "out")
    assert report.ok
    for rel in list(report.tables.values()) + list(report.certificates.values()):
        assert (tmp_path / "out" / rel).is_file()
    payload = json.loads((tmp_path / "out" / "report.json").read_text())
    assert payload["experiment"] == "validate-semigroup"
    assert "wall_time" not in json.dumps(payload)


def test_emit_plot_data_headers_only_for_empty(tmp_path):
    cfg = ExperimentConfig.from_dict(SMALL)
    report = run(cfg, "validate-semigroup", tmp_path / "out")
    report.tables = {}
    report.certificates = {}
    written = emit_plot_data(report)
    assert (tmp_path / "out" / "plots" / "plot_decay.csv").exists()
    text = (report.outdir / written["plot_decay.csv"]).read_text()
    assert text.strip() == "table,T,value"
    for fname, want in plot_files_from_disk(report).items():
        assert (report.outdir / written[fname]).read_bytes() == want, fname


def test_emit_plot_data_bounds_hold_rowwise(tmp_path):
    cfg = ExperimentConfig.from_dict(SMALL)
    report = run(cfg, "weighted-avg", tmp_path / "out")
    written = emit_plot_data(report)
    lines = (report.outdir / written["plot_bounds.csv"]).read_text().splitlines()
    assert lines[0] == "table,T,achieved,bound,slack"
    for line in lines[1:]:
        _, _, achieved, bound, _ = line.split(",")
        assert float(achieved) <= float(bound) + 1e-8


def test_cli_run_and_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(SMALL))
    code = main(
        ["run", "--config", str(cfg_path), "--suite", "local-avg", "--out", str(tmp_path / "o1")]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS local-avg:cauchy_certificate" in out
    assert (tmp_path / "o1" / "plots" / "SCHEMA.json").is_file()
    # decay columns of a passing local-avg run decrease row by row
    decay = (tmp_path / "o1" / "plots" / "plot_decay.csv").read_text().splitlines()
    values = [
        float(line.split(",")[2]) for line in decay[1:] if line.startswith("local_avg_p1,")
    ]
    assert values and all(b <= a * (1 + 1e-9) + 1e-15 for a, b in zip(values, values[1:]))


def test_table_headers_match_published_schema(tmp_path):
    cfg = ExperimentConfig.from_dict(SMALL)
    report = run(cfg, "full", tmp_path / "out")
    schemas = build_schemas()
    published = schemas["tables"]
    for name, rel in report.tables.items():
        header = (tmp_path / "out" / rel).read_text().splitlines()[0].split(",")
        assert header == published[name], name
    # the sweep tables lead with the published sweep columns
    sweep = schemas["sweep_csv"]["columns"]
    for name in ("local_avg_p1", "local_avg_p2", "weighted_avg"):
        assert published[name][: len(sweep)] == sweep, name
    # and every plot CSV has its published columns
    written = emit_plot_data(report)
    plots = {f: v for f, v in schemas["plots"].items() if f.endswith(".csv")}
    assert len(plots) == 2
    for fname, spec in plots.items():
        header = (tmp_path / "out" / written[fname]).read_text().splitlines()[0].split(",")
        assert header == spec["columns"], fname
    # the declared keys of report.json and of every projection certificate
    keys = sorted(json.loads((tmp_path / "out" / "report.json").read_text()))
    assert keys == sorted(schemas["report.json"]["keys"])
    projections = [
        name for name in report.certificates
        if name.startswith("maximal_eps")
        or name in ("local_avg_cauchy", "local_avg_window", "weighted_transfer")
    ]
    assert len(projections) == len(cfg.maximal_epsilons) + 3
    for name in projections:
        cert = json.loads((tmp_path / "out" / report.certificates[name]).read_text())
        assert sorted(cert) == sorted(schemas["certificate_json"]["keys"]), name


def test_cli_bad_config_exit_two(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"epsilon": -3}))
    code = main(
        ["run", "--config", str(cfg_path), "--suite", "local-avg", "--out", str(tmp_path / "o")]
    )
    assert code == 2


@pytest.mark.parametrize(
    "bad",
    [
        {"sandwich_grid": [0.0]},
        {"sandwich_grid": []},
        {"maximal_epsilons": [0.0]},
        {"banach_map_exps": []},
        {"banach_map_exps": [3]},
        {"banach_map_exps": [2, 1]},
        {"semigroup": {"variant": "nope"}},
        {"weight": {"residual": {"name": "nope"}}},
        {"sandwich_grid": ["a"]},
        {"semigroup": "x"},
        {"weight": {"trig": [{"kappa_re": 1}]}},
        # non-integer counts and non-finite values
        {"T_n": 4.5},
        {"n_random": 2.5},
        {"dyadic_exp_max": 3.5},
        {"banach_n_approx": 1.5},
        {"seed": 1.5},
        {"T_hi": math.inf},
        {"sandwich_grid": [math.inf]},
        # a non-integer block size, not to be truncated
        {"blocks": [2.5, 4]},
        # quadrature settings are constants of the core, not a config key
        {"quadrature": {}},
        # a T_lo of 1 or more would make the besicovitch grid increase
        {"T_lo": 2.0},
        # 2**-1100 underflows to a zero averaging length
        {"banach_map_exps": [1, 1100]},
        # |b(0)| = 0.55 exceeds the declared sup bound
        {"weight": {"trig": [{"kappa_re": 0.55, "theta": 0.3}], "sup_bound": 0.1}},
        # non-finite numbers inside the semigroup and weight objects
        {"semigroup": {"variant": "scalar_decay", "rate": math.inf}},
        {"weight": {"residual": {"name": "cos", "amplitude": math.inf}}},
        {"weight": {"trig": [{"kappa_re": math.nan, "theta": 0.1}]}},
        {"semigroup": {"variant": "unitary_flow", "hamiltonian": "random", "norm": math.nan}},
        {"semigroup": {"variant": "scalar_decay", "rate": "Infinity"}},
        {"semigroup": {"variant": "schur_decay", "rates": {"pattern": "distance", "scale": math.nan}}},
        {"semigroup": {"variant": "generator_exp", "lindblad": {"norm": "-Infinity"}}},
        {"weight": {"trig": [{"kappa_re": 0.5, "kappa_im": math.inf, "theta": 0.1}]}},
        {"weight": {"residual": {"name": "linear_capped", "cap": math.nan}}},
        {"weight": {"sup_bound": math.inf}},
        # Lindblad jump counts outside the integers in [0, 1000]
        {"semigroup": {"variant": "generator_exp", "lindblad": {"jumps": 1e300}}},
        {"semigroup": {"variant": "generator_exp", "lindblad": {"jumps": 1.5}}},
        {"semigroup": {"variant": "generator_exp", "lindblad": {"jumps": -2}}},
    ],
)
def test_cli_bad_config_values_exit_two(tmp_path, capsys, bad):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(bad))
    code = main(
        ["run", "--config", str(cfg_path), "--suite", "full", "--out", str(tmp_path / "o")]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "bad, key",
    [
        ({"n_random": True}, "n_random"),
        ({"seed": True}, "seed"),
        ({"p": True}, "p"),
        ({"blocks": [True, 3], "weights": [1.0, 0.5]}, "blocks"),
        ({"weights": [1.0, False]}, "weights"),
        ({"maximal_epsilons": [True]}, "maximal_epsilons"),
        (
            {"semigroup": {"variant": "generator_exp", "lindblad": {"random": True, "jumps": True}}},
            "lindblad.jumps",
        ),
    ],
)
def test_cli_json_booleans_are_not_numbers(tmp_path, capsys, bad, key):
    # bool is an int subclass in Python; a JSON true must not pass as 1
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(bad))
    code = main(
        ["run", "--config", str(cfg_path), "--suite", "sandwich", "--out", str(tmp_path / "o")]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {key}=")


@pytest.mark.parametrize(
    "bad, message",
    [
        # each ran at rate 1.0, with a random generator or without the term
        (
            {"semigroup": {"variant": "scalar_decay", "rates": 2.0}},
            "unknown scalar_decay semigroup keys: ['rates']",
        ),
        (
            {"semigroup": {"variant": "generator_exp", "lindblad": {"random": False, "jumps": 1}}},
            "semigroup.lindblad.random=False must be true",
        ),
        (
            {"weight": {"trig": [{"kappa_re": 0.5, "kapa_im": 0.1, "theta": 0.3}]}},
            "unknown weight.trig[0] keys: ['kapa_im']",
        ),
        (
            {"weight": {"residual": {"name": "cos", "amplitud": 0.04, "frequency": 7.0}}},
            "unknown cos residual keys: ['amplitud']",
        ),
        # the other mappings the loaders read
        (
            {"semigroup": {"variant": "schur_decay", "rates": {"pattern": "distance", "scal": 2}}},
            "unknown semigroup.rates keys: ['scal']",
        ),
        (
            {"semigroup": {"variant": "generator_exp", "lindblad": {"jump": 2}}},
            "unknown semigroup.lindblad keys: ['jump']",
        ),
        (
            {"semigroup": {"variant": "generator_exp", "lindblad": 3}},
            "semigroup.lindblad must be a JSON object",
        ),
        ({"weight": {"sup_bnd": 0.9}}, "unknown weight keys: ['sup_bnd']"),
        (
            {"weight": {"residual": {"amplitude": 0.1}}},
            "unknown none residual keys: ['amplitude']",
        ),
        # keys that the given form of a semigroup does not read
        (
            {"blocks": [1, 1], "weights": [1.0, 0.5], "semigroup": {
                "variant": "generator_exp",
                "matrix": {"blocks": [{"dim": 2, "re": [[-0.5, 0.5], [1.0, -1.0]],
                                       "im": [[0, 0], [0, 0]]}]},
                "lindblad": {"jumps": 3}}},
            "unknown generator_exp semigroup with a given matrix keys: ['lindblad']",
        ),
        (
            {"blocks": [2], "weights": [1.0], "semigroup": {
                "variant": "unitary_flow",
                "hamiltonian": {"blocks": [{"dim": 2, "re": [[1.0, 0.5], [0.5, -1.0]],
                                            "im": [[0, 0.25], [-0.25, 0]]}]},
                "norm": 5.0}},
            "unknown unitary_flow semigroup with a given hamiltonian keys: ['norm']",
        ),
    ],
)
def test_cli_nested_config_typos_exit_two_naming_the_key(tmp_path, capsys, bad, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(bad))
    code = main(
        ["run", "--config", str(cfg_path), "--suite", "validate-semigroup",
         "--out", str(tmp_path / "o")]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "bad",
    [
        {"semigroup": {"variant": "scalar_decay", "rates": 2.0}},
        {"blocks": [64], "weights": [1.0], "semigroup": {"variant": "generator_exp"}},
        {"blocks": [1, 1], "weights": [1.0, 0.5], "semigroup": {
            "variant": "generator_exp",
            "matrix": {"blocks": [{"dim": 2, "re": [[-0.5, 0.5], [1.0, -1.0]],
                                   "im": [[0, 0], [0, 0]]}]},
            "lindblad": {"jumps": 3}}},
        {"weight": {"sup_bnd": 0.9}},
    ],
    ids=["nested_typo", "generator_cap", "matrix_lindblad", "weight_typo"],
)
def test_cli_semigroup_or_weight_refusal_leaves_no_output_directory(tmp_path, capsys, bad):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(bad))
    out = tmp_path / "o"
    code = main(["run", "--config", str(cfg_path), "--suite", "validate-semigroup",
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_config_loaders_take_every_key_they_read():
    alg = TracialAlgebra((2, 3), (1.0, 0.5))
    rng = np.random.default_rng(4)
    for spec in (
        {"variant": "identity"},
        {"variant": "scalar_decay", "rate": 0.5},
        {"variant": "unitary_flow", "hamiltonian": "random", "norm": 0.5},
        {"variant": "schur_decay", "rates": {"pattern": "distance", "scale": 2.0}},
        {"variant": "generator_exp", "lindblad": {"random": True, "jumps": 2, "norm": 0.5}},
    ):
        semigroups.semigroup_from_config(alg, spec, rng)
    for residual in (
        {"name": "none"},
        {"name": "constant", "value": 0.01},
        {"name": "cos", "amplitude": 0.04, "frequency": 7.0},
        {"name": "sin_inv_t", "amplitude": 0.01},
        {"name": "linear_capped", "slope": 0.2, "cap": 0.05},
    ):
        averaging.weight_from_config({
            "trig": [{"kappa_re": 0.5, "kappa_im": 0.1, "theta": 0.3}],
            "residual": residual,
            "sup_bound": 0.95,
        })


@pytest.mark.parametrize("sub", ["", "o"], ids=["out_is_a_file", "out_below_a_file"])
def test_cli_out_under_a_regular_file_exits_two(tmp_path, capsys, sub):
    taken = tmp_path / "taken"
    taken.write_text("kept")
    out = taken / sub
    code = main(["run", "--suite", "besicovitch", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: cannot make output directory {out}: Not a directory\n"
    assert taken.read_text() == "kept"


def test_cli_refuses_an_out_that_holds_entries(tmp_path, capsys):
    # an empty directory is taken; one holding a file or an earlier run is
    # refused with exit 2 and left as it was
    assert main(["run", "--suite", "besicovitch", "--out", str(tmp_path)]) == 0
    stale = tmp_path / "stale"
    stale.mkdir()
    (stale / "old.txt").write_text("kept")
    for out in (tmp_path, stale):
        capsys.readouterr()
        before = tree_bytes(out)
        code = main(["run", "--suite", "besicovitch", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: output directory {out} is not empty\n"
        assert tree_bytes(out) == before


def test_cli_unconverged_quadrature_exits_two(tmp_path, capsys, monkeypatch):
    # without a doubling there is no error estimate, so nothing converges
    monkeypatch.setattr(averaging, "MAX_REFINEMENTS", 0)
    out = tmp_path / "o"
    code = main(["run", "--suite", "weighted-avg", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: quadrature did not converge")
    assert not out.exists()


@pytest.mark.parametrize("p", [250, 300])
def test_cli_large_p_exits_two_naming_p(tmp_path, capsys, p):
    # (1 / eps)^p overflows at the banach oracle's smallest eps, 0.5 / 16: one
    # error line that names p, not a traceback
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"p": p}))
    out = tmp_path / "o"
    code = main(["run", "--config", str(cfg_path), "--suite", "full", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: p={p} is too large") and err.count("\n") == 1
    assert not out.exists()


TINY = {"n_random": 1, "weighted_cases": 2, "T_n": 6}


@pytest.mark.parametrize(
    "suite, cfg, message",
    [
        # (||y||_p / eps)^alpha of the maximal oracle overflows
        ("banach-check", {**TINY, "n_random": 2, "alpha": 1e300}, "alpha=1e+300 is out of range"),
        # (eps / 2^(n+1))^(2/alpha) of the approximation scheme overflows
        (
            "banach-check",
            {**TINY, "n_random": 2, "alpha": 1e-300, "banach_epsilon": 100},
            "alpha=1e-300 is out of range",
        ),
        # z* z of the weighted family's pair differences would overflow
        (
            "weighted-avg",
            {**TINY, "weight": {"trig": [{"kappa_re": 1e300, "theta": 0.3}]}},
            "family too large to certify",
        ),
        # phi1(T mu) overflows where roundoff leaves Re mu above 0
        (
            "maximal",
            {**TINY, "semigroup": {"variant": "generator_exp"}, "T_hi": 1e300},
            "generator_exp leaves the float range at t up to 1e+300",
        ),
        # expm(T L) of a defective L (W singular, the dense path) turns NaN
        (
            "maximal",
            {**TINY, "blocks": [1, 1], "weights": [1.0, 0.5], "T_hi": 1e40, "semigroup": {
                "variant": "generator_exp",
                "matrix": {"blocks": [{"dim": 2, "re": [[-1, 1], [0, -1]],
                                       "im": [[0, 0], [0, 0]]}]}}},
            "generator_exp leaves the float range at t up to 1e+40",
        ),
        # the sin(1/t) residual's scalar quadrature does not converge, inside
        # weighted-avg after three suites of a full run
        (
            "full",
            {**TINY, "weight": {"trig": [{"kappa_re": 0.4, "theta": 0.15}],
                                "residual": {"name": "sin_inv_t", "amplitude": 0.01}}},
            "quadrature did not converge",
        ),
    ],
    ids=["alpha_huge", "alpha_tiny", "kappa_huge", "T_hi_huge", "dense_T_hi_huge", "sin_inv_t"],
)
def test_cli_out_of_range_configs_exit_two_naming_the_cause(tmp_path, capsys, suite, cfg, message):
    # one error line, raised before any operation that warns: no traceback,
    # no warning and no output directory, so a second run into the same
    # --out meets the same error
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    errs = []
    for _ in range(2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", "--config", str(cfg_path), "--suite", suite, "--out", str(out)])
        stdout, err = capsys.readouterr()
        assert code == 2, stdout
        assert not out.exists()
        errs.append(err)
    assert errs[0] == errs[1]
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_cli_generator_exp_above_the_dimension_cap_exits_two(tmp_path, capsys, monkeypatch):
    # d = 64^2 = 4096 > MAX_GENERATOR_DIM: refused before L is built
    def no_build(*args):
        raise AssertionError("the Lindblad generator was built")

    monkeypatch.setattr(semigroups, "lindblad_generator", no_build)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"blocks": [64], "weights": [1.0], "semigroup": {"variant": "generator_exp"}}
    ))
    code = main(
        ["run", "--config", str(cfg_path), "--suite", "validate-semigroup",
         "--out", str(tmp_path / "o")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "d=4096" in err and str(semigroups.MAX_GENERATOR_DIM) in err
    # the matrix route is refused before its matrix is read
    with pytest.raises(ConfigError, match="d=4096"):
        semigroups.semigroup_from_config(
            TracialAlgebra((64,), (1.0,)), {"variant": "generator_exp", "matrix": {}}
        )


def test_cli_epsilon_whose_certificates_keep_everything_passes(tmp_path, capsys):
    # at eps = 100 every maximal certificate keeps the whole algebra, so it
    # realizes C = 0; the checks accept that, and stability compares the
    # positive C of eps = 0.5 alone
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"maximal_epsilons": [0.5, 100.0]}))
    out = tmp_path / "o"
    code = main(["run", "--config", str(cfg_path), "--suite", "maximal", "--out", str(out)])
    assert code == 0
    assert "PASS maximal:empirical_C_finite" in capsys.readouterr().out
    rows = (out / "tables" / "maximal.csv").read_text().splitlines()[1:]
    by_eps = {}
    for row in rows:
        eps, _, cotrace, _, _, c = map(float, row.split(","))
        by_eps.setdefault(eps, []).append((cotrace, c))
    assert by_eps[100.0] and all(r == (0.0, 0.0) for r in by_eps[100.0])
    assert max(c for _, c in by_eps[0.5]) > 0


def test_cli_p_200_completes_with_finite_numbers(tmp_path, capsys):
    # the largest p of the default config that stays in the float range: a
    # complete run (the empirical C is not stable across epsilons at this p)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"p": 200}))
    out = tmp_path / "o"
    code = main(["run", "--config", str(cfg_path), "--suite", "full", "--out", str(out)])
    assert code == 1 and "FAIL maximal:empirical_C_stable" in capsys.readouterr().out

    def refuse(token):
        raise ValueError(f"non-finite number {token}")

    for path in out.rglob("*.json"):
        json.loads(path.read_text(), parse_constant=refuse)
    assert json.loads((out / "report.json").read_text())["passed"]["banach-check:assembled"]


def test_cli_prints_a_loader_config_error_as_is(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    bad = {"semigroup": {"variant": "generator_exp", "lindblad": {"jumps": 1.5}}}
    cfg_path.write_text(json.dumps(bad))
    code = main(
        ["run", "--config", str(cfg_path), "--suite", "validate-semigroup", "--out", str(tmp_path / "o")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: lindblad.jumps=1.5 must be an integer in [0, 1000]\n"


def test_cli_exhausted_window_schedule_fails_the_check(tmp_path, capsys):
    # epsilon 0.01 is in range, but the window schedule cannot meet its budgets
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"epsilon": 0.01}))
    out = tmp_path / "o"
    code = main(["run", "--config", str(cfg_path), "--suite", "local-avg", "--out", str(out)])
    assert code == 1
    assert "FAIL local-avg:window_certificate" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert report["passed"]["local-avg:window_certificate"] is False
    failure = report["certificates"]["local_avg_window_failure"]
    assert "window schedule exhausted" in json.loads((out / failure).read_text())["error"]
    assert "local_avg_window" not in report["certificates"]


def test_cli_transfer_premise_failure_writes_a_cert_and_keeps_lp_limit(tmp_path, capsys):
    # a constant residual of 0.5 keeps the full averages 0.5 away from the
    # trigonometric ones, so the perturbation premise cannot hold
    weight = {
        "trig": [{"kappa_re": 0.05, "theta": 0.3}],
        "residual": {"name": "constant", "value": 0.5},
        "sup_bound": 0.95,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"weight": weight, "n_random": 2, "weighted_cases": 2, "T_n": 8}))
    out = tmp_path / "o"
    code = main(["run", "--config", str(cfg_path), "--suite", "weighted-avg", "--out", str(out)])
    assert code == 1
    assert "FAIL weighted-avg:transfer" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert report["passed"]["weighted-avg:transfer"] is False
    assert "weighted-avg:lp_limit" in report["passed"]
    failure = report["certificates"]["weighted_transfer_failure"]
    assert "perturbation premise fails" in json.loads((out / failure).read_text())["error"]
    assert "weighted_transfer" not in report["certificates"]


def test_cli_large_weight_keeps_its_exact_identities(tmp_path, capsys):
    # sup |b| = 1e6: the conjugation and decomposition gaps are roundoff of
    # averages of that size, and are held relative to it; the checks that
    # need sup |b| <= 1 fail
    weight = {"trig": [{"kappa_re": 1e6, "theta": 0.3}]}
    cfg_path = tmp_path / "cfg.json"
    cfg = {"weight": weight, "n_random": 1, "weighted_cases": 2, "T_n": 6}
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    code = main(["run", "--config", str(cfg_path), "--suite", "weighted-avg", "--out", str(out)])
    assert code == 1
    passed = json.loads((out / "report.json").read_text())["passed"]
    assert passed["weighted-avg:conjugation"] and passed["weighted-avg:decomposition"]
    failed = sorted(k for k, v in passed.items() if not v)
    assert failed == [f"weighted-avg:{k}" for k in ("domination", "lp_limit", "transfer")]


def test_cli_banach_check_at_small_epsilon_assembles(tmp_path, capsys):
    # the approximant gaps x_n - x are self-adjoint only up to roundoff; the
    # oracle must hand the maximal projection their Hermitian part
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"banach_epsilon": 0.01}))
    out = tmp_path / "o"
    args = ["run", "--config", str(cfg_path), "--suite", "banach-check", "--out", str(out)]
    assert main(args + ["--seed", "1"]) == 0
    assert "PASS banach-check:assembled" in capsys.readouterr().out
    assert (out / "certs" / "banach_assembly.json").is_file()


def test_cli_import_leaves_scipy_linalg_unloaded():
    src = Path(__file__).resolve().parents[1] / "src"
    probe = "import sys, ncerg.cli; print('scipy.linalg' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_generator_exp_full_run_leaves_scipy_linalg_unloaded(tmp_path):
    # the eigenbasis path needs numpy alone; scipy.linalg is the dense fallback's
    src = Path(__file__).resolve().parents[1] / "src"
    cfg = {
        "blocks": [2, 3],
        "semigroup": {"variant": "generator_exp"},
        "n_random": 2,
        "weighted_cases": 4,
        "T_n": 12,
    }
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    probe = (
        "import sys, ncerg.cli\n"
        f"code = ncerg.cli.main(['run', '--config', {str(tmp_path / 'cfg.json')!r}, "
        f"'--suite', 'full', '--out', {str(tmp_path / 'out')!r}])\n"
        "print(code, 'scipy.linalg' in sys.modules)\n"
        "print(sorted(sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    status, modules = out.stdout.strip().splitlines()[-2:]
    assert status == "0 False", modules


def test_import_and_full_run_leave_numpy_polynomial_unloaded(tmp_path):
    # the Gauss-Legendre rule is a table: neither the import nor a run loads
    # numpy.polynomial, which would stay resident for the whole run
    src = Path(__file__).resolve().parents[1] / "src"
    (tmp_path / "cfg.json").write_text(json.dumps({"n_random": 2, "weighted_cases": 4, "T_n": 12}))
    probe = (
        "import sys, ncerg, ncerg.cli\n"
        "imported = 'numpy.polynomial' in sys.modules\n"
        f"code = ncerg.cli.main(['run', '--config', {str(tmp_path / 'cfg.json')!r}, "
        f"'--suite', 'full', '--out', {str(tmp_path / 'out')!r}])\n"
        "print(imported, code, 'numpy.polynomial' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip().splitlines()[-1] == "False 0 False"


@pytest.mark.parametrize(
    "blocks, n_random, path",
    [((2, 4), 20, None), ((3, 6), 4, "eigen"), ((8, 16), 2, "eigen")],
    ids=["default", "lindblad", "generator_exp_8_16"],
)
def test_validation_records_eigen_error_and_no_roundoff_witness(tmp_path, blocks, n_random, path):
    # the default config, the lindblad benchmark config and blocks (8, 16):
    # validation passes, names no witness and records the eigenbasis inputs
    cfg = {"blocks": list(blocks), "n_random": n_random}
    if path is not None:
        cfg["semigroup"] = {"variant": "generator_exp"}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    out = tmp_path / "out"
    args = ["run", "--config", str(tmp_path / "cfg.json"), "--suite", "validate-semigroup"]
    assert main(args + ["--out", str(out), "--seed", "1"]) == 0
    report = json.loads((out / "certs" / "validation.json").read_text())
    assert report["passed"] and report["worst"] == {}
    assert report["generator_path"] == path
    if path is None:
        assert report["eigen_condition"] is None and report["eigen_backward_error"] is None
    else:
        assert 1.0 <= report["eigen_condition"] < 1e4
        assert 0.0 < report["eigen_backward_error"] < 1e-13


def test_cli_schema_prints_json(capsys):
    assert main(["schema"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sweep_csv"]["columns"] == ["T", "norm_p", "bound", "slack"]
    assert "config" in payload and "tables" in payload
    assert build_schemas()["tables"]["maximal"][0] == "epsilon"


def test_seed_override_changes_output(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(SMALL))
    for name, seed in (("a", None), ("b", 7), ("c", 99)):
        args = [
            "run",
            "--config",
            str(cfg_path),
            "--suite",
            "local-avg",
            "--out",
            str(tmp_path / name),
        ]
        if seed is not None:
            args += ["--seed", str(seed)]
        assert main(args) == 0
    same = tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")
    differ = tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "c")
    assert same and not differ


def test_run_rejects_unknown_suite(tmp_path):
    with pytest.raises(ConfigError):
        run(ExperimentConfig.from_dict(SMALL), "nope", tmp_path)


def test_full_run_certificates_write_their_projections_cotrace(tmp_path, monkeypatch):
    # every certificate a full default run writes keeps its "cotrace" key,
    # the co-trace of its projection, bit for bit
    written = []

    def recording(to_json):
        def record(cert):
            written.append((cert, to_json(cert)))
            return written[-1][1]

        return record

    for cls in (ProjectionCertificate, AssemblyCertificate):
        monkeypatch.setattr(cls, "to_json_dict", recording(cls.to_json_dict))
    run(ExperimentConfig(seed=1), "full", tmp_path)
    assert len(written) == 7
    for cert, data in written:
        assert data["cotrace"] == cert.projection.cotrace, cert
    on_disk = [
        json.loads(p.read_text())["cotrace"]
        for p in sorted((tmp_path / "certs").glob("*.json"))
        if p.name != "validation.json"
    ]
    assert sorted(on_disk) == sorted(data["cotrace"] for _, data in written)
