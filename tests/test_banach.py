import math

import numpy as np
import pytest

from ncerg import (
    ApproximationScheme,
    AssemblyError,
    Identity,
    MaximalParams,
    Projection,
    ScalarDecay,
    TracialAlgebra,
    UnitaryFlow,
    assemble_certificate,
    cesaro_average,
    cesaro_map_family,
    make_dense_certifier,
    make_maximal_oracle,
    maximal_projection,
    pnorm,
    random_self_adjoint,
    scheme_from_semigroup,
)
from ncerg.banach import (
    AssemblyCertificate,
    NormStep,
    OracleContractError,
    SchemeError,
    _norm_rows,
)
from ncerg.cli import main
from ncerg.semigroups import lindblad_generator, GeneratorExp


def build_pipeline(sg, T_maps, p=1.0, alpha=1.0, C=1.0, eps=0.5):
    maps = cesaro_map_family(sg, T_maps)
    oracle = make_maximal_oracle(sg, T_maps, p, C, alpha)
    scheme = scheme_from_semigroup(sg, p, alpha)
    certifier = make_dense_certifier(maps, tol=eps / 3.0)
    return maps, oracle, scheme, certifier


# ---------------------------------------------------------------------------
# trivial instantiation: constant maps
# ---------------------------------------------------------------------------

def test_assemble_constant_maps(alg, rng):
    sg = Identity(alg)
    T_maps = [1.0, 0.5, 0.25]
    maps, oracle, scheme, certifier = build_pipeline(sg, T_maps, eps=0.5)
    x = random_self_adjoint(alg, rng, norm=1.0)
    asm = assemble_certificate(maps, x, 0.5, scheme, oracle, certifier, n_approx=3)
    assert asm.cotrace == 0.0
    assert asm.n0 == 1 and asm.N0_index == 0
    for step in asm.steps:
        if step.name in ("uniform_control", "dense_cauchy", "final_bound"):
            assert step.achieved < 1e-12
    assert (asm.projection.op - alg.identity()).norm_inf() < 1e-10


def test_assemble_budget_arithmetic(alg, rng):
    # the recorded claims follow the epsilon bookkeeping of the construction
    sg = ScalarDecay(alg, 1.0)
    eps, C = 0.5, 0.8
    T_maps = [2.0**-k for k in range(1, 7)]
    maps = cesaro_map_family(sg, T_maps)
    oracle = make_maximal_oracle(sg, T_maps, 1.0, C, 1.0)
    scheme = scheme_from_semigroup(sg, 1.0, 1.0)
    certifier = make_dense_certifier(maps, tol=eps / 3.0)
    x = random_self_adjoint(alg, rng, norm=1.0)
    asm = assemble_certificate(maps, x, eps, scheme, oracle, certifier, n_approx=3)
    claims = {s.name: s.claimed for s in asm.steps}
    assert claims["meet_budget"] == C * eps / 2.0
    assert claims["final_budget"] == eps * (C + 1.0) / 2.0
    assert claims["approximant_choice"] == eps / 3.0
    assert claims["dense_cauchy"] == eps / 3.0
    assert claims["final_bound"] == eps
    assert eps / 3.0 + eps / 3.0 + eps / 3.0 <= eps + 1e-15
    for s in asm.steps:
        if s.name == "uniform_control":
            n = s.witness[0]
            assert s.claimed == eps / 2.0 ** (n + 1)
    assert asm.budget_spent <= eps * (C + 1.0) / 2.0


def test_assemble_full_pipeline_and_replay(alg, rng):
    sg = ScalarDecay(alg, 1.0)
    T_maps = [2.0**-k for k in range(1, 9)]
    eps = 0.5
    x = random_self_adjoint(alg, rng, norm=1.0)
    emp = max(
        maximal_projection(sg, x, MaximalParams(1.0, 1.0, e), T_maps).params[
            "empirical_C"
        ]
        for e in (0.5, 0.2, 0.1)
    )
    C = max(emp, 1e-6)
    maps, oracle, scheme, certifier = build_pipeline(sg, T_maps, C=C, eps=eps)
    asm = assemble_certificate(maps, x, eps, scheme, oracle, certifier, n_approx=3)
    assert asm.cotrace < eps * (C + 1.0) / 2.0
    devs = asm.replay(maps, x)
    assert devs
    assert max(devs.values()) <= 1e-10


def test_assemble_unitary_flow(alg, rng):
    sg = UnitaryFlow(alg, random_self_adjoint(alg, rng, norm=1.0))
    T_maps = [2.0**-k for k in range(1, 7)]
    maps, oracle, scheme, certifier = build_pipeline(sg, T_maps, C=1.0, eps=0.4)
    x = random_self_adjoint(alg, rng, norm=1.0)
    asm = assemble_certificate(maps, x, 0.4, scheme, oracle, certifier, n_approx=3)
    assert asm.cotrace < 0.4 * 2.0 / 2.0
    data = asm.to_json_dict()
    assert data["n0"] == asm.n0
    assert all("claimed" in s for s in data["steps"])


# ---------------------------------------------------------------------------
# schemes
# ---------------------------------------------------------------------------

def test_scheme_identity_gap_zero(alg, rng):
    scheme = scheme_from_semigroup(Identity(alg), 1.0, 1.0)
    x = random_self_adjoint(alg, rng, norm=1.0)
    x_n, gap = scheme.maker(x)(3, 0.5)
    assert gap < 1e-14
    assert (x_n - x).norm_inf() < 1e-13


def test_scheme_scalar_decay_meets_targets(alg, rng):
    scheme = scheme_from_semigroup(ScalarDecay(alg, 1.0), 1.0, 1.0)
    x = random_self_adjoint(alg, rng, norm=1.0)
    for n in (1, 2, 5):
        x_n, gap = scheme.maker(x)(n, 0.5)
        assert gap < scheme.gap_bound(n, 0.5)


def test_scheme_generator_exp_post_hoc(alg, rng):
    lind = lindblad_generator(
        alg,
        random_self_adjoint(alg, rng, norm=0.5),
        [random_self_adjoint(alg, rng, norm=0.5)],
    )
    sg = GeneratorExp(alg, lind)
    scheme = scheme_from_semigroup(sg, 2.0, 1.0)
    x = random_self_adjoint(alg, rng, norm=1.0)
    x_n, gap = scheme.maker(x)(2, 0.4)
    # verify the gap independently
    assert pnorm(alg, x_n - x, 2.0) == pytest.approx(gap)
    assert gap < (0.4 / 2.0**3) ** 2


def test_scheme_error_when_generator_cannot_converge(alg, rng):
    bad = ApproximationScheme(
        lambda x: lambda n, eps: x + alg.identity(), norm_p=1.0, alpha=1.0
    )
    x = random_self_adjoint(alg, rng, norm=1.0)
    with pytest.raises(SchemeError):
        bad.maker(x)(1, 0.5)


# ---------------------------------------------------------------------------
# oracle contract
# ---------------------------------------------------------------------------

def test_oracle_contract_violation_raises():
    alg = TracialAlgebra((2,), (1.0,))
    sg = ScalarDecay(alg, 1.0)
    import numpy as np
    from ncerg import Operator

    x = Operator(alg, [np.diag([5.0 + 0j, 4.0])])
    oracle = make_maximal_oracle(sg, [1.0, 0.5], 1.0, 1e-12, 1.0)
    with pytest.raises(OracleContractError) as err:
        oracle(x, 0.1, cesaro_map_family(sg, [1.0, 0.5]).images(x))
    assert err.value.which == "cotrace"


def test_assembly_failure_names_step(alg, rng):
    # a certifier whose budget is always blown surfaces as a dense_budget failure
    sg = ScalarDecay(alg, 1.0)
    T_maps = [0.5, 0.25, 0.125]
    maps = cesaro_map_family(sg, T_maps)
    oracle = make_maximal_oracle(sg, T_maps, 1.0, 1.0, 1.0)
    scheme = scheme_from_semigroup(sg, 1.0, 1.0)

    from ncerg.bau import bau_cauchy_certify

    def bad_certifier(y, eps_budget, images):
        cert = bau_cauchy_certify(
            [(T, cesaro_average(sg, y, T)) for T in T_maps], eps_budget, tol=1e-6
        )
        # the same projection, recorded with a co-trace above the budget
        cert.projection = Projection(cert.projection.op, cotrace=eps_budget + 1.0)
        return cert

    x = random_self_adjoint(alg, rng, norm=1.0)
    with pytest.raises(AssemblyError) as err:
        assemble_certificate(maps, x, 0.5, scheme, oracle, bad_certifier, n_approx=2)
    assert err.value.step == "dense_budget"


# ---------------------------------------------------------------------------
# the recorded ledger and its replay
# ---------------------------------------------------------------------------

def assembled(alg, rng):
    sg = ScalarDecay(alg, 1.0)
    maps, oracle, scheme, certifier = build_pipeline(sg, [2.0**-k for k in range(1, 7)])
    x = random_self_adjoint(alg, rng, norm=1.0)
    return maps, x, assemble_certificate(maps, x, 0.5, scheme, oracle, certifier, n_approx=3)


def test_recorded_steps_give_the_ledgers_norm_rows_in_order(alg, rng):
    maps, x, asm = assembled(alg, rng)
    assert [s.name for s in asm.norm_steps] == [
        "uniform_control", "uniform_control", "uniform_control",
        "approximant_choice", "dense_cauchy", "final_bound",
    ]
    names = {s.name for s in asm.norm_steps}
    ledger = [s for s in asm.steps if s.name in names]
    rerun = [r for s in asm.norm_steps for r in _norm_rows(s, maps.images(s.input))]
    assert ledger == rerun


def test_replay_reruns_a_step_appended_to_the_record(alg, rng):
    maps, x, asm = assembled(alg, rng)
    final = asm.norm_steps[-1]
    again = NormStep("final_from_0", final.claimed, final.projection, x, start=0)
    asm.norm_steps.append(again)
    devs = asm.replay(maps, x)
    new = [k for k in devs if k.startswith("final_from_0")]
    m = len(maps.labels)
    assert len(new) == m * (m - 1) // 2
    # rows the ledger lacks deviate by inf, so the replay fails
    assert all(devs[k] == math.inf for k in new) and not asm.replay_passes(devs)
    asm.steps += _norm_rows(again, maps.images(x))
    devs = asm.replay(maps, x)
    assert max(devs[k] for k in new) == 0.0 and asm.replay_passes(devs)
    with pytest.raises(ValueError):
        asm.replay(maps, x + 0.0 * x)  # another operator, even an equal one


@pytest.mark.parametrize("spoil", ["empty", "one_missing", "last_nan"])
def test_banach_check_fails_a_spoiled_replay(tmp_path, capsys, monkeypatch, spoil):
    replay = AssemblyCertificate.replay

    def spoiled(asm, maps, x):
        devs = replay(asm, maps, x)
        if spoil == "last_nan":
            return devs | {list(devs)[-1]: math.nan}
        return {} if spoil == "empty" else dict(list(devs.items())[1:])

    monkeypatch.setattr(AssemblyCertificate, "replay", spoiled)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"n_random": 2, "weighted_cases": 2, "T_n": 6}')
    code = main(["run", "--config", str(cfg), "--suite", "banach-check", "--out", str(tmp_path / "o")])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL banach-check:replay" in out and "PASS banach-check:assembled" in out
