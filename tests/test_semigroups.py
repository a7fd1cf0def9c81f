import math

import numpy as np
import pytest
import scipy.linalg

from ncerg import (
    GeneratorExp,
    Identity,
    Operator,
    ScalarDecay,
    SchurDecay,
    TracialAlgebra,
    UnitaryFlow,
    continuity_modulus,
    lindblad_generator,
    pnorm,
    random_positive,
    random_self_adjoint,
    semigroup_from_config,
    semigroup_law_residual,
    trace,
    validate_absolute_contraction,
)
from ncerg.algebra import min_eig, random_operator
from ncerg.semigroups import choi_min_eig
from oracles import generator_from_map


def distance_rates(alg, scale=1.0):
    out = []
    for n in alg.blocks:
        idx = np.arange(n)
        out.append(scale * np.abs(idx[:, None] - idx[None, :]).astype(float))
    return out


def make_variants(alg, rng):
    h = random_self_adjoint(alg, rng, norm=1.0)
    lind = lindblad_generator(
        alg,
        random_self_adjoint(alg, rng, norm=0.5),
        [random_self_adjoint(alg, rng, norm=0.5)],
    )
    return {
        "identity": Identity(alg),
        "scalar_decay": ScalarDecay(alg, 1.0),
        "unitary_flow": UnitaryFlow(alg, h),
        "schur_decay": SchurDecay(alg, distance_rates(alg)),
        "generator_exp": GeneratorExp(alg, 0.5 * lind),
    }


# ---------------------------------------------------------------------------
# apply
# ---------------------------------------------------------------------------

def test_identity_fixes_everything(alg, rng):
    sg = Identity(alg)
    x = random_operator(alg, rng)
    for t in (0.0, 0.3, 7.0):
        assert (sg.apply(t, x) - x).norm_inf() == 0


def test_scalar_decay_halves_at_log2(alg, rng):
    sg = ScalarDecay(alg, 1.0)
    x = random_operator(alg, rng)
    y = sg.apply(math.log(2.0), x)
    assert (y - 0.5 * x).norm_inf() < 1e-15


def test_unitary_flow_is_two_norm_isometry(alg, rng):
    sg = UnitaryFlow(alg, random_self_adjoint(alg, rng, norm=2.0))
    x = random_operator(alg, rng)
    for t in (0.1, 1.0, 4.5):
        assert pnorm(alg, sg.apply(t, x), 2) == pytest.approx(
            pnorm(alg, x, 2), abs=1e-10
        )


def test_apply_rejects_negative_time(alg, rng):
    sg = ScalarDecay(alg, 1.0)
    with pytest.raises(ValueError):
        sg.apply(-0.1, random_operator(alg, rng))


def test_apply_zero_is_exact(alg, rng):
    x = random_operator(alg, rng)
    for sg in make_variants(alg, rng).values():
        assert (sg.apply(0.0, x) - x).norm_inf() == 0


def test_apply_linear(alg, rng):
    for sg in make_variants(alg, rng).values():
        x, y = random_operator(alg, rng), random_operator(alg, rng)
        gap = sg.apply(0.7, 2.0 * x + y) - (2.0 * sg.apply(0.7, x) + sg.apply(0.7, y))
        assert gap.norm_inf() < 1e-12


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_scalar_decay_validates(alg, rng):
    rep = validate_absolute_contraction(
        ScalarDecay(alg, 2.0), np.geomspace(1e-4, 10, 8), rng=rng
    )
    assert rep.passed
    assert rep.max_trace_excess == 0.0


def test_unitary_flow_preserves_trace_exactly(alg, rng):
    sg = UnitaryFlow(alg, random_self_adjoint(alg, rng))
    rep = validate_absolute_contraction(sg, np.geomspace(1e-4, 10, 8), rng=rng)
    assert rep.passed
    x = random_positive(alg, rng)
    for t in (0.2, 3.0):
        assert trace(alg, sg.apply(t, x)).real == pytest.approx(
            trace(alg, x).real, abs=1e-10
        )


def test_schur_decay_distance_pattern_validates(rng):
    alg = TracialAlgebra((3,), (1.0,))
    sg = SchurDecay(alg, distance_rates(alg))
    ts = np.geomspace(1e-3, 5.0, 8)
    rep = validate_absolute_contraction(sg, ts, rng=rng)
    # oracle: eigenvalues of the 3x3 multiplier exp(-t |j-k|) stay nonnegative
    for t in ts:
        s = np.exp(-t * distance_rates(alg)[0])
        assert np.linalg.eigvalsh(s)[0] >= -1e-12
    assert rep.passed


def test_schur_decay_invalid_multiplier_fails(rng):
    alg = TracialAlgebra((3,), (1.0,))
    rates = [np.array([[0.0, 0.0, 5.0], [0.0, 0.0, 0.0], [5.0, 0.0, 0.0]])]
    sg = SchurDecay(alg, rates)
    ts = np.geomspace(0.5, 5.0, 6)
    rep = validate_absolute_contraction(sg, ts, rng=rng)
    # oracle: at large t the multiplier approaches a non-PSD pattern
    worst = min(np.linalg.eigvalsh(np.exp(-t * rates[0]))[0] for t in ts)
    assert worst < -1e-3
    assert not rep.passed
    assert rep.choi_min == pytest.approx(worst, rel=1e-6)


def test_lindblad_generator_validates(alg, rng):
    lind = lindblad_generator(
        alg,
        random_self_adjoint(alg, rng, norm=0.5),
        [random_self_adjoint(alg, rng, norm=0.7)],
    )
    sg = GeneratorExp(alg, lind)
    rep = validate_absolute_contraction(sg, np.geomspace(1e-4, 10, 8), rng=rng)
    assert rep.passed
    assert not rep.sampled_only
    assert rep.choi_min >= -1e-10


def test_generator_exp_against_independent_exponential(alg, rng):
    lind = lindblad_generator(alg, random_self_adjoint(alg, rng, norm=0.5), [])
    sg = GeneratorExp(alg, lind)
    x = random_operator(alg, rng)
    from ncerg.algebra import unvec, vec

    for t in (0.3, 1.7):
        direct = unvec(alg, scipy.linalg.expm(t * np.asarray(lind)) @ vec(x))
        assert (sg.apply(t, x) - direct).norm_inf() < 1e-12


def test_propagate_stack_matches_expm_of_generator(alg, rng):
    # oracle: exp(tL) on the vectorized algebra, with L built from the
    # generator of each variant independently of its propagation core
    from ncerg.algebra import unvec, vec

    variants = make_variants(alg, rng)
    hs = variants["unitary_flow"].hamiltonian
    generators = {
        "identity": generator_from_map(alg, lambda x: 0.0 * x),
        "scalar_decay": generator_from_map(
            alg, lambda x: -variants["scalar_decay"].rate * x
        ),
        "unitary_flow": generator_from_map(alg, lambda x: 1j * (hs @ x - x @ hs)),
        "schur_decay": generator_from_map(
            alg,
            lambda x: Operator(
                alg,
                [-c * a for c, a in zip(variants["schur_decay"].rates, x.blocks)],
            ),
        ),
        "generator_exp": variants["generator_exp"].matrix,
    }
    ts = np.array([0.0, 1e-4, 0.3, 2.5, 10.0])
    x = random_operator(alg, rng)
    for name, sg in variants.items():
        stacks = sg.propagate_stack(ts, x)
        for k, t in enumerate(ts):
            got = Operator(alg, [s[k] for s in stacks])
            want = unvec(alg, scipy.linalg.expm(t * generators[name]) @ vec(x))
            assert (got - want).norm_inf() <= 1e-12 * want.norm_inf(), (name, t)


# ---------------------------------------------------------------------------
# semigroup law and continuity
# ---------------------------------------------------------------------------

def test_law_residual_trivial_variants(alg, rng):
    probes = [random_operator(alg, rng) for _ in range(3)]
    assert semigroup_law_residual(Identity(alg), 0.4, 1.1, probes) == 0.0
    assert semigroup_law_residual(ScalarDecay(alg, 1.3), 0.4, 1.1, probes) < 1e-13


def test_law_residual_generator_exp(rng):
    alg = TracialAlgebra((3,), (1.0,))
    lind = lindblad_generator(
        alg,
        random_self_adjoint(alg, rng, norm=0.5),
        [random_self_adjoint(alg, rng, norm=0.5)],
    )
    sg = GeneratorExp(alg, lind)
    probes = [random_operator(alg, rng) for _ in range(3)]
    # two independent scaling-and-squaring evaluations per probe
    assert semigroup_law_residual(sg, 0.7, 1.9, probes) < 1e-9


def test_continuity_identity_is_zero(alg, rng):
    table = continuity_modulus(Identity(alg), random_operator(alg, rng), 2, [0, 0.5, 2])
    assert all(v == 0.0 for _, v in table)


def test_continuity_scalar_decay_analytic(alg, rng):
    sg = ScalarDecay(alg, 1.0)
    x = random_operator(alg, rng)
    for p in (1, 2):
        xn = pnorm(alg, x, p)
        for s, v in continuity_modulus(sg, x, p, [0.0, 0.1, 1.0, 3.0]):
            assert v == pytest.approx((1 - math.exp(-s)) * xn, rel=1e-12, abs=1e-15)


def test_continuity_generator_exp_series_bound(rng):
    # independent bound: ||exp(sL) - 1|| <= s M exp(s M) with M an upper
    # bound on the induced map norm for the weighted 2-norm
    alg = TracialAlgebra((2, 2), (1.0, 0.5))
    lind = lindblad_generator(
        alg,
        random_self_adjoint(alg, rng, norm=0.5),
        [random_self_adjoint(alg, rng, norm=0.5)],
    )
    sg = GeneratorExp(alg, lind)
    x = random_operator(alg, rng)
    m_up = np.linalg.norm(np.asarray(lind), 2) * math.sqrt(
        max(alg.weights) / min(alg.weights)
    )
    xn = pnorm(alg, x, 2)
    for s, v in continuity_modulus(sg, x, 2, [0.05, 0.3, 1.0]):
        assert v <= s * m_up * math.exp(s * m_up) * xn * (1 + 1e-9)


# ---------------------------------------------------------------------------
# shipped variants: contract invariants
# ---------------------------------------------------------------------------

def test_all_variants_validate_on_log_grid(alg, rng):
    grid = np.geomspace(1e-4, 10.0, 8)
    for name, sg in make_variants(alg, rng).items():
        rep = validate_absolute_contraction(sg, grid, rng=np.random.default_rng(5))
        assert rep.passed, (name, rep.worst)


def test_norm_growth_bounds(alg, rng):
    for name, sg in make_variants(alg, rng).items():
        for t in (0.2, 1.0, 6.0):
            x = random_operator(alg, rng)
            for p in (1, 2, math.inf):
                assert pnorm(alg, sg.apply(t, x), p) <= 2 * pnorm(alg, x, p) + 1e-10, name
            y = random_self_adjoint(alg, rng)
            for p in (1, 2, math.inf):
                assert pnorm(alg, sg.apply(t, y), p) <= pnorm(alg, y, p) + 1e-10, name


def test_positivity_preserved(alg, rng):
    for name, sg in make_variants(alg, rng).items():
        for t in (0.1, 2.5):
            x = random_positive(alg, rng)
            assert min_eig(sg.apply(t, x)) >= -1e-10 * x.norm_inf(), name


def test_choi_certificate_for_cp_variants(alg, rng):
    for name, sg in make_variants(alg, rng).items():
        assert choi_min_eig(sg, 0.7) >= -1e-10, name


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------

def test_semigroup_from_config_variants(alg, rng):
    specs = [
        {"variant": "identity"},
        {"variant": "scalar_decay", "rate": 0.5},
        {"variant": "unitary_flow", "hamiltonian": "random", "norm": 1.0},
        {"variant": "schur_decay", "rates": {"pattern": "distance"}},
        {"variant": "generator_exp"},
    ]
    for spec in specs:
        sg = semigroup_from_config(alg, spec, rng)
        assert sg.algebra == alg
    with pytest.raises(ValueError):
        semigroup_from_config(alg, {"variant": "nope"}, rng)


def test_semigroup_cache_consistency(alg, rng):
    lind = lindblad_generator(alg, random_self_adjoint(alg, rng, norm=0.5), [])
    sg = GeneratorExp(alg, lind)
    x = random_operator(alg, rng)
    first = sg.apply(0.9, x)
    second = sg.apply(0.9, x)
    assert (first - second).norm_inf() == 0.0
