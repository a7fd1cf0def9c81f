"""Property-style invariants on randomized inputs.

The norm and lattice properties run over large seeded batches; a few scalar
laws additionally go through hypothesis with a derandomized profile.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncerg import (
    BesicovitchWeight,
    Identity,
    ScalarDecay,
    SchurDecay,
    TracialAlgebra,
    TrigTerm,
    UnitaryFlow,
    cesaro_average,
    pnorm,
    proj_meet,
    random_positive,
    random_projection,
    random_self_adjoint,
    spectral_projection,
    spectral_resolution,
    trace,
    weighted_average,
)
from ncerg.algebra import min_eig, random_operator
from ncerg.averaging import integrate_flow, residual_from_config
from ncerg.semigroups import GeneratorExp, lindblad_generator
from oracles import compressed_norm, leq

P_VALUES = (1.0, 1.5, 2.0, 3.0, math.inf)

# Residuals of the weight identities: none, a complex constant (whose real and
# imaginary parts are both nonzero) and the cos residual the suites use.
RESIDUALS = (
    None,
    {"name": "constant", "value": 0.04 - 0.03j},
    {"name": "cos", "amplitude": 0.05, "frequency": 7.0},
)


def with_residuals(terms):
    """The weight with the given terms and each of RESIDUALS."""
    return [BesicovitchWeight(terms, *residual_from_config(spec)) for spec in RESIDUALS]


def make_variants(alg, rng):
    idx_rates = []
    for n in alg.blocks:
        idx = np.arange(n)
        idx_rates.append(np.abs(idx[:, None] - idx[None, :]).astype(float))
    lind = lindblad_generator(
        alg,
        random_self_adjoint(alg, rng, norm=0.5),
        [random_self_adjoint(alg, rng, norm=0.5)],
    )
    return (
        Identity(alg),
        ScalarDecay(alg, 1.0),
        UnitaryFlow(alg, random_self_adjoint(alg, rng, norm=1.0)),
        SchurDecay(alg, idx_rates),
        GeneratorExp(alg, 0.5 * lind),
    )


# ---------------------------------------------------------------------------
# p-norm laws
# ---------------------------------------------------------------------------

def test_pnorm_triangle_and_homogeneity_batch(alg):
    rng = np.random.default_rng(42)
    for _ in range(120):
        x = random_operator(alg, rng)
        y = random_operator(alg, rng)
        s = complex(rng.standard_normal(), rng.standard_normal())
        for p in P_VALUES:
            nx, ny = pnorm(alg, x, p), pnorm(alg, y, p)
            assert pnorm(alg, x + y, p) <= nx + ny + 1e-10 * (nx + ny + 1)
            assert pnorm(alg, s * x, p) == pytest.approx(abs(s) * nx, rel=1e-10)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    scale=st.floats(min_value=1e-3, max_value=1e3),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_pnorm_absolute_homogeneity_hypothesis(scale, seed):
    alg = TracialAlgebra((2, 2), (1.0, 0.5))
    x = random_operator(alg, np.random.default_rng(seed))
    for p in (1.0, 2.0, math.inf):
        assert pnorm(alg, scale * x, p) == pytest.approx(
            scale * pnorm(alg, x, p), rel=1e-9
        )


def test_pnorm_zero_iff_zero(alg, rng):
    assert pnorm(alg, alg.zero(), 2) == 0.0
    x = random_operator(alg, rng)
    assert pnorm(alg, x, 2) > 0


def test_pnorm_monotone_under_compression(alg):
    rng = np.random.default_rng(7)
    for _ in range(40):
        x = random_positive(alg, rng)
        e = random_projection(alg, rng)
        exe = e.op @ x @ e.op
        for p in P_VALUES:
            assert pnorm(alg, exe, p) <= pnorm(alg, x, p) + 1e-10


def test_trace_positive_and_faithful(alg):
    rng = np.random.default_rng(11)
    for _ in range(40):
        x = random_operator(alg, rng)
        val = trace(alg, x.H @ x).real
        assert val >= 0
        if val < 1e-24:
            assert x.norm_inf() <= 1e-10


# ---------------------------------------------------------------------------
# lattice and spectral-cut arithmetic
# ---------------------------------------------------------------------------

def test_meet_cotrace_subadditive_batch(alg):
    rng = np.random.default_rng(3)
    for _ in range(60):
        p = random_projection(alg, rng)
        q = random_projection(alg, rng)
        m = proj_meet(p, q)
        assert m.cotrace <= p.cotrace + q.cotrace + 1e-9
        assert leq(m, p) and leq(m, q)


def test_spectral_cut_chebyshev_batch(alg):
    rng = np.random.default_rng(5)
    for _ in range(30):
        h = random_positive(alg, rng, norm=None)
        res = spectral_resolution(h)
        for p in (1.0, 2.0, 3.0):
            tr_power = sum(
                c * (np.clip(np.linalg.eigvalsh((b + b.conj().T) / 2), 0, None) ** p).sum()
                for c, b in zip(alg.weights, h.blocks)
            )
            for lam in (0.1, 0.5, 1.5):
                e = spectral_projection(res, lam)
                assert e.cotrace <= tr_power / lam**p + 1e-9


def test_compression_chain_for_nested_projections(alg):
    # for positive h and e <= f, ||e h e|| <= ||f h f||
    rng = np.random.default_rng(9)
    for _ in range(30):
        h = random_positive(alg, rng)
        f = random_projection(alg, rng)
        e = proj_meet(f, random_projection(alg, rng))
        assert leq(e, f, tol=1e-7)
        assert compressed_norm(e, h) <= compressed_norm(f, h) + 1e-9


# ---------------------------------------------------------------------------
# semigroup-average invariants
# ---------------------------------------------------------------------------

def test_cesaro_positivity_all_variants(alg):
    rng = np.random.default_rng(13)
    for sg in make_variants(alg, rng):
        for T in (1e-3, 0.5, 4.0):
            x = random_positive(alg, rng)
            avg = cesaro_average(sg, x, T)
            assert min_eig(avg) >= -1e-10 * x.norm_inf()


def test_window_integral_monotone_in_length(alg):
    # 0 < a <= c implies integral over [0, a] <= integral over [0, c]
    rng = np.random.default_rng(15)
    for sg in make_variants(alg, rng):
        x = random_positive(alg, rng)
        h_small = integrate_flow(sg, x, 0.0, 0.3).value
        h_large = integrate_flow(sg, x, 0.0, 0.9).value
        assert min_eig((h_large - h_small).herm()) >= -1e-10


def test_weighted_average_norm_bound(alg):
    rng = np.random.default_rng(17)
    b = BesicovitchWeight((TrigTerm(0.6, 0.3), TrigTerm(0.3j, -0.11)))
    for sg in make_variants(alg, rng):
        x = random_operator(alg, rng)
        for T in (0.05, 1.0):
            w = weighted_average(sg, b, x, T)
            for p in (1.0, 2.0, math.inf):
                cap = 2.0 * b.sup_bound * pnorm(alg, x, p)
                assert pnorm(alg, w, p) <= cap + 1e-8


def test_weighted_average_conjugation_identity(alg):
    rng = np.random.default_rng(19)
    weights = with_residuals((TrigTerm(0.5 + 0.2j, 0.3), TrigTerm(0.2, -0.4)))
    for sg in make_variants(alg, rng):
        x = random_self_adjoint(alg, rng)
        for b in weights:
            w = weighted_average(sg, b, x, 0.8)
            w_conj = weighted_average(sg, b.conjugated(), x, 0.8)
            assert (w.H - w_conj).norm_inf() <= 1e-10 * max(1.0, x.norm_inf())


def test_weighted_average_real_imag_decomposition(alg):
    rng = np.random.default_rng(21)
    weights = with_residuals((TrigTerm(0.4 + 0.3j, 0.25),))
    for sg in make_variants(alg, rng):
        x = random_self_adjoint(alg, rng)
        for b in weights:
            whole = weighted_average(sg, b, x, 0.6)
            re_part = weighted_average(sg, b.real_part(), x, 0.6)
            im_part = weighted_average(sg, b.imag_part(), x, 0.6)
            assert (whole - (re_part + 1j * im_part)).norm_inf() <= 1e-12 * max(
                1.0, x.norm_inf()
            )


def test_weighted_average_domination_by_plain_average(alg):
    # |b| <= 1 makes the real-weight average dominated by the plain average
    rng = np.random.default_rng(23)
    weights = with_residuals((TrigTerm(0.55, 0.3), TrigTerm(0.3j, -0.2)))
    assert all(b.sup_bound <= 1.0 for b in weights)
    for sg in make_variants(alg, rng):
        x = random_positive(alg, rng)
        beta = cesaro_average(sg, x, 0.7)
        for b in weights:
            re_avg = weighted_average(sg, b.real_part(), x, 0.7)
            assert min_eig((beta - re_avg).herm()) >= -1e-8
            assert min_eig((beta + re_avg).herm()) >= -1e-8


def test_local_convergence_dyadic_decay(alg):
    rng = np.random.default_rng(25)
    for sg in make_variants(alg, rng):
        x = random_self_adjoint(alg, rng, norm=1.0)
        for p in (1.0, 2.0):
            errs = [
                pnorm(alg, cesaro_average(sg, x, 2.0**-k) - x, p) for k in range(0, 13, 3)
            ]
            assert all(b <= a * (1 + 1e-9) + 1e-14 for a, b in zip(errs, errs[1:]))
            assert errs[-1] < 1e-3 * pnorm(alg, x, p) + 1e-14
