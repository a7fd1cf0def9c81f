"""Closed-form flow means against adaptive quadrature.

``Semigroup.mean`` gives (1/T) integral_0^T e^{st} a_t(x) dt exactly.  Two
independent oracles check it: ``integrate_flow`` at a tight tolerance on the
same semigroup, and, for the four fixed-basis variants, the augmented
matrix exponential of a ``GeneratorExp`` built from the variant's generator,
which shares no code with their evaluation core.  The averages of the
residuals that declare their trigonometric terms (``cos`` and ``constant``)
are held to the same quadrature oracle.  On the group algebras of dihedral
groups the heat flows have their spectrum from the group: the means and
images of their ``generator_exp`` form are held to F diag(phi1(-T psi)) F^-1
and F diag(exp(-t psi)) F^-1, from the irreducible representations alone.
"""
import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncerg import (
    BesicovitchWeight,
    GeneratorExp,
    Identity,
    Operator,
    ScalarDecay,
    SchurDecay,
    TracialAlgebra,
    TrigTerm,
    UnitaryFlow,
    cesaro_average,
    random_positive,
    random_self_adjoint,
    trig_average,
    weighted_average,
)
from ncerg import semigroups
from ncerg.algebra import random_operator, random_operators, stack_blocks, unvecs, vecs
from ncerg.averaging import (
    _residual_average,
    double_average_windows,
    integrate_flow,
    residual_from_config,
)
from ncerg.semigroups import (
    lindblad_generator,
    phi1,
    semigroup_from_config,
    validate_absolute_contraction,
)
from oracles import dihedral_flow, generator_from_map

ORACLE = 1e-13  # rtol of the quadrature oracle, tighter than the library's
REL = 1e-12
# absolute floor per unit ||x||, for averages that are exactly zero
FLOOR = 1e-14
T_VALUES = (1e-7, 1e-3, 0.37, 1.0, 4.0)
THETAS = (0.0, 0.15, -0.4, 3.0)
NAMES = ("identity", "scalar_decay", "unitary_flow", "schur_decay", "generator_exp")


def variants(alg, rng):
    """name -> (semigroup, its generator on the vectorized algebra)."""
    h = random_self_adjoint(alg, rng, norm=1.0)
    rates = []
    for n in alg.blocks:
        idx = np.arange(n)
        rates.append(0.8 * np.abs(idx[:, None] - idx[None, :]).astype(float))
    lind = lindblad_generator(
        alg,
        random_self_adjoint(alg, rng, norm=0.5),
        [random_self_adjoint(alg, rng, norm=0.5)],
    )

    def schur(x):
        return Operator(alg, [-c * a for c, a in zip(rates, x.blocks)])

    return {
        "identity": (Identity(alg), generator_from_map(alg, lambda x: 0.0 * x)),
        "scalar_decay": (
            ScalarDecay(alg, 0.7),
            generator_from_map(alg, lambda x: -0.7 * x),
        ),
        "unitary_flow": (
            UnitaryFlow(alg, h),
            generator_from_map(alg, lambda x: 1j * (h @ x - x @ h)),
        ),
        "schur_decay": (SchurDecay(alg, rates), generator_from_map(alg, schur)),
        "generator_exp": (GeneratorExp(alg, lind), lind),
    }


def quad_mean(sg, x, lo, hi, s=0.0):
    """(1/(hi - lo)) integral_lo^hi e^{st} a_t(x) dt by quadrature."""
    weight = lambda ts: np.exp(s * ts)
    return integrate_flow(sg, x, lo, hi, weight=weight, rtol=ORACLE).value / (hi - lo)


def assert_close(got, want, x, rel=REL):
    gap = (got - want).norm_inf()
    assert gap <= rel * want.norm_inf() + FLOOR * x.norm_inf(), gap


@pytest.mark.parametrize("name", NAMES)
def test_mean_matches_quadrature(name, alg, rng):
    sg, gen = variants(alg, rng)[name]
    twin = GeneratorExp(alg, gen)
    x = random_operator(alg, rng)
    for T in T_VALUES:
        for theta in THETAS:
            s = 2j * math.pi * theta
            got = sg.mean(T, x, s)
            assert_close(got, quad_mean(sg, x, 0.0, T, s), x)
            assert_close(got, twin.mean(T, x, s), x)
            if theta == 0.0:
                assert_close(cesaro_average(sg, x, T), got, x, rel=0.0)


def test_mean_exactly_zero_averages(alg, rng):
    # e^{2 pi i theta t} over whole periods averages to zero under a_t = id,
    # and so does the 2 pi gap of a unitary flow on its eigen matrix unit
    x = random_operator(alg, rng)
    flat = {"identity": Identity(alg), "no_decay": ScalarDecay(alg, 0.0)}
    for sg in flat.values():
        for theta, T in ((3.0, 1.0), (3.0, 4.0), (-0.5, 2.0), (0.25, 4.0)):
            s = 2j * math.pi * theta
            got = sg.mean(T, x, s)
            assert got.norm_inf() <= FLOOR * x.norm_inf()
            assert_close(got, quad_mean(sg, x, 0.0, T, s), x)
    h = Operator(alg, [np.diag([0.0, 2.0 * math.pi]), np.zeros((2, 2))])
    e01 = Operator(alg, [np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2))])
    got = cesaro_average(UnitaryFlow(alg, h), e01, 3.0)
    assert got.norm_inf() <= FLOOR


def test_phi1_small_and_subnormal_arguments():
    # 1 + z/2 + z^2/6 + z^3/24 is exact to rounding for |z| <= 1e-4; dividing
    # expm1(z) by a subnormal z would overflow to inf/nan
    eps = np.finfo(float).eps
    small = (0j, 5e-324j, 1e-310 + 0j, 2.2e-311j * 2 * math.pi, 1e-9j, 1e-8 + 0j, 1e-4 - 1e-4j)
    for z in small:
        want = 1 + z / 2 + z * z / 6 + z**3 / 24
        assert abs(complex(phi1(z)) - want) <= 2 * eps * abs(want), z
    for z in (0.37j, 18.84955592153876j, -50.0 + 0j, -3 + 4j):
        want = (cmath.exp(z) - 1) / z
        assert abs(complex(phi1(z)) - want) <= 1e-14 * abs(want), z
    zs = np.array([[0.0, 1e-320], [-1.0, 2j]])
    np.testing.assert_array_equal(phi1(zs), [[phi1(z) for z in row] for row in zs])


def test_mean_validates_its_inputs(alg, rng):
    sg = Identity(alg)
    with pytest.raises(ValueError):
        sg.mean(0.0, random_operator(alg, rng))
    with pytest.raises(ValueError):
        sg.mean(-1.0, random_operator(alg, rng))
    other = TracialAlgebra((3,), (1.0,))
    with pytest.raises(ValueError):
        sg.mean(1.0, random_operator(other, rng))


@pytest.mark.parametrize("name", NAMES)
def test_oscillatory_minus_one_matches_quadrature(name, alg, rng):
    # the weight (-1)^t on the principal branch is exp(i pi t): shift s = i pi
    sg, _ = variants(alg, rng)[name]
    x = random_operator(alg, rng)
    for T in (1e-3, 0.37, 2.0):
        got = sg.mean(T, x, 1j * math.pi)
        assert_close(got, quad_mean(sg, x, 0.0, T, 1j * math.pi), x)


@pytest.mark.parametrize("name", NAMES)
def test_sandwich_windows_match_quadrature(name, alg, rng):
    sg, _ = variants(alg, rng)[name]
    x = random_positive(alg, rng)
    for a, b in ((1e-4, 1.0), (0.1, 0.5), (1.0, 0.1), (0.6, 2.5)):
        heads, tails, _ = double_average_windows(sg, stack_blocks([x]), [a], b)
        head, tail = (Operator(alg, [y[0, 0] for y in w]) for w in (heads, tails))
        assert_close(head, quad_mean(sg, x, 0.0, a) * (a / b), x)
        assert_close(tail, quad_mean(sg, x, b, b + a) * (a / b), x)


_ALG = TracialAlgebra((2, 3), (1.0, 0.5))
_VARIANTS = variants(_ALG, np.random.default_rng(77))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    name=st.sampled_from(NAMES),
    terms=st.lists(
        st.tuples(
            st.floats(min_value=-1.0, max_value=1.0),
            st.floats(min_value=-1.0, max_value=1.0),
            st.floats(min_value=-4.0, max_value=4.0),
        ),
        min_size=1,
        max_size=4,
    ),
    T=st.floats(min_value=1e-6, max_value=4.0),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_trig_average_matches_quadrature_hypothesis(name, terms, T, seed):
    sg, _ = _VARIANTS[name]
    x = random_operator(_ALG, np.random.default_rng(seed))
    b = BesicovitchWeight(tuple(TrigTerm(complex(re, im), th) for re, im, th in terms))
    want = integrate_flow(sg, x, 0.0, T, weight=b.value, rtol=ORACLE).value / T
    scale = sum(abs(t.kappa) for t in b.terms) * x.norm_inf()
    got = trig_average(sg, b.terms, x, T)
    assert (got - want).norm_inf() <= REL * want.norm_inf() + FLOOR * scale
    assert (weighted_average(sg, b, x, T) - got).norm_inf() == 0.0


def test_weighted_average_adds_residual_by_quadrature(alg, rng):
    # the residual alone still goes through integrate_flow; the sum matches
    # quadrature of the whole weight
    sg, _ = variants(alg, rng)["unitary_flow"]
    x = random_operator(alg, rng)
    terms = (TrigTerm(0.6 - 0.2j, 0.3), TrigTerm(0.3 * cmath.exp(0.3j), -1.7))
    residual = lambda ts: 0.05 * np.cos(7.0 * np.asarray(ts))
    b = BesicovitchWeight(terms, residual, 0.05)
    for T in (0.01, 0.5, 3.0):
        want = integrate_flow(sg, x, 0.0, T, weight=b.value, rtol=ORACLE).value / T
        assert_close(weighted_average(sg, b, x, T), want, x)


# residuals that declare their terms, so that their averages are closed forms
RESIDUAL_SPECS = {
    "cos": {"name": "cos", "amplitude": 0.07, "frequency": 7.0},
    "cos_zero_frequency": {"name": "cos", "amplitude": -0.05, "frequency": 0.0},
    "cos_negative_frequency": {"name": "cos", "amplitude": 0.04, "frequency": -3.3},
    "constant_complex": {"name": "constant", "value": 0.03 - 0.02j},
}


@pytest.mark.parametrize("spec", sorted(RESIDUAL_SPECS))
def test_residual_average_matches_quadrature(spec, alg, rng, monkeypatch):
    # every variant, the dense fallback of GeneratorExp included, and the
    # conjugate, real and imaginary parts, whose terms are mapped too
    named = {name: sg for name, (sg, _) in variants(alg, rng).items()}
    monkeypatch.setattr(semigroups, "EIGEN_TOL", 0.0)
    named["generator_exp_dense"] = GeneratorExp(alg, named["generator_exp"].matrix)
    assert named["generator_exp"].path == "eigen" and named["generator_exp_dense"].path == "dense"
    res, sup = residual_from_config(RESIDUAL_SPECS[spec])
    b = BesicovitchWeight((TrigTerm(0.4 - 0.1j, 0.15),), res, sup)
    x = random_operator(alg, rng)
    for name, sg in named.items():
        for part in (b, b.conjugated(), b.real_part(), b.imag_part()):
            assert part.residual.terms is not None
            for T in (1e-3, 0.37, 2.0):
                quad = integrate_flow(
                    sg, x, 0.0, T, weight=part.residual, rtol=ORACLE, kinks=part.residual.kinks(T)
                )
                assert_close(_residual_average(sg, part, x, T), quad.value / T, x)


def dihedral(n):
    cfg, f, psi = dihedral_flow(n)
    alg = TracialAlgebra(cfg["blocks"], cfg["weights"])
    return alg, semigroup_from_config(alg, cfg["semigroup"]), f, psi


@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_dihedral_blocks_multiply_as_the_group(n):
    # column n f + a of F is lambda_g for g = s^f r^a, and r^a s = s r^-a
    # gives (s^f r^a)(s^h r^b) = s^(f + h) r^((-1)^h a + b)
    alg, _, f, psi = dihedral(n)
    lam = unvecs(alg, f.T)
    for (f1, a), (f2, b) in itertools.product(np.ndindex(2, n), repeat=2):
        gh = n * (f1 ^ f2) + (b - a if f2 else b + a) % n
        for x in lam:
            np.testing.assert_allclose(x[n * f1 + a] @ x[n * f2 + b], x[gh], atol=1e-14)
    assert psi[0] == 0.0 and np.all(psi >= 0.0)
    assert alg.vec_dim == 2 * n and sum(alg.blocks) == n + 2 - n % 2


@pytest.mark.parametrize("n", [3, 5, 8])
def test_dihedral_flow_matches_its_group_spectrum(n):
    alg, sg, f, psi = dihedral(n)
    xs = random_operators(alg, np.random.default_rng(n), 3)
    cols = np.linalg.solve(f, vecs(xs).T)  # the coefficients of x in the lambda_g
    ts, Ts = np.array([0.0, 1e-3, 0.3, 2.0, 10.0]), np.array([1e-4, 0.5, 1.0, 7.5])
    for got, mult in (
        (sg.propagate_batch(ts, xs), np.exp(-np.outer(ts, psi))),
        (sg.mean_batch(Ts, xs), phi1(-np.outer(Ts, psi))),
    ):
        want = np.einsum("dg,mg,gk->mkd", f, mult, cols)
        assert np.abs(vecs(got) - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("n", [3, 5, 8])
def test_dihedral_flow_validates_as_an_absolute_contraction(n):
    _, sg, _, _ = dihedral(n)
    report = validate_absolute_contraction(sg, np.geomspace(1e-4, 10.0, 10))
    assert report.passed and not report.sampled_only
    assert report.choi_min >= -1e-8
