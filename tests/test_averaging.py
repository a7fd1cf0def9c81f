import cmath
import dataclasses
import math

import numpy as np
import pytest

from ncerg import (
    BesicovitchWeight,
    Identity,
    Operator,
    QuadratureError,
    ScalarDecay,
    SchurDecay,
    TracialAlgebra,
    TrigTerm,
    UnitaryFlow,
    besicovitch_error,
    cesaro_average,
    dense_approximant,
    lp_limit_check,
    pnorm,
    random_positive,
    random_self_adjoint,
    sandwich_check,
    substitution_bound_check,
    weighted_average,
)
from ncerg.algebra import min_eig, random_operator, stack_blocks
from ncerg import averaging
from ncerg.averaging import (
    QUAD_RTOL,
    integrate_scalar,
    residual_from_config,
    weight_from_config,
)
from ncerg.config import ConfigError
from ncerg.experiments import ExperimentConfig, run
from ncerg.semigroups import lindblad_generator, GeneratorExp


def phi(gamma, T):
    return (1.0 - math.exp(-gamma * T)) / (gamma * T)


# ---------------------------------------------------------------------------
# cesaro averages
# ---------------------------------------------------------------------------

def test_cesaro_identity_flow(alg, rng):
    sg = Identity(alg)
    x = random_operator(alg, rng)
    for T in (1e-4, 1.0, 8.0):
        assert (cesaro_average(sg, x, T) - x).norm_inf() < 1e-13


def test_cesaro_scalar_decay_analytic(alg, rng):
    sg = ScalarDecay(alg, 1.7)
    x = random_operator(alg, rng)
    for T in (0.01, 0.5, 3.0):
        expected = phi(1.7, T) * x
        assert (cesaro_average(sg, x, T) - expected).norm_inf() < 1e-12


def test_cesaro_unitary_against_riemann(alg, rng):
    sg = UnitaryFlow(alg, random_self_adjoint(alg, rng, norm=1.0))
    x = random_operator(alg, rng)
    T = 1.0
    n = 20000
    ts = (np.arange(n) + 0.5) * (T / n)
    stacks = sg.propagate_stack(ts, x)
    riemann = Operator(alg, [s.mean(axis=0) for s in stacks])
    got = cesaro_average(sg, x, T)
    assert (got - riemann).norm_inf() / got.norm_inf() < 1e-7


def test_cesaro_unitary_on_eigen_matrix_unit(alg):
    # a_t(E_01) = exp(-i g t) E_01 for H = diag(0, g); g = 2 pi makes the
    # average over whole periods exactly zero
    g = 2.0 * math.pi
    h = Operator(alg, [np.diag([0.0, g]), np.diag([0.0, g])])
    e01 = Operator(alg, [np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2))])
    sg = UnitaryFlow(alg, h)
    for T in (0.5, 1.0, 2.0):
        z = -1j * g * T
        expected = ((cmath.exp(z) - 1.0) / z) * e01
        assert (cesaro_average(sg, e01, T) - expected).norm_inf() < 1e-12


def test_cesaro_rejects_zero_length(alg, rng):
    with pytest.raises(ValueError):
        cesaro_average(Identity(alg), random_operator(alg, rng), 0.0)


def test_cesaro_positive_on_positive_input(alg, rng):
    sg = ScalarDecay(alg, 0.4)
    x = random_positive(alg, rng)
    avg = cesaro_average(sg, x, 2.0)
    assert min_eig(avg) >= -1e-10 * x.norm_inf()


def test_quadrature_error_reports_achieved(alg, rng, monkeypatch):
    sg = Identity(alg)
    x = random_operator(alg, rng)
    monkeypatch.setattr(averaging, "MAX_REFINEMENTS", 1)
    # trigonometric terms are exact, so the e^{2 pi i 400 t} oscillation sits
    # in the residual, the part that still goes through integrate_flow
    tone = lambda ts: np.exp(2j * math.pi * 400.0 * np.asarray(ts))
    weight = BesicovitchWeight((), tone, 1.0)
    with pytest.raises(QuadratureError) as err:
        weighted_average(sg, weight, x, 1.0)
    assert err.value.achieved > QUAD_RTOL
    assert err.value.refinements == 1


# ---------------------------------------------------------------------------
# weighted averages
# ---------------------------------------------------------------------------

def test_weighted_constant_weight_matches_cesaro(alg, rng):
    sg = ScalarDecay(alg, 0.9)
    x = random_operator(alg, rng)
    one = BesicovitchWeight.constant(1.0)
    for T in (0.2, 1.5):
        gap = weighted_average(sg, one, x, T) - cesaro_average(sg, x, T)
        assert gap.norm_inf() < 1e-12


def test_weighted_single_tone_identity_flow(alg, rng):
    theta = 0.37
    b = BesicovitchWeight((TrigTerm(1.0, theta),))
    x = random_operator(alg, rng)
    for T in (0.5, 2.0):
        z = 2j * math.pi * theta * T
        expected = ((cmath.exp(z) - 1.0) / z) * x
        got = weighted_average(Identity(x.algebra), b, x, T)
        assert (got - expected).norm_inf() < 1e-12


def test_weighted_two_tone_scalar_decay_closed_form(alg, rng):
    # independent closed form: sum_j kappa_j (exp((2 pi i theta_j - g) T) - 1)
    # / ((2 pi i theta_j - g) T)
    two_tone = (TrigTerm(0.7 + 0.2j, 0.25), TrigTerm(-0.3j, -0.4))
    cos_2pi = (TrigTerm(0.5, 1.0), TrigTerm(0.5, -1.0))
    cases = [
        (ScalarDecay(alg, 1.3), 1.3, two_tone, 0.8),
        # cos(2 pi t) over one period: the averages are exactly zero
        (ScalarDecay(alg, 0.0), 0.0, cos_2pi, 1.0),
        (Identity(alg), 0.0, cos_2pi, 1.0),
    ]
    x = random_operator(alg, rng)
    for sg, gamma, terms, T in cases:
        coeff = 0.0
        for term in terms:
            z = 2j * math.pi * term.theta - gamma
            coeff += term.kappa * (cmath.exp(z * T) - 1.0) / (z * T)
        got = weighted_average(sg, BesicovitchWeight(terms), x, T)
        assert (got - coeff * x).norm_inf() < 1e-9


# ---------------------------------------------------------------------------
# dense approximants
# ---------------------------------------------------------------------------

def test_dense_approximant_identity(alg, rng):
    x = random_operator(alg, rng)
    assert (dense_approximant(Identity(alg), x, 3) - x).norm_inf() < 1e-13


def test_dense_approximant_scalar_decay(alg, rng):
    sg = ScalarDecay(alg, 1.0)
    x = random_operator(alg, rng)
    got = dense_approximant(sg, x, 10)
    assert (got - (1 - math.exp(-0.1)) * 10 * x).norm_inf() < 1e-12


def test_dense_approximant_improves_with_k(alg, rng):
    lind = lindblad_generator(
        alg,
        random_self_adjoint(alg, rng, norm=0.5),
        [random_self_adjoint(alg, rng, norm=0.5)],
    )
    sg = GeneratorExp(alg, lind)
    x = random_self_adjoint(alg, rng)
    gaps = [
        pnorm(alg, dense_approximant(sg, x, k) - x, 2) for k in (1, 2, 4, 8, 16, 32, 64)
    ]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(gaps, gaps[1:]))


def test_dense_approximant_rejects_bad_k(alg, rng):
    with pytest.raises(ValueError):
        dense_approximant(Identity(alg), random_operator(alg, rng), 0)


# ---------------------------------------------------------------------------
# sandwich inequality
# ---------------------------------------------------------------------------

def test_sandwich_identity_flow(alg, rng):
    x = random_positive(alg, rng)
    a, b = 0.4, 1.2
    lo, up = sandwich_check(Identity(alg), x, a, b)
    expected = (a / b) * min_eig(x)
    assert lo == pytest.approx(expected, abs=1e-10)
    assert up == pytest.approx(expected, abs=1e-10)


def test_sandwich_scalar_decay_analytic(alg, rng):
    gamma = 1.0
    sg = ScalarDecay(alg, gamma)
    x = random_positive(alg, rng)
    eigs = np.concatenate(
        [np.linalg.eigvalsh((b + b.conj().T) / 2) for b in x.blocks]
    )
    for a, b in ((0.1, 0.5), (0.5, 1.0), (1.0, 0.1)):
        lo, up = sandwich_check(sg, x, a, b)
        c_lo = (phi(gamma, a) - 1.0) * phi(gamma, b) + (1 - math.exp(-gamma * a)) / (
            gamma * b
        )
        c_up = (math.exp(-gamma * b) - math.exp(-gamma * (b + a))) / (gamma * b) - (
            phi(gamma, a) - 1.0
        ) * phi(gamma, b)
        exp_lo = c_lo * (eigs.min() if c_lo >= 0 else eigs.max())
        exp_up = c_up * (eigs.min() if c_up >= 0 else eigs.max())
        assert lo == pytest.approx(exp_lo, abs=1e-9)
        assert up == pytest.approx(exp_up, abs=1e-9)
        assert lo >= -1e-9 and up >= -1e-9


def test_sandwich_unitary_grid(alg, rng):
    sg = UnitaryFlow(alg, random_self_adjoint(alg, rng, norm=1.0))
    for _ in range(2):
        x = random_positive(alg, rng)
        for a in (0.5, 1.0):
            for b in (0.5, 1.0):
                lo, up = sandwich_check(sg, x, a, b)
                assert lo >= -1e-8 and up >= -1e-8


def test_sandwich_rejects_nonpositive(alg, rng):
    x = random_self_adjoint(alg, rng) - 2.0 * alg.identity()
    with pytest.raises(ValueError):
        sandwich_check(Identity(alg), x, 0.5, 0.5)


# ---------------------------------------------------------------------------
# weights and the local mean gap
# ---------------------------------------------------------------------------

def test_weight_sup_bound_default():
    b = BesicovitchWeight((TrigTerm(0.5, 0.1), TrigTerm(0.25j, -0.3)))
    assert b.sup_bound == pytest.approx(0.75)
    ts = np.linspace(0, 10, 500)
    assert b.sup_violation(ts) <= 0.0


def test_besicovitch_error_zero_for_pure_polynomial():
    b = BesicovitchWeight((TrigTerm(0.7, 0.2),))
    table = besicovitch_error(b, np.geomspace(1.0, 1e-4, 12))
    assert table.tail_sup < 1e-12
    assert all(v < 1e-12 for _, v in table.rows)


def test_integrate_scalar_converges_on_zero_integral():
    value, err = integrate_scalar(lambda ts: np.cos(2.0 * math.pi * ts), 0.0, 1.0)
    assert abs(value) < 1e-15
    assert err <= QUAD_RTOL


def test_besicovitch_error_linear_residual_analytic():
    res, sup = residual_from_config({"name": "linear_capped", "slope": 1.0, "cap": 1.0})
    b = BesicovitchWeight((TrigTerm(0.5, 0.1),), res, sup)
    table = besicovitch_error(b, np.geomspace(1.0, 1e-3, 10))
    for T, v in table.rows:
        assert v == pytest.approx(T / 2.0, rel=1e-9)


def test_besicovitch_tail_is_the_lp_limit_tail_on_a_10_point_grid():
    # ceil(10 / 4) = 3 rows for both tails, not 10 // 4 = 2: the gap T/2
    # falls toward 0, so the third row from the end is the tail's sup
    res, sup = residual_from_config({"name": "linear_capped", "slope": 1.0, "cap": 1.0})
    b = BesicovitchWeight((TrigTerm(0.5, 0.1),), res, sup)
    grid = np.geomspace(1.0, 1e-3, 10)
    table = besicovitch_error(b, grid)
    assert table.tail_sup == table.rows[-3][1] > table.rows[-2][1]
    # lp_limit_check's liminf on the same grid is the minimum over those rows
    alg = TracialAlgebra((1,), (1.0,))
    scales = [2.0] * 7 + [1.0, 3.0, 3.0]
    fam = [(T, alg.identity() * c) for T, c in zip(grid, scales)]
    assert lp_limit_check(fam, 1.0, alg.identity() * 3.0).liminf_norm == 1.0


def test_besicovitch_error_oscillatory_residual(rng):
    res, sup = residual_from_config({"name": "sin_inv_t", "amplitude": 0.1})
    b = BesicovitchWeight((TrigTerm(0.4, 0.15),), res, sup)
    grid = np.geomspace(0.5, 1e-3, 16)
    table = besicovitch_error(b, grid)
    assert table.tail_sup <= 0.1 + 1e-6
    # dense scalar oracle at one grid point
    T = float(grid[4])
    ts = (np.arange(400000) + 0.5) * (T / 400000)
    oracle = float(np.mean(np.abs(0.1 * np.sin(1.0 / ts))))
    got = dict(table.rows)[T]
    assert got == pytest.approx(oracle, abs=2e-3)


def test_besicovitch_error_reports_quadrature_error():
    rtol = QUAD_RTOL
    # |sin(1/t)| oscillates without bound at 0: the quadrature runs out of
    # refinements and each row carries its achieved error
    res, sup = residual_from_config({"name": "sin_inv_t", "amplitude": 0.1})
    b = BesicovitchWeight((TrigTerm(0.4, 0.15),), res, sup)
    table = besicovitch_error(b, [0.5, 0.05, 1e-3])
    assert len(table.errors) == len(table.rows)
    assert all(err > rtol for err in table.errors)
    # |cos t| has no kink below pi/2, so every row converges
    res, sup = residual_from_config({"name": "cos", "amplitude": 0.05, "frequency": 1.0})
    b = BesicovitchWeight((TrigTerm(0.4, 0.15),), _quadrature_residual(res), sup)
    table = besicovitch_error(b, np.geomspace(1.0, 1e-3, 8))
    assert all(err <= rtol for err in table.errors)
    # the kink of |cos 7t| at pi/14 lies inside T = 0.5; it is a panel edge,
    # so that row converges too
    res, sup = residual_from_config({"name": "cos", "amplitude": 0.04, "frequency": 7.0})
    table = besicovitch_error(BesicovitchWeight((), _quadrature_residual(res), sup), [0.5, 0.1])
    assert all(err <= rtol for err in table.errors)


def _quadrature_residual(res):
    """The residual without its declared mean of |r|, so that the local mean
    gap takes the scalar quadrature, cut at the declared kinks."""
    return dataclasses.replace(res, mean_abs=None)


# The default weight's residual 0.04 cos 7t has kinks in |r| at odd multiples
# of pi/14, two of them inside T = 1.
KINKED_GRID = np.geomspace(1.0, 1e-5, 48)


def _default_weight() -> BesicovitchWeight:
    return weight_from_config(ExperimentConfig().weight)


def _quadrature_weight() -> BesicovitchWeight:
    """The default weight, its mean of |r| taken by the kinked quadrature."""
    b = _default_weight()
    return dataclasses.replace(b, residual=_quadrature_residual(b.residual))


def _mean_abs_cos(amp: float, freq: float, T: float) -> float:
    """(1/T) integral_0^T |amp cos(freq t)| dt = amp (2k + (-1)^k sin u) / u,
    with u = freq T and k = floor(u/pi + 1/2)."""
    u = freq * T
    k = math.floor(u / math.pi + 0.5)
    return abs(amp) * (2 * k + (-1) ** k * math.sin(u)) / u


def _kinked_true_errors(b: BesicovitchWeight):
    table = besicovitch_error(b, KINKED_GRID)
    exact = [_mean_abs_cos(0.04, 7.0, T) for T, _ in table.rows]
    return [abs(v - e) / e for (_, v), e in zip(table.rows, exact)], table.errors


def test_kinked_mean_gap_matches_closed_form(alg, rng):
    b = _quadrature_weight()
    true_errors, _ = _kinked_true_errors(b)
    assert max(true_errors) <= 1e-8
    sg = ScalarDecay(alg, 1.0)
    x = random_positive(alg, rng, norm=1.0)
    for T in KINKED_GRID:
        _, rhs, _ = substitution_bound_check(sg, b, x, float(T))
        exact = _mean_abs_cos(0.04, 7.0, float(T))
        assert rhs / (2.0 * x.norm_inf()) == pytest.approx(exact, rel=1e-8)


def test_kinked_mean_gap_error_is_reported():
    true_errors, reported = _kinked_true_errors(_quadrature_weight())
    roundoff = 8 * np.finfo(float).eps
    assert all(t <= r + roundoff for t, r in zip(true_errors, reported))


def test_kinked_rows_converge_to_the_closed_form():
    # the declared kinks cut the panels, so every row of the default weight's
    # table converges and matches the closed form to roundoff
    true_errors, reported = _kinked_true_errors(_quadrature_weight())
    assert max(reported) <= QUAD_RTOL
    assert max(true_errors) <= 1e-12


def _cos_lengths(freq: float) -> list[float]:
    """T from 1e-5 to 1, plus the kinks (k + 1/2) pi / |freq| in (0, 1] and
    points just either side of them."""
    Ts = np.geomspace(1e-5, 1.0, 11).tolist()
    if freq:
        for kink in (np.arange(3) + 0.5) * (math.pi / abs(freq)):
            Ts += [t for t in (kink, kink * (1 - 1e-9), kink * (1 + 1e-9)) if t <= 1.0]
    return Ts


@pytest.mark.parametrize("amp", [0.04, -0.04])
@pytest.mark.parametrize("freq", [7.0, -7.0, 0.0])
def test_declared_cos_mean_abs_matches_the_quadrature(amp, freq):
    res, sup = residual_from_config({"name": "cos", "amplitude": amp, "frequency": freq})
    Ts = _cos_lengths(freq)
    for T in Ts:
        quad, _ = integrate_scalar(lambda ts: np.abs(res(ts)), 0.0, T, res.kinks(T))
        assert res.mean_abs(T) == pytest.approx(quad / T, rel=1e-12, abs=0.0)
        exact = _mean_abs_cos(amp, abs(freq), T) if freq else abs(amp)
        assert res.mean_abs(T) == exact
    # the local mean gap reads the closed form and reports no quadrature error
    table = besicovitch_error(BesicovitchWeight((), res, sup), sorted(Ts, reverse=True))
    assert all(v == res.mean_abs(T) for T, v in table.rows)
    assert table.errors == (0.0,) * len(Ts)


@pytest.mark.parametrize("value", [0.07, -0.07, 0.03 + 0.04j, -0.05j])
def test_declared_constant_mean_abs_matches_the_quadrature(value):
    res, sup = residual_from_config({"name": "constant", "value": value})
    for T in np.geomspace(1e-5, 1.0, 6):
        quad, _ = integrate_scalar(lambda ts: np.abs(res(ts)), 0.0, T, res.kinks(T))
        assert res.mean_abs(T) == abs(value) == sup
        assert res.mean_abs(T) == pytest.approx(quad / T, rel=1e-12, abs=0.0)


def test_mapped_weights_and_plain_callables_take_the_quadrature(monkeypatch):
    calls = []
    quadrature = averaging.integrate_scalar

    def counted(*args, **kwargs):
        calls.append(args[2:4])
        return quadrature(*args, **kwargs)

    monkeypatch.setattr(averaging, "integrate_scalar", counted)
    res, sup = residual_from_config({"name": "cos", "amplitude": 0.04, "frequency": 7.0})
    b = BesicovitchWeight((TrigTerm(0.4, 0.15),), res, sup)
    grid = [0.5, 0.1, 1e-3]
    closed = besicovitch_error(b, grid)
    assert calls == [] and closed.errors == (0.0,) * len(grid)
    plain = BesicovitchWeight(b.terms, lambda ts: 0.04 * np.cos(7.0 * np.asarray(ts)), sup)
    # |conj r| = |Re r| = |r| for this real r, so the quadrature meets the closed form
    for weight, same in ((b.conjugated(), True), (b.real_part(), True), (b.imag_part(), False),
                         (plain, True)):
        calls.clear()
        table = besicovitch_error(weight, grid)
        assert len(calls) == len(grid)
        if same:
            for (_, v), (_, c) in zip(table.rows, closed.rows):
                assert v == pytest.approx(c, rel=1e-8)


def test_residual_quadrature_check_catches_a_wrong_closed_form(tmp_path, monkeypatch):
    # the weighted-avg suite compares the declared mean of |r| with the
    # scalar quadrature; a closed form off by 1e-8 relative fails it
    cfg = ExperimentConfig(n_random=2, weighted_cases=4, T_n=12)
    assert run(cfg, "weighted-avg", tmp_path / "ok").passed["weighted-avg:residual_quadrature"]
    true_form = averaging._mean_abs_cos
    monkeypatch.setattr(
        averaging, "_mean_abs_cos", lambda a, w, T: true_form(a, w, T) * (1.0 + 1e-8)
    )
    bad = run(cfg, "weighted-avg", tmp_path / "bad")
    assert bad.passed["weighted-avg:residual_quadrature"] is False


def test_residual_kinks_are_declared():
    cos, _ = residual_from_config({"name": "cos", "amplitude": 0.04, "frequency": -7.0})
    np.testing.assert_allclose(cos.kinks(1.0), [math.pi / 14, 3 * math.pi / 14], rtol=1e-15)
    assert np.allclose(cos(np.asarray(cos.kinks(1.0))), 0.0, atol=1e-16)
    # more kinks than a unit interval's last pass has panels are not declared
    wild, _ = residual_from_config({"name": "cos", "frequency": 1e300})
    assert len(wild.kinks(1.0)) == 0
    capped, _ = residual_from_config({"name": "linear_capped", "slope": 2.0, "cap": 0.5})
    assert tuple(capped.kinks(1.0)) == (0.25,)
    for spec in (
        {"name": "linear_capped", "slope": -1.0, "cap": 0.5},
        {"name": "linear_capped", "slope": 0.0, "cap": 0.5},
        {"name": "cos", "frequency": 0.0},
        {"name": "constant", "value": 0.1},
        {"name": "sin_inv_t"},
    ):
        assert len(residual_from_config(spec)[0].kinks(1.0)) == 0, spec
    # the derived weights keep the kinks of their residual
    b = BesicovitchWeight((TrigTerm(0.5, 0.1),), capped, 0.5)
    for derived in (b.conjugated(), b.real_part(), b.imag_part()):
        assert tuple(derived.residual.kinks(1.0)) == (0.25,)


def test_plain_callable_residual_is_wrapped_and_takes_the_quadratures(alg, rng, monkeypatch):
    func = lambda ts: 0.04 * np.cos(7.0 * np.asarray(ts))
    b = BesicovitchWeight((TrigTerm(0.4, 0.15),), func, 0.04)
    assert isinstance(b.residual, averaging.Residual) and b.residual.func is func
    assert len(b.residual.kinks(1.0)) == 0
    assert b.residual.terms is None and b.residual.mean_abs is None
    # a Residual is stored as given
    assert BesicovitchWeight(b.terms, b.residual, 0.04).residual is b.residual

    calls = []
    for name in ("integrate_flow", "integrate_scalar"):
        func_ = getattr(averaging, name)
        monkeypatch.setattr(
            averaging, name, lambda *a, f=func_, n=name, **k: calls.append(n) or f(*a, **k)
        )
    sg = ScalarDecay(alg, 1.0)
    x = random_positive(alg, rng, norm=1.0)
    weighted_average(sg, b, x, 0.5)
    assert calls == ["integrate_flow"]
    calls.clear()
    besicovitch_error(b, [0.5, 0.1])
    assert calls == ["integrate_scalar"] * 2
    calls.clear()
    substitution_bound_check(sg, b, x, 0.1)
    assert calls == ["integrate_flow", "integrate_scalar"]


@pytest.mark.parametrize("slope", [0.2, -0.2])
@pytest.mark.parametrize("cap", [0.05, -0.05])
def test_linear_capped_declares_its_sup_on_the_unit_interval(slope, cap):
    # r(t) = min(slope t, cap) is monotone: its sup on [0, 1] is at an endpoint
    r, sup = residual_from_config({"name": "linear_capped", "slope": slope, "cap": cap})
    assert sup >= np.max(np.abs(r(np.linspace(0.0, 1.0, 1001))))
    assert sup == (abs(cap) if slope >= 0 else max(abs(cap), abs(slope)))


def test_weight_from_config_roundtrip():
    spec = {
        "trig": [{"kappa_re": 0.5, "kappa_im": -0.1, "theta": 0.3}],
        "residual": {"name": "cos", "amplitude": 0.05, "frequency": 3.0},
        "sup_bound": 0.8,
    }
    b = weight_from_config(spec)
    assert b.sup_bound == 0.8
    ts = np.linspace(0, 5, 101)
    expected = (0.5 - 0.1j) * np.exp(2j * math.pi * 0.3 * ts) + 0.05 * np.cos(3.0 * ts)
    np.testing.assert_allclose(b.value(ts), expected, atol=1e-14)


def test_weight_from_config_rejects_a_sampled_excess_over_sup_bound():
    # |b(0)| = 0.55 + 0.05: a declared bound below it is false
    spec = {
        "trig": [{"kappa_re": 0.55, "theta": 0.3}],
        "residual": {"name": "constant", "value": 0.05},
    }
    for bound in (0.1, 0.59):
        with pytest.raises(ConfigError, match="sup_bound"):
            weight_from_config({**spec, "sup_bound": bound})
    # bounds that hold, also tight ones, are kept; so is the default weight
    assert weight_from_config(spec).sup_bound == pytest.approx(0.6)
    assert weight_from_config({**spec, "sup_bound": 0.6}).sup_bound == 0.6
    tight = {"trig": [{"kappa_re": 0.3, "kappa_im": 0.4, "theta": 0.37}], "sup_bound": 0.5}
    assert weight_from_config(tight).sup_bound == 0.5
    assert _default_weight().sup_bound == 0.95


# ---------------------------------------------------------------------------
# substitution bound
# ---------------------------------------------------------------------------

def test_substitution_bound_trivial_when_equal(alg, rng):
    b = BesicovitchWeight((TrigTerm(0.6, 0.2),))
    x = random_positive(alg, rng)
    lhs, rhs, _ = substitution_bound_check(ScalarDecay(alg, 1.0), b, x, 0.5)
    assert lhs < 1e-12 and rhs < 1e-12


def test_substitution_bound_constant_offset(alg, rng):
    # b = P + delta: the gap is exactly delta * ||beta_T(x)|| and the bound
    # keeps its factor of two
    delta = 0.07
    res, sup = residual_from_config({"name": "constant", "value": delta})
    terms = (TrigTerm(0.5, 0.3),)
    b = BesicovitchWeight(terms, res, sup)
    sg = ScalarDecay(alg, 1.0)
    x = random_positive(alg, rng, norm=1.0)
    T = 0.9
    lhs, rhs, _ = substitution_bound_check(sg, b, x, T)
    beta = cesaro_average(sg, x, T)
    assert lhs == pytest.approx(delta * beta.norm_inf(), rel=1e-9)
    assert rhs == pytest.approx(2.0 * delta * x.norm_inf(), rel=1e-9)
    assert lhs <= rhs + 1e-12


def test_substitution_bound_random_schur(rng):
    alg = TracialAlgebra((3,), (1.0,))
    idx = np.arange(3)
    sg = SchurDecay(alg, [np.abs(idx[:, None] - idx[None, :]).astype(float)])
    res, sup = residual_from_config({"name": "cos", "amplitude": 0.05, "frequency": 7.0})
    b = BesicovitchWeight((TrigTerm(0.6, 0.22),), res, sup)
    for _ in range(5):
        x = random_positive(alg, rng, norm=1.0)
        T = float(rng.uniform(0.05, 1.5))
        lhs, rhs, _ = substitution_bound_check(sg, b, x, T)
        assert lhs <= rhs + 1e-8


def test_substitution_bound_reports_quadrature_error(alg, rng):
    # the mean gap |0.04 cos 7t| has a kink at pi/14 that a plain callable
    # does not declare: inside T = 0.5 the scalar quadrature stops short of
    # rtol, below it every row converges
    rtol = QUAD_RTOL
    sg = ScalarDecay(alg, 1.0)
    x = random_positive(alg, rng, norm=1.0)
    b = BesicovitchWeight((TrigTerm(0.4, 0.15),), lambda ts: 0.04 * np.cos(7.0 * ts), 0.04)
    for T, converges in ((0.5, False), (0.1, True), (1e-3, True)):
        lhs, rhs, err = substitution_bound_check(sg, b, x, T)
        assert (err <= rtol) == converges
        assert lhs <= rhs


def test_substitution_bound_converges_past_the_cap(alg, rng, monkeypatch):
    # r = min(2t, 0.5) has its corner at t = 0.25: cut there, both the flow
    # and the mean-gap quadrature converge within two doublings
    monkeypatch.setattr(averaging, "MAX_REFINEMENTS", 2)
    res, sup = residual_from_config({"name": "linear_capped", "slope": 2.0, "cap": 0.5})
    b = BesicovitchWeight((TrigTerm(0.4, 0.15),), res, sup)
    sg = ScalarDecay(alg, 1.0)
    x = random_positive(alg, rng, norm=1.0)
    for T in (0.3, 0.9, 3.0):
        lhs, rhs, err = substitution_bound_check(sg, b, x, T)
        assert err <= QUAD_RTOL
        # (1/T) integral_0^T |r| = 1/2 - 1/(16 T) past the corner
        assert rhs == pytest.approx(2.0 * (0.5 - 1.0 / (16.0 * T)) * x.norm_inf(), rel=1e-12)
        assert lhs <= rhs


def test_substitution_bound_needs_positive(alg, rng):
    b = BesicovitchWeight((TrigTerm(0.5, 0.1),))
    with pytest.raises(ValueError):
        substitution_bound_check(
            Identity(alg), b, random_self_adjoint(alg, rng) - alg.identity(), 1.0
        )


def _mixed_weights():
    """Weights whose residuals take every path: closed form (cos, twice),
    none, and quadrature (linear_capped and a plain callable)."""
    terms = (TrigTerm(0.4, 0.15), TrigTerm(0.2 - 0.1j, -0.3))
    cos, cos_sup = residual_from_config({"name": "cos", "amplitude": 0.06, "frequency": 5.0})
    cos2, cos2_sup = residual_from_config({"name": "cos", "amplitude": 0.02, "frequency": -2.0})
    ramp, ramp_sup = residual_from_config({"name": "linear_capped", "slope": 0.2, "cap": 0.05})
    return [
        BesicovitchWeight(terms, cos, cos_sup),
        BesicovitchWeight(terms[:1]),
        BesicovitchWeight(terms, ramp, ramp_sup),
        BesicovitchWeight(terms[1:], lambda ts: 0.04 * np.cos(7.0 * ts), 0.04),
        BesicovitchWeight(terms[1:], cos2, cos2_sup),
    ]


@pytest.mark.parametrize("variant", ["scalar_decay", "unitary_flow", "generator_exp"])
def test_substitution_bound_checks_match_per_case_rows(alg, rng, monkeypatch, variant):
    sg = {
        "scalar_decay": ScalarDecay(alg, 1.0),
        "unitary_flow": UnitaryFlow(alg, random_self_adjoint(alg, rng)),
        "generator_exp": GeneratorExp(
            alg, lindblad_generator(alg, random_self_adjoint(alg, rng), [random_self_adjoint(alg, rng)])
        ),
    }[variant]
    weights = _mixed_weights()
    xs = [random_positive(alg, rng, norm=1.0) for _ in weights]
    # the plain callable's first kink is at pi/14, so its mean gap converges at 0.05
    Ts = [0.3, 0.9, 1.5, 0.05, 1e-3]
    calls = []
    mean_batch, flow = type(sg).mean_batch, averaging.integrate_flow
    monkeypatch.setattr(type(sg), "mean_batch", lambda *a: calls.append("mean") or mean_batch(*a))
    monkeypatch.setattr(
        averaging, "integrate_flow", lambda *a, **kw: calls.append("quad") or flow(*a, **kw)
    )
    rows = averaging.substitution_bound_checks(sg, weights, stack_blocks(xs), Ts)
    # one mean_batch per residual term index, one quadrature per fallback case
    assert sorted(calls) == ["mean", "mean", "quad", "quad"]
    assert rows.shape == (len(weights), 3)
    for row, b, x, T in zip(rows, weights, xs, Ts):
        want = substitution_bound_check(sg, b, x, T)
        if variant == "generator_exp":  # its eigenbasis GEMM rounds by column count
            np.testing.assert_allclose(row, want, rtol=1e-14, atol=0.0)
        else:
            np.testing.assert_array_equal(row, want)
        # the lhs against a quadrature of the whole residual average
        if b.residual is not None:
            quad = averaging.integrate_flow(
                sg, x, 0.0, T, weight=b.residual, rtol=1e-13, kinks=b.residual.kinks(T)
            ).value / T
            assert row[0] == pytest.approx(quad.norm_inf(), rel=1e-11)
        assert row[0] <= row[1]


def test_substitution_bound_checks_name_the_first_bad_case(alg, rng):
    weights = _mixed_weights()
    xs = [random_positive(alg, rng, norm=1.0) for _ in weights]
    for bad in (2, 4):
        members = list(xs)
        members[bad] = random_self_adjoint(alg, rng) - alg.identity()
        with pytest.raises(ValueError, match=rf"positive operator \(case {bad}\)"):
            averaging.substitution_bound_checks(
                Identity(alg), weights, stack_blocks(members), [0.5] * len(weights)
            )
    with pytest.raises(ValueError, match="one weight, input and length per case"):
        averaging.substitution_bound_checks(Identity(alg), weights, stack_blocks(xs), [0.5])


def test_substitution_bound_checks_take_zero_cases(alg):
    rows = averaging.substitution_bound_checks(
        Identity(alg), [], [np.zeros((0, n, n)) for n in alg.blocks], []
    )
    assert rows.shape == (0, 3)
