import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from ncerg import (
    BesicovitchWeight,
    GeneratorExp,
    Identity,
    MaximalParams,
    Operator,
    ScalarDecay,
    SchurDecay,
    TracialAlgebra,
    TrigTerm,
    UnitaryFlow,
    bau_cauchy_certify,
    besicovitch_error,
    cesaro_average,
    double_average_certificate,
    lp_limit_check,
    maximal_projection,
    operator_from_dict,
    perturbation_transfer,
    random_positive,
    random_projection,
    random_self_adjoint,
    trace,
)
from ncerg.algebra import (
    abs_value,
    pnorm,
    proj_meet,
    random_operator,
    spectral_projection,
    spectral_resolution,
    stack_blocks,
)
from ncerg.bau import (
    ScheduleExhaustedError,
    TransferPremiseError,
    first_index_below,
    maximal_certificates,
)
from ncerg.semigroups import lindblad_generator
from oracles import recompute_bound, tail_pairs


def phi(gamma, T):
    return (1.0 - math.exp(-gamma * T)) / (gamma * T)


# ---------------------------------------------------------------------------
# maximal projection
# ---------------------------------------------------------------------------

def test_maximal_zero_operator(alg):
    cert = maximal_projection(
        Identity(alg), alg.zero(), MaximalParams(1.0, 1.0, 0.3), [1.0, 0.5]
    )
    assert cert.cotrace == 0.0
    assert cert.achieved_bound == 0.0


def test_maximal_scalar_decay_diagonal():
    alg = TracialAlgebra((2,), (0.8,))
    sg = ScalarDecay(alg, 1.0)
    x = Operator(alg, [np.diag([10.0 + 0j, 0.001])])
    grid = np.geomspace(1e-3, 10.0, 16)
    cert = maximal_projection(sg, x, MaximalParams(1.0, 1.0, 0.5), grid)
    # the large coordinate survives every average on this grid, the small
    # one never crosses the level
    assert cert.cotrace == pytest.approx(0.8)
    np.testing.assert_allclose(
        cert.projection.op.blocks[0], np.diag([0.0, 1.0]), atol=1e-10
    )
    assert cert.achieved_bound <= 0.5 + 1e-10


def test_maximal_per_grid_chebyshev_rows(alg, rng):
    sg = UnitaryFlow(alg, random_self_adjoint(alg, rng, norm=1.0))
    x = random_self_adjoint(alg, rng, norm=1.0)
    p = 2.0
    eps = 0.3
    grid = np.geomspace(1e-2, 5.0, 8)
    cert = maximal_projection(sg, x, MaximalParams(1.0, p, eps), grid)
    for T, cot, bound in cert.params["chebyshev"]:
        # oracle: recompute the bound from the eigenvalues of the average
        y = cesaro_average(sg, x, float(T))
        eigs = np.concatenate(
            [np.linalg.eigvalsh((b + b.conj().T) / 2) for b in y.blocks]
        )
        indep = float((np.abs(eigs) ** p * np.repeat(alg.weights, alg.blocks)).sum())
        assert bound == pytest.approx(indep / eps**p, rel=1e-9)
        assert cot <= bound + 1e-9


def test_maximal_bound_and_self_verification(alg, rng):
    sg = ScalarDecay(alg, 0.7)
    x = random_self_adjoint(alg, rng, norm=1.0)
    grid = np.geomspace(1e-4, 10.0, 24)
    cert = maximal_projection(sg, x, MaximalParams(1.0, 1.0, 0.25), grid)
    assert cert.achieved_bound <= 0.25 + 1e-8
    family = [cesaro_average(sg, x, T).herm() for T in grid]
    assert abs(recompute_bound(cert, family) - cert.achieved_bound) < 1e-10
    assert cert.cotrace == pytest.approx(
        (trace(alg, alg.identity()) - trace(alg, cert.projection.op)).real, abs=1e-12
    )


def _assert_maximal_matches_reference(sg, x, params, family):
    """Batched maximal_projection against per-T cuts and a pairwise meet fold.

    The reference takes |y_T| by abs_value, cuts its spectral resolution at
    eps per T, folds proj_meet over the cuts and recomputes every compressed
    norm with Operator.norm_inf.
    """
    grid = sorted(family, reverse=True)
    cert = maximal_projection(sg, x, params, grid, family=family)
    ys = [family[T].herm() for T in grid]
    eps, p = params.epsilon, params.p
    cuts = [spectral_projection(spectral_resolution(abs_value(y)), eps) for y in ys]
    e = reduce(proj_meet, cuts)
    assert cert.cotrace == e.cotrace
    assert (cert.projection.op - e.op).norm_inf() <= 1e-12
    achieved = max((e.op @ y @ e.op).norm_inf() for y in ys)
    assert cert.achieved_bound == pytest.approx(achieved, rel=1e-12, abs=0.0)
    for (T, cot, bound), y, cut in zip(cert.params["chebyshev"], ys, cuts):
        assert cot == cut.cotrace
        ref = eps ** (-p) * pnorm(sg.algebra, y, p) ** p
        assert bound == pytest.approx(ref, rel=1e-12, abs=0.0)
    return cert


def test_maximal_matches_per_T_reference(alg6, rng):
    rates = [
        np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)
        for n in alg6.blocks
    ]
    lind = lindblad_generator(
        alg6,
        random_self_adjoint(alg6, rng, norm=0.5),
        [random_self_adjoint(alg6, rng, norm=0.5)],
    )
    sgs = [
        UnitaryFlow(alg6, random_self_adjoint(alg6, rng, norm=1.0)),
        SchurDecay(alg6, rates),
        GeneratorExp(alg6, lind),
    ]
    partial = 0
    for sg in sgs:
        # a long grid meets to 0; a rank-one spike on three grid points
        # leaves part of the 4-block
        cases = ((0.2, 1.0, np.geomspace(1e-3, 5.0, 10)), (0.5, 2.0, [2.0, 0.5, 0.05]))
        for eps, p, grid in cases:
            x = random_self_adjoint(alg6, rng, norm=0.1)
            x = x + random_projection(alg6, rng, ranks=(1, 1)).op
            family = {float(T): cesaro_average(sg, x, float(T)) for T in grid}
            cert = _assert_maximal_matches_reference(sg, x, MaximalParams(1.0, p, eps), family)
            partial += any(0 < r < n for r, n in zip(cert.projection.ranks(), alg6.blocks))
    assert partial >= 3


def test_maximal_reference_edge_families(alg6, rng):
    eps = 0.25
    params = MaximalParams(1.0, 1.0, eps)
    sg = Identity(alg6)
    u = [
        np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        for n in alg6.blocks
    ]

    def rotated(*diags):
        return Operator(alg6, [q @ np.diag(d) @ q.conj().T for q, d in zip(u, diags)])

    # eigenvalues +-eps tie with the level and are kept
    y = rotated([eps, -eps], [0.1, eps, 2 * eps, -3 * eps])
    cert = _assert_maximal_matches_reference(sg, y, params, {1.0: y, 0.5: 0.5 * y})
    assert cert.projection.ranks() == (2, 2)
    assert cert.cotrace == 0.5 * 2
    assert cert.achieved_bound <= eps + 1e-12
    # every eigenvector of block 0 is dropped: the meet is 0 there and the
    # block's full weight counts in the co-trace
    y = rotated([2 * eps, -3 * eps], [0.0, 0.0, 0.0, 0.0])
    cert = _assert_maximal_matches_reference(sg, y, params, {1.0: y, 0.5: 0.9 * y})
    assert cert.projection.ranks() == (0, 4)
    assert cert.cotrace == 1.0 * 2
    assert cert.achieved_bound == 0.0
    # the zero family keeps everything
    z = alg6.zero()
    cert = _assert_maximal_matches_reference(sg, z, params, {1.0: z, 0.5: z})
    assert cert.cotrace == 0.0 and cert.achieved_bound == 0.0
    assert cert.params["chebyshev"] == [[1.0, 0.0, 0.0], [0.5, 0.0, 0.0]]


def test_maximal_requires_self_adjoint(alg, rng):
    with pytest.raises(ValueError):
        maximal_projection(
            Identity(alg),
            random_operator(alg, rng) + 1j * alg.identity(),
            MaximalParams(1.0, 1.0, 0.3),
            [1.0],
        )


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_maximal_certificates_match_per_epsilon_calls(alg6, rng, p):
    # one spectrum for every epsilon, in any order and with a repeat, gives
    # each single-epsilon certificate to the bit; a scalar decay keeps the
    # eigenvectors, so the cuts nest and three epsilons give three co-traces
    sg = ScalarDecay(alg6, 1.0)
    x = random_self_adjoint(alg6, rng, norm=0.6)
    grid = np.geomspace(1e-3, 0.5, 6)
    params = [MaximalParams(1.0, p, eps) for eps in (0.2, 0.5, 0.1, 0.2)]
    certs = maximal_certificates(sg, stack_blocks([x]), params, grid)[0]
    assert len({c.cotrace for c in certs}) == 3
    for q, got in zip(params, certs):
        want = maximal_projection(sg, x, q, grid)
        pairs = zip(got.projection.op.blocks, want.projection.op.blocks)
        assert all(np.array_equal(a, b) for a, b in pairs)
        assert (got.cotrace, got.achieved_bound) == (want.cotrace, want.achieved_bound)
        assert (got.epsilon, got.params, got.flags) == (q.epsilon, want.params, want.flags)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_maximal_certificates_match_per_case_calls(alg6, p):
    # one stacked pass over k inputs gives each input's certificates, among
    # them inputs that no epsilon cuts (a zero and a small multiple)
    rng = np.random.default_rng(41)
    sg = UnitaryFlow(alg6, random_self_adjoint(alg6, rng, norm=1.0))
    xs = [random_self_adjoint(alg6, rng, norm=1.0) for _ in range(4)]
    xs += [0.05 * xs[0], alg6.zero()]
    grid = np.geomspace(1e-3, 2.0, 7)
    params = [MaximalParams(1.0, p, eps) for eps in (0.5, 0.2, 0.1)]
    stacked = maximal_certificates(sg, stack_blocks(xs), params, grid)
    assert len(stacked) == len(xs)
    for x, got_certs in zip(xs, stacked):
        one = maximal_certificates(sg, stack_blocks([x]), params, grid)[0]
        for got, want in zip(got_certs, one, strict=True):
            assert got.cotrace == want.cotrace
            assert (got.epsilon, got.params, got.flags) == (want.epsilon, want.params, want.flags)
            assert got.achieved_bound == pytest.approx(want.achieved_bound, rel=0, abs=1e-12)
            for a, b in zip(got.projection.op.blocks, want.projection.op.blocks):
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
    uncut = [c.cotrace for c in stacked[-2] + stacked[-1]]
    assert uncut == [0.0] * 6
    assert all(
        np.array_equal(a, np.eye(len(a)))
        for c in stacked[-1] for a in c.projection.op.blocks
    )


def test_maximal_certificates_need_one_exponent(alg, rng):
    params = [MaximalParams(1.0, 1.0, 0.3), MaximalParams(1.0, 2.0, 0.3)]
    with pytest.raises(ValueError, match="one exponent"):
        xs = stack_blocks([random_self_adjoint(alg, rng)])
        maximal_certificates(Identity(alg), xs, params, [1.0])[0]


@pytest.mark.parametrize(
    "inputs, grid, match",
    [("none", [1.0], "at least one input"), ("one", [], "T_grid must hold at least one T")],
    ids=["no_inputs", "empty_grid"],
)
def test_maximal_certificates_name_empty_inputs(alg, rng, inputs, grid, match):
    xs = [] if inputs == "none" else [random_self_adjoint(alg, rng)]
    params = [MaximalParams(1.0, 1.0, 0.3)]
    with pytest.raises(ValueError, match=match):
        maximal_certificates(Identity(alg), stack_blocks(xs), params, grid)


def _maximal_blocks_8_16():
    # blocks (8,16), 4 inputs of norm 0.6 and a 24-point grid: at eps 0.5
    # two cases keep a meet that is not 0, at 0.2 and 0.1 none does
    alg = TracialAlgebra((8, 16), (1.0, 0.5))
    rng = np.random.default_rng(5)
    sg = UnitaryFlow(alg, random_self_adjoint(alg, rng, norm=1.0))
    xs = stack_blocks([random_self_adjoint(alg, rng, norm=0.6) for _ in range(4)])
    params = [MaximalParams(1.0, 2.0, eps) for eps in (0.5, 0.2, 0.1)]
    return sg, xs, params, np.geomspace(1e-3, 2.0, 24)


def test_maximal_certificates_hold_at_most_four_and_a_half_stacks():
    # the working set of the maximal pass, in units of one case-major
    # (k, m, n, n) stack summed over blocks: the averages, their eigenvectors,
    # and one block's meet rows and the copy its R factor is taken from
    sg, xs, params, grid = _maximal_blocks_8_16()
    stack = sum(16 * len(xs[0]) * len(grid) * n * n for n in sg.algebra.blocks)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        maximal_certificates(sg, xs, params, grid)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 4.5 * stack, peak / stack


def test_maximal_certificates_send_no_empty_stack_to_lapack(monkeypatch):
    # an epsilon at which no case keeps a meet forms no product and takes no
    # SVD; its achieved bounds stay 0
    sg, xs, params, grid = _maximal_blocks_8_16()
    sizes = []
    svd = np.linalg.svd

    def record(a, *args, **kwargs):
        sizes.append(np.size(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", record)
    certs = maximal_certificates(sg, xs, params, grid)
    monkeypatch.undo()
    assert sizes and 0 not in sizes
    bounds = np.array([[c.achieved_bound for c in cs] for cs in certs])
    assert (bounds[:, 0] > 0).sum() == 2 and not bounds[:, 1:].any()


# ---------------------------------------------------------------------------
# shrinking-window certificate
# ---------------------------------------------------------------------------

def test_window_certificate_identity_flow(alg, rng):
    x = random_positive(alg, rng, norm=1.0)
    sched = np.geomspace(0.25, 1e-6, 16)
    cert = double_average_certificate(
        Identity(alg), x, b=1.0, p=1.0, epsilon=0.3, a_schedule=sched
    )
    assert cert.ok
    assert cert.cotrace < 0.3
    assert all(d < 1e-12 for _, d in cert.decay)


def test_window_certificate_levels_are_geometric(alg, rng):
    x = random_positive(alg, rng, norm=1.0)
    sched = np.geomspace(0.25, 1e-7, 20)
    eps = 0.3
    cert = double_average_certificate(
        ScalarDecay(alg, 1.0), x, b=1.0, p=1.0, epsilon=eps, a_schedule=sched
    )
    head_budget = 0.0
    for tag, k, a_k, tr, level, cot in cert.params["levels"]:
        assert level == eps / 2.0 ** (k + 1)
        assert tr < eps**2 / 4.0**k
        assert cot <= level + 1e-12
        if tag == "head":
            head_budget += eps / 2.0 ** (k + 1)
    assert cert.params["head_cotrace"] <= head_budget + 1e-12
    assert cert.cotrace < eps


def test_window_certificate_scalar_decay_closed_form(alg, rng):
    gamma = 1.0
    sg = ScalarDecay(alg, gamma)
    x = random_positive(alg, rng, norm=1.0)
    b = 1.0
    sched = np.geomspace(0.25, 1e-7, 20)
    cert = double_average_certificate(
        sg, x, b=b, p=1.0, epsilon=0.3, a_schedule=sched
    )
    exe = (cert.projection.op @ x @ cert.projection.op).norm_inf()
    # absolute floor: the difference of two O(1) averages carries the
    # quadrature's absolute roundoff even when the gap itself is tiny
    for a, d in cert.decay:
        expected = abs(phi(gamma, a) - 1.0) * phi(gamma, b) * exe
        assert d == pytest.approx(expected, rel=1e-5, abs=1e-9)
    assert cert.params["final_decay"] < 1e-6


def test_window_certificate_schedule_exhaustion(alg, rng):
    x = random_positive(alg, rng, norm=1.0)
    with pytest.raises(ScheduleExhaustedError):
        double_average_certificate(
            ScalarDecay(alg, 1.0),
            x,
            b=1.0,
            p=1.0,
            epsilon=0.3,
            a_schedule=[0.5, 0.4],
            levels=6,
        )


def test_window_certificate_needs_positive(alg, rng):
    with pytest.raises(ValueError):
        double_average_certificate(
            Identity(alg),
            random_self_adjoint(alg, rng) - alg.identity(),
            b=1.0,
            p=1.0,
            epsilon=0.3,
            a_schedule=[0.1, 0.01],
        )


# ---------------------------------------------------------------------------
# Cauchy certification
# ---------------------------------------------------------------------------

def test_cauchy_constant_family(alg, rng):
    x = random_self_adjoint(alg, rng)
    fam = [(T, x) for T in (1.0, 0.5, 0.25, 0.125)]
    cert = bau_cauchy_certify(fam, epsilon=0.5)
    assert cert.ok
    assert cert.cotrace == 0.0
    assert all(d == 0.0 for _, d in cert.decay)


def test_cauchy_linear_family_analytic_bound(alg, rng):
    x = random_self_adjoint(alg, rng, norm=1.0)
    Ts = [2.0**-k for k in range(10)]
    fam = [(T, (1.0 + T) * x) for T in Ts]
    cert = bau_cauchy_certify(fam, epsilon=0.5, tol=1e-2)
    for delta, d in cert.decay:
        assert d <= 2.0 * delta * x.norm_inf() + 1e-12


def test_cauchy_cesaro_family_cross_check(alg, rng):
    sg = UnitaryFlow(alg, random_self_adjoint(alg, rng, norm=1.0))
    x = random_self_adjoint(alg, rng, norm=1.0)
    Ts = [2.0**-k for k in range(12)]
    fam = [(T, cesaro_average(sg, x, T)) for T in Ts]
    cert = bau_cauchy_certify(
        fam, epsilon=0.1 * alg.trace_of_identity, tol=1e-3
    )
    assert cert.ok
    assert cert.cotrace <= 0.1 * alg.trace_of_identity
    # decay is suffix-max, hence nonincreasing, and dominated by 2 max ||b_T x - x||
    values = [d for _, d in cert.decay]
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
    for delta, d in cert.decay:
        dominating = 2.0 * max(
            (y - x).norm_inf() for T, y in fam if T <= delta + 1e-15
        )
        assert d <= dominating + 1e-10
    pairs = tail_pairs(fam, cert.params["tail_start"])
    assert abs(recompute_bound(cert, pairs) - cert.achieved_bound) < 1e-10


def test_cauchy_rejects_bad_grid(alg, rng):
    x = random_self_adjoint(alg, rng)
    with pytest.raises(ValueError):
        bau_cauchy_certify([(0.5, x), (1.0, x)], epsilon=0.5)


def test_cauchy_detects_nonconvergent_family(alg, rng):
    x = random_self_adjoint(alg, rng, norm=1.0)
    y = random_self_adjoint(alg, rng, norm=1.0)
    fam = [(T, x if i % 2 else y) for i, T in enumerate([2.0**-k for k in range(8)])]
    cert = bau_cauchy_certify(fam, epsilon=1e-6, tol=1e-6)
    assert not cert.ok
    assert "final compressed gap above tolerance" in cert.flags


# ---------------------------------------------------------------------------
# perturbation transfer
# ---------------------------------------------------------------------------

def _cesaro_family(sg, x, Ts):
    return [(T, cesaro_average(sg, x, T)) for T in Ts]


def test_transfer_identical_families(alg, rng):
    sg = ScalarDecay(alg, 1.0)
    x = random_self_adjoint(alg, rng, norm=1.0)
    Ts = [2.0**-k for k in range(8)]
    base = _cesaro_family(sg, x, Ts)
    cert = bau_cauchy_certify(base, epsilon=0.5, tol=1e-2)
    moved = perturbation_transfer(base, base, cert, [1e-9])
    assert moved.ok
    assert moved.params["max_gap"] == 0.0
    assert moved.achieved_bound <= moved.params["predicted_bound"]


def test_transfer_scalar_shift(alg, rng):
    # shifting by delta * 1 moves each compressed element by exactly delta
    # and leaves pairwise differences untouched
    sg = ScalarDecay(alg, 1.0)
    x = random_positive(alg, rng, norm=1.0)
    Ts = [2.0**-k for k in range(8)]
    base = _cesaro_family(sg, x, Ts)
    delta = 0.05
    tilde = [(T, y + delta * alg.identity()) for T, y in base]
    cert = bau_cauchy_certify(base, epsilon=0.5, tol=1e-2)
    moved = perturbation_transfer(tilde, base, cert, [delta * 1.5])
    assert moved.params["max_gap"] == pytest.approx(delta, abs=1e-12)
    # pairwise gaps are unchanged by the shift, compressed sups move by delta
    assert moved.achieved_bound == pytest.approx(
        moved.params["base_tail_bound"], abs=1e-10
    )
    assert moved.params["tilde_sup"] - moved.params["base_sup"] == pytest.approx(
        delta, abs=1e-10
    )


def test_transfer_premise_violation(alg, rng):
    sg = ScalarDecay(alg, 1.0)
    x = random_self_adjoint(alg, rng, norm=1.0)
    Ts = [2.0**-k for k in range(6)]
    base = _cesaro_family(sg, x, Ts)
    tilde = [(T, y + alg.identity()) for T, y in base]
    cert = bau_cauchy_certify(base, epsilon=0.5, tol=1e-2)
    with pytest.raises(TransferPremiseError) as err:
        perturbation_transfer(tilde, base, cert, [0.5])
    assert err.value.worst_gap == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# limit norm check
# ---------------------------------------------------------------------------

def test_lp_limit_constant_family(alg, rng):
    x = random_self_adjoint(alg, rng)
    fam = [(T, x) for T in (1.0, 0.5, 0.25)]
    rep = lp_limit_check(fam, 2.0, x)
    assert rep.passed
    assert rep.limit_norm == pytest.approx(rep.liminf_norm)


def test_lp_limit_shrinking_family(alg, rng):
    x = random_self_adjoint(alg, rng)
    fam = [(T, (1.0 + T) * x) for T in (1.0, 0.5, 0.25, 0.125)]
    assert lp_limit_check(fam, 1.0, x).passed
    assert not lp_limit_check(fam, 1.0, 2.0 * x).passed


@pytest.mark.parametrize(
    "check, message",
    [
        (lambda x, cert: lp_limit_check([], 2.0, x), "at least one family member"),
        (lambda x, cert: perturbation_transfer([], [], cert, [0.1]), "at least one family member"),
        (lambda x, cert: besicovitch_error(BesicovitchWeight((TrigTerm(1.0, 0.3),)), []), "at least one T"),
    ],
    ids=["lp_limit_check", "perturbation_transfer", "besicovitch_error"],
)
def test_empty_families_are_rejected_by_name(alg, rng, check, message):
    x = random_self_adjoint(alg, rng)
    cert = bau_cauchy_certify(_cesaro_family(Identity(alg), x, [1.0, 0.5]), epsilon=0.5)
    with pytest.raises(ValueError, match=message):
        check(x, cert)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_certificate_json_schema(alg, rng):
    sg = ScalarDecay(alg, 1.0)
    x = random_self_adjoint(alg, rng, norm=1.0)
    cert = maximal_projection(
        sg, x, MaximalParams(1.0, 1.0, 0.3), np.geomspace(1e-3, 2.0, 6)
    )
    data = cert.to_json_dict()
    for key in ("cotrace", "epsilon", "achieved_bound", "grid", "projection", "flags"):
        assert key in data
    back = operator_from_dict(data["projection"])
    assert (back - cert.projection.op).norm_inf() < 1e-12


def test_certificates_are_self_verifying(alg, rng):
    # every certificate reproduces its stored bound over the family it names,
    # rebuilt here one operator at a time
    sg = UnitaryFlow(alg, random_self_adjoint(alg, rng, norm=1.0))
    x = random_self_adjoint(alg, rng, norm=1.0)
    x_pos = random_positive(alg, rng, norm=1.0)
    fam = _cesaro_family(sg, x, [2.0**-k for k in range(8)])
    grid, schedule = np.geomspace(1e-3, 2.0, 8), np.geomspace(0.25, 1e-6, 14)
    cauchy = bau_cauchy_certify(fam, epsilon=0.5, tol=1e-2)
    transfer = perturbation_transfer(fam, fam, cauchy, [1e-6])
    beta_b = cesaro_average(sg, x_pos, 1.0)
    checks = [
        (
            maximal_projection(sg, x, MaximalParams(1.0, 1.0, 0.3), grid),
            [cesaro_average(sg, x, T).herm() for T in grid],
        ),
        (cauchy, tail_pairs(fam, cauchy.params["tail_start"])),
        (
            double_average_certificate(
                sg, x_pos, b=1.0, p=1.0, epsilon=0.3, a_schedule=schedule
            ),
            [cesaro_average(sg, beta_b, a) - beta_b for a in schedule],
        ),
        (transfer, tail_pairs(fam, transfer.params["chain"][-1][1])),
    ]
    for cert, family in checks:
        assert abs(recompute_bound(cert, family) - cert.achieved_bound) < 1e-10, cert.family


def test_first_index_below(alg, rng):
    sg = ScalarDecay(alg, 1.0)
    x = random_self_adjoint(alg, rng, norm=1.0)
    fam = _cesaro_family(sg, x, [2.0**-k for k in range(10)])
    cert = bau_cauchy_certify(fam, epsilon=0.5, tol=1e-2)
    idx = first_index_below(cert, 1e-2)
    assert idx is not None
    assert cert.decay[idx][1] <= 1e-2
    if idx > 0:
        assert cert.decay[idx - 1][1] > 1e-2
