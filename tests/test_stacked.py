"""Stacked T-indexed families, held to per-member references.

``Semigroup.mean_batch`` evaluates a whole T grid for a stack of inputs;
``abs_value``, ``spectral_resolution`` and ``spectral_projection`` take a
stacked family (one batched eigh per block; the projection of a stacked
resolution is the meet of the member cuts); ``maximal_projection``,
``bau_cauchy_certify`` and ``double_average_certificate`` cut every member of
a stacked family through them and meet the cuts at once;
``cesaro_map_family(...).images`` evaluates every label on one input in one
``mean_batch`` call; ``assemble_certificate`` and its replay take their
compressed-norm rows from stacked tables; ``double_average_windows`` and
``sandwich_slacks`` give the double-average windows and slacks for a whole a
grid and input stack.  Each reference here is built one operator at a time
from ``mean``, ``cesaro_average``, ``apply``, ``min_eig``, ``abs_value``,
``spectral_resolution``, ``spectral_projection``, a ``proj_meet`` fold and
``compressed_norm``.
"""
import csv
import itertools
import math
from functools import reduce

import numpy as np
import pytest

from ncerg import (
    BesicovitchWeight,
    GeneratorExp,
    Identity,
    Operator,
    ScalarDecay,
    SchurDecay,
    TracialAlgebra,
    UnitaryFlow,
    abs_value,
    assemble_certificate,
    bau_cauchy_certify,
    cesaro_average,
    cesaro_map_family,
    double_average_certificate,
    lindblad_generator,
    make_dense_certifier,
    make_maximal_oracle,
    maximal_projection,
    meet_all,
    perturbation_transfer,
    proj_meet,
    random_positive,
    random_projection,
    random_self_adjoint,
    scheme_from_semigroup,
    spectral_projection,
    substitution_bound_check,
    spectral_resolution,
    trace,
)
from ncerg import bau, experiments, semigroups
from ncerg.algebra import (
    INPUT_TOL,
    Projection,
    SpectralResolution,
    _check_projections,
    hermitian_defects,
    meet_complements,
    min_eig,
    op_norms,
    random_operator,
    stack_blocks,
)
from ncerg.averaging import (
    double_average_windows,
    sandwich_check,
    sandwich_slacks,
    trig_average,
    weight_from_config,
    weighted_average,
    weighted_families,
)
from ncerg.banach import ApproximationScheme, AssemblyError, ConditionOneOracle
from ncerg.bau import (
    MaximalParams,
    ProjectionCertificate,
    ScheduleExhaustedError,
    _cauchy_certify,
)
from ncerg.experiments import ExperimentConfig, _Env, _random_weight, run
from oracles import compressed_norm

# unequal blocks, so a swapped block index shows
ALG = TracialAlgebra((2, 3), (1.0, 0.5))


def variants(alg, rng):
    d = alg.vec_dim
    coupled = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    lind = lindblad_generator(
        alg,
        random_self_adjoint(alg, rng, norm=0.5),
        [random_self_adjoint(alg, rng, norm=0.5)],
    )
    rates = [np.abs(np.subtract.outer(np.arange(n), np.arange(n))) * 1.0 for n in alg.blocks]
    return {
        "identity": Identity(alg),
        "scalar_decay": ScalarDecay(alg, 0.7),
        "unitary_flow": UnitaryFlow(alg, random_self_adjoint(alg, rng, norm=1.0)),
        "schur_decay": SchurDecay(alg, rates),
        "generator_exp": GeneratorExp(alg, lind),
        # a generator that couples the two blocks (not a contraction)
        "coupled": GeneratorExp(alg, 0.4 * coupled / math.sqrt(d)),
    }


def close(got: Operator, want: Operator, rtol: float) -> bool:
    return (got - want).norm_inf() <= rtol * max(want.norm_inf(), 1.0)


# ---------------------------------------------------------------------------
# mean_batch
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", list(variants(ALG, np.random.default_rng(0))))
def test_mean_batch_matches_per_T_mean(name):
    rng = np.random.default_rng(31)
    sg = variants(ALG, rng)[name]
    xs = [random_operator(ALG, rng) for _ in range(3)]
    # 3e-9 keeps |T (Lambda + s)| below 1e-8: the phi1 series branch
    Ts = [4.0, 1.0, 0.37, 1e-3, 3e-9]
    for s in (0.0, 2j * math.pi * 0.15, 2j * math.pi * -0.4):
        out = sg.mean_batch(Ts, stack_blocks(xs), s)
        assert [y.shape for y in out] == [(len(Ts), 3, n, n) for n in ALG.blocks]
        for q, T in enumerate(Ts):
            for c, x in enumerate(xs):
                got = Operator(ALG, [y[q, c] for y in out])
                assert close(got, sg.mean(T, x, s), 1e-14), (name, T, s, c)


def test_mean_batch_couples_blocks_and_validates():
    rng = np.random.default_rng(32)
    sg = variants(ALG, rng)["coupled"]
    x = Operator(ALG, [np.eye(2), np.zeros((3, 3))])
    # the mean of an input living in block 0 reaches block 1
    assert np.abs(sg.mean_batch([0.5], stack_blocks([x]))[1]).max() > 1e-2
    good = stack_blocks([x, x])
    for Ts in ([0.0], [-1.0], [[0.5]]):
        with pytest.raises(ValueError):
            sg.mean_batch(Ts, good)
    with pytest.raises(ValueError):
        sg.mean_batch([0.5], good[:1])


@pytest.mark.parametrize(
    "name", [*variants(ALG, np.random.default_rng(0)), "generator_exp_dense"]
)
def test_mean_batch_takes_per_input_lengths_and_shifts(name, monkeypatch):
    rng = np.random.default_rng(33)
    named = variants(ALG, rng)
    if name == "generator_exp_dense":
        monkeypatch.setattr(semigroups, "EIGEN_TOL", 0.0)
        named[name] = GeneratorExp(ALG, named["generator_exp"].matrix)
        assert named[name].path == "dense" and named["generator_exp"].path == "eigen"
    sg = named[name]
    xs = [random_operator(ALG, rng) for _ in range(3)]
    # 3e-9 keeps |T (Lambda + s)| below 1e-8: the phi1 series branch
    Ts = np.array([[4.0, 0.37, 1e-3], [3e-9, 1.0, 0.37]])
    shifts = 2j * math.pi * np.array([0.15, 0.0, -0.4])
    # (m, k) lengths with (k,) shifts, with one shift, and (m,) lengths with (k,) shifts
    for lengths, s in ((Ts, shifts), (Ts, 0.3j), (Ts[0], shifts)):
        out = sg.mean_batch(lengths, stack_blocks(xs), s)
        assert [y.shape for y in out] == [(len(lengths), 3, n, n) for n in ALG.blocks]
        for q, c in itertools.product(range(len(lengths)), range(3)):
            T = lengths[q, c] if lengths.ndim == 2 else lengths[q]
            want = sg.mean(T, xs[c], s if np.ndim(s) == 0 else s[c])
            assert close(Operator(ALG, [y[q, c] for y in out]), want, 1e-14), (name, q, c)
    # lengths or shifts for a k other than the input count
    for lengths, s in ((Ts[:, :2], 0.0), (Ts[0], shifts[:2]), (Ts, shifts[None]), (Ts[None], 0.0)):
        with pytest.raises(ValueError):
            sg.mean_batch(lengths, stack_blocks(xs), s)


@pytest.mark.parametrize(
    "name", [*variants(ALG, np.random.default_rng(0)), "generator_exp_dense"]
)
def test_mean_batch_takes_an_empty_grid(name, monkeypatch):
    # like propagate_batch, an empty grid gives (0, k, n, n) stacks
    rng = np.random.default_rng(34)
    named = variants(ALG, rng)
    if name == "generator_exp_dense":
        monkeypatch.setattr(semigroups, "EIGEN_TOL", 0.0)
        named[name] = GeneratorExp(ALG, named["generator_exp"].matrix)
        assert named[name].path == "dense"
    sg = named[name]
    xs = stack_blocks([random_operator(ALG, rng) for _ in range(2)])
    want = [(0, 2, n, n) for n in ALG.blocks]
    assert [y.shape for y in sg.propagate_batch([], xs)] == want
    for lengths, s in (([], 0.0), (np.zeros((0, 2)), np.array([0.3j, -0.1]))):
        assert [y.shape for y in sg.mean_batch(lengths, xs, s)] == want


# ---------------------------------------------------------------------------
# the spectral layer on stacked families
# ---------------------------------------------------------------------------

def test_stacked_spectral_layer_matches_per_member():
    rng = np.random.default_rng(35)
    ops = [random_self_adjoint(ALG, rng, norm=1.0) for _ in range(5)]
    ops[2] = ALG.zero()
    stacks = stack_blocks(ops)
    # member 2 is 0 and member 4 sits above its spectrum: both cut nothing
    levels = [0.3, -0.2, 0.0, 0.5, 2.0]

    mags = abs_value(stacks)
    for i, x in enumerate(ops):
        want = abs_value(x)
        assert close(Operator(ALG, [a[i] for a in mags]), want, 1e-14)

    res = spectral_resolution(stacks, alg=ALG)
    assert [w.shape for w in res.eigenvalues] == [(5, n) for n in ALG.blocks]
    assert [v.shape for v in res.eigenvectors] == [(5, n, n) for n in ALG.blocks]
    cuts = []
    for i, (x, level) in enumerate(zip(ops, levels)):
        one = spectral_resolution(x)
        for w, w1 in zip(res.eigenvalues, one.eigenvalues):
            assert np.allclose(w[i], w1, rtol=0, atol=1e-14)
        cut = spectral_projection(one, level)
        assert res.cut_cotrace(levels)[i] == cut.cotrace == one.cut_cotrace(level)
        if cut.cotrace > 0:
            cuts.append(cut)
    assert len(cuts) == 3
    e = spectral_projection(res, levels)
    want = meet_all(cuts)
    assert e.cotrace == want.cotrace
    assert (e.op - want.op).norm_inf() <= 1e-10
    # one shared level is broadcast over the members
    assert list(res.cut_cotrace(0.1)) == [
        spectral_projection(spectral_resolution(x), 0.1).cotrace for x in ops
    ]
    # a stacked cut that drops nothing is the identity
    top = spectral_projection(res, [2.0] * 5)
    assert top.cotrace == 0.0 and (top.op - ALG.identity()).norm_inf() == 0.0


def test_stacked_spectral_resolution_rejects_bad_input():
    rng = np.random.default_rng(36)
    ops = [random_self_adjoint(ALG, rng) for _ in range(3)]
    ops[1] = ops[1] + 0.5j * ALG.identity()
    with pytest.raises(ValueError, match="not self-adjoint"):
        spectral_resolution(stack_blocks(ops), alg=ALG)
    with pytest.raises(ValueError, match="needs its algebra"):
        spectral_resolution(stack_blocks(ops[:1]))


def test_per_block_functions_take_any_leading_axes():
    # (k, m) = (3, 4) members per block; each function's result over the
    # stack holds the per-member (or, for the meets, per-case) results bit
    # for bit, and an Operator gives the one-member result
    rng = np.random.default_rng(38)
    k, m = 3, 4
    ops = [[random_self_adjoint(ALG, rng, norm=1.0) for _ in range(m)] for _ in range(k)]
    ops[0][1] = ops[0][1] + 1e-13j * random_self_adjoint(ALG, rng)  # a roundoff skew part
    ops[1][2] = Operator(ALG, [np.zeros((2, 2)), ops[1][2].blocks[1]])  # 0 in block 0
    xs = [np.stack([np.stack([x.blocks[i] for x in row]) for row in ops]) for i in range(2)]

    def one(x):  # an Operator as a one-member stack
        return [a[None] for a in x.blocks]

    norms = op_norms(xs)
    # the block that is exactly 0 skips its SVD and keeps the bits of every norm
    svd_norms = [np.linalg.svd(a, compute_uv=False)[..., 0] for a in xs]
    assert norms.tobytes() == np.max(svd_norms, axis=0).tobytes()
    fails, defect, bound = hermitian_defects(xs, 1e-10, positive=True)
    res = spectral_resolution(xs, alg=ALG)
    for i, j in itertools.product(range(k), range(m)):
        x = ops[i][j]
        assert norms[i, j] == op_norms(x.blocks) == op_norms(one(x))[0] == x.norm_inf()
        got = (fails[i, j], defect[i, j], bound[i, j])
        assert got == hermitian_defects(x.blocks, 1e-10, positive=True)
        assert got == tuple(a[0] for a in hermitian_defects(one(x), 1e-10, positive=True))
        r1 = spectral_resolution(x)
        for w, v, w1, v1 in zip(res.eigenvalues, res.eigenvectors, r1.eigenvalues, r1.eigenvectors):
            assert np.array_equal(w[i, j], w1) and np.array_equal(v[i, j], v1)
    # self-adjoint within tolerance, not positive
    assert defect[0, 1] > 0 and defect[1, 1] == 0.0 and fails.any()
    # a failing member takes the bound from ||x||; a cleared one a bound below it
    svd_bound = 1e-10 * np.maximum(norms, 1e-14)
    assert np.array_equal(bound[fails], svd_bound[fails]) and np.all(bound <= svd_bound)
    assert not hermitian_defects(xs, 1e-10)[0].any()

    # meets: case 0 cuts nothing, case 1 has a member that keeps nothing
    levels = rng.uniform(-0.5, 0.8, (k, m))
    levels[0], levels[1, 2] = 2.0, -2.0
    meets = spectral_projection(res, levels)
    es = [[random_projection(ALG, rng) for _ in range(m)] for _ in range(k)]
    es[2] = [Projection(ALG.identity()) for _ in range(m)]  # complements all 0
    ps = [np.stack([np.stack([e.op.blocks[i] for e in row]) for row in es]) for i in range(2)]
    comps = [np.eye(n) - a for n, a in zip(ALG.blocks, ps)]
    joined = meet_complements(ALG, comps)
    assert len(meets) == len(joined) == k
    for i in range(k):
        case = SpectralResolution(ALG, tuple(w[i] for w in res.eigenvalues),
                                  tuple(v[i] for v in res.eigenvectors))
        for got, want in ((meets[i], spectral_projection(case, levels[i])),
                          (joined[i], meet_complements(ALG, [a[i] for a in comps]))):
            assert got.cotrace == want.cotrace, i
            assert all(np.array_equal(a, b) for a, b in zip(got.op.blocks, want.op.blocks)), i
    assert meets[0].cotrace == 0.0 and joined[2].cotrace == 0.0
    assert meets[1].cotrace == ALG.trace_of_identity

    # the projection check: a stack of projections passes, and one bad
    # member fails with the residuals it fails with alone
    _check_projections(ps)
    ps[1][1, 3, 0, 1] += 1e-3
    with pytest.raises(ValueError) as stacked:
        _check_projections(ps)
    with pytest.raises(ValueError) as alone:
        Projection(Operator(ALG, [a[1, 3] for a in ps]))
    assert str(stacked.value) == str(alone.value)


def test_maximal_projection_takes_a_stacked_family():
    rng = np.random.default_rng(37)
    sg = variants(ALG, rng)["unitary_flow"]
    x = random_self_adjoint(ALG, rng, norm=1.0)
    grid = np.geomspace(1e-3, 5.0, 9)
    params = MaximalParams(C=1.0, p=1.0, epsilon=0.2)
    means = [y[:, 0] for y in sg.mean_batch(grid, stack_blocks([x]))]
    by_T = {float(T): Operator(ALG, [y[q] for y in means]) for q, T in enumerate(grid)}
    got = maximal_projection(sg, x, params, grid, family=means)
    for want in (
        maximal_projection(sg, x, params, grid, family=by_T),
        maximal_projection(sg, x, params, grid),
    ):
        assert got.cotrace == want.cotrace > 0
        assert got.params["chebyshev"] == want.params["chebyshev"]
        assert got.achieved_bound == want.achieved_bound
        assert (got.projection.op - want.projection.op).norm_inf() == 0.0


def test_cauchy_core_takes_a_stacked_family():
    family = spiky_family(ALG, np.random.default_rng(38), 6)
    grid, ops = [T for T, _ in family], [y for _, y in family]
    got = _cauchy_certify(ALG, grid, stack_blocks(ops), 20.0, tol=1e-3)
    want = bau_cauchy_certify(family, 20.0, tol=1e-3)
    assert got.to_json_dict() == want.to_json_dict()


# ---------------------------------------------------------------------------
# Cauchy certificate: one cut per tail pair
# ---------------------------------------------------------------------------

def cauchy_reference(family, epsilon, tail_fraction=0.5):
    """Per-pair cuts of |y_i - y_j| at tau(|z|)/budget and a proj_meet fold."""
    grid = [T for T, _ in family]
    ops = [y for _, y in family]
    alg = ops[0].algebra
    m = len(ops)
    tail_start = max(0, m - max(2, math.ceil(tail_fraction * m)))
    cuts, levels, k = [], [], 0
    for i in range(tail_start, m):
        for j in range(i + 1, m):
            k += 1
            budget = epsilon / 2.0 ** (k + 1)
            z = ops[i] - ops[j]
            if z.norm_inf() == 0.0:
                continue
            mag = abs_value(z)
            cut = spectral_projection(spectral_resolution(mag), trace(alg, mag).real / budget)
            if cut.cotrace > 0:
                cuts.append(cut)
            levels.append([grid[i], grid[j], budget, cut.cotrace])
    e = reduce(proj_meet, cuts) if cuts else Projection(alg.identity(), cotrace=0.0)
    return e, levels


def spiky_family(alg, rng, m, repeat=None):
    """Members 3 * 4^-k q_k for random rank-one projections q_k in the light
    block, plus noise: each tail difference has one dominant direction, which
    the large budgets cut.  ``repeat`` copies a member to make a zero pair."""
    ops = [
        3.0 * 4.0**-k * random_projection(alg, rng, ranks=(0, 1)).op
        + 1e-6 * random_operator(alg, rng)
        for k in range(m)
    ]
    if repeat is not None:
        ops[repeat + 1] = ops[repeat]
    return [(2.0**-k, y) for k, y in enumerate(ops)]


@pytest.mark.parametrize("case", range(4))
def test_cauchy_matches_per_pair_reference(case):
    rng = np.random.default_rng(40 + case)
    epsilon, repeat = [(20.0, None), (20.0, 5), (6.0, 4), (0.5, None)][case]
    family = spiky_family(ALG, rng, 8, repeat)
    cert = bau_cauchy_certify(family, epsilon, tol=1e-3)
    e, levels = cauchy_reference(family, epsilon)
    assert cert.cotrace == e.cotrace
    assert (cert.projection.op - e.op).norm_inf() <= 1e-10
    assert cert.params["levels"] == levels
    ops = [y for _, y in family]
    for j, (T, d) in enumerate(cert.decay):
        want = max(
            compressed_norm(cert.projection, ops[i] - ops[l])
            for i in range(j, len(ops))
            for l in range(i + 1, len(ops))
        )
        assert T == family[j][0] and abs(d - want) <= 1e-13 * max(want, 1.0)
    if repeat is not None:
        # the zero pair has no row, yet the budget index moved past it
        tail = len(family) - cert.params["tail_start"]
        assert len(levels) == tail * (tail - 1) // 2 - 1
    if case < 3:
        assert cert.cotrace > 0


def test_cauchy_all_zero_pairs_meet_to_one():
    x = random_self_adjoint(ALG, np.random.default_rng(44))
    cert = bau_cauchy_certify([(1.0, x), (0.5, x), (0.25, x)], epsilon=20.0)
    assert cert.params["levels"] == [] and cert.cotrace == 0.0
    assert (cert.projection.op - ALG.identity()).norm_inf() == 0.0


# ---------------------------------------------------------------------------
# double-average certificate: the lazy schedule walk
# ---------------------------------------------------------------------------

def window_reference(sg, x, b, p, epsilon, schedule, levels=5):
    """Walk the schedule lazily: per visited a, the head (a/b) beta_a(x) from
    ``cesaro_average`` and the tail a_b(head) from ``apply``."""
    alg = sg.algebra

    def trace_power(y):
        res = spectral_resolution(y.herm())
        return sum(
            c * float(np.sum(np.clip(w, 0.0, None) ** p))
            for c, w in zip(alg.weights, res.eigenvalues)
        )

    rows, meets = [], []
    for which, tag in ((0, "head"), (1, "tail")):
        idx, seen, cuts = 0, [], []
        for k in range(1, levels + 1):
            target = epsilon * epsilon / 4.0**k
            while idx < len(schedule):
                a = schedule[idx]
                head = cesaro_average(sg, x, a) * (a / b)
                op = sg.apply(b, head) if which else head
                if len(seen) <= idx:
                    seen.append(trace_power(op))
                if seen[idx] < target:
                    break
                idx += 1
            else:
                raise ScheduleExhaustedError(k, min(seen, default=math.inf), target)
            level = epsilon / 2.0 ** (k + 1)
            cut = spectral_projection(spectral_resolution(op.herm()), level ** (1.0 / p))
            rows.append([tag, k, schedule[idx], seen[idx], level, cut.cotrace])
            cuts.append(cut)
        meets.append(reduce(proj_meet, cuts))
    e = proj_meet(*meets)
    beta_b = cesaro_average(sg, x, b)
    decay = [
        (a, compressed_norm(e, cesaro_average(sg, beta_b, a) - beta_b)) for a in schedule
    ]
    return e, rows, decay


def window_matches_reference(sg, x, p, schedule):
    """The window certificate at b = 1, eps = 0.5, held to
    :func:`window_reference`: the same picks, levels and co-traces, traces
    and decays to 1e-12 and the meet to 1e-10; returns the certificate."""
    cert = double_average_certificate(sg, x, b=1.0, p=p, epsilon=0.5, a_schedule=schedule)
    e, rows, decay = window_reference(sg, x, 1.0, p, 0.5, schedule)
    got = cert.params["levels"]
    assert [r[:3] for r in got] == [r[:3] for r in rows]  # the picks
    assert [r[4:] for r in got] == [r[4:] for r in rows]  # levels and co-traces
    for g, r in zip(got, rows):
        assert abs(g[3] - r[3]) <= 1e-12 * max(r[3], 1e-300), (g, r)
    assert cert.cotrace == e.cotrace
    assert (cert.projection.op - e.op).norm_inf() <= 1e-10
    for (a, d), (a_ref, d_ref) in zip(cert.decay, decay):
        assert a == a_ref and abs(d - d_ref) <= 1e-12 * max(d_ref, 1.0), (a, d, d_ref)
    return cert


@pytest.mark.parametrize("name", ["scalar_decay", "unitary_flow", "schur_decay", "generator_exp"])
@pytest.mark.parametrize("p, weights", [(1.0, (1.0, 0.5)), (2.0, (1.0, 0.5)), (1.0, (0.05, 0.02))])
def test_window_certificate_matches_lazy_walk(name, p, weights):
    # on light trace weights the picked windows keep eigenvalues above their
    # levels, so the cuts drop directions and the meet is a proper one
    alg = TracialAlgebra(ALG.blocks, weights)
    rng = np.random.default_rng(50)
    sg = variants(alg, rng)[name]
    x = random_positive(alg, rng, norm=1.0)
    schedule = [float(a) for a in np.geomspace(0.25, 1e-7, 22)]
    cert = window_matches_reference(sg, x, p, schedule)
    assert (cert.cotrace > 0) == (weights[0] < 1.0)


@pytest.mark.parametrize("name", ["scalar_decay", "unitary_flow", "schur_decay", "generator_exp"])
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_window_certificate_matches_lazy_walk_when_a_window_serves_several_levels(name, p):
    # three windows for five levels: each side picks some window for two
    # levels or more, and on light trace weights the cuts drop directions
    alg = TracialAlgebra(ALG.blocks, (0.05, 0.02))
    rng = np.random.default_rng(53)
    sg = variants(alg, rng)[name]
    x = random_positive(alg, rng, norm=1.0)
    cert = window_matches_reference(sg, x, p, [0.5, 0.02, 1e-4])
    for tag in ("head", "tail"):
        picks = [r[2] for r in cert.params["levels"] if r[0] == tag]
        assert len(set(picks)) < len(picks) == 5, (tag, picks)
    assert cert.cotrace > 0


@pytest.mark.parametrize("name", list(variants(ALG, np.random.default_rng(0))))
def test_double_average_windows_match_per_case_reference(name):
    # unequal a and b grids and four inputs; "coupled" mixes the two blocks
    rng = np.random.default_rng(52)
    sg = variants(ALG, rng)[name]
    xs = [random_positive(ALG, rng, norm=1.0) for _ in range(4)]
    a_grid, b_grid = (1e-4, 0.3, 1.0, 2.5), (0.2, 1.7)
    for b in b_grid:
        heads, tails, gaps = double_average_windows(sg, stack_blocks(xs), a_grid, b)
        lower, upper = sandwich_slacks(sg, stack_blocks(xs), a_grid, b)
        assert lower.shape == upper.shape == (len(a_grid), len(xs))
        for c, x in enumerate(xs):
            beta_b = cesaro_average(sg, x, b)
            for i, a in enumerate(a_grid):
                head = cesaro_average(sg, x, a) * (a / b)
                tail = sg.apply(b, head)
                gap = cesaro_average(sg, beta_b, a) - beta_b
                for got, want in ((heads, head), (tails, tail), (gaps, gap)):
                    assert close(Operator(ALG, [w[i, c] for w in got]), want, 1e-12), (a, b)
                want = (min_eig(gap + head), min_eig(tail - gap))
                scale = max(1.0, head.norm_inf(), tail.norm_inf(), gap.norm_inf())
                assert abs(lower[i, c] - want[0]) <= 1e-12 * scale, (a, b, c)
                assert abs(upper[i, c] - want[1]) <= 1e-12 * scale, (a, b, c)
                assert sandwich_check(sg, x, a, b) == pytest.approx(want, abs=1e-12 * scale)


def test_sandwich_slacks_reject_bad_windows_and_inputs():
    rng = np.random.default_rng(53)
    sg = variants(ALG, rng)["coupled"]
    xs = stack_blocks([random_positive(ALG, rng, norm=1.0) for _ in range(3)])
    for a_grid, b in (([0.5], 0.0), ([0.5], -1.0), ([0.5, 0.0], 1.0), ([0.5, -0.1], 1.0)):
        with pytest.raises(ValueError, match="window lengths"):
            sandwich_slacks(sg, xs, a_grid, b)
        with pytest.raises(ValueError, match="window lengths"):
            double_average_windows(sg, xs, a_grid, b)
    x = random_positive(ALG, rng, norm=1.0)
    for bad in (x - ALG.identity() * 2.0, x + random_self_adjoint(ALG, rng) * 0.5j):
        with pytest.raises(ValueError, match="positive operator"):
            sandwich_slacks(sg, stack_blocks([x, bad, x]), [0.5, 0.1], 1.0)
        with pytest.raises(ValueError, match="positive operator"):
            sandwich_check(sg, bad, 0.5, 1.0)


def rule_members(alg):
    """Members on both sides of the 1e-8 input rule, at norm one: a spectrum
    reaching -0.5e-8 or -2e-8, a skew part with ||x - x*|| = 0.5e-8 or 2e-8
    on a positive diagonal, and zero."""
    def diag(low):
        return Operator(alg, [np.diag([2.0**-k for k in range(n - 1)] + [low]) for n in alg.blocks])

    herm = random_self_adjoint(alg, np.random.default_rng(56), norm=1.0)
    return {
        "low_inside": diag(-0.5e-8),
        "low_outside": diag(-2e-8),
        "skew_inside": diag(0.03) + herm * 0.25e-8j,
        "skew_outside": diag(0.03) + herm * 1e-8j,
        "zero": alg.zero(),
    }


def test_input_checks_share_one_rule():
    sg = ScalarDecay(ALG, 0.7)
    members = rule_members(ALG)
    accepted = {name: x.is_positive(tol=INPUT_TOL) for name, x in members.items()}
    assert accepted == {
        "low_inside": True, "low_outside": False, "skew_inside": True,
        "skew_outside": False, "zero": True,
    }
    # the default positivity cutoff (1e-10) is stricter than the input rule
    assert not members["low_inside"].is_positive() and members["zero"].is_positive()
    weight = BesicovitchWeight.constant(1.0)
    checks = {
        "sandwich": lambda x: sandwich_check(sg, x, 0.5, 1.0),
        "substitution": lambda x: substitution_bound_check(sg, weight, x, 0.5),
        "window": lambda x: double_average_certificate(
            sg, x, b=1.0, p=1.0, epsilon=0.5, a_schedule=np.geomspace(0.25, 1e-7, 22)
        ),
    }
    for (name, x), (check, run_check) in itertools.product(members.items(), checks.items()):
        if accepted[name]:
            run_check(x)
        else:
            with pytest.raises(ValueError, match="positive operator"):
                run_check(x)
    # the maximal projection holds its input to the self-adjointness half
    for name, x in members.items():
        if name == "skew_outside":
            with pytest.raises(ValueError, match="self-adjoint"):
                maximal_projection(sg, x, MaximalParams(C=1.0, p=1.0, epsilon=0.5), [0.5, 1.0])
        else:
            maximal_projection(sg, x, MaximalParams(C=1.0, p=1.0, epsilon=0.5), [0.5, 1.0])
    # a stack is rejected exactly when one of its members is
    for names in itertools.combinations(members, 3):
        xs = stack_blocks([members[n] for n in names])
        fails = hermitian_defects(xs, INPUT_TOL, positive=True)[0]
        assert fails.tolist() == [not accepted[n] for n in names]
        if all(accepted[n] for n in names):
            sandwich_slacks(sg, xs, [0.5, 0.1], 1.0)
        else:
            with pytest.raises(ValueError, match="positive operator"):
                sandwich_slacks(sg, xs, [0.5, 0.1], 1.0)


@pytest.mark.parametrize("variant", ["unitary_flow", "generator_exp"])
def test_weighted_table_matches_per_case_check(tmp_path, variant):
    # the stacked substitution pass against one check per case, drawn in
    # the suite's order
    cfg = ExperimentConfig(blocks=(2, 3), semigroup={"variant": variant}, weighted_cases=14)
    run(cfg, "weighted-avg", tmp_path)
    with open(tmp_path / "tables" / "weighted_avg.csv", newline="") as fh:
        got = [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]
    env = _Env(cfg)
    rng = env.rng(5)
    T_list = np.geomspace(1e-3, 1.0, 12)
    want = []
    for case in range(cfg.weighted_cases):
        b, x, T = _random_weight(rng), random_positive(env.alg, rng, norm=1.0), T_list[case % 12]
        lhs, rhs, err = substitution_bound_check(env.sg, b, x, float(T))
        want.append([T, lhs, rhs, rhs - lhs, err])
    assert len(got) == len(want) == cfg.weighted_cases
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("residual", ["cos", "linear_capped"])
def test_weighted_families_match_per_T_averages(residual):
    rng = np.random.default_rng(34)
    spec = {
        "cos": {"name": "cos", "amplitude": 0.04, "frequency": 7.0},
        "linear_capped": {"name": "linear_capped", "slope": 0.2, "cap": 0.05},
    }[residual]
    b = weight_from_config({"trig": [{"kappa_re": 0.5, "theta": 0.3}], "residual": spec})
    Ts = [2.0**-k for k in range(11)]
    for name, sg in variants(ALG, rng).items():
        x = random_positive(ALG, rng, norm=1.0)
        base, tilde = weighted_families(sg, b, x, Ts)
        assert [T for T, _ in base] == [T for T, _ in tilde] == Ts
        for (T, y), (_, z) in zip(base, tilde):
            assert close(y, trig_average(sg, b.terms, x, T), 1e-14), (name, T)
            assert close(z, weighted_average(sg, b, x, T), 1e-14), (name, T)


def test_weighted_suite_cross_checks_the_closed_form_residual(tmp_path, monkeypatch):
    small = {"n_random": 2, "weighted_cases": 4}
    report = run(ExperimentConfig(**small), "weighted-avg", tmp_path / "cos")
    assert report.passed["weighted-avg:residual_quadrature"] is True
    # a residual without declared terms has no closed form to check
    ramp = {
        "trig": [{"kappa_re": 0.5, "theta": 0.3}],
        "residual": {"name": "linear_capped", "slope": 0.2, "cap": 0.05},
    }
    report = run(ExperimentConfig(weight=ramp, **small), "weighted-avg", tmp_path / "ramp")
    assert "weighted-avg:residual_quadrature" not in report.passed
    # a closed form off by 1e-9 of itself is above QUAD_RTOL * sup |r| * ||x||
    exact = experiments._residual_average
    monkeypatch.setattr(
        experiments, "_residual_average", lambda *args: exact(*args) * (1.0 + 1e-9)
    )
    report = run(ExperimentConfig(**small), "weighted-avg", tmp_path / "off")
    assert report.passed["weighted-avg:residual_quadrature"] is False


@pytest.mark.parametrize("variant", ["unitary_flow", "generator_exp"])
def test_sandwich_table_matches_per_case_check(tmp_path, variant):
    # rows in (case, a, b) order; a grid of distinct lengths tells a from b
    cfg = ExperimentConfig(
        blocks=(2, 3), semigroup={"variant": variant}, n_random=3, sandwich_grid=(0.1, 0.7, 2.0)
    )
    run(cfg, "sandwich", tmp_path)
    with open(tmp_path / "tables" / "sandwich.csv", newline="") as fh:
        got = [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]
    env = _Env(cfg)
    rng = env.rng(3)
    xs = [random_positive(env.alg, rng, norm=1.0) for _ in range(cfg.n_random)]
    grid = cfg.sandwich_grid
    want = [
        [c, a, b, *sandwich_check(env.sg, x, a, b)]
        for c, x in enumerate(xs) for a in grid for b in grid
    ]
    assert len(got) == len(want) == cfg.n_random * len(grid) ** 2
    for g, w in zip(got, want):
        assert g[:3] == w[:3] and g[3:] == pytest.approx(w[3:], rel=0, abs=1e-13), (g, w)


@pytest.mark.parametrize("side", [0, 1])
def test_sandwich_pass_reads_both_slacks(tmp_path, monkeypatch, side):
    # one slack of one side below the -1e-8 floor must fail the check
    def one_negative(*args):
        slacks = sandwich_slacks(*args)
        slacks[side, 0, 0] = -1e-6
        return slacks

    monkeypatch.setattr("ncerg.experiments.sandwich_slacks", one_negative)
    report = run(ExperimentConfig(n_random=2), "sandwich", tmp_path)
    assert report.passed == {"sandwich:slacks_nonnegative": False}


def test_window_exhaustion_matches_lazy_walk():
    rng = np.random.default_rng(51)
    sg = ScalarDecay(ALG, 1.0)
    x = random_positive(ALG, rng, norm=1.0)
    for schedule in ([0.5, 0.4], []):
        with pytest.raises(ScheduleExhaustedError) as got:
            double_average_certificate(
                sg, x, b=1.0, p=1.0, epsilon=0.3, a_schedule=schedule, levels=6
            )
        with pytest.raises(ScheduleExhaustedError) as want:
            window_reference(sg, x, 1.0, 1.0, 0.3, schedule, levels=6)
        assert (got.value.level, got.value.target) == (want.value.level, want.value.target)
        assert got.value.smallest == pytest.approx(want.value.smallest, rel=1e-12)


# ---------------------------------------------------------------------------
# perturbation transfer
# ---------------------------------------------------------------------------

def test_transfer_rejects_empty_eps_seq():
    rng = np.random.default_rng(60)
    sg = ScalarDecay(ALG, 1.0)
    x = random_self_adjoint(ALG, rng)
    fam = [(T, sg.mean(T, x)) for T in (1.0, 0.5, 0.25)]
    cert = bau_cauchy_certify(fam, epsilon=0.5, tol=1e-2)
    with pytest.raises(ValueError, match="eps_seq"):
        perturbation_transfer(fam, fam, cert, [])


# ---------------------------------------------------------------------------
# assembly ledger: stacked tables against per-pair loops
# ---------------------------------------------------------------------------

def reference_rows(sg, labels, x, asm):
    """Every compressed-norm row of a ledger, one compressed_norm per map or
    pair, each map evaluated as one cesaro_average."""
    rows = []
    for n, (x_n, p_n) in enumerate(zip(asm.approximants, asm.approximant_projs), start=1):
        for m, T in enumerate(labels):
            value = compressed_norm(p_n, cesaro_average(sg, x_n - x, T))
            rows.append(("uniform_control", (n, m), value))
    x_n0 = asm.approximants[asm.n0 - 1]
    for m, T in enumerate(labels):
        value = compressed_norm(asm.meet_proj, cesaro_average(sg, x_n0 - x, T))
        rows.append(("approximant_choice", (asm.n0, m), value))
    for name, y, e in (
        ("dense_cauchy", x_n0, asm.dense_cert.projection),
        ("final_bound", x, asm.projection),
    ):
        vals = [cesaro_average(sg, y, T) for T in labels]
        for i in range(asm.N0_index, len(labels)):
            for j in range(i + 1, len(labels)):
                rows.append((name, (i, j), compressed_norm(e, vals[i] - vals[j])))
    return rows


@pytest.mark.parametrize("name", list(variants(ALG, np.random.default_rng(0))))
def test_cesaro_family_images_match_per_label_average(name):
    # one mean_batch call over all labels gives each per-label mean to the bit
    rng = np.random.default_rng(72)
    sg = variants(ALG, rng)[name]
    T_maps = [4.0, 1.0, 0.3] + [2.0**-k for k in range(2, 9)]
    y = random_operator(ALG, rng)
    got = cesaro_map_family(sg, T_maps).images(y)
    want = stack_blocks([cesaro_average(sg, y, T) for T in T_maps])
    assert [a.shape for a in got] == [(len(T_maps), n, n) for n in ALG.blocks]
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def pipeline(sg, T_maps, eps):
    maps = cesaro_map_family(sg, T_maps)
    oracle = make_maximal_oracle(sg, T_maps, 1.0, 1.0, 1.0)
    scheme = scheme_from_semigroup(sg, 1.0, 1.0)
    return maps, oracle, scheme, make_dense_certifier(maps, tol=eps / 3.0)


def test_assembly_rows_match_per_pair_loop(alg6):
    rng = np.random.default_rng(70)
    sg = UnitaryFlow(alg6, random_self_adjoint(alg6, rng, norm=1.0))
    T_maps = [2.0**-k for k in range(1, 7)]
    x = random_self_adjoint(alg6, rng, norm=1.0)
    maps, oracle, scheme, certifier = pipeline(sg, T_maps, 0.4)
    asm = assemble_certificate(maps, x, 0.4, scheme, oracle, certifier, n_approx=3)
    got = [
        (s.name, s.witness, s.achieved)
        for s in asm.steps
        if s.name in ("uniform_control", "approximant_choice", "dense_cauchy", "final_bound")
    ]
    want = reference_rows(sg, T_maps, x, asm)
    assert [g[:2] for g in got] == [w[:2] for w in want]
    for (name, wit, a), (_, _, b) in zip(got, want):
        assert abs(a - b) <= 1e-14 * max(b, 1.0), (name, wit, a, b)
    devs = asm.replay(maps, x)
    assert len(devs) == len(got) and max(devs.values()) <= 1e-14


def first_failure(rows, claim):
    return next(((name, wit, val) for name, wit, val in rows if val > claim), None)


def test_assembly_error_names_first_failing_pair(alg6):
    rng = np.random.default_rng(71)
    sg = ScalarDecay(alg6, 1.0)
    T_maps = [2.0**-k for k in range(0, 6)]
    x = random_self_adjoint(alg6, rng, norm=1.0)
    one = Projection(alg6.identity(), cotrace=0.0)
    maps, oracle, scheme, _ = pipeline(sg, T_maps, 0.6)
    seen = []

    def lazy_certifier(y, budget, images):
        # claims every pair from N0 = 0 on without compressing anything
        seen.append(y)
        decay = tuple((T, 0.0) for T in T_maps[:-1])
        return ProjectionCertificate(one, budget, 0.0, "none", tuple(T_maps), decay=decay)

    with pytest.raises(AssemblyError) as err:
        assemble_certificate(maps, x, 0.6, scheme, oracle, lazy_certifier, n_approx=3)
    vals = [cesaro_average(sg, seen[0], T) for T in T_maps]
    pairs = [
        ("dense_cauchy", (i, j), compressed_norm(one, vals[i] - vals[j]))
        for i in range(len(T_maps))
        for j in range(i + 1, len(T_maps))
    ]
    want = first_failure(pairs, 0.6 / 3.0)
    assert want[1] != (0, 1)  # the ledger passes a pair before it fails
    assert (err.value.step, err.value.witness) == want[:2]
    assert abs(err.value.achieved - want[2]) <= 1e-14

    # approximants that stay 0.13 P away from x and an oracle that compresses
    # nothing: uniform control fails at the first map above eps / 4
    spike = 0.13 * random_projection(alg6, rng, ranks=(1, 0)).op
    far = ApproximationScheme(lambda y: lambda n, eps: y + spike, norm_p=1.0, alpha=100.0)
    blind = ConditionOneOracle(
        lambda y, eps, images: ProjectionCertificate(one, eps, 0.0, "none", ()),
        C=1.0,
        alpha=1.0,
        norm=lambda y: 1.0,
    )
    with pytest.raises(AssemblyError) as err:
        assemble_certificate(maps, x, 0.4, far, blind, lazy_certifier, n_approx=3)
    rows = [
        ("uniform_control", (1, m), compressed_norm(one, cesaro_average(sg, spike, T)))
        for m, T in enumerate(T_maps)
    ]
    want = first_failure(rows, 0.4 / 4.0)
    assert want[1] == (1, 1)
    assert (err.value.step, err.value.witness) == want[:2]
    assert abs(err.value.achieved - want[2]) <= 1e-14


def test_assembly_evaluates_each_input_once(alg6, monkeypatch):
    # x_n - x for n = 1..3, x_{n0} and x: one mean_batch call each, shared by
    # the oracle, the certifier and the ledger rows
    rng = np.random.default_rng(73)
    sg = UnitaryFlow(alg6, random_self_adjoint(alg6, rng, norm=1.0))
    T_maps = [2.0**-k for k in range(1, 7)]
    x = random_self_adjoint(alg6, rng, norm=1.0)
    maps, oracle, scheme, certifier = pipeline(sg, T_maps, 0.4)
    made = {n: scheme.start(x)(n, 0.4) for n in (1, 2, 3)}
    cached = ApproximationScheme(lambda y: lambda n, eps: made[n], scheme.norm_p, scheme.alpha)
    calls = []
    mean_batch = UnitaryFlow.mean_batch
    monkeypatch.setattr(
        UnitaryFlow, "mean_batch", lambda sg, *a: calls.append(1) or mean_batch(sg, *a)
    )
    asm = assemble_certificate(maps, x, 0.4, cached, oracle, certifier, n_approx=3)
    assert len(calls) == 5
    asm.replay(maps, x)  # the independent check evaluates anew
    assert len(calls) == 10


def test_maximal_suite_resolves_each_family_once(tmp_path, monkeypatch):
    # one stacked spectral resolution serves every case and all three epsilons
    calls = []
    resolve = bau.spectral_resolution
    monkeypatch.setattr(
        bau, "spectral_resolution", lambda *a, **k: calls.append(1) or resolve(*a, **k)
    )
    cfg = ExperimentConfig(seed=1)
    run(cfg, "maximal", tmp_path)
    assert (cfg.n_random, len(cfg.maximal_epsilons), len(calls)) == (20, 3, 1)
