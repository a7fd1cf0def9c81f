import math
from functools import reduce

import numpy as np
import pytest

from ncerg import (
    AlgebraMismatchError,
    Operator,
    Projection,
    TracialAlgebra,
    abs_value,
    meet_all,
    operator_from_dict,
    operator_to_dict,
    pnorm,
    proj_meet,
    random_operator,
    random_positive,
    random_projection,
    random_self_adjoint,
    spectral_projection,
    spectral_resolution,
    trace,
)
from ncerg.algebra import meet_complements, traces, unvec, unvecs, vec, vecs
from oracles import gram_residual, leq, reconstruction_residual, tall_svd_meet


def diag_op(alg, *entries):
    blocks = []
    k = 0
    for n in alg.blocks:
        blocks.append(np.diag(np.asarray(entries[k : k + n], dtype=complex)))
        k += n
    return Operator(alg, blocks)


# ---------------------------------------------------------------------------
# construction and invariants
# ---------------------------------------------------------------------------

def test_algebra_rejects_bad_shapes():
    with pytest.raises(ValueError):
        TracialAlgebra((0,), (1.0,))
    with pytest.raises(ValueError):
        TracialAlgebra((2,), (-1.0,))
    with pytest.raises(ValueError):
        TracialAlgebra((2, 2), (1.0,))


def test_operator_block_shape_checked(alg):
    with pytest.raises(AlgebraMismatchError):
        Operator(alg, [np.eye(2), np.eye(3)])


def test_operator_immutable(alg):
    x = alg.identity()
    with pytest.raises(AttributeError):
        x.blocks = ()
    with pytest.raises(ValueError):
        x.blocks[0][0, 0] = 5.0


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

def test_trace_identity_single_block():
    alg = TracialAlgebra((2,), (1.0,))
    assert trace(alg, alg.identity()) == pytest.approx(2.0)


def test_trace_weighted_diagonal():
    alg = TracialAlgebra((2,), (0.5,))
    x = Operator(alg, [np.diag([1.0 + 0j, 2.0])])
    assert trace(alg, x) == pytest.approx(1.5)


def test_trace_matches_weighted_eigenvalue_sum(rng):
    alg = TracialAlgebra((4,), (0.7,))
    x = random_self_adjoint(alg, rng, norm=None)
    # oracle: eigendecompose and sum the weighted eigenvalues
    expected = 0.7 * np.linalg.eigvalsh(x.blocks[0]).sum()
    got = trace(alg, x)
    assert got.real == pytest.approx(expected, abs=1e-12)
    assert abs(got.imag) < 1e-12


def test_trace_linear_and_mismatch(alg, alg6, rng):
    x = random_operator(alg, rng)
    y = random_operator(alg, rng)
    lhs = trace(alg, 2.0 * x + y)
    assert lhs == pytest.approx(2.0 * trace(alg, x) + trace(alg, y))
    with pytest.raises(AlgebraMismatchError):
        trace(alg6, x)


def test_trace_faithful(alg, rng):
    x = random_operator(alg, rng)
    assert trace(alg, x.H @ x).real >= 0
    z = alg.zero()
    assert trace(alg, z.H @ z).real == 0
    assert z.norm_inf() == 0


# ---------------------------------------------------------------------------
# p-norms
# ---------------------------------------------------------------------------

def test_pnorm_abs_eigenvalue_sum():
    alg = TracialAlgebra((2,), (1.0,))
    x = Operator(alg, [np.diag([3.0 + 0j, -4.0])])
    assert pnorm(alg, x, 1) == pytest.approx(7.0)


def test_pnorm_identity_p2():
    alg = TracialAlgebra((2,), (1.0,))
    assert pnorm(alg, alg.identity(), 2) == pytest.approx(math.sqrt(2))


def test_pnorm_rejects_small_p(alg):
    with pytest.raises(ValueError):
        pnorm(alg, alg.identity(), 0.5)


def test_pnorm_holder_one_two(alg, rng):
    # both sides from singular values, independently of the pnorm code path
    for _ in range(5):
        x = random_operator(alg, rng)
        svals = [np.linalg.svd(b, compute_uv=False) for b in x.blocks]
        n1 = sum(c * s.sum() for c, s in zip(alg.weights, svals))
        n2 = math.sqrt(sum(c * (s**2).sum() for c, s in zip(alg.weights, svals)))
        assert pnorm(alg, x, 1) == pytest.approx(n1, rel=1e-12)
        assert pnorm(alg, x, 2) == pytest.approx(n2, rel=1e-12)
        assert n1 <= math.sqrt(alg.trace_of_identity) * n2 + 1e-12


# ---------------------------------------------------------------------------
# absolute value
# ---------------------------------------------------------------------------

def test_abs_value_diagonal():
    alg = TracialAlgebra((2,), (1.0,))
    x = Operator(alg, [np.diag([-1.0 + 0j, 2.0])])
    got = abs_value(x)
    np.testing.assert_allclose(got.blocks[0], np.diag([1.0, 2.0]), atol=1e-12)


def test_abs_value_of_unitary_is_identity(alg, rng):
    h = random_self_adjoint(alg, rng)
    u = Operator(
        alg,
        [
            np.linalg.eigh(b)[1] for b in h.blocks
        ],
    )
    got = abs_value(u)
    assert (got - alg.identity()).norm_inf() < 1e-12


def test_abs_value_preserves_pnorms(alg, rng):
    x = random_operator(alg, rng)
    m = abs_value(x)
    assert m.is_positive()
    for p in (1, 2, math.inf):
        assert pnorm(alg, m, p) == pytest.approx(pnorm(alg, x, p), rel=1e-10)


# ---------------------------------------------------------------------------
# spectral resolution and projection
# ---------------------------------------------------------------------------

def test_spectral_resolution_sorts_eigenvalues():
    alg = TracialAlgebra((3,), (1.0,))
    x = Operator(alg, [np.diag([3.0 + 0j, 1.0, 2.0])])
    res = spectral_resolution(x)
    np.testing.assert_allclose(res.eigenvalues[0], [1.0, 2.0, 3.0])


def test_spectral_resolution_of_projection(alg, rng):
    p = random_projection(alg, rng, ranks=(1, 2))
    res = spectral_resolution(p.op)
    for w in res.eigenvalues:
        assert np.all((np.abs(w) < 1e-10) | (np.abs(w - 1) < 1e-10))


def test_spectral_resolution_reconstructs(alg, rng):
    x = random_self_adjoint(alg, rng, norm=None)
    res = spectral_resolution(x)
    assert reconstruction_residual(res, x) < 1e-10
    assert gram_residual(res) < 1e-12


def test_spectral_resolution_rejects_nonhermitian(alg, rng):
    x = random_operator(alg, rng)
    with pytest.raises(ValueError):
        spectral_resolution(x + 0.5 * (x - x.H))


def test_spectral_projection_threshold():
    alg = TracialAlgebra((3,), (1.0,))
    x = Operator(alg, [np.diag([1.0 + 0j, 2.0, 3.0])])
    res = spectral_resolution(x)
    e = spectral_projection(res, 2.0)
    np.testing.assert_allclose(e.op.blocks[0], np.diag([1.0, 1.0, 0.0]), atol=1e-12)
    assert e.cotrace == pytest.approx(1.0)


def test_spectral_projection_full_spectrum(alg, rng):
    x = random_self_adjoint(alg, rng)
    res = spectral_resolution(x)
    e = spectral_projection(res, x.norm_inf() + 1.0)
    assert e.cotrace == 0.0
    assert (e.op - alg.identity()).norm_inf() < 1e-12


def test_spectral_projection_chebyshev(alg, rng):
    # counting oracle: tau(1 - e_lam) <= lam^-p tau(h^p), both from eigenvalues
    for p in (1.0, 2.0):
        h = random_positive(alg, rng, norm=None)
        eigs = [np.linalg.eigvalsh((b + b.conj().T) / 2) for b in h.blocks]
        res = spectral_resolution(h)
        for lam in (0.05, 0.2, 0.8):
            e = spectral_projection(res, lam)
            cheb = sum(
                c * (np.clip(w, 0, None) ** p).sum() for c, w in zip(alg.weights, eigs)
            ) / lam**p
            count = sum(
                c * (w > lam + 1e-12).sum() for c, w in zip(alg.weights, eigs)
            )
            assert e.cotrace == pytest.approx(count)
            assert e.cotrace <= cheb + 1e-9


def test_projection_validation_rejects_nonidempotent(alg, rng):
    x = random_self_adjoint(alg, rng)
    with pytest.raises(ValueError):
        Projection(x)


# ---------------------------------------------------------------------------
# projection meet
# ---------------------------------------------------------------------------

def test_proj_meet_diagonal():
    alg = TracialAlgebra((3,), (1.0,))
    p = Projection(Operator(alg, [np.diag([1.0 + 0j, 1.0, 0.0])]))
    q = Projection(Operator(alg, [np.diag([0.0 + 0j, 1.0, 1.0])]))
    m = proj_meet(p, q)
    np.testing.assert_allclose(m.op.blocks[0], np.diag([0.0, 1.0, 0.0]), atol=1e-10)


def test_proj_meet_identity_absorbs(alg, rng):
    p = random_projection(alg, rng)
    one = Projection(alg.identity(), cotrace=0.0)
    m = proj_meet(p, one)
    assert (m.op - p.op).norm_inf() < 1e-10


def test_proj_meet_against_rank_oracle(rng):
    alg = TracialAlgebra((6,), (1.0,))
    for _ in range(10):
        p = random_projection(alg, rng)
        q = random_projection(alg, rng)
        m = proj_meet(p, q)
        # oracle: intersection dimension from ranks of stacked range bases
        bp = np.linalg.eigh(p.op.blocks[0])[1][:, np.linalg.eigvalsh(p.op.blocks[0]) > 0.5]
        bq = np.linalg.eigh(q.op.blocks[0])[1][:, np.linalg.eigvalsh(q.op.blocks[0]) > 0.5]
        joint = np.linalg.matrix_rank(np.hstack([bp, bq]), tol=1e-8)
        expected = bp.shape[1] + bq.shape[1] - joint
        assert m.ranks()[0] == expected
        # lattice inequalities
        assert leq(m, p) and leq(m, q)
        assert m.cotrace <= p.cotrace + q.cotrace + 1e-9
    # nearly equal subspaces: span(s, u) and span(s, u') with u, u' 1e-6 rad
    # apart; the angle is above the sv cutoff, so the meet is span(s) alone
    q_basis = _random_unitary(6, rng)
    s, u, u2 = q_basis[:, :2], q_basis[:, 2], q_basis[:, 3]
    v = math.cos(1e-6) * u + math.sin(1e-6) * u2
    p = _range_projection(alg, [np.column_stack([s, u])])
    q = _range_projection(alg, [np.column_stack([s, v])])
    m = proj_meet(p, q)
    assert m.ranks() == (2,)
    # the null space is fixed only to roundoff / angle, about 1e-10 here
    np.testing.assert_allclose(m.op.blocks[0], s @ s.conj().T, atol=1e-8)
    assert np.linalg.norm(m.op.blocks[0] @ u) < 1e-8


def _random_unitary(n, rng):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.linalg.qr(a)[0]


def _range_projection(alg, bases):
    """Projection onto the column span of one basis matrix per block."""
    return Projection(Operator(alg, [b @ np.linalg.pinv(b) for b in bases]))


def test_hand_built_projections_get_the_exact_count_as_cotrace(rng):
    # b pinv(b) is a projection only to roundoff, so its trace is not an
    # integer; its co-trace is still the weighted count of dropped dimensions
    alg = TracialAlgebra((3, 4), (0.7, 0.3))
    for _ in range(200):
        ranks = [int(rng.integers(1, n + 1)) for n in alg.blocks]
        bases = [rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
                 for n, r in zip(alg.blocks, ranks)]
        p = _range_projection(alg, bases)
        assert p.ranks() == tuple(ranks)
        assert p.cotrace == sum(c * (n - r) for c, n, r in zip(alg.weights, alg.blocks, ranks))


def test_meet_all_recovers_planted_intersection(rng):
    alg = TracialAlgebra((4, 6), (1.0, 0.5))
    for _ in range(8):
        m_proj = int(rng.integers(3, 6))
        ranks = [int(rng.integers(0, n - 1)) for n in alg.blocks]
        planted, members = [], [[] for _ in range(m_proj)]
        for n, r in zip(alg.blocks, ranks):
            q = _random_unitary(n, rng)
            planted.append(q[:, :r] @ q[:, :r].conj().T)
            for k in range(m_proj):
                # a random extra span in the complement of the planted one;
                # two of them already meet only in zero
                d = int(rng.integers(0, (n - r) // 2 + 1))
                g = rng.standard_normal((n - r, d)) + 1j * rng.standard_normal((n - r, d))
                members[k].append(np.column_stack([q[:, :r], q[:, r:] @ g]))
        ps = [_range_projection(alg, bases) for bases in members]
        m = meet_all(ps)
        assert m.ranks() == tuple(ranks)
        assert (m.op - Operator(alg, planted)).norm_inf() < 1e-10
        assert m.cotrace == pytest.approx(
            sum(c * (n - r) for n, c, r in zip(alg.blocks, alg.weights, ranks)), abs=1e-12
        )
        fold = reduce(proj_meet, ps)
        assert fold.cotrace == m.cotrace
        assert (m.op - fold.op).norm_inf() < 1e-10


def test_proj_meet_cotrace_subadditive(alg, rng):
    for _ in range(20):
        p = random_projection(alg, rng)
        q = random_projection(alg, rng)
        m = proj_meet(p, q)
        assert m.cotrace <= p.cotrace + q.cotrace + 1e-9


def _member_complements(kind, n, m, rng):
    """(m, n, n) complements of one case in a block of dimension n."""
    q = _random_unitary(n, rng)
    if kind == "full_rank":
        return rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
    if kind == "zero":
        return np.zeros((m, n, n), dtype=complex)
    if kind == "nearly_equal":
        # ranges span(s, u_j), u_j at an angle 0, 1e-10 or 1e-6 from u: below
        # and above the singular-value cutoff
        angles = [(0.0, 1e-10, 1e-6)[j % 3] for j in range(m)]
        if n == 1:
            return np.array([[[a]] for a in angles], dtype=complex)
        s, u, u2 = q[:, :n - 2], q[:, n - 2], q[:, n - 1]
        bases = [np.column_stack([s, math.cos(a) * u + math.sin(a) * u2]) for a in angles]
        return np.stack([np.eye(n) - b @ np.linalg.pinv(b) for b in bases])
    # rank deficient: random rows on the complement of a planted span and a
    # random extra direction per member (none in a 1x1 block, which it would
    # fill); with "some_zero" every other member is 0
    planted = q[:, : n // 2]
    comps = []
    for j in range(m):
        d = int(n > 1)
        extra = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        b = np.column_stack([planted, extra])
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        keep = kind == "rank_deficient" or j % 2
        comps.append(g @ (np.eye(n) - b @ np.linalg.pinv(b)) if keep else np.zeros((n, n)))
    return np.stack(comps)


@pytest.mark.parametrize("m", [2, 3, 5])
def test_meets_through_the_r_factor_match_the_tall_svd(m, monkeypatch):
    # every case of a stacked meet equals one SVD of its whole (m n, n) stack
    # bit for bit (projection blocks, ranks and co-trace), in a call where
    # some cases are uncut in a block or everywhere and in one where every
    # case is cut everywhere; every SVD the meets take is of a square R
    alg = TracialAlgebra((1, 3, 5), (1.0, 0.5, 0.25))
    rng = np.random.default_rng(70 + m)
    cases = [
        ("full_rank",) * 3,
        ("rank_deficient",) * 3,
        ("nearly_equal",) * 3,
        ("some_zero",) * 3,
        ("zero", "rank_deficient", "full_rank"),
        ("nearly_equal", "zero", "some_zero"),
        ("zero",) * 3,
    ]
    stacks = [
        np.stack([_member_complements(kinds[i], n, m, rng) for kinds in cases])
        for i, n in enumerate(alg.blocks)
    ]
    shapes = []
    svd = np.linalg.svd

    def record(a, *args, **kwargs):
        shapes.append(np.shape(a)[-2:])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", record)
    all_cut = [i for i in range(len(cases)) if all(np.any(a[i]) for a in stacks)]
    partly = meet_complements(alg, stacks)
    cut = meet_complements(alg, [a[all_cut] for a in stacks])
    monkeypatch.undo()
    assert shapes and all(r == c for r, c in shapes)
    assert all_cut == [0, 1, 2, 3]
    for got, i in [*zip(partly, range(len(cases))), *zip(cut, all_cut)]:
        blocks, nullities, cotrace = tall_svd_meet(alg, [a[i] for a in stacks])
        assert got.cotrace == cotrace and got.ranks() == tuple(nullities), i
        for a, b in zip(got.op.blocks, blocks):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), i
    # full rank meets to 0, the planted span survives, the nearly equal
    # ranges keep u only at angles within the cutoff, and an all-zero case
    # is the identity
    assert partly[0].ranks() == (0, 0, 0) and partly[-1].ranks() == alg.blocks
    assert partly[1].ranks() == (0, 1, 2)
    assert partly[2].ranks()[1:] == ((2, 4) if m == 2 else (1, 3))


# ---------------------------------------------------------------------------
# serialization and vectorization
# ---------------------------------------------------------------------------

def test_operator_json_roundtrip(alg, rng):
    x = random_operator(alg, rng)
    data = operator_to_dict(x)
    assert data["weights"] == [1.0, 0.5]
    y = operator_from_dict(data)
    assert y.algebra == alg
    assert (x - y).norm_inf() < 1e-15


def test_operator_from_dict_mismatch(alg, alg6, rng):
    data = operator_to_dict(random_operator(alg, rng))
    with pytest.raises(AlgebraMismatchError):
        operator_from_dict(data, alg6)


def test_vec_unvec_roundtrip(alg6, rng):
    x = random_operator(alg6, rng)
    assert (unvec(alg6, vec(x)) - x).norm_inf() == 0


def test_stacked_vectorization_and_traces_match_the_one_operator_forms(alg6, rng):
    # per-block (3, 2, n, n) stacks: two leading axes
    ops = [[random_operator(alg6, rng) for _ in range(2)] for _ in range(3)]
    stacks = [np.array([[x.blocks[i] for x in row] for row in ops]) for i in range(2)]
    v = vecs(stacks)
    assert v.shape == (3, 2, alg6.vec_dim)
    back = unvecs(alg6, v)
    assert all(np.array_equal(a, b) for a, b in zip(back, stacks))
    tr = traces(alg6, stacks)
    assert tr.shape == (3, 2)
    for (q, c), x in np.ndenumerate(np.array(ops, dtype=object)):
        assert np.array_equal(v[q, c], vec(x))
        assert all(np.array_equal(a[q, c], b) for a, b in zip(back, unvec(alg6, v[q, c]).blocks))
        assert tr[q, c] == trace(alg6, x)
