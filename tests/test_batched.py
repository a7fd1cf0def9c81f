"""Batched inputs through the propagator core, held to per-input oracles.

``Semigroup.propagate_batch`` pushes a stack of inputs through the core in
one call; ``choi_blocks``, ``validate_absolute_contraction``, the law and
continuity checks, local-avg and the certificate pair tables use it.  Each
oracle here is built one input at a time from ``apply``, ``min_eig``,
``trace``, ``pnorm`` and ``compressed_norm``.  The Choi minimum that
``choi_min_eig`` reads off the modes is held to the dense minimum over
``choi_blocks``.
"""
import math
import re

import numpy as np
import pytest
import scipy.linalg

from ncerg import (
    ExperimentConfig,
    GeneratorExp,
    Identity,
    Operator,
    ScalarDecay,
    SchurDecay,
    Semigroup,
    TracialAlgebra,
    UnitaryFlow,
    bau_cauchy_certify,
    continuity_modulus,
    lindblad_generator,
    perturbation_transfer,
    pnorm,
    random_positive,
    random_projection,
    random_self_adjoint,
    semigroup_from_config,
    semigroup_law_residual,
    trace,
    validate_absolute_contraction,
)
from ncerg import semigroups
from ncerg.algebra import (
    AlgebraMismatchError,
    min_eig,
    normalized_draws,
    pnorms,
    random_operator,
    random_operators,
    stack_blocks,
)
from ncerg.bau import _pair_table
from ncerg.config import ConfigError
from ncerg.semigroups import EIGEN_TOL, choi_blocks, choi_min_eig, phi1
from oracles import (
    compressed_norm,
    generator_from_map,
    law_residual_per_pair,
    sampled_violations,
)

# unequal blocks, so a swapped block index or a transposed Choi layout shows
ALG = TracialAlgebra((2, 3), (1.0, 0.5))


def coupled_generator(alg, rng, scale=0.4):
    """A dense generator that couples every pair of blocks (not a contraction)."""
    d = alg.vec_dim
    mat = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * mat / math.sqrt(d)


def all_variants(alg, rng):
    lind = lindblad_generator(
        alg,
        random_self_adjoint(alg, rng, norm=0.5),
        [random_self_adjoint(alg, rng, norm=0.5)],
    )
    rates = [np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float) for n in alg.blocks]
    return {
        "identity": Identity(alg),
        "scalar_decay": ScalarDecay(alg, 0.7),
        "unitary_flow": UnitaryFlow(alg, random_self_adjoint(alg, rng, norm=1.0)),
        "schur_decay": SchurDecay(alg, rates),
        "generator_exp": GeneratorExp(alg, lind),
        "coupled": GeneratorExp(alg, coupled_generator(alg, rng)),
    }


def stacked(ops):
    return [np.stack([x.blocks[i] for x in ops]) for i in range(ops[0].algebra.n_blocks)]


def close(got: Operator, want: Operator, rtol: float = 1e-14) -> bool:
    return (got - want).norm_inf() <= rtol * max(want.norm_inf(), 1.0)


# ---------------------------------------------------------------------------
# the core
# ---------------------------------------------------------------------------

def test_propagate_batch_matches_per_input_apply():
    rng = np.random.default_rng(11)
    ts = np.array([0.0, 1e-3, 0.4, 2.5])
    xs = [random_operator(ALG, rng) for _ in range(4)]
    for name, sg in all_variants(ALG, rng).items():
        out = sg.propagate_batch(ts, stacked(xs))
        assert [o.shape for o in out] == [(len(ts), len(xs), n, n) for n in ALG.blocks]
        for q, t in enumerate(ts):
            for c, x in enumerate(xs):
                got = Operator(ALG, [o[q, c] for o in out])
                assert close(got, sg.apply(t, x)), (name, t, c)
        # a_0 is the identity to the last bit, and propagate_stack is k = 1
        for o, a in zip(out, stacked(xs)):
            assert np.array_equal(o[0], a), name
        one = sg.propagate_stack(ts, xs[2])
        for o, s in zip(out, one):
            assert s.shape == (len(ts),) + o.shape[2:]
            assert np.allclose(s, o[:, 2], rtol=0, atol=1e-14), name


def test_coupled_generator_moves_mass_between_blocks():
    # the oracle cases below only pin the block order if a_t mixes blocks
    rng = np.random.default_rng(12)
    sg = GeneratorExp(ALG, coupled_generator(ALG, rng))
    x = Operator(ALG, [np.eye(2), np.zeros((3, 3))])
    assert np.abs(sg.apply(0.5, x).blocks[1]).max() > 1e-2


def test_propagate_batch_rejects_bad_stacks():
    sg = ScalarDecay(ALG, 1.0)
    good = [np.zeros((2, 2, 2)), np.zeros((2, 3, 3))]
    with pytest.raises(ValueError):
        sg.propagate_batch([-0.1], good)
    with pytest.raises(ValueError):
        sg.propagate_batch([[0.1]], good)
    with pytest.raises(AlgebraMismatchError):
        sg.propagate_batch([0.1], good[:1])
    with pytest.raises(AlgebraMismatchError):
        sg.propagate_batch([0.1], [np.zeros((2, 2, 2)), np.zeros((3, 3, 3))])
    with pytest.raises(AlgebraMismatchError):
        sg.propagate_batch([0.1], [np.zeros((0, 2, 2)), np.zeros((0, 3, 3))])
    with pytest.raises(AlgebraMismatchError):
        sg.propagate_batch([0.1], [np.zeros((2, 2)), np.zeros((3, 3))])


# ---------------------------------------------------------------------------
# Choi matrices
# ---------------------------------------------------------------------------

def reference_choi(sg, t):
    """Choi matrix sum_kl E_kl (x) a_t(E_kl)_j of each (output j, input i) pair."""
    alg = sg.algebra
    out = []
    for i, ni in enumerate(alg.blocks):
        for j, nj in enumerate(alg.blocks):
            choi = np.zeros((ni * nj, ni * nj), dtype=complex)
            for k in range(ni):
                for l in range(ni):
                    unit = [np.zeros((n, n)) for n in alg.blocks]
                    unit[i][k, l] = 1.0
                    image = sg.apply(t, Operator(alg, unit)).blocks[j]
                    choi += np.kron(unit[i], image)
            out.append((j, i, choi))
    return out


@pytest.mark.parametrize("t", [0.0, 0.3, 1.7])
def test_choi_blocks_match_matrix_unit_reference(t):
    rng = np.random.default_rng(13)
    for name, sg in all_variants(ALG, rng).items():
        got = choi_blocks(sg, t)
        want = reference_choi(sg, t)
        assert [(j, i) for j, i, _ in got] == [(j, i) for j, i, _ in want], name
        for (j, i, a), (_, _, b) in zip(got, want):
            assert a.shape == b.shape, (name, j, i)
            assert np.abs(a - b).max() <= 1e-14 * max(np.abs(b).max(), 1.0), (name, j, i)
    # with the coupled generator every component is nonzero, so the
    # (output, input) orientation is pinned, not only the diagonal blocks
    coupled = all_variants(ALG, rng)["coupled"]
    assert min(np.abs(c).max() for _, _, c in choi_blocks(coupled, 0.3)) > 1e-3


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def reference_validation(sg, t_samples, tol=1e-8, law_tol=1e-9, rng=None):
    """The validation contract evaluated one input and one probe at a time."""
    ts = [float(t) for t in t_samples]
    alg = sg.algebra
    one = alg.identity()
    positives = [random_positive(alg, rng) for _ in range(20)]
    floor = 16 * np.finfo(float).eps  # witnesses only above roundoff
    worst, per_t = {}, []
    max_pos = max_unital = max_trace = 0.0
    for t in ts:
        yt = sg.apply(t, one)
        top = max(
            max(float(np.linalg.eigvalsh((a + a.conj().T) / 2.0)[-1]) for a in (yt - one).blocks),
            0.0,
        )
        excess = top + yt.self_adjoint_defect()
        if excess > max_unital:
            max_unital = excess
            if excess > floor:
                worst["unitality_t"] = t
        t_pos = t_trace = 0.0
        for k, x in enumerate(positives):
            image = sg.apply(t, x)
            scale = max(x.norm_inf(), 1e-300)
            viol = max(0.0, -min_eig(image) / scale, image.self_adjoint_defect() / scale)
            t_pos = max(t_pos, viol)
            if viol > max_pos:
                max_pos = viol
                if viol > floor:
                    worst["positivity_t"], worst["positivity_sample"] = t, k
            texc = max(0.0, trace(alg, image).real - trace(alg, x).real)
            t_trace = max(t_trace, texc)
            if texc > max_trace:
                max_trace = texc
                if texc > floor * trace(alg, x).real:
                    worst["trace_t"], worst["trace_sample"] = t, k
        per_t.append((t, t_pos, excess, t_trace))
    choi_ts = [t for t in ts if t > 0][:6]
    choi_min = min(
        float(np.linalg.eigvalsh((c + c.conj().T) / 2.0)[0])
        for t in choi_ts
        for _, _, c in reference_choi(sg, t)
    )
    sub = ts[:5]
    probes = [random_self_adjoint(alg, rng) for _ in range(3)]
    law = max(
        (sg.apply(t, sg.apply(s, x)) - sg.apply(t + s, x)).norm_inf() / x.norm_inf()
        for i, t in enumerate(sub)
        for s in sub[i:]
        for x in probes
    )
    probe = random_self_adjoint(alg, rng)
    cont = [(s, pnorm(alg, sg.apply(s, probe) - probe, 2.0)) for s in ts]
    choi_ok = choi_min >= -tol
    sampled_only = not choi_ok and not sg.modes
    passed = max(max_pos, max_unital, max_trace) <= tol and law <= law_tol
    passed = passed and (choi_ok or sampled_only)
    if sg.modes and not choi_ok:
        passed = False
        worst["choi_min"] = choi_min
    return {
        "max_positivity_violation": max_pos,
        "max_unitality_excess": max_unital,
        "max_trace_excess": max_trace,
        "law_residual": law,
        "continuity": cont,
        "choi_min": choi_min,
        "sampled_only": sampled_only,
        "passed": passed,
        "per_t": per_t,
        "worst": worst,
    }


def non_cp_schur(alg):
    # S(t) = exp(-t c) has a negative determinant on the 3x3 block for t > 0
    c3 = np.zeros((3, 3))
    c3[0, 2] = c3[2, 0] = 3.0
    return SchurDecay(alg, [np.zeros((2, 2)), c3])


def transpose_flow(alg):
    # exp(t(T - 1)) with T the blockwise transpose: positive, unital and
    # trace preserving, but not completely positive
    return GeneratorExp(
        alg, generator_from_map(alg, lambda x: Operator(alg, [a.T - a for a in x.blocks]))
    )


def coupled_flow(alg):
    # maps self-adjoint inputs to non-self-adjoint images: every defect counts
    return GeneratorExp(alg, coupled_generator(alg, np.random.default_rng(26)))


@pytest.mark.parametrize(
    "make, passed, sampled_only",
    [(non_cp_schur, False, False), (transpose_flow, True, True), (coupled_flow, False, True)],
)
def test_validation_report_matches_per_input_reference(make, passed, sampled_only):
    sg = make(ALG)
    ts = [0.0, 1e-3, 0.2, 1.0, 3.0, 7.5]
    got = validate_absolute_contraction(sg, ts, rng=np.random.default_rng(21))
    want = reference_validation(sg, ts, rng=np.random.default_rng(21))
    assert got.passed is want["passed"] is passed
    assert got.sampled_only is want["sampled_only"] is sampled_only
    for key in (
        "max_positivity_violation",
        "max_unitality_excess",
        "max_trace_excess",
        "law_residual",
        "choi_min",
    ):
        assert abs(getattr(got, key) - want[key]) <= 1e-14 * max(1.0, abs(want[key])), key
    for rows, ref in ((got.per_t, want["per_t"]), (got.continuity, want["continuity"])):
        assert len(rows) == len(ref)
        for row, r in zip(rows, ref):
            assert row[0] == r[0]
            gap = np.abs(np.subtract(row[1:], r[1:]))
            assert np.all(gap <= 1e-14 * np.maximum(1.0, np.abs(r[1:]))), (row, r)
    assert sorted(got.worst) == sorted(want["worst"])
    if make is not transpose_flow:
        # the violations are real here, so the witnesses are unique
        assert got.worst == pytest.approx(want["worst"], rel=1e-14, abs=1e-14)
        assert got.max_positivity_violation > 1e-3


@pytest.mark.parametrize(
    "name", ["identity", "scalar_decay", "unitary_flow", "schur_decay", "generator_exp"]
)
def test_stacked_validation_matches_per_t_and_per_pair_loops(name, monkeypatch):
    sg = all_variants(ALG, np.random.default_rng(30))[name]
    ts = [0.0, 1e-3, 0.2, 1.0, 3.0, 7.5, 9.0]
    calls = []
    stack = type(sg)._stack
    monkeypatch.setattr(type(sg), "_stack", lambda self, *a: calls.append(1) or stack(self, *a))
    report = validate_absolute_contraction(sg, ts, rng=np.random.default_rng(31))
    monkeypatch.undo()
    # the sampled checks at all t; the law probes at every s and t + s, then
    # once per s of the first five times; the continuity grid
    assert len(calls) == 1 + 1 + 5 + 1

    rng = np.random.default_rng(31)  # the draws of the validation, in order
    positives = normalized_draws(random_operators(ALG, rng, 20), True)
    probes = normalized_draws(random_operators(ALG, rng, 4), False)
    unital, pos, texc = sampled_violations(sg, ts, positives)
    per_t = np.column_stack([ts, pos.max(axis=1), unital, texc.max(axis=1)])
    assert np.array(report.per_t).tobytes() == per_t.tobytes()
    maxima = (report.max_unitality_excess, report.max_positivity_violation, report.max_trace_excess)
    assert maxima == (unital.max(), pos.max(), texc.max())
    pairs = [(t, s) for i, t in enumerate(ts[:5]) for s in ts[i:5]]
    assert report.law_residual == law_residual_per_pair(sg, pairs, [a[:3] for a in probes])


@pytest.mark.parametrize("name", sorted(all_variants(ALG, np.random.default_rng(0))))
def test_skew_defect_by_eigvalsh_matches_the_svd_norm(name):
    # validation reads ||y - y*|| as the largest |eigenvalue| of the exactly
    # Hermitian -i(y - y*); on the images of its positives (roundoff skew
    # parts) and of random operators (skew parts of order 1)
    rng = np.random.default_rng(32)
    sg = all_variants(ALG, rng)[name]
    positives = normalized_draws(random_operators(ALG, rng, 20), True)
    inputs = [np.concatenate([a, b]) for a, b in zip(positives, random_operators(ALG, rng, 5))]
    for y in sg.propagate_batch(np.array([0.0, 1e-3, 0.2, 1.0, 7.5]), inputs):
        d = y - y.conj().swapaxes(-1, -2)
        h = -1j * d
        assert np.array_equal(h, h.conj().swapaxes(-1, -2))
        by_eig = np.abs(np.linalg.eigvalsh(h)[..., [0, -1]]).max(axis=-1)
        by_svd = np.linalg.svd(d, compute_uv=False)[..., 0]
        np.testing.assert_allclose(by_eig, by_svd, rtol=1e-13, atol=0.0)
        assert by_svd[:, 20:].min() > 1e-3


WITNESSES = {"positivity_t", "positivity_sample", "unitality_t", "trace_t", "trace_sample"}


def test_witnesses_only_above_roundoff():
    ts = np.geomspace(1e-4, 10.0, 10)
    default_flow = semigroup_from_config(
        TracialAlgebra((2, 4), (1.0, 0.5)),
        ExperimentConfig().semigroup,
        np.random.default_rng([20240810, 0]),
    )
    for sg in (transpose_flow(ALG), default_flow):
        rep = validate_absolute_contraction(sg, ts, rng=np.random.default_rng(1))
        assert rep.passed
        # the roundoff violations are still reported, but name no witness
        assert rep.max_positivity_violation > 0.0
        assert not WITNESSES & set(rep.worst)
    rep = validate_absolute_contraction(non_cp_schur(ALG), ts, rng=np.random.default_rng(1))
    assert {"positivity_t", "positivity_sample", "choi_min"} <= set(rep.worst)
    rep = validate_absolute_contraction(coupled_flow(ALG), ts, rng=np.random.default_rng(1))
    assert WITNESSES <= set(rep.worst)
    # a growth of 1e-12 per unit time is small but no roundoff: it keeps its witnesses
    growth = GeneratorExp(ALG, 1e-12 * np.eye(ALG.vec_dim))
    rep = validate_absolute_contraction(growth, ts, rng=np.random.default_rng(1))
    assert 0.0 < rep.max_trace_excess < 1e-10
    assert rep.worst["unitality_t"] == rep.worst["trace_t"] == 10.0


def test_witness_rule_on_crafted_arrays():
    witness = semigroups._witness
    # a rise above its floor, then a larger rise that misses its own floor:
    # the earlier witness stays
    values = np.array([[0.0, 3.0, 1.0], [2.0, 1.0, 5.0]])
    assert witness(values, np.array([1.0, 1.0, 9.0])) == (0, 1)
    assert witness(values, 1.0) == (1, 2)
    # ties do not rise: the first of equal maxima is the witness
    assert witness(np.array([0.5, 2.0, 2.0, 1.0]), 0.1) == (1,)
    assert witness(np.array([[2.0, 2.0], [2.0, 0.0]]), 0.0) == (0, 0)
    # no violation, no witness: neither for zeros nor for an empty table
    assert witness(np.zeros((3, 4)), 0.0) is None
    assert witness(np.zeros(5), 1e-15) is None
    assert witness(np.zeros((0, 20)), 0.0) is None


# ---------------------------------------------------------------------------
# the Choi minimum read off the modes, held to the dense Choi matrices
# ---------------------------------------------------------------------------

def dense_choi_min(sg, t):
    return min(
        float(np.linalg.eigvalsh((c + c.conj().T) / 2.0)[0]) for _, _, c in choi_blocks(sg, t)
    )


def modal_variants(alg, rng):
    """The four modal variants, plus bare modes whose multiplier is not Hermitian."""
    # near-diagonal Schur multipliers at large t, so the structural zeros are the minimum
    rates = [0.8 * np.abs(np.subtract.outer(np.arange(n), np.arange(n))) for n in alg.blocks]
    skew = []
    for n in alg.blocks:
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        skew.append((np.linalg.qr(z)[0], 0.2 * (rng.standard_normal((n, n)) + 1j * z)))
    return {
        "identity": Identity(alg),
        "scalar_decay": ScalarDecay(alg, 0.7),
        "unitary_flow": UnitaryFlow(alg, random_self_adjoint(alg, rng, norm=1.0)),
        "schur_decay": SchurDecay(alg, rates),
        "skew_modes": Semigroup(alg, skew),
    }


@pytest.mark.parametrize(
    "blocks", [(4,), (1,), (1, 1), (1, 3), ALG.blocks], ids=lambda b: "x".join(map(str, b))
)
@pytest.mark.parametrize("t", [1e-4, 0.3, 7.5])
def test_modal_choi_min_matches_dense_choi(blocks, t):
    alg = TracialAlgebra(blocks, tuple(1.0 + 0.5 * i for i in range(len(blocks))))
    for name, sg in modal_variants(alg, np.random.default_rng(27)).items():
        assert sg.modes
        got, want = choi_min_eig(sg, t), dense_choi_min(sg, t)
        scale = max(1.0, max(np.abs(c).max() for _, _, c in choi_blocks(sg, t)))
        assert abs(got - want) <= 1e-13 * scale, (name, got, want)


@pytest.mark.parametrize("t", [1e-4, 0.3, 7.5])
def test_modal_choi_min_matches_dense_on_non_cp_schur(t):
    sg, tol = non_cp_schur(ALG), 1e-8
    got, want = choi_min_eig(sg, t), dense_choi_min(sg, t)
    assert want < -1e-6
    assert abs(got - want) <= 1e-13 and abs(got - want) <= 1e-12 * abs(want)
    assert np.sign(got + tol) == np.sign(want + tol)


def test_modal_validation_builds_no_dense_choi(monkeypatch):
    calls = []
    dense = semigroups.choi_blocks
    monkeypatch.setattr(semigroups, "choi_blocks", lambda sg, t: calls.append(t) or dense(sg, t))
    ts = [0.0, 1e-3, 0.2, 1.0, 3.0, 7.5, 9.0, 10.0]
    for name, sg in all_variants(ALG, np.random.default_rng(28)).items():
        calls.clear()
        validate_absolute_contraction(sg, ts, rng=np.random.default_rng(29))
        # the Choi test runs at the first six positive times
        assert calls == ([] if sg.modes else ts[1:7]), name
    # t = 0 is in the domain, t < 0 is not
    assert abs(choi_min_eig(Identity(ALG), 0.0) - dense_choi_min(Identity(ALG), 0.0)) <= 1e-14
    with pytest.raises(ValueError):
        choi_min_eig(ScalarDecay(ALG, 1.0), -0.1)


# ---------------------------------------------------------------------------
# GeneratorExp: the eigenbasis path, its dense fallback and their oracles
# ---------------------------------------------------------------------------

PAIR = TracialAlgebra((1, 1), (1.0, 0.5))  # vectorized dimension 2


def jordan(eps):
    """A 2 x 2 Jordan block at -1/2 on the vectorized (1, 1) algebra, its lower
    corner perturbed by eps: defective at eps = 0, nearly defective for small eps."""
    return np.array([[-0.5, 1.0], [eps, -0.5]], dtype=complex)


def as_cols(xs):
    """Per-block (..., k, n, n) stacks as one (..., d, k) array: column c is vec of input c."""
    return np.concatenate([a.reshape(*a.shape[:-2], -1) for a in xs], axis=-1).swapaxes(-1, -2)


def van_loan_means(lmat, Ts, cols, s):
    """(1/T) int_0^T e^{st} exp(tL) X dt for each T: the top-right (d, k) block of
    expm([[T (L + s), X], [0, 0]]), which is phi1(T (L + s)) X (Van Loan 1978)."""
    d, k = cols.shape
    out = []
    for T in Ts:
        aug = np.zeros((d + k, d + k), dtype=complex)
        aug[:d, :d] = T * (lmat + s * np.eye(d))
        aug[:d, d:] = cols
        out.append(scipy.linalg.expm(aug)[:d, d:])
    return np.array(out)


def rel_gap(got, want):
    return np.abs(got - want).max() / max(1.0, np.abs(want).max())


@pytest.mark.parametrize("s", [0.0, -0.4 + 0.9j, 1.5j])
def test_generator_mean_batch_matches_van_loan_oracle(s):
    rng = np.random.default_rng(30)
    sg = GeneratorExp(ALG, coupled_generator(ALG, rng))
    assert sg.path == "eigen"
    Ts = np.array([1e-9, 1e-4, 0.4, 2.5, 6.0])
    xs = stacked([random_operator(ALG, rng) for _ in range(3)])
    want = van_loan_means(sg.matrix, Ts, as_cols(xs), s)
    assert rel_gap(as_cols(sg.mean_batch(Ts, xs, s)), want) <= 1e-12


DEFECTIVE = {
    "jordan": (PAIR, jordan(0.0), "dense"),
    "near_jordan_1e-14": (PAIR, jordan(1e-14), "dense"),
    "near_jordan_1e-6": (PAIR, jordan(1e-6), "eigen"),
    # eig returns a singular W for the 4 x 4 nilpotent shift: it has no kappa(W)
    "shift_4": (TracialAlgebra((2,), (1.0,)), np.eye(4, k=1), "dense"),
    # an exact but ill-conditioned decomposition: roundoff still counts
    "tiny_nilpotent": (PAIR, np.array([[0.0, 1e-300], [0.0, 0.0]]), "dense"),
}


@pytest.mark.parametrize("case", sorted(DEFECTIVE))
def test_defective_generator_matches_expm(case):
    alg, lmat, path = DEFECTIVE[case]
    sg = GeneratorExp(alg, lmat)
    assert sg.path == path
    if case == "shift_4":
        assert sg.condition is None
    else:
        error = sg.condition * max(sg.backward_error, np.finfo(float).eps)
        assert (error > EIGEN_TOL) == (path == "dense")
    ts = np.array([0.0, 1e-9, 0.3, 2.5, 20.0])
    xs = stacked([random_operator(alg, np.random.default_rng(c)) for c in (32, 33)])  # k = 2
    cols = as_cols(xs)
    want = np.array([scipy.linalg.expm(t * sg.matrix) @ cols for t in ts])
    assert rel_gap(as_cols(sg.propagate_batch(ts, xs)), want) <= 1e-12
    for s in (0.0, 0.3 - 0.2j):
        want = van_loan_means(sg.matrix, ts[1:], cols, s)
        assert rel_gap(as_cols(sg.mean_batch(ts[1:], xs, s)), want) <= 1e-12, s


def test_jordan_block_against_closed_form():
    # L = -1/2 + N with N^2 = 0: exp(tL) = e^{-t/2} (1 + tN), and the mean at
    # shift s is phi1(z) + T (phi1(z) - phi2(z)) N with z = T (s - 1/2),
    # since int_0^1 u e^{uz} du = phi1(z) - phi2(z), phi2(z) = (e^z - 1 - z)/z^2
    sg = GeneratorExp(PAIR, jordan(0.0))
    nil = np.array([[0.0, 1.0], [0.0, 0.0]])
    ts = np.array([0.05, 0.3, 2.5, 20.0])  # phi2 by its formula cancels for small |z|
    xs = [np.array([[[1.0]], [[0.5j]]]), np.array([[[-2.0]], [[1.0 + 1.0j]]])]
    cols = as_cols(xs)
    want = np.array([np.exp(-t / 2) * (np.eye(2) + t * nil) @ cols for t in ts])
    assert rel_gap(as_cols(sg.propagate_batch(ts, xs)), want) <= 1e-12
    s = 0.3 - 0.2j
    z = ts * (s - 0.5)
    p1, p2 = phi1(z), (np.exp(z) - 1 - z) / z**2
    want = np.array([(a * np.eye(2) + T * (a - b) * nil) @ cols for T, a, b in zip(ts, p1, p2)])
    assert rel_gap(as_cols(sg.mean_batch(ts, xs, s)), want) <= 1e-12


@pytest.mark.parametrize("eps", [1e-10, 1e-8, 1e-6, 1e-4])
def test_eigen_path_error_within_recorded_estimate(eps):
    # kappa(W) times the backward error (or roundoff, whichever is larger)
    # bounds the achieved error of the eigenbasis path up to a small factor
    sg = GeneratorExp(PAIR, jordan(eps))
    assert sg.path == "eigen"
    bound = 4 * sg.condition * max(sg.backward_error, np.finfo(float).eps)
    for t in (0.3, 1.0, 5.0, 20.0):
        assert rel_gap(sg.propagator(t), scipy.linalg.expm(t * sg.matrix)) <= bound, t


def test_generator_propagator_matches_expm_on_both_paths():
    eigen = GeneratorExp(ALG, coupled_generator(ALG, np.random.default_rng(31)))
    for sg, path in ((eigen, "eigen"), (GeneratorExp(PAIR, jordan(0.0)), "dense")):
        assert sg.path == path
        for t in (0.0, 1e-9, 0.3, 2.5):
            assert rel_gap(sg.propagator(t), scipy.linalg.expm(t * sg.matrix)) <= 1e-12, (path, t)
        assert np.array_equal(sg.propagator(0.0), np.eye(sg.algebra.vec_dim))


@pytest.mark.parametrize(
    "blocks, spec, t, path",
    [
        # expm(tL) of a defective L (W singular) turns NaN
        ((1, 1), {"matrix": {"blocks": [{"dim": 2, "re": [[-1, 1], [0, -1]],
                                         "im": [[0, 0], [0, 0]]}]}}, 1e40, "dense"),
        # exp(t mu) overflows where roundoff leaves Re mu above 0
        ((2, 4), {}, 1e300, "eigen"),
    ],
    ids=["dense", "eigen"],
)
def test_propagator_refuses_to_leave_the_float_range(blocks, spec, t, path):
    # the refusal of the stacked core, without a warning, and a finite
    # propagator at t = 10
    alg = TracialAlgebra(blocks, (1.0, 0.5))
    rng = np.random.default_rng([ExperimentConfig().seed, 0])
    sg = semigroup_from_config(alg, {"variant": "generator_exp", **spec}, rng)
    assert sg.path == path
    assert np.isfinite(sg.propagator(10.0)).all()
    message = f"generator_exp leaves the float range at t up to {t:g} on its {path} path"
    with pytest.raises(ConfigError, match=re.escape(message)):
        sg.propagator(t)


def test_law_and_continuity_match_per_probe_loops():
    rng = np.random.default_rng(22)
    probes = [random_operator(ALG, rng) for _ in range(3)]
    for name, sg in all_variants(ALG, rng).items():
        for t, s in ((0.0, 0.5), (0.3, 0.0), (0.4, 1.1)):
            want = max(
                (sg.apply(t, sg.apply(s, x)) - sg.apply(t + s, x)).norm_inf() / x.norm_inf()
                for x in probes
            )
            assert abs(semigroup_law_residual(sg, t, s, probes) - want) <= 1e-14, name
        grid = [0.0, 0.05, 0.0, 1.3]
        for p in (1.0, 2.0, math.inf):
            rows = continuity_modulus(sg, probes[0], p, grid)
            assert [s for s, _ in rows] == grid
            for s, v in rows:
                want = pnorm(ALG, sg.apply(s, probes[0]) - probes[0], p)
                assert abs(v - want) <= 1e-14 * max(want, 1.0), (name, s, p)
    assert semigroup_law_residual(Identity(ALG), 0.1, 0.2, []) == 0.0
    assert continuity_modulus(Identity(ALG), probes[0], 2.0, []) == ()


def test_pnorms_match_pnorm():
    rng = np.random.default_rng(23)
    xs = [random_operator(ALG, rng) for _ in range(5)] + [ALG.zero()]
    svals = [np.linalg.svd(a, compute_uv=False) for a in stacked(xs)]
    for p in (1.0, 2.0, 3.5, math.inf):
        assert pnorms(ALG, svals, p) == [pnorm(ALG, x, p) for x in xs]
    with pytest.raises(ValueError):
        pnorms(ALG, svals, 0.5)


# ---------------------------------------------------------------------------
# certificate pair tables
# ---------------------------------------------------------------------------

def test_pair_table_matches_compressed_norm_loop():
    rng = np.random.default_rng(24)
    e = random_projection(ALG, rng, ranks=(1, 2))
    ops = [random_operator(ALG, rng) for _ in range(6)]
    table = _pair_table(e, stack_blocks(ops))
    assert table.shape == (6, 6)
    for i in range(6):
        for j in range(6):
            want = compressed_norm(e, ops[i] - ops[j]) if i < j else 0.0
            assert abs(table[i, j] - want) <= 1e-14 * max(want, 1.0), (i, j)
    assert _pair_table(e, stack_blocks(ops[:1])).tolist() == [[0.0]]


def test_certificate_decay_matches_pair_loops():
    rng = np.random.default_rng(25)
    sg = UnitaryFlow(ALG, random_self_adjoint(ALG, rng, norm=1.0))
    x = random_self_adjoint(ALG, rng)
    Ts = [2.0**-k for k in range(7)]
    base = [(T, sg.mean(T, x)) for T in Ts]
    tilde = [(T, y + 1e-3 * T * x) for T, y in base]
    cert = bau_cauchy_certify(base, epsilon=0.5, tol=1e-2)
    # premise gaps are 1e-3 T, so the transfer starts at T = 1/2
    moved = perturbation_transfer(tilde, base, cert, [6e-4])
    e, m = cert.projection, len(Ts)
    start = moved.params["chain"][-1][1]
    assert start == 1
    for c, fam in ((cert, base), (moved, tilde)):
        ops = [y for _, y in fam]
        for j, (T, d) in enumerate(c.decay):
            want = max(
                compressed_norm(e, ops[i] - ops[l]) for i in range(j, m) for l in range(i + 1, m)
            )
            assert T == Ts[j] and abs(d - want) <= 1e-14, (c.family, j)

    def tail_max(fam):
        ops = [y for _, y in fam]
        return max(
            (compressed_norm(e, ops[i] - ops[j]) for i in range(start, m) for j in range(i + 1, m)),
            default=0.0,
        )

    assert abs(moved.achieved_bound - tail_max(tilde)) <= 1e-14
    assert abs(moved.params["base_tail_bound"] - tail_max(base)) <= 1e-14
