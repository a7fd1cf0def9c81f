"""Spectral work the library skips because its result is already known.

A meet that some cut empties is 0 in that block, a compression by a zero
block is 0, a projection that is exactly 0 or 1 has residuals 0, and a gate
residual whose Frobenius norm is below the tolerance passes without an SVD;
norms, moduli, sample times and averages that a suite needs more than once
are computed once.  Each test holds a skipping path to the computation it
replaces, bit for bit where the output depends on it, and counts the work,
so it fails when a reduction is undone or masks a live case as dead.
"""
import csv
import decimal
import math
import warnings

import numpy as np
import pytest

from ncerg import (
    GeneratorExp,
    TracialAlgebra,
    UnitaryFlow,
    assemble_certificate,
    bau_cauchy_certify,
    cesaro_map_family,
    lindblad_generator,
    make_dense_certifier,
    make_maximal_oracle,
    perturbation_transfer,
    random_positive,
    random_self_adjoint,
    scheme_from_semigroup,
    spectral_projection,
)
from ncerg import algebra, averaging, banach, bau, semigroups
from ncerg.algebra import (
    INPUT_TOL,
    MEET_RANK_TOL,
    PROJECTION_TOL,
    SELF_ADJOINT_TOL,
    SPECTRAL_INCLUDE,
    Operator,
    Projection,
    SpectralResolution,
    _check_projections,
    hermitian_defects,
    meet_complements,
    min_eig,
    op_norms,
    pnorm,
    pnorms,
    power_traces,
    random_projection,
    spectral_resolution,
    stack_blocks,
)
from ncerg.averaging import sandwich_slacks, substitution_bound_checks
from ncerg.bau import MaximalParams, _pair_table, compressed_norms, maximal_certificates
from ncerg.experiments import ExperimentConfig, _Env, _random_weight, run
from ncerg.semigroups import semigroup_law_residual, validate_absolute_contraction

ALG = TracialAlgebra((2, 3), (1.0, 0.5))


def flows(alg, rng):
    lind = lindblad_generator(
        alg, random_self_adjoint(alg, rng, norm=0.5), [random_self_adjoint(alg, rng, norm=0.5)]
    )
    return {
        "unitary_flow": UnitaryFlow(alg, random_self_adjoint(alg, rng, norm=1.0)),
        "generator_exp": GeneratorExp(alg, lind),
    }


def svd_members(monkeypatch):
    """Patch ``np.linalg.svd`` to record, per call, whether it computes
    vectors and the members it gets, as (uv, member) pairs."""
    seen = []
    svd = np.linalg.svd

    def record(a, *args, **kwargs):
        a = np.asarray(a)
        uv = kwargs.get("compute_uv", True)
        seen.extend((uv, m) for m in a.reshape(-1, *a.shape[-2:]))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", record)
    return seen


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# known zeros: meets, compressions, projection residuals
# ---------------------------------------------------------------------------

def meet_by_svd(alg, comps):
    """The meet of one case from every member's rows (V_d* or 1 - p), one SVD per
    block, zero stacks included: the computation the skipping paths replace."""
    trivial = not any(np.any(a) for a in comps)
    blocks, cotrace = [], 0.0
    for n, c, a in zip(alg.blocks, alg.weights, comps):
        _, s, vh = np.linalg.svd(a.reshape(-1, n), full_matrices=False)
        null = s <= MEET_RANK_TOL * n
        basis = vh.conj().T * null
        blocks.append(np.eye(n, dtype=complex) if trivial else basis @ basis.conj().T + 0.0)
        cotrace += c * (0 if trivial else n - int(null.sum()))
    return blocks, cotrace


def test_stacked_meets_match_per_case_meets_bit_for_bit(monkeypatch):
    # five cases of three members cut at 0.5; "hi" eigenvalues are dropped:
    # 0 trivial (nothing cut), 1 mixed (a member drops block 0 whole, block 1
    # is cut), 2 zero (a member drops everything), 3 cut in both blocks,
    # 4 nothing cut in block 0 but cut in block 1
    rng = np.random.default_rng(90)
    k, m, lo, hi = 5, 3, 0.1, 0.9
    ws = [np.full((k, m, n), lo) for n in ALG.blocks]
    ws[0][1, 1] = hi
    ws[1][1, 0, 0] = hi
    ws[0][2, 2] = ws[1][2, 2] = hi
    ws[0][3, 0, 1] = ws[1][3, 1, 0] = ws[1][3, 2, 2] = hi
    ws[1][4, 0, 1] = hi
    vs = [
        np.linalg.qr(rng.standard_normal((k, m, n, n)) + 1j * rng.standard_normal((k, m, n, n)))[0]
        for n in ALG.blocks
    ]
    res = SpectralResolution(ALG, tuple(ws), tuple(vs))
    seen = svd_members(monkeypatch)
    got = spectral_projection(res, 0.5)
    monkeypatch.undo()

    drops = [w > 0.5 + SPECTRAL_INCLUDE for w in ws]
    # every member's rows V_d* of its dropped eigenvectors
    comps = [(v * d[..., None, :]).conj().swapaxes(-1, -2) for v, d in zip(vs, drops)]
    for case, e in enumerate(got):
        want, cotrace = meet_by_svd(ALG, [a[case] for a in comps])
        one = meet_complements(ALG, [a[case] for a in comps])
        assert e.cotrace == cotrace == one.cotrace, case
        for a, b, c in zip(e.op.blocks, want, one.op.blocks):
            assert same_bits(a, b) and same_bits(c, b), case
    assert [e.cotrace for e in got] == [0.0, 2.5, 3.5, 2.0, 0.5]
    # one meet SVD per (case, block) that is cut: cases 1, 2 and 3 in block 0,
    # cases 1 to 4 in block 1 (the emptied blocks of cases 1 and 2 come out
    # exactly 0 from theirs); the projection check's Frobenius screen clears
    # every member, so it decomposes none
    meet_svd = [a for uv, a in seen if uv]
    assert len(meet_svd) == 7
    assert len(seen) - len(meet_svd) == 0
    assert all(np.any(a) for _, a in seen)


def test_maximal_suite_sends_no_zero_matrix_to_svd(tmp_path, monkeypatch):
    cfg = ExperimentConfig(seed=1)
    seen = svd_members(monkeypatch)
    run(cfg, "maximal", tmp_path)
    monkeypatch.undo()
    assert seen and all(np.any(a) for _, a in seen)

    # the achieved bounds are those of the unmasked compressions, bit for bit
    env = _Env(cfg)
    rng = env.rng(4)
    xs = [random_self_adjoint(env.alg, rng, norm=1.0) for _ in range(cfg.n_random)]
    params = [MaximalParams(C=cfg.C, p=cfg.p, epsilon=eps) for eps in cfg.maximal_epsilons]
    grid = np.geomspace(cfg.T_lo, cfg.T_hi, cfg.T_n)
    certs = maximal_certificates(env.sg, stack_blocks(xs), params, grid)
    # the certified family: every input's averages, made self-adjoint
    means = [(y + y.conj().swapaxes(2, 3)) / 2.0 for y in env.sg.mean_batch(grid, stack_blocks(xs))]
    zero_blocks = 0
    for case, cs in enumerate(certs):
        for c in cs:
            want = float(compressed_norms(c.projection, [y[:, case] for y in means]).max())
            assert c.achieved_bound == want
            zero_blocks += sum(not np.any(E) for E in c.projection.op.blocks)
    assert 0 < zero_blocks < len(certs) * len(params) * env.alg.n_blocks


@pytest.mark.parametrize("lead", [(), (5,), (3, 4)])
def test_op_norms_send_no_zero_member_to_svd(monkeypatch, lead):
    # block 0 has members that are exactly 0, block 1 has none and goes to
    # the SVD as the very array given; the norms are the unskipped SVD's bits
    rng = np.random.default_rng(95)
    stacks = [rng.standard_normal(lead + (n, n)) + 1j * rng.standard_normal(lead + (n, n))
              for n in ALG.blocks]
    zero = np.arange(math.prod(lead)).reshape(lead) % 2 == 0
    stacks[0][zero] = 0.0
    want = norms_2(stacks)
    seen, given = svd_members(monkeypatch), []
    record = np.linalg.svd

    def keep(a, *args, **kwargs):
        given.append(a)
        return record(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", keep)
    got = op_norms(stacks)
    monkeypatch.undo()
    assert same_bits(got, want)
    assert all(np.any(a) for _, a in seen)
    assert len(seen) == int((~zero).sum()) + zero.size
    assert given[-1] is stacks[1]
    # a member that is 0 in every block has norm 0
    stacks[1][zero] = 0.0
    assert (op_norms(stacks)[zero] == 0.0).all()


def test_projection_check_sends_no_zero_or_identity_member_to_svd(monkeypatch):
    # p + i c 1 at c just under the tolerance passes the rule but not the
    # screen; members exactly 0 or 1 in a block have residuals 0 there
    rng = np.random.default_rng(96)
    shift = ALG.identity() * (0.5j * 0.999 * PROJECTION_TOL)
    near = [random_projection(ALG, rng, ranks=(1, 2)).op + shift for _ in range(3)]
    zero, one = ALG.zero(), ALG.identity()
    members = [
        near[0], zero, one, near[1],
        Operator(ALG, [one.blocks[0], near[2].blocks[1]]),
        Operator(ALG, [zero.blocks[0], near[2].blocks[1]]),
    ]
    stacks = [a.reshape(2, 3, *a.shape[1:]) for a in stack_blocks(members)]
    seen = svd_members(monkeypatch)
    _check_projections(stacks)
    monkeypatch.undo()
    assert all(np.any(a) for _, a in seen)
    # both residuals of each perturbed block: two of near[0] and near[1], one of the others
    assert len(seen) == 2 * (2 + 2 + 1 + 1)


def test_exact_projections_form_no_residual(monkeypatch):
    # members exactly 0 or 1 in every block, or diagonal with entries 0 and 1,
    # are exactly projections: the check returns before it forms their
    # residuals for the screen
    screened = []
    screen = algebra.screened_norms
    monkeypatch.setattr(
        algebra, "screened_norms", lambda *args: screened.append(args) or screen(*args)
    )
    zero, one = ALG.zero(), ALG.identity()
    mixed = Operator(ALG, [one.blocks[0], zero.blocks[1]])
    diagonal = Operator(ALG, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0, 1.0])])
    for op, cotrace in ((zero, ALG.trace_of_identity), (one, 0.0), (mixed, 1.5), (diagonal, 1.5)):
        assert Projection(op).cotrace == cotrace
    _check_projections(stack_blocks([zero, one, mixed, diagonal]))
    # meets that come out exactly 1, exactly 0, and 1 then 0 in the blocks
    rows = [np.zeros((3, 1, n, n)) for n in ALG.blocks]
    rows[0][1, 0], rows[1][1:, 0] = np.eye(2), np.eye(3)
    meets = meet_complements(ALG, rows)
    assert [e.cotrace for e in meets] == [0.0, ALG.trace_of_identity, 1.5]
    assert not screened
    # one member that is not exact in one block sends its stack to the screen
    half = Operator(ALG, [np.full((2, 2), 0.5), one.blocks[1]])
    _check_projections(stack_blocks([zero, half]))
    Projection(half)
    assert len(screened) == 2


def test_stacked_meets_check_each_case_through_projection(monkeypatch):
    # every meet is a Projection: one check per case, of that case alone, and
    # a check that fails for one case makes the stacked meet raise
    rng = np.random.default_rng(31)
    k, m = 4, 3
    es = [[random_projection(ALG, rng) for _ in range(m)] for _ in range(k)]
    comps = [
        np.stack([np.stack([np.eye(n) - e.op.blocks[i] for e in row]) for row in es])
        for i, n in enumerate(ALG.blocks)
    ]
    want = meet_complements(ALG, comps)
    checked = []
    check = algebra._check_projections

    def failing(blocks):
        checked.append([np.array(a) for a in blocks])
        if len(checked) == 3:
            raise ValueError("case 2 fails")
        check(blocks)

    monkeypatch.setattr(algebra, "_check_projections", failing)
    with pytest.raises(ValueError, match="case 2 fails"):
        meet_complements(ALG, comps)
    assert len(checked) == 3
    for case, blocks in enumerate(checked):
        assert [a.shape for a in blocks] == [(n, n) for n in ALG.blocks]
        assert all(same_bits(a, b) for a, b in zip(blocks, want[case].op.blocks)), case


def test_single_spectral_projection_is_the_meet_of_its_one_cut():
    # a single resolution's cut is the meet of one member, the rows V_d* of
    # its dropped eigenvectors: the projection V_k V_k* of the kept ones to
    # roundoff and the co-trace of cut_cotrace exactly
    rng = np.random.default_rng(32)
    worst = 0.0
    for _ in range(50):
        res = spectral_resolution(random_self_adjoint(ALG, rng))
        for level in (-2.0, -0.3, 0.0, 0.4, 2.0):
            e = spectral_projection(res, level)
            drops = res._drops(level)
            kept = [v[:, ~d] @ v[:, ~d].conj().T for v, d in zip(res.eigenvectors, drops)]
            rows = [(v * d).conj().T[None] for v, d in zip(res.eigenvectors, drops)]
            one = meet_complements(ALG, rows)
            assert e.cotrace == one.cotrace == res.cut_cotrace(level)
            assert all(same_bits(a, b) for a, b in zip(e.op.blocks, one.op.blocks))
            worst = max(worst, op_norms([a - b for a, b in zip(e.op.blocks, kept)]))
    assert 0.0 < worst <= 1e-14


# ---------------------------------------------------------------------------
# Frobenius screens: the SVD rule's decisions and messages, without its SVDs
# where ||r||_2 <= ||r||_F already settles them
# ---------------------------------------------------------------------------

def norms_2(stacks):
    return np.max([np.linalg.svd(a, compute_uv=False)[..., 0] for a in stacks], axis=0)


def skewed(rng, ratios, tol, flat):
    """Members x = h + i c k with ||x - x*|| = ratio * tol * ||x|| to
    roundoff: h self-adjoint of norm 1, and k = 1 for ``flat`` members, whose
    ||x - x*||_F is sqrt(n) ||x - x*||_2 in the larger block."""
    ops = []
    for ratio, f in zip(ratios, flat):
        h = random_self_adjoint(ALG, rng, norm=1.0)
        k = ALG.identity() if f else random_self_adjoint(ALG, rng, norm=1.0)
        ops.append(h + k * (0.5j * ratio * tol))  # ||x|| = 1 + O(tol)
    return stack_blocks(ops)


def sa_rule(stacks, tol):
    """The unscreened rule: (fails, defect, bound), one SVD per member."""
    defect = norms_2([a - a.conj().swapaxes(-1, -2) for a in stacks])
    bound = tol * np.maximum(norms_2(stacks), 1e-14)
    return defect > bound, defect, bound


def positive_rule(stacks, tol):
    """The unscreened positivity rule: :func:`sa_rule`'s, or the least
    eigenvalue of herm x below -bound."""
    fails, defect, bound = sa_rule(stacks, tol)
    return fails | (min_eig(stacks) < -bound), defect, bound


def ones_minus(s):
    """0.1 on the 2x2 block, J - s v v* on the 3x3 block, J the all-ones
    matrix and v = (1, -1, 0)/sqrt 2: exactly self-adjoint, with ||x|| = 3,
    column norms L = sqrt 3 + O(s) and least eigenvalue -s."""
    v = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
    return Operator(ALG, [0.1 * np.eye(2), np.ones((3, 3)) - s * np.outer(v, v)])


@pytest.mark.parametrize("tol", [SELF_ADJOINT_TOL, INPUT_TOL])
def test_screened_self_adjointness_makes_the_svd_rule_decisions(monkeypatch, tol):
    rng = np.random.default_rng(93)
    ratios = [1e-3, 0.5, 0.8, 0.999, 1.001, 1.5, 1e3, 0.8]
    flat = [False] * 7 + [True]
    xs = skewed(rng, ratios, tol, flat)
    want, defect, bound = sa_rule(xs, tol)
    assert want.tolist() == [r > 1 for r in ratios]
    # the flat member passes the 2-norm rule but not the Frobenius screen
    sa = [a[-1] - a[-1].conj().T for a in xs]
    assert defect[-1] <= bound[-1] < max(np.linalg.norm(d) for d in sa)

    seen = svd_members(monkeypatch)
    ones, svds = [], []
    for i in range(len(ratios)):
        ones.append(bool(hermitian_defects([a[i] for a in xs], tol)[0]))
        svds.append(len(seen) - sum(svds))
    fails = hermitian_defects(xs, tol)[0]
    monkeypatch.undo()
    assert fails.tolist() == want.tolist() == ones
    # the screen clears the member at 1e-3 tol; failing and flat members
    # take the SVD of x and of x - x* in both blocks
    assert svds[0] == 0
    assert all(n == 2 * 2 for n, r, f in zip(svds, ratios, flat) if r > 1 or f)

    # is_self_adjoint, spectral_resolution's error and the maximal input check
    sg = flows(ALG, rng)["unitary_flow"]
    params = [MaximalParams(C=1.0, p=1.0, epsilon=0.5)]
    for i, fail in enumerate(want):
        x = Operator(ALG, [a[i] for a in xs])
        if tol == SELF_ADJOINT_TOL:
            assert x.is_self_adjoint() is not fail
            if fail:
                with pytest.raises(ValueError) as err:
                    spectral_resolution(x)
                assert str(err.value) == (
                    f"operator is not self-adjoint within tolerance "
                    f"({defect[i]:.3e} > {bound[i]:.3e})"
                )
            else:
                spectral_resolution(x)
        elif fail:
            with pytest.raises(ValueError, match="needs a self-adjoint operator"):
                maximal_certificates(sg, [a[i:i + 1] for a in xs], params, [1.0])
        else:
            maximal_certificates(sg, [a[i:i + 1] for a in xs], params, [1.0])

    # positive=True: the rule above plus the least eigenvalue of herm x.
    # Members: exactly positive; -tol ||x|| < lambda_min = -2 tol < -tol L,
    # which passes by the SVD bound only; lambda_min = -4 tol < -tol ||x||;
    # exactly 0 in block 0; positive with a skew part that fails; and a
    # self-adjoint member with eigenvalues near -1
    zero_block = Operator(ALG, [np.zeros((2, 2)), random_positive(ALG, rng).blocks[1]])
    skew = random_positive(ALG, rng, norm=1.0) + ALG.identity() * (0.75j * tol)
    members = [
        random_positive(ALG, rng, norm=1.0), ones_minus(2 * tol), ones_minus(4 * tol),
        zero_block, skew, random_self_adjoint(ALG, rng, norm=1.0),
    ]
    ps = stack_blocks(members)
    want, defect, bound = positive_rule(ps, tol)
    assert want.tolist() == [False, False, True, False, True, True]
    lows = min_eig(ps)
    assert -bound[1] < lows[1] < -tol * max(np.linalg.norm(a[1], axis=0).max() for a in ps)
    seen = svd_members(monkeypatch)
    ones, svds = [], []
    for x in members:
        ones.append(bool(hermitian_defects(x.blocks, tol, positive=True)[0]))
        svds.append(len(seen) - sum(svds))
    fails, got_defect, got_bound = hermitian_defects(ps, tol, positive=True)
    draws = [random_positive(ALG, rng) for _ in range(4)]
    positives = stack_blocks([members[0], members[3]] + draws)
    before = len(seen)  # random_positive normalizes by op_norms
    assert not hermitian_defects(positives, tol, positive=True)[0].any()
    monkeypatch.undo()
    assert fails.tolist() == want.tolist() == ones
    assert len(seen) == before  # exactly positive members take no SVD
    # the screen clears the positive members; the rest take the SVD of x in
    # both blocks, and so the SVD rule's defect and bound
    assert svds[0] == svds[3] == 0 and all(n >= 2 for n in svds[1:3] + svds[4:])
    opened = np.array([n > 0 for n in svds])
    assert same_bits(got_bound[opened], bound[opened]) and np.all(got_bound <= bound)
    assert same_bits(got_defect[opened], defect[opened])
    for x, fail in zip(members, want):
        assert x.is_positive(tol) is not fail
        if tol == INPUT_TOL and fail:
            with pytest.raises(ValueError, match="sandwich check needs a positive operator"):
                sandwich_slacks(sg, stack_blocks([x]), [0.5], 1.0)
        elif tol == INPUT_TOL:
            sandwich_slacks(sg, stack_blocks([x]), [0.5], 1.0)


def test_screens_defer_to_the_svd_rule_where_squares_overflow_or_underflow():
    # squares of 1e155 overflow, so the column norm and the screen bound
    # are inf; squares of 1e-163 underflow to 0, so the Frobenius norm of a
    # skew part that fails tol 1e-150 reads 0 (its bound 1e-164 is below
    # SCREEN_FLOOR).  Neither may clear a member: each takes the SVD rule's
    # defect and bound.  At bound 1e-150 the underflow is within the margin.
    def member(b0):
        return [np.asarray(b0, dtype=complex), np.zeros((3, 3), dtype=complex)]

    cases = [  # (blocks, tol, fails, takes the SVD rule)
        (member([[1e155, 1e150], [0.0, 0.0]]), SELF_ADJOINT_TOL, True, True),
        (member([[1e155, 1e150], [1e150 * (1 + 1e-9), 0.0]]), SELF_ADJOINT_TOL, False, True),
        (member([[0.0, 1e-163], [0.0, 0.0]]), 1e-150, True, True),
        (member([[1.0, 1e-163], [0.0, 0.0]]), 1e-150, False, False),
    ]
    assert algebra.SCREEN_FLOOR == 1e-150
    for blocks, tol, fail, by_svd in cases:
        stacks = [b[None] for b in blocks]
        want, defect, bound = sa_rule(stacks, tol)
        assert want.tolist() == [fail]
        for got in (stacks, blocks):  # a stack of one, and one operator's blocks
            fails, got_defect, got_bound = hermitian_defects(got, tol)
            assert np.ravel(fails).tolist() == [fail]
            assert (np.ravel(got_defect).tolist() == defect.tolist()) is by_svd
            assert np.ravel(got_bound).tolist() == bound.tolist() or not by_svd
    x = Operator(ALG, member([[1e155, 1e150], [0.0, 0.0]]))
    assert not x.is_self_adjoint()
    with pytest.raises(ValueError, match="not self-adjoint within tolerance"):
        spectral_resolution(x)


def projection_rule(blocks):
    """The unscreened projection rule: the message for the worst member, or None."""
    idem = norms_2([e @ e - e for e in blocks]).ravel()
    sa = norms_2([e - e.conj().swapaxes(-1, -2) for e in blocks]).ravel()
    worst = int(np.argmax(np.maximum(idem, sa)))
    if idem[worst] <= PROJECTION_TOL and sa[worst] <= PROJECTION_TOL:
        return None
    return (
        f"not a projection: idempotency residual {idem[worst]:.3e}, "
        f"self-adjointness residual {sa[worst]:.3e} (tol {PROJECTION_TOL:.1e})"
    )


def test_screened_projection_check_makes_the_svd_rule_decisions(monkeypatch):
    # p + i c 1 has self-adjointness residual 2c and idempotency residual
    # about c; the flat i c 1 has Frobenius norm sqrt(n) times that
    rng = np.random.default_rng(94)
    ratios = [1e-3, 0.8, 0.999, 1.001, 1.5, 1e3]
    ps = [random_projection(ALG, rng, ranks=(1, 2)).op for _ in ratios]
    es = [p + ALG.identity() * (0.5j * r * PROJECTION_TOL) for p, r in zip(ps, ratios)]
    wants = [projection_rule(stack_blocks([e])) for e in es]
    assert [w is not None for w in wants] == [r > 1 for r in ratios]
    seen = svd_members(monkeypatch)
    for e, want in zip(es, wants):
        if want is None:
            Projection(e)
        else:
            with pytest.raises(ValueError) as err:
                Projection(e)
            assert str(err.value) == want
    monkeypatch.undo()
    # only the first clears the screen: two residuals in two blocks each for the rest
    assert len(seen) == 2 * 2 * (len(ratios) - 1)

    # stacked: passing members with one failing member raise its message
    for bad in range(3, len(es)):
        members = es[:3] + [es[bad]]
        stacks = stack_blocks(members)
        with pytest.raises(ValueError) as err:
            _check_projections(stacks)
        assert str(err.value) == projection_rule(stacks) == wants[bad]
    _check_projections(stack_blocks(es[:3]))


def test_default_run_sends_no_gate_member_to_svd(tmp_path, monkeypatch):
    # the self-adjointness and positivity gates (is_self_adjoint,
    # spectral_resolution, the maximal input check, is_positive, the sandwich
    # and substitution checks) and the projection check of a seed-1 default run
    seen = svd_members(monkeypatch)
    gates = {"calls": 0, "members": 0}

    def counted(fn):
        def gate(stacks, *args, **kwargs):
            before = len(seen)
            gates["calls"] += 1
            try:
                return fn(stacks, *args, **kwargs)
            finally:
                gates["members"] += len(seen) - before
        return gate

    for module in (algebra, averaging, bau):
        monkeypatch.setattr(module, "hermitian_defects", counted(module.hermitian_defects))
    monkeypatch.setattr(algebra, "_check_projections", counted(algebra._check_projections))
    run(ExperimentConfig(seed=1), "full", tmp_path)
    monkeypatch.undo()
    assert gates["calls"] > 10 and seen
    assert gates["members"] == 0


# ---------------------------------------------------------------------------
# repeats: sample times, sandwich windows, law probes, moduli, norms
# ---------------------------------------------------------------------------

def test_local_avg_propagates_each_distinct_sample_time_once(tmp_path, monkeypatch):
    cfg = ExperimentConfig(seed=1)
    calls = []
    propagate = semigroups.Semigroup.propagate_stack
    monkeypatch.setattr(
        semigroups.Semigroup,
        "propagate_stack",
        lambda sg, ts, x: calls.append(np.array(ts)) or propagate(sg, ts, x),
    )
    run(cfg, "local-avg", tmp_path)
    monkeypatch.undo()
    assert [len(ts) for ts in calls] == [112] and len(np.unique(calls[0])) == 112

    # the tables of all 208 sample times, one SVD each
    env = _Env(cfg)
    x = random_self_adjoint(env.alg, env.rng(2), norm=1.0)
    Ts = [2.0**-k for k in range(cfg.dyadic_exp_max + 1)]
    times = np.outer(Ts, np.linspace(1.0 / 16.0, 1.0, 16)).ravel()
    stacks = env.sg.propagate_stack(times, x)
    svals = [np.linalg.svd(st - a, compute_uv=False) for st, a in zip(stacks, x.blocks)]
    for p in (1.0, 2.0):
        want = np.reshape(pnorms(env.alg, svals, p), (len(Ts), 16)).max(axis=1)
        with open(tmp_path / "tables" / f"local_avg_p{int(p)}.csv", newline="") as fh:
            got = [float(row["bound"]) for row in csv.DictReader(fh)]
        assert got == want.tolist()


@pytest.mark.parametrize("name", ["unitary_flow", "generator_exp"])
def test_multi_b_sandwich_slacks_match_per_b_calls(monkeypatch, name):
    rng = np.random.default_rng(91)
    sg = flows(ALG, rng)[name]
    xs = stack_blocks([random_positive(ALG, rng, norm=1.0) for _ in range(4)])
    a_grid, b_grid = (1e-4, 0.3, 1.0, 2.5), (0.2, 1.7, 0.5)
    per_b = np.stack([sandwich_slacks(sg, xs, a_grid, b) for b in b_grid], axis=1)

    checks, means = [], []
    defects, mean_batch = averaging.hermitian_defects, sg.mean_batch
    monkeypatch.setattr(
        averaging, "hermitian_defects", lambda *a, **k: checks.append(1) or defects(*a, **k)
    )
    monkeypatch.setattr(sg, "mean_batch", lambda *a: means.append(1) or mean_batch(*a))
    got = sandwich_slacks(sg, xs, a_grid, b_grid)
    assert same_bits(got, per_b)
    # one positivity check and one beta_a(x) for all b; beta_b and the gaps per b
    assert (len(checks), len(means)) == (1, 1 + 2 * len(b_grid))


def test_sandwich_suite_checks_positivity_once(tmp_path, monkeypatch):
    checks = []
    defects = averaging.hermitian_defects
    monkeypatch.setattr(
        averaging, "hermitian_defects", lambda *a, **k: checks.append(1) or defects(*a, **k)
    )
    run(ExperimentConfig(n_random=3), "sandwich", tmp_path)
    assert len(checks) == 1


def test_validation_law_residual_is_the_max_of_per_pair_residuals(monkeypatch):
    rng = np.random.default_rng(92)
    sg = flows(ALG, rng)["generator_exp"]
    ts = [0.0, 1e-3, 0.05, 0.4, 1.3, 7.0]
    calls = []
    op_norms = semigroups.op_norms
    monkeypatch.setattr(
        semigroups, "op_norms", lambda stacks: calls.append(len(stacks[0])) or op_norms(stacks)
    )
    report = validate_absolute_contraction(sg, ts, rng=np.random.default_rng(5))
    monkeypatch.undo()

    draws = np.random.default_rng(5)
    for _ in range(20):  # the sampled positives come first
        random_positive(ALG, draws)
    probes = [random_self_adjoint(ALG, draws) for _ in range(3)]
    sub = ts[:5]
    pairs = [(t, s) for i, t in enumerate(sub) for s in sub[i:]]
    assert report.law_residual == max(semigroup_law_residual(sg, t, s, probes) for t, s in pairs)
    # one norm of the probes, then one of each distinct s's law gaps, stacked
    # over its pairs
    per_s = [sum(s == v for _, s in pairs) for v in sub]
    assert calls == [len(probes), *per_s]


def test_continuity_modulus_runs_once_per_assembled_input(alg6, monkeypatch):
    rng = np.random.default_rng(93)
    sg = UnitaryFlow(alg6, random_self_adjoint(alg6, rng, norm=1.0))
    T_maps = [2.0**-k for k in range(1, 7)]
    x = random_self_adjoint(alg6, rng, norm=1.0)
    maps = cesaro_map_family(sg, T_maps)
    oracle = make_maximal_oracle(sg, T_maps, 1.0, 1.0, 1.0)
    scheme = scheme_from_semigroup(sg, 1.0, 1.0)
    calls = []
    modulus = banach.continuity_modulus
    monkeypatch.setattr(banach, "continuity_modulus", lambda *a: calls.append(1) or modulus(*a))
    asm = assemble_certificate(
        maps, x, 0.4, scheme, oracle, make_dense_certifier(maps, tol=0.4 / 3.0), n_approx=3
    )
    assert len(calls) == 1
    # the approximants are those a fresh start gives one n at a time
    for n, x_n in enumerate(asm.approximants, 1):
        want = scheme.start(x)(n, 0.4)
        assert all(same_bits(a, b) for a, b in zip(x_n.blocks, want.blocks)), n
    assert len(calls) == 4


def test_substitution_bound_reads_x_norms_from_the_positivity_check(monkeypatch):
    rng = np.random.default_rng(94)
    sg = flows(ALG, rng)["unitary_flow"]
    weights = [_random_weight(rng) for _ in range(5)]
    xs = stack_blocks([random_positive(ALG, rng, norm=0.7) for _ in range(5)])
    Ts = np.geomspace(1e-3, 1.0, 5)
    calls = []
    op_norms = averaging.op_norms
    monkeypatch.setattr(averaging, "op_norms", lambda stacks: calls.append(1) or op_norms(stacks))
    rows = substitution_bound_checks(sg, weights, xs, Ts)
    monkeypatch.undo()
    assert len(calls) == 2  # the left sides, and ||x|| (the positivity check takes none)
    gaps = [averaging._mean_abs_residual(b, float(T))[0] for b, T in zip(weights, Ts)]
    assert same_bits(rows[:, 1], 2.0 * np.array(gaps) * op_norms(xs))


def test_transfer_reads_the_base_tail_from_the_decay_table(alg6, monkeypatch):
    rng = np.random.default_rng(95)
    sg = flows(alg6, rng)["unitary_flow"]
    x = random_self_adjoint(alg6, rng, norm=1.0)
    Ts = [2.0**-k for k in range(9)]
    base = [(T, sg.mean(T, x)) for T in Ts]
    tilde = [(T, y + 1e-3 * T * x) for T, y in base]
    cert = bau_cauchy_certify(base, epsilon=0.5, tol=1e-2)
    # premise gaps are 1e-3 T: thresholds at T = 1/2, 1/32 and the last member
    for gap in (6e-4, 5e-5, 5e-6):
        tables = []
        pair_table = bau._pair_table
        monkeypatch.setattr(bau, "_pair_table", lambda e, ys: tables.append(1) or pair_table(e, ys))
        moved = perturbation_transfer(tilde, base, cert, [gap])
        monkeypatch.undo()
        start = moved.params["chain"][-1][1]
        b_tail = [a[start:] for a in stack_blocks([y for _, y in base])]
        assert moved.params["base_tail_bound"] == float(_pair_table(cert.projection, b_tail).max())
        assert len(tables) == 1, start  # the tilde pairs only
    assert start == len(Ts) - 1
    with pytest.raises(ValueError, match="Cauchy certificate over the base family"):
        perturbation_transfer(tilde[1:], base[1:], cert, [6e-4])


# ---------------------------------------------------------------------------
# p-norms without overflow or underflow
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, math.inf])
def test_pnorms_scale_exactly_by_powers_of_two(p):
    # at 2^700 and 2^-700 tau(|y|^p) leaves the float range (p > 1.47), and
    # the norms come from the scaled sums: exact multiples of each other,
    # and of the unscaled norms up to the rounding of their p-th roots
    rng = np.random.default_rng(96)
    svals = [np.sort(rng.uniform(0.0, 2.0, (6, n)), axis=1)[:, ::-1] for n in ALG.blocks]
    svals[0][2] = 0.0  # a member zero in one block
    svals[1][3] = svals[0][3] = 0.0  # and one zero in both
    base = pnorms(ALG, svals, p)
    assert base[3] == 0.0 and all(v > 0 for i, v in enumerate(base) if i != 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        up, down = (pnorms(ALG, [s * 2.0**k for s in svals], p) for k in (700, -700))
    assert up == [math.ldexp(v, 1400) for v in down]
    exact = p in (1.0, math.inf)
    assert up == pytest.approx([v * 2.0**700 for v in base], rel=0 if exact else 4e-16)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_pnorms_keep_the_bits_of_the_unscaled_sum(p):
    # the root of the unscaled sum: math.sqrt at p = 2, pow otherwise
    root = math.sqrt if p == 2 else lambda v: v ** (1.0 / p)
    rng = np.random.default_rng(97)
    # far from 1 as well, where every square stays a normal float
    for scale in (1.0, 1e-3, 37.0, 1e-100, 1e100):
        svals = [
            scale * np.sort(rng.uniform(0.0, 1.0, (200, n)), axis=1)[:, ::-1] for n in ALG.blocks
        ]
        total = sum(c * np.sum(s**p, axis=1) for c, s in zip(ALG.weights, svals))
        assert pnorms(ALG, svals, p) == [root(v) for v in total.tolist()]
    # a member whose root, taken of the sum scaled by 2^-10, is one ulp lower
    # under glibc 2.36 pow
    one = TracialAlgebra((2,), (1.0,))
    svals = np.array([[21.035668256359983, 12.680751553868134]])
    assert pnorms(one, [svals], p) == [root(float(np.sum(svals**p)))]


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, math.inf])
def test_pnorm_of_stacks_is_each_members_pnorm(p):
    # one norm per member of per-block (m, n, n) stacks, bit for bit the
    # pnorm of that member alone, at 2^600 and 2^-600 too
    rng = np.random.default_rng(99)
    stacks = [
        rng.standard_normal((9, n, n)) + 1j * rng.standard_normal((9, n, n)) for n in ALG.blocks
    ]
    for a in stacks:
        a[:3] *= 2.0**600
        a[3:6] *= 2.0**-600
    stacks[0][4] = 0.0  # a member zero in one block
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = pnorm(ALG, stacks, p)
    assert got == [pnorm(ALG, Operator(ALG, [a[i] for a in stacks]), p) for i in range(9)]


def decimal_pnorm(weights, rows, p):
    """tau(|y|^p)^(1/p) of one member, its values ``rows`` per block, in
    40-digit decimal arithmetic, which neither overflows nor underflows."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        power = decimal.Decimal(p)
        total = sum(
            decimal.Decimal(c) * sum(decimal.Decimal(float(v)) ** power for v in row)
            for c, row in zip(weights, rows)
        )
        return float(total ** (1 / power))


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_pnorms_out_of_range_match_a_decimal_oracle(p):
    # members whose unscaled tau(|y|^p) overflows (2^700 at p = 1.5, 2^400
    # at p = 3) or underflows, or holds values far apart: within 4 ulps of
    # the decimal oracle, and exact multiples of each other under 2^k
    rng = np.random.default_rng(98)
    svals = [np.sort(rng.uniform(0.0, 2.0, (8, n)), axis=1)[:, ::-1] for n in ALG.blocks]
    svals[0][5] = 0.0  # a member zero in one block
    svals[1][6] *= 2.0**-300  # one whose smaller block underflows at its power
    k = 700 if p == 1.5 else 400
    for shift in (k, -k, 0):
        scaled = [s * 2.0**shift for s in svals]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pnorms(ALG, scaled, p)
        for i, v in enumerate(got):
            want = decimal_pnorm(ALG.weights, [s[i] for s in scaled], p)
            assert abs(v - want) <= 4 * math.ulp(want), (shift, i, v, want)
        if shift:
            assert got == [math.ldexp(v, shift) for v in pnorms(ALG, svals, p)]


def test_pnorms_take_square_roots_with_math_sqrt():
    # pow is not correctly rounded: 1.785685518193389 ** 0.5 is one ulp below
    # math.sqrt under glibc 2.36.  A weight of tau(1) = 1.785685518193389 on
    # one 1 x 1 block makes that value tau(|1|^2), exactly.
    value = 1.785685518193389
    one = TracialAlgebra((1,), (value,))
    svals = [np.array([[1.0]])]
    assert power_traces(one, svals, 2.0).tolist() == [value]
    assert pnorms(one, svals, 2.0) == [math.sqrt(value)]
    # and in the scaled branch, where tau(|y|^2) overflows
    huge = [np.array([[2.0**600]])]
    assert pnorms(one, huge, 2.0) == [math.ldexp(math.sqrt(value), 600)]


def test_pnorm_of_tiny_and_huge_multiples_of_one():
    # tau(1) = 3.5: ||c 1||_p = c 3.5^(1/p), where c^p under- or overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c in (1e-200, 1e200):
            for p in (1.0, 2.0, 3.0):
                got = pnorm(ALG, ALG.identity() * c, p)
                assert got == pytest.approx(c * 3.5 ** (1.0 / p), rel=1e-14), (c, p)
