"""Spectral work the library skips because its result is already known.

A meet that some cut empties is 0 in that block, a compression by a zero
block is 0, a projection that is exactly 0 or 1 has residuals 0; norms,
moduli, sample times and averages that a suite needs more than once are
computed once.  Each test holds a skipping path to the computation it
replaces, bit for bit where the output depends on it, and counts the work,
so it fails when a reduction is undone or masks a live case as dead.
"""
import csv
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
from ncerg import averaging, banach, bau, semigroups
from ncerg.algebra import (
    MEET_RANK_TOL,
    SPECTRAL_INCLUDE,
    SpectralResolution,
    meet_complements,
    pnorm,
    pnorms,
    power_traces,
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
    # one meet SVD per (case, block) that is cut and not emptied: case 3 in
    # block 0, cases 1, 3 and 4 in block 1; the projection check decomposes
    # only members that are neither 0 nor 1 there, twice each
    meet_svd = [a for uv, a in seen if uv]
    assert len(meet_svd) == 4
    assert len(seen) - len(meet_svd) == 2 * 4
    assert all(np.any(a) for _, a in seen)


def test_maximal_suite_sends_no_zero_matrix_to_svd(tmp_path, monkeypatch):
    cfg = ExperimentConfig(seed=1)
    seen = svd_members(monkeypatch)
    run(cfg, "maximal", tmp_path)
    monkeypatch.undo()
    assert seen and all(np.any(a) for _, a in seen)

    # the achieved bounds are those of the unmasked compressions, bit for bit
    env = _Env(cfg, tmp_path)
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
    env = _Env(cfg, tmp_path)
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
    # one norm of the probes, and one of all the law gaps, stacked over pairs
    assert calls.count(len(probes)) == 1 and calls.count(len(pairs)) == 1


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
    assert len(calls) == 1  # the left sides only
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
    for scale in (1.0, 1e-3, 37.0):
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
