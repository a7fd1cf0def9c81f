"""Stacked builds held bit for bit to their one-at-a-time oracles.

The Lindblad generator is built once per block on the stack of all matrix
units, and random inputs are drawn k at a time and normalized by one stacked
operator norm.  Both must give the same bits, sign bits included, as the
per-unit and per-operator builds of ``tests/oracles.py``, and leave the
random stream where those leave it.  The positivity checks of stacked inputs
must send no all-zero skew part through an SVD.
"""
from __future__ import annotations

import numpy as np
import pytest

from ncerg import Operator, TracialAlgebra, random_positive, random_self_adjoint
from ncerg import algebra, averaging, experiments
from ncerg.algebra import normalized_draws, random_operators, stack_blocks
from ncerg.experiments import ExperimentConfig, _random_weight, run
from ncerg.semigroups import lindblad_generator
from oracles import generator_from_map, random_input

ALGEBRAS = [(3, 6), (2, 4), (2, 3), (1, 1), (5,)]


def _algebra(blocks) -> TracialAlgebra:
    return TracialAlgebra(blocks, tuple(1.0 / (i + 1) for i in range(len(blocks))))


def same_bits(a, b) -> bool:
    """Equal float views and equal sign bits (so -0.0 differs from 0.0)."""
    fa = np.ascontiguousarray(a).view(np.float64)
    fb = np.ascontiguousarray(b).view(np.float64)
    return np.array_equal(fa, fb) and np.array_equal(np.signbit(fa), np.signbit(fb))


def _per_unit_lindblad(alg, h, jumps) -> np.ndarray:
    h = h.herm()

    def apply_l(x: Operator) -> Operator:
        out = 1j * (h @ x - x @ h)
        for a in jumps:
            a2 = a @ a
            out = out + (a @ x @ a - 0.5 * (a2 @ x + x @ a2))
        return out

    return generator_from_map(alg, apply_l)


@pytest.mark.parametrize("blocks", ALGEBRAS)
@pytest.mark.parametrize("count", [0, 1, 3])
def test_stacked_lindblad_generator_matches_per_unit_build(blocks, count):
    alg = _algebra(blocks)
    rng = np.random.default_rng(7 + count)
    h = random_self_adjoint(alg, rng, norm=0.5)
    jumps = [random_self_adjoint(alg, rng, norm=0.5) for _ in range(count)]
    got = lindblad_generator(alg, h, jumps)
    want = _per_unit_lindblad(alg, h, jumps)
    assert got.shape == want.shape == (alg.vec_dim, alg.vec_dim)
    assert got.flags.c_contiguous
    assert same_bits(got, want)


@pytest.mark.parametrize("blocks", [(3, 6), (2, 4), (1, 1)])
@pytest.mark.parametrize("k", [1, 3, 20, 48])
@pytest.mark.parametrize("positive", [True, False])
def test_stacked_draws_match_per_operator_draws(blocks, k, positive):
    alg = _algebra(blocks)
    stacked_rng, single_rng = np.random.default_rng(k), np.random.default_rng(k)
    got = normalized_draws(random_operators(alg, stacked_rng, k), positive)
    want = stack_blocks([random_input(alg, single_rng, positive) for _ in range(k)])
    assert all(same_bits(g, w) for g, w in zip(got, want))
    # the stream continues where the per-operator draws leave it
    assert same_bits(stacked_rng.standard_normal(5), single_rng.standard_normal(5))


@pytest.mark.parametrize("blocks", [(3, 6), (2, 4), (1, 1)])
def test_one_operator_draws_are_the_k1_case(blocks):
    alg = _algebra(blocks)
    rng, oracle = np.random.default_rng(3), np.random.default_rng(3)
    for draw, positive in ((random_positive, True), (random_self_adjoint, False)) * 2:
        got, want = draw(alg, rng), random_input(alg, oracle, positive)
        assert all(same_bits(g, w) for g, w in zip(got.blocks, want.blocks))
    assert same_bits(rng.standard_normal(3), oracle.standard_normal(3))


def test_weighted_suite_draws_weight_then_input(tmp_path, monkeypatch):
    cfg = ExperimentConfig(blocks=(2, 3), weights=(1.0, 0.5), n_random=2, weighted_cases=5, T_n=12)
    seen = []
    original = experiments.substitution_bound_checks

    def spy(sg, weights, xs, Ts):
        seen.append((weights, xs))
        return original(sg, weights, xs, Ts)

    monkeypatch.setattr(experiments, "substitution_bound_checks", spy)
    run(cfg, "weighted-avg", tmp_path)
    (weights, xs), = seen

    alg = TracialAlgebra(cfg.blocks, cfg.weights)
    rng = np.random.default_rng([cfg.seed, 5])
    for c in range(cfg.weighted_cases):
        w = _random_weight(rng)
        x = random_input(alg, rng, positive=True)
        assert weights[c].terms == w.terms and weights[c].residual_sup == w.residual_sup
        assert all(same_bits(a[c], b) for a, b in zip(xs, x.blocks))


def test_positivity_checks_send_no_zero_skew_part_through_svd(tmp_path, monkeypatch):
    # inputs built as a a* are positive, so the screen clears every member
    # of every positivity check: none goes through an SVD
    svd, inner = np.linalg.svd, []
    counts = {"checks": 0, "zero": 0, "matrices": 0}

    def counting_svd(a, *args, **kwargs):
        if inner:
            members = np.reshape(a, (-1, *np.shape(a)[-2:]))
            counts["matrices"] += len(members)
            counts["zero"] += int((~members.any(axis=(1, 2))).sum())
        return svd(a, *args, **kwargs)

    def wrap(fn):
        def checked(stacks, tol, positive=False):
            counts["checks"] += positive
            inner.append(positive)
            try:
                return fn(stacks, tol, positive)
            finally:
                inner.pop()
        return checked

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(algebra, "hermitian_defects", wrap(algebra.hermitian_defects))
    monkeypatch.setattr(averaging, "hermitian_defects", wrap(averaging.hermitian_defects))
    cfg = ExperimentConfig(seed=1)
    for suite in ("sandwich", "local-avg", "weighted-avg"):
        run(cfg, suite, tmp_path / suite)
    # the sandwich and substitution checks and the window certificate's input
    assert counts["checks"] >= 3
    assert counts["matrices"] == counts["zero"] == 0
