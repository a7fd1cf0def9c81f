"""Reference computations the tests compare the library against.

Each helper recomputes, one operator at a time, a quantity the library
produces in batch or stores: a compressed norm, the bound a certificate
stores over the family the test names (the pairs of a family's tail, for a
Cauchy or transferred certificate), the reconstruction and orthonormality
of a spectral resolution, the order of two projections, the matrix of a
linear map on the vectorized algebra, one matrix unit at a time, and random
inputs drawn and normalized one operator at a time through
:class:`Operator` arithmetic.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from ncerg.algebra import (
    PROJECTION_TOL,
    Operator,
    Projection,
    SpectralResolution,
    TracialAlgebra,
    unvecs,
    vec,
)
from ncerg.bau import ProjectionCertificate


def compressed_norm(e: Projection, y: Operator) -> float:
    return (e.op @ y @ e.op).norm_inf()


def recompute_bound(cert: ProjectionCertificate, family: Sequence[Operator]) -> float:
    """The stored bound of a certificate, recomputed one operator at a time
    from its projection over ``family``, the operators it bounds."""
    return max((compressed_norm(cert.projection, y) for y in family), default=0.0)


def tail_pairs(family: Sequence[tuple[float, Operator]], start: int) -> list[Operator]:
    """y_i - y_j for start <= i < j of a (T, y_T) family."""
    ys = [y for _, y in family][start:]
    return [a - b for i, a in enumerate(ys) for b in ys[i + 1:]]


def reconstruct(res: SpectralResolution) -> Operator:
    blocks = [(v * w) @ v.conj().T for w, v in zip(res.eigenvalues, res.eigenvectors)]
    return Operator(res.algebra, blocks)


def reconstruction_residual(res: SpectralResolution, x: Operator) -> float:
    scale = max(x.norm_inf(), 1e-300)
    return (reconstruct(res) - x).norm_inf() / scale


def gram_residual(res: SpectralResolution) -> float:
    return max(
        float(np.linalg.norm(v.conj().T @ v - np.eye(v.shape[1]), 2))
        for v in res.eigenvectors
    )


def leq(p: Projection, q: Projection, tol: float = PROJECTION_TOL) -> bool:
    """True when ``p`` is dominated by ``q`` (q p = p)."""
    return (q.op @ p.op - p.op).norm_inf() <= tol


def generator_from_map(
    alg: TracialAlgebra, func: Callable[[Operator], Operator]
) -> np.ndarray:
    """Matrix of a linear map on the vectorized algebra: column c is vec of
    the image of the c-th matrix unit."""
    units = unvecs(alg, np.eye(alg.vec_dim, dtype=complex))
    images = [func(Operator(alg, [u[c] for u in units])) for c in range(alg.vec_dim)]
    return np.column_stack([vec(y) for y in images])


def random_input(alg: TracialAlgebra, rng: np.random.Generator, positive: bool) -> Operator:
    """One random positive (a a*) or self-adjoint ((a + a*)/2) operator of
    norm 1, a Gaussian block at a time, real then imaginary part."""
    blocks = []
    for n in alg.blocks:
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        blocks.append(a / math.sqrt(2 * n))
    a = Operator(alg, blocks)
    x = a @ a.H if positive else a.herm()
    cur = x.norm_inf()
    return x * (1.0 / cur) if cur > 0 else x
