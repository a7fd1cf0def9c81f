"""Reference computations the tests compare the library against.

Each helper recomputes, one operator at a time, a quantity the library
produces in batch or stores: a compressed norm, the bound a certificate
stores, the reconstruction and orthonormality of a spectral resolution, and
the order of two projections.
"""
from __future__ import annotations

import numpy as np

from ncerg.algebra import PROJECTION_TOL, Operator, Projection, SpectralResolution
from ncerg.bau import ProjectionCertificate, compressed_norms


def compressed_norm(e: Projection, y: Operator) -> float:
    return (e.op @ y @ e.op).norm_inf()


def recompute_bound(cert: ProjectionCertificate) -> float:
    """The stored bound of a certificate, recomputed from its projection and
    the family operators it keeps."""
    if cert.family_ops is None:
        raise ValueError("certificate does not carry its family operators")
    return float(compressed_norms(cert.projection, cert.family_ops).max(initial=0.0))


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
