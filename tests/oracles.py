"""Reference computations the tests compare the library against.

Each helper recomputes, one operator at a time, a quantity the library
produces in batch or stores: a compressed norm, the bound a certificate
stores over the family the test names (the pairs of a family's tail, for a
Cauchy or transferred certificate), the reconstruction and orthonormality
of a spectral resolution, the order of two projections, the matrix of a
linear map on the vectorized algebra, one matrix unit at a time, random
inputs drawn and normalized one operator at a time through
:class:`Operator` arithmetic, and the sampled checks and law residual of a
validation, one time and one (t, s) pair at a time, a run's plot files
read back from the tables and certificates on disk, and the heat flow on the
group algebra of a dihedral group, built from its irreducible representations.
"""
from __future__ import annotations

import csv
import io
import json
import math
from typing import Callable, Sequence

import numpy as np

from ncerg.algebra import (
    PROJECTION_TOL,
    Operator,
    Projection,
    SpectralResolution,
    TracialAlgebra,
    op_norms,
    traces,
    unvecs,
    vec,
)
from ncerg.bau import ProjectionCertificate
from ncerg.experiments import _SUMMARY_KEYS, RunReport
from ncerg.semigroups import Semigroup


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


def sampled_violations(
    sg: Semigroup, ts: Sequence[float], positives: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unitality over t, and positivity and trace excess over (t, sample),
    of the identity and the positives (per-block (k, n, n) stacks), one core
    call per t."""
    alg = sg.algebra
    inputs = [
        np.concatenate([np.eye(n, dtype=complex)[None], a]) for n, a in zip(alg.blocks, positives)
    ]
    eyes = [a[0] for a in inputs]
    # the norm 1 normalized_draws scaled each positive to, 1e-300 for a zero draw
    scales = np.array([1.0 if any(a[k].any() for a in positives) else 1e-300
                       for k in range(len(positives[0]))])
    traces_in = traces(alg, positives).real
    unital = np.zeros(len(ts))
    pos = np.zeros((len(ts), len(positives[0])))
    texc = np.zeros_like(pos)
    for i, t in enumerate(ts):
        images = [y[0] for y in sg.propagate_batch(np.array([t]), inputs)]
        # ||y - y*|| as the largest |eigenvalue| of the Hermitian -i(y - y*)
        defects = np.max([
            np.abs(np.linalg.eigvalsh(-1j * (y - y.conj().swapaxes(1, 2)))).max(axis=1)
            for y in images
        ], axis=0)
        shifted = [y.copy() for y in images]
        for y, e in zip(shifted, eyes):
            y[0] -= e
        spectra = [
            np.linalg.eigvalsh((y + y.conj().swapaxes(1, 2)) / 2.0) for y in shifted
        ]
        unital[i] = max(0.0, *(float(w[0, -1]) for w in spectra)) + defects[0]
        mins = np.min([w[1:, 0] for w in spectra], axis=0)
        pos[i] = np.maximum(np.maximum(-mins, defects[1:]) / scales, 0.0)
        texc[i] = np.maximum(traces(alg, [y[1:] for y in images]).real - traces_in, 0.0)
    return unital, pos, texc


def law_residual_per_pair(
    sg: Semigroup, pairs: Sequence[tuple[float, float]], xs: Sequence[np.ndarray]
) -> float:
    """max over (t, s) pairs and probes of ||a_t(a_s(x)) - a_{t+s}(x)|| / ||x||,
    two core calls and one norm per pair."""
    scale = np.maximum(op_norms(xs), 1e-300)
    worst = 0.0
    for t, s in pairs:
        both = sg.propagate_batch(np.array([s, t + s], dtype=float), xs)
        lhs = sg.propagate_batch(np.array([float(t)]), [y[0] for y in both])
        gaps = op_norms([a[0] - y[1] for a, y in zip(lhs, both)])
        worst = max(worst, float(np.max(gaps / scale, initial=0.0)))
    return worst


def plot_files_from_disk(report: RunReport) -> dict[str, bytes]:
    """The bytes of ``plot_decay.csv``, ``plot_bounds.csv`` and
    ``certificates_summary.json`` for the tables and certificates ``report``
    lists, derived from their files: CSV tables through ``csv.reader``,
    certificates through ``json.load``, and the summary through
    ``json.dumps(..., indent=2, sort_keys=True)``."""
    decay_rows, bound_rows = [], []
    for name in sorted(report.tables):
        with open(report.outdir / report.tables[name], "r", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                continue
            rows = list(reader)
        if header[:4] == ["T", "norm_p", "bound", "slack"]:
            for row in rows:
                bound_rows.append((name, row[0], row[1], row[2], row[3]))
                decay_rows.append((name, row[0], row[1]))
        elif len(header) == 2 or header[2:] == ["quad_error"]:
            for row in rows:
                decay_rows.append((name, row[0], row[1]))
    files = {}
    for fname, header, rows in (
        ("plot_decay.csv", ["table", "T", "value"], decay_rows),
        ("plot_bounds.csv", ["table", "T", "achieved", "bound", "slack"], bound_rows),
    ):
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        files[fname] = buf.getvalue().encode("utf-8")
    summary = {}
    for name in sorted(report.certificates):
        with open(report.outdir / report.certificates[name], "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        summary[name] = {k: payload[k] for k in _SUMMARY_KEYS if k in payload}
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    files["certificates_summary.json"] = text.encode("utf-8")
    return files


def dihedral_flow(n: int) -> tuple[dict, np.ndarray, np.ndarray]:
    """The heat flow lambda_g -> exp(-t psi(g)) lambda_g on the group von
    Neumann algebra L(D_N) of the dihedral group of order 2N, for
    psi(g) = ||e_1 - rho(g) e_1||^2 with rho the natural 2-dimensional
    representation: psi is conditionally negative definite with psi(e) = 0,
    so the flow is a unital, trace-preserving CP semigroup (Schoenberg).

    L(D_N) is the direct sum over the irreducible representations pi of
    M_{d_pi} with trace weights d_pi / 2N: the one-dimensional characters
    (two for odd N, four for even N), then the 2x2 rotations and reflections
    rho_j(r^k) = R(2 pi j k / N), rho_j(s r^k) = diag(1, -1) R(2 pi j k / N)
    for 0 < j < N/2.  Group elements are ordered r^0..r^{N-1}, s r^0..s r^{N-1}.
    Column g of F is vec lambda_g; by Plancherel, F^-1 = F* D with D the
    trace weight of every vec entry, and the generator is
    L = F diag(-psi) F^-1.  Returns (config, F, psi): config holds the
    ``blocks``, ``weights`` and ``generator_exp`` ``semigroup`` entries of a
    run config.
    """
    theta = 2.0 * math.pi * np.arange(n) / n
    flip = np.array([1.0, -1.0])
    # characters at r^k and s r^k: trivial, sign, and for even N (-1)^k twice
    chars = [(np.ones(n), np.ones(n)), (np.ones(n), -np.ones(n))]
    if n % 2 == 0:
        alt = (-1.0) ** np.arange(n)
        chars += [(alt, alt), (alt, -alt)]
    blocks = [np.concatenate(c)[:, None, None] for c in chars]
    for j in range(1, (n - 1) // 2 + 1):
        c, s = np.cos(j * theta), np.sin(j * theta)
        rot = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
        blocks.append(np.concatenate([rot, flip[None, :, None] * rot]))
    dims = [b.shape[-1] for b in blocks]
    weights = [d / (2.0 * n) for d in dims]
    f = np.concatenate([b.reshape(2 * n, -1) for b in blocks], axis=1).T
    rho = blocks[len(chars)]  # rho_1, the natural representation
    psi = np.sum((np.array([1.0, 0.0]) - rho[:, :, 0]) ** 2, axis=1)
    scale = np.repeat(weights, [d * d for d in dims])
    gen = (f * -psi) @ (f.T * scale)
    config = {
        "blocks": dims,
        "weights": weights,
        "semigroup": {
            "variant": "generator_exp",
            "matrix": {"blocks": [{"dim": 2 * n, "re": gen.tolist(),
                                   "im": np.zeros_like(gen).tolist()}]},
        },
    }
    return config, f, psi
