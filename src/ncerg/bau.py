"""Bilateral-almost-uniform (b.a.u.) certification machinery.

A statement of the form "there is a projection e with small co-trace such
that the compressed norms ||e y e|| are uniformly small" is made executable
here as a :class:`ProjectionCertificate`: the projection itself, its co-trace,
the bound it achieves over a named family, and the parameters of the run.
Certificates are self-verifying; recomputing the achieved bound from the
stored projection and family must reproduce the stored value.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .algebra import (
    Operator,
    Projection,
    abs_value,
    meet_all,
    meet_complements,
    operator_to_dict,
    pnorm,
    proj_meet,
    spectral_projection,
    spectral_resolution,
    trace,
)
from .averaging import cesaro_average, sandwich_windows
from .config import DEFAULT_TOLS
from .semigroups import Semigroup

__all__ = [
    "ProjectionCertificate",
    "MaximalParams",
    "MeasureWitness",
    "ScheduleExhaustedError",
    "TransferPremiseError",
    "compressed_norm",
    "compressed_pair_norms",
    "compressed_sup",
    "measure_nbhd_witness",
    "maximal_projection",
    "double_average_certificate",
    "bau_cauchy_certify",
    "perturbation_transfer",
    "lp_limit_check",
    "LpLimitReport",
    "first_index_below",
]


@dataclass
class ProjectionCertificate:
    """Projection e, its co-trace, and the uniform bound it achieves.

    ``family`` names the checked family; ``grid`` the sweep parameters;
    ``decay`` an optional table of (parameter, compressed norm) rows.  The
    operators behind the bound are kept in memory on ``family_ops`` so the
    bound can be recomputed, but are never serialized.
    """

    projection: Projection
    cotrace: float
    epsilon: float
    achieved_bound: float
    family: str
    grid: tuple[float, ...]
    params: dict = field(default_factory=dict)
    flags: tuple[str, ...] = ()
    decay: tuple[tuple[float, float], ...] | None = None
    family_ops: tuple[Operator, ...] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def ok(self) -> bool:
        return not self.flags

    def recompute_bound(self) -> float:
        if self.family_ops is None:
            raise ValueError("certificate does not carry its family operators")
        return compressed_sup(self.projection, self.family_ops)

    def to_json_dict(self) -> dict:
        return {
            "cotrace": self.cotrace,
            "epsilon": self.epsilon,
            "achieved_bound": self.achieved_bound,
            "family": self.family,
            "grid": list(self.grid),
            "params": {k: self.params[k] for k in sorted(self.params)},
            "flags": list(self.flags),
            "decay": None if self.decay is None else [[a, d] for a, d in self.decay],
            "projection": operator_to_dict(self.projection.op),
        }


@dataclass(frozen=True)
class MaximalParams:
    """Constants of the maximal inequality: co-trace cap C (eps^-1 ||x||_p)^p.

    Neither C nor the exponent is canonical at finite scale, so both are
    configuration; certificates report the empirical C realized by a run.
    """

    C: float
    p: float
    epsilon: float

    def __post_init__(self) -> None:
        if not (self.C > 0 and self.epsilon > 0):
            raise ValueError("C and epsilon must be positive")
        if self.p < 1:
            raise ValueError("p must be >= 1")


class ScheduleExhaustedError(RuntimeError):
    def __init__(self, level: int, smallest: float, target: float):
        super().__init__(
            f"window schedule exhausted at level {level}: smallest trace "
            f"{smallest:.3e}, needed < {target:.3e}"
        )
        self.level = level
        self.smallest = smallest
        self.target = target


class TransferPremiseError(RuntimeError):
    def __init__(self, worst_T: float, worst_gap: float, epsilon: float):
        super().__init__(
            f"perturbation premise fails: gap {worst_gap:.3e} at T={worst_T:.3e} "
            f"never drops below {epsilon:.3e}"
        )
        self.worst_T = worst_T
        self.worst_gap = worst_gap
        self.epsilon = epsilon


def compressed_norm(e: Projection, y: Operator) -> float:
    return (e.op @ y @ e.op).norm_inf()


def compressed_pair_norms(e: Projection, ops: Sequence[Operator]) -> np.ndarray:
    """(m, m) table holding ||e (y_i - y_j) e|| at i < j and 0 elsewhere.

    One batched SVD norm per block over all pairs of the family.
    """
    m = len(ops)
    table = np.zeros((m, m))
    if m < 2:
        return table
    rows, cols = np.triu_indices(m, 1)
    for i, E in enumerate(e.op.blocks):
        ys = np.stack([y.blocks[i] for y in ops])
        norms = np.linalg.norm(E @ (ys[rows] - ys[cols]) @ E, 2, axis=(1, 2))
        table[rows, cols] = np.maximum(table[rows, cols], norms)
    return table


def compressed_sup(e: Projection, ops: Sequence[Operator]) -> float:
    """Largest ||e y e|| over ``ops`` (0 if empty), one batched SVD norm per block."""
    norms = (
        np.linalg.norm(E @ np.stack([y.blocks[i] for y in ops]) @ E, 2, axis=(1, 2)).max()
        for i, E in enumerate(e.op.blocks)
    )
    return float(max(norms)) if ops else 0.0


# ---------------------------------------------------------------------------
# measure-topology witness
# ---------------------------------------------------------------------------

@dataclass
class MeasureWitness:
    ok: bool
    certificate: ProjectionCertificate | None
    min_achievable_cotrace: float


def measure_nbhd_witness(
    x: Operator,
    epsilon: float,
    delta: float,
    tol: float = DEFAULT_TOLS.spectral_include,
) -> MeasureWitness:
    """Witness that x lies in the measure-topology zero neighborhood (eps, delta).

    The candidate projection is the spectral projection of x*x at level
    delta^2, which is the smallest-cotrace spectral cut with ||x e|| <= delta.
    Failure reports that minimal cotrace so callers can widen epsilon.
    """
    if not (epsilon > 0 and delta > 0):
        raise ValueError("epsilon and delta must be positive")
    res = spectral_resolution((x.H @ x).herm())
    e = spectral_projection(res, delta * delta, tol)
    achieved = (x @ e.op).norm_inf()
    ok = e.cotrace <= epsilon + 1e-12
    cert = None
    if ok:
        # |x| commutes with e, so ||e |x| e|| recomputes the stored ||x e||
        cert = ProjectionCertificate(
            projection=e,
            cotrace=e.cotrace,
            epsilon=epsilon,
            achieved_bound=achieved,
            family="right compression ||x e||",
            grid=(delta,),
            params={"delta": delta},
            family_ops=(abs_value(x),),
        )
    return MeasureWitness(ok=ok, certificate=cert, min_achievable_cotrace=e.cotrace)


# ---------------------------------------------------------------------------
# maximal projection
# ---------------------------------------------------------------------------

def maximal_projection(
    sg: Semigroup,
    x: Operator,
    params: MaximalParams,
    T_grid: Sequence[float],
    family: dict[float, Operator] | None = None,
    tol: float = DEFAULT_TOLS.spectral_include,
) -> ProjectionCertificate:
    """One projection controlling ||e beta_T(x) e|| <= eps over a whole T grid.

    One batched ``eigh`` per block diagonalizes every average y_T.  |y_T| has
    eigenvalues |w| on the same eigenvectors, so each cut drops those with
    |w| > eps + tol (ties are kept), and the cut co-trace and the Chebyshev
    bound eps^-p tau(|y_T|^p) come from the same |w|.  One meet of the cuts
    (:func:`meet_complements`) compresses every average at once.  Its
    co-trace is compared against C (eps^-1 ||x||_p)^p; exceeding the cap only
    flags the certificate, and the empirical C realized by the run is
    reported either way.
    """
    if not x.is_self_adjoint(tol=1e-8):
        raise ValueError("maximal projection needs a self-adjoint operator")
    grid = tuple(float(T) for T in T_grid)
    if any(T <= 0 for T in grid):
        raise ValueError("T grid must be positive")
    alg = sg.algebra
    if family is None:
        family = {T: cesaro_average(sg, x, T) for T in grid}
    ys = [family[T].herm() for T in grid]

    eps = params.epsilon
    cut_cotrace = np.zeros(len(grid))
    power_trace = np.zeros(len(grid))
    complements = []
    for i, c in enumerate(alg.weights):
        w, v = np.linalg.eigh(np.stack([y.blocks[i] for y in ys]))
        mag = np.abs(w)
        drop = mag > eps + tol
        cut_cotrace += c * drop.sum(axis=1)
        power_trace += c * np.sum(mag**params.p, axis=1)
        complements.append((v * drop[:, None, :]) @ v.conj().swapaxes(1, 2))
    e = meet_complements(alg, complements)
    chebyshev = eps ** (-params.p) * power_trace
    achieved = compressed_sup(e, ys)
    xnorm = pnorm(alg, x, params.p)
    cap = params.C * (xnorm / eps) ** params.p if xnorm > 0 else 0.0
    empirical_c = (
        e.cotrace / ((xnorm / eps) ** params.p) if xnorm > 0 else 0.0
    )
    flags = []
    if achieved > eps + 1e-8:
        flags.append("compressed bound exceeds epsilon")
    if e.cotrace > cap and xnorm > 0:
        flags.append("bound exceeded for configured C")
    return ProjectionCertificate(
        projection=e,
        cotrace=e.cotrace,
        epsilon=eps,
        achieved_bound=achieved,
        family="cesaro averages over T grid",
        grid=grid,
        params={
            "p": params.p,
            "C": params.C,
            "cotrace_cap": cap,
            "empirical_C": empirical_c,
            "x_norm_p": xnorm,
            "chebyshev": np.column_stack([grid, cut_cotrace, chebyshev]).tolist(),
        },
        flags=tuple(flags),
        family_ops=tuple(ys),
    )


# ---------------------------------------------------------------------------
# shrinking-window construction for the double average
# ---------------------------------------------------------------------------

def _trace_power(alg, y: Operator, p: float) -> float:
    res = spectral_resolution(y.herm())
    total = 0.0
    for c, w in zip(alg.weights, res.eigenvalues):
        total += c * float(np.sum(np.clip(w, 0.0, None) ** p))
    return total


def _select_windows(
    make_op: Callable[[float], Operator],
    schedule: Sequence[float],
    p: float,
    eps: float,
    levels: int,
    alg,
) -> list[tuple[int, float, Operator, float]]:
    """Walk a decreasing schedule picking a_k with tau(h(a_k)^p) < eps^2/4^k."""
    picks = []
    idx = 0
    cache: dict[int, tuple[Operator, float]] = {}
    for k in range(1, levels + 1):
        target = eps * eps / (4.0**k)
        while idx < len(schedule):
            if idx not in cache:
                op = make_op(schedule[idx])
                cache[idx] = (op, _trace_power(alg, op, p))
            op, tr = cache[idx]
            if tr < target:
                picks.append((k, schedule[idx], op, tr))
                break
            idx += 1
        else:
            smallest = min((v for _, v in cache.values()), default=math.inf)
            raise ScheduleExhaustedError(k, smallest, target)
    return picks


def double_average_certificate(
    sg: Semigroup,
    x: Operator,
    b: float,
    p: float,
    epsilon: float,
    a_schedule: Sequence[float],
    levels: int = 5,
    tol: float = DEFAULT_TOLS.spectral_include,
) -> ProjectionCertificate:
    """Certify that averaging over a shrinking window fixes beta_b(x).

    For positive x set h(a) = (1/b) integral_0^a a_s(x) ds and
    g(a) = (1/b) integral_b^{b+a} a_s(x) ds, both in closed form
    (:func:`sandwich_windows`).  Window lengths a_k are chosen
    from the schedule with tau(h(a_k)^p) < eps^2 / 4^k, the spectral cut of
    h(a_k)^p at level eps/2^{k+1} gives p_k, the same construction on g gives
    q, and e is the meet.  The certificate checks tau(1-e) < eps and reports
    the decay of ||e (beta_a(beta_b(x)) - beta_b(x)) e|| over the schedule.
    """
    if not b > 0:
        raise ValueError("window length b must be positive")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if not x.is_positive(tol=1e-8):
        raise ValueError("double-average certificate needs a positive operator")
    schedule = [float(a) for a in a_schedule]
    if any(a2 >= a1 for a1, a2 in zip(schedule, schedule[1:])) or any(
        a <= 0 for a in schedule
    ):
        raise ValueError("a_schedule must be positive and strictly decreasing")
    alg = sg.algebra

    h_picks = _select_windows(
        lambda a: sandwich_windows(sg, x, a, b)[0], schedule, p, epsilon, levels, alg
    )
    g_picks = _select_windows(
        lambda a: sandwich_windows(sg, x, a, b)[1], schedule, p, epsilon, levels, alg
    )

    level_rows = []
    flags = []

    def cuts_for(picks, tag):
        cuts = []
        for k, a_k, op, tr in picks:
            level = epsilon / (2.0 ** (k + 1))
            res = spectral_resolution(op.herm())
            cut = spectral_projection(res, level ** (1.0 / p), tol)
            if cut.cotrace > level + 1e-12:
                flags.append(f"{tag} level {k} cotrace above geometric budget")
            level_rows.append([tag, k, a_k, tr, level, cut.cotrace])
            cuts.append(cut)
        return cuts

    p_meet = meet_all(cuts_for(h_picks, "head"))
    q_meet = meet_all(cuts_for(g_picks, "tail"))
    e = proj_meet(p_meet, q_meet)
    if e.cotrace >= epsilon:
        flags.append("cotrace budget exceeded")

    beta_b = cesaro_average(sg, x, b)
    diffs = []
    decay = []
    for a in schedule:
        d_op = cesaro_average(sg, beta_b, a) - beta_b
        diffs.append(d_op)
        decay.append((a, compressed_norm(e, d_op)))

    return ProjectionCertificate(
        projection=e,
        cotrace=e.cotrace,
        epsilon=epsilon,
        achieved_bound=max(d for _, d in decay),
        family="double averages beta_a(beta_b(x)) - beta_b(x)",
        grid=tuple(schedule),
        params={
            "b": b,
            "p": p,
            "levels": level_rows,
            "head_cotrace": p_meet.cotrace,
            "tail_cotrace": q_meet.cotrace,
            "final_decay": decay[-1][1],
        },
        flags=tuple(flags),
        decay=tuple(decay),
        family_ops=tuple(diffs),
    )


# ---------------------------------------------------------------------------
# Cauchy certification of operator families
# ---------------------------------------------------------------------------

def _budget_cut(z: Operator, budget: float, tol: float) -> Projection:
    """Spectral cut of |z| whose excluded weight fits the co-trace budget.

    The level is tau(|z|) / budget; excluding only eigenvalues above it keeps
    the cut's co-trace below the budget by the Chebyshev count.
    """
    alg = z.algebra
    mag = abs_value(z)
    total = trace(alg, mag).real
    res = spectral_resolution(mag)
    if total <= 0 or budget <= 0:
        return spectral_projection(res, mag.norm_inf(), tol)
    return spectral_projection(res, total / budget, tol)


def bau_cauchy_certify(
    family: Sequence[tuple[float, Operator]],
    epsilon: float,
    tol: float = DEFAULT_TOLS.decay,
    tail_fraction: float = 0.5,
    include_tol: float = DEFAULT_TOLS.spectral_include,
) -> ProjectionCertificate:
    """Certify that a T-indexed family is Cauchy after one compression.

    ``family`` is a list of (T, y_T) with strictly decreasing T.  Pairwise
    differences on the grid tail are compressed through spectral cuts whose
    excluded weights follow the geometric budget eps/2^{k+1}, so the meet e
    always satisfies tau(1-e) <= eps/2.  The decay table lists
    d(delta) = max over pairs below delta of ||e (y_T - y_S) e||; the family
    certifies when the final entry drops below ``tol``.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    grid = [float(T) for T, _ in family]
    ops = [y for _, y in family]
    if len(grid) < 2:
        raise ValueError("need at least two family members")
    if any(t2 >= t1 for t1, t2 in zip(grid, grid[1:])):
        raise ValueError("family grid must be strictly decreasing")

    m = len(grid)
    tail_start = max(0, m - max(2, math.ceil(tail_fraction * m)))
    cuts = []
    levels = []
    k = 0
    for i in range(tail_start, m):
        for j in range(i + 1, m):
            k += 1
            budget = epsilon / (2.0 ** (k + 1))
            z = ops[i] - ops[j]
            if z.norm_inf() == 0.0:
                continue
            cut = _budget_cut(z, budget, include_tol)
            if cut.cotrace > 0:
                cuts.append(cut)
            levels.append([grid[i], grid[j], budget, cut.cotrace])
    alg = ops[0].algebra
    if cuts:
        e = meet_all(cuts)
    else:
        e = Projection(alg.identity(), cotrace=0.0)

    decay = _suffix_decay(grid, compressed_pair_norms(e, ops))

    final = decay[-1][1]
    flags = []
    if final >= tol:
        flags.append("final compressed gap above tolerance")
    if e.cotrace > epsilon:
        flags.append("cotrace budget exceeded")
    # the certified family is the tail pair set; the achieved bound is its sup
    diffs = tuple(
        ops[i] - ops[j] for i in range(tail_start, m) for j in range(i + 1, m)
    )
    return ProjectionCertificate(
        projection=e,
        cotrace=e.cotrace,
        epsilon=epsilon,
        achieved_bound=decay[tail_start][1] if tail_start < len(decay) else final,
        family="pairwise differences of a T-indexed family",
        grid=tuple(grid),
        params={
            "tol": tol,
            "tail_start": tail_start,
            "levels": levels,
            "final_decay": final,
        },
        flags=tuple(flags),
        decay=tuple(decay),
        family_ops=diffs,
    )


def _suffix_decay(
    grid: Sequence[float], pairs: np.ndarray
) -> list[tuple[float, float]]:
    """(T_j, max over j <= i < l of the pair table) for every j but the last."""
    decay = []
    suffix = 0.0
    for j in range(len(grid) - 2, -1, -1):
        suffix = max(suffix, float(pairs[j, j + 1 :].max()))
        decay.append((grid[j], suffix))
    decay.reverse()
    return decay


def first_index_below(cert: ProjectionCertificate, target: float) -> int | None:
    """First grid index whose suffix decay is <= target, from a decay table."""
    if cert.decay is None:
        return None
    for idx, (_, value) in enumerate(cert.decay):
        if value <= target:
            return idx
    return None


# ---------------------------------------------------------------------------
# perturbation transfer
# ---------------------------------------------------------------------------

def perturbation_transfer(
    tilde_family: Sequence[tuple[float, Operator]],
    base_family: Sequence[tuple[float, Operator]],
    base_cert: ProjectionCertificate,
    eps_seq: Sequence[float],
    tol: float = 1e-8,
) -> ProjectionCertificate:
    """Carry a Cauchy certificate to a uniformly close family.

    For each eps in ``eps_seq`` the premise "||tilde_y_T - y_T|| < eps from
    some grid index on" is verified and the threshold index recorded; the
    base projection is reused, pairwise compressed gaps can grow by at most
    2 eps, and single-element compressed norms by at most eps (compression is
    a contraction).  The transferred bound is verified by direct
    recomputation on the tilde family.
    """
    t_grid = [float(T) for T, _ in tilde_family]
    b_grid = [float(T) for T, _ in base_family]
    if t_grid != b_grid:
        raise ValueError("families must share the same grid")
    gaps = [
        (t, (ty - by).norm_inf())
        for (t, ty), (_, by) in zip(tilde_family, base_family)
    ]
    chain = []
    for eps in eps_seq:
        thr = None
        for i in range(len(gaps)):
            if all(g < eps for _, g in gaps[i:]):
                thr = i
                break
        if thr is None:
            worst_t, worst_gap = max(gaps, key=lambda tg: tg[1])
            raise TransferPremiseError(worst_t, worst_gap, eps)
        chain.append((float(eps), thr))
    eps_last, start = chain[-1]

    e = base_cert.projection
    t_ops = [y for _, y in tilde_family]
    b_ops = [y for _, y in base_family]
    m = len(t_ops)

    t_pairs = compressed_pair_norms(e, t_ops)
    base_tail = float(compressed_pair_norms(e, b_ops[start:]).max())
    predicted = base_tail + 2.0 * eps_last
    achieved = float(t_pairs[start:, start:].max())
    base_sup = compressed_sup(e, b_ops[start:])
    tilde_sup = compressed_sup(e, t_ops[start:])
    flags = []
    if achieved > predicted + tol:
        flags.append("transferred bound exceeded")
    if tilde_sup > base_sup + eps_last + tol:
        flags.append("compressed sup grew beyond the premise gap")

    decay = _suffix_decay(t_grid, t_pairs)

    return ProjectionCertificate(
        projection=e,
        cotrace=base_cert.cotrace,
        epsilon=base_cert.epsilon,
        achieved_bound=achieved,
        family="perturbation transfer of " + base_cert.family,
        grid=tuple(t_grid),
        params={
            "chain": [[eps, thr] for eps, thr in chain],
            "predicted_bound": predicted,
            "base_tail_bound": base_tail,
            "base_sup": base_sup,
            "tilde_sup": tilde_sup,
            "max_gap": max(g for _, g in gaps),
        },
        flags=tuple(flags),
        decay=tuple(decay),
        family_ops=tuple(
            t_ops[i] - t_ops[j] for i in range(start, m) for j in range(i + 1, m)
        ),
    )


# ---------------------------------------------------------------------------
# limit norm check
# ---------------------------------------------------------------------------

@dataclass
class LpLimitReport:
    liminf_norm: float
    limit_norm: float
    passed: bool
    table: tuple[tuple[float, float], ...]


def lp_limit_check(
    family: Sequence[tuple[float, Operator]],
    p: float,
    limit: Operator,
    tail_fraction: float = 0.25,
    tol: float = 1e-10,
) -> LpLimitReport:
    """Check ||limit||_p against the smallest tail norm of the family.

    The minimum of ||y_T||_p over the grid tail is the finite stand-in for
    the limit inferior; the candidate limit must not exceed it (plus tol).
    """
    grid = [float(T) for T, _ in family]
    if any(t2 >= t1 for t1, t2 in zip(grid, grid[1:])):
        raise ValueError("family grid must be strictly decreasing")
    alg = limit.algebra
    table = tuple((t, pnorm(alg, y, p)) for t, y in family)
    tail = table[-max(1, math.ceil(tail_fraction * len(table))):]
    liminf = min(v for _, v in tail)
    limit_norm = pnorm(alg, limit, p)
    return LpLimitReport(
        liminf_norm=liminf,
        limit_norm=limit_norm,
        passed=limit_norm <= liminf + tol,
        table=table,
    )
