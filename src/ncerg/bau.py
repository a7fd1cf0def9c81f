"""Bilateral-almost-uniform (b.a.u.) certification machinery.

A statement of the form "there is a projection e with small co-trace such
that the compressed norms ||e y e|| are uniformly small" is made executable
here as a :class:`ProjectionCertificate`: the projection itself (which
carries its co-trace), the bound it achieves over a named family, and the
parameters of the run.  A certificate keeps neither the family's operators
nor a second copy of the co-trace.

A T-indexed family is a per-block stack here: one (m, n, n) array per
block in grid order; the public signatures stack their lists and dicts of
operators once (``algebra.stack_blocks``).  Each certificate cuts its
members (the window certificate its picked windows) through one stacked
``spectral_resolution`` (one batched ``eigh`` per block) and meets the cuts
in one stacked ``spectral_projection`` (one SVD per block), whose every meet
is an ``algebra.Projection`` made and checked by its one constructor;
compressed norms are batched SVD norms.  The maximal certificates of k
inputs share one such pass (:func:`maximal_certificates`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .algebra import (
    INPUT_TOL,
    Operator,
    Projection,
    SpectralResolution,
    TracialAlgebra,
    abs_value,
    hermitian_defects,
    op_norms,
    operator_to_dict,
    pnorm,
    power_traces,
    proj_meet,
    spectral_projection,
    spectral_resolution,
    stack_blocks,
    traces,
)
from .averaging import double_average_windows, grid_tail
from .config import ConfigError
from .semigroups import Semigroup

__all__ = [
    "ProjectionCertificate",
    "MaximalParams",
    "ScheduleExhaustedError",
    "TransferPremiseError",
    "compressed_norms",
    "pair_differences",
    "maximal_projection",
    "maximal_certificates",
    "double_average_certificate",
    "bau_cauchy_certify",
    "perturbation_transfer",
    "lp_limit_check",
    "LpLimitReport",
    "first_index_below",
]

DECAY_TOL = 1e-6  # default final-decay target of a Cauchy certificate
CAUCHY_TAIL = 0.5  # share of the grid (two members at least) whose pairs a Cauchy cert cuts
LP_SLACK = 1e-10  # absolute slack of a limit's p-norm over that liminf
BOUND_SLACK = 1e-8  # absolute slack of a compressed norm over the bound it is held to
COTRACE_SLACK = 1e-12  # absolute slack of a co-trace over its budget


@dataclass
class ProjectionCertificate:
    """Projection e and the uniform bound it achieves; its co-trace
    tau(1 - e) is the projection's own.

    ``family`` names the checked family; ``grid`` the sweep parameters;
    ``decay`` an optional table of (parameter, compressed norm) rows.
    """

    projection: Projection
    epsilon: float
    achieved_bound: float
    family: str
    grid: tuple[float, ...]
    params: dict = field(default_factory=dict)
    flags: tuple[str, ...] = ()
    decay: tuple[tuple[float, float], ...] | None = None

    # the keys of a certificate file (``to_json_dict``)
    JSON_KEYS = ("cotrace", "epsilon", "achieved_bound", "family", "grid", "params", "flags",
                 "decay", "projection")

    @property
    def cotrace(self) -> float:
        return self.projection.cotrace

    @property
    def ok(self) -> bool:
        return not self.flags

    def to_json_dict(self) -> dict:
        out = {key: getattr(self, key) for key in self.JSON_KEYS}
        out["projection"] = operator_to_dict(self.projection.op)
        return out


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


def compressed_norms(e: Projection, stacks: Sequence[np.ndarray]) -> np.ndarray:
    """||e y e|| for every member y of a stacked family, one batched SVD norm
    per block.  A block where e is exactly 1 passes y through without
    products (the same bits)."""
    return op_norms([
        Y if (E == np.eye(len(E))).all() else E @ Y @ E for E, Y in zip(e.op.blocks, stacks)
    ])


def pair_differences(stacks: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Stacked y_i - y_j over the pairs i < j of a stacked family, in the
    row-major order of ``np.triu_indices``."""
    rows, cols = np.triu_indices(len(stacks[0]), 1)
    return [a[rows] - a[cols] for a in stacks]


def _pair_table(e: Projection, stacks: Sequence[np.ndarray]) -> np.ndarray:
    """(m, m) table holding ||e (y_i - y_j) e|| at i < j and 0 elsewhere, one
    batched SVD norm per block over all pairs of a stacked family."""
    m = len(stacks[0])
    table = np.zeros((m, m))
    table[np.triu_indices(m, 1)] = compressed_norms(e, pair_differences(stacks))
    return table


# ---------------------------------------------------------------------------
# maximal projection
# ---------------------------------------------------------------------------

def maximal_projection(
    sg: Semigroup,
    x: Operator,
    params: MaximalParams,
    T_grid: Sequence[float],
    family: dict[float, Operator] | Sequence[np.ndarray] | None = None,
) -> ProjectionCertificate:
    """One projection controlling ||e beta_T(x) e|| <= eps over a whole T grid:
    :func:`maximal_certificates` at the single input and ``params``.

    ``family`` holds the averages y_T, if already computed, keyed by T or as
    per-block (m, n, n) stacks in grid order.
    """
    if isinstance(family, dict):
        family = stack_blocks([family[float(T)] for T in T_grid])
    means = None if family is None else [y[:, None] for y in family]
    return maximal_certificates(sg, stack_blocks([x]), [params], T_grid, means)[0][0]


def maximal_certificates(
    sg: Semigroup,
    xs: Sequence[np.ndarray],
    params: Sequence[MaximalParams],
    T_grid: Sequence[float],
    means: Sequence[np.ndarray] | None = None,
) -> list[list[ProjectionCertificate]]:
    """Maximal certificates of k inputs at once, ``[case][epsilon]``, one per
    input and entry of ``params`` (which must share one p).  The inputs come
    as per-block (k, n, n) stacks.

    ``means`` holds the averages y_T of every input, if already computed, as
    the (m, k, n, n) per-block stacks of ``Semigroup.mean_batch``.  One
    stacked spectral resolution diagonalizes all k m averages once for every
    epsilon.  |y_T| has eigenvalues |w| on the same eigenvectors, so each cut
    drops those with |w| > eps + SPECTRAL_INCLUDE (ties are kept), and the
    cut co-trace and the Chebyshev bound eps^-p tau(|y_T|^p) come from the
    same |w|.  Per epsilon, the k meets of the cuts come from one stacked
    :func:`spectral_projection` (one batched SVD per block, uncut members
    adding zero rows), and the compressed norms of all k m averages from one
    batched SVD per block.  A case whose meet is 0 in every block forms no
    product, and a meet block that is 0 adds norm 0 without an SVD
    (:func:`op_norms`).  A meet's co-trace is compared against
    C (eps^-1 ||x||_p)^p; exceeding the cap only flags the certificate, and
    the empirical C realized by the run is reported either way.  A p so
    large that eps^-p, (eps^-1 ||x||_p)^p or a number built from them is
    not a finite float (an empirical C of a positive co-trace over a ratio
    that underflows to 0) raises ``ConfigError`` naming p.
    """
    if len({q.p for q in params}) != 1:
        raise ValueError("maximal projections need parameters sharing one exponent p")
    if not xs or not len(xs[0]):
        raise ValueError("maximal certificates need at least one input")
    if hermitian_defects(xs, INPUT_TOL)[0].any():
        raise ValueError("maximal projection needs a self-adjoint operator")
    grid = tuple(float(T) for T in T_grid)
    if not grid:
        raise ValueError("T_grid must hold at least one T")
    if any(T <= 0 for T in grid):
        raise ValueError("T grid must be positive")
    alg = sg.algebra
    ys = []  # case-major (k, m, n, n) per block, symmetrised
    for y in sg.mean_batch(grid, xs) if means is None else means:
        y = y.swapaxes(0, 1)
        ys.append(y + y.conj().swapaxes(2, 3))
        ys[-1] /= 2.0

    res = spectral_resolution(ys, alg=alg)
    # |y_T| has the eigenvalues |w| of y_T on the same eigenvectors
    mags = SpectralResolution(alg, tuple(np.abs(w) for w in res.eigenvalues), res.eigenvectors)
    p = params[0].p
    power_trace = power_traces(alg, mags.eigenvalues, p)
    xnorms = pnorm(alg, xs, p)
    certs: list[list[ProjectionCertificate]] = [[] for _ in xnorms]
    for q in params:
        eps = q.epsilon
        cotraces = mags.cut_cotrace(eps)
        es = spectral_projection(mags, eps)
        meets = stack_blocks([e.op for e in es])
        live = np.any([np.any(E, axis=(1, 2)) for E in meets], axis=0)
        achieved = np.zeros(len(es))
        achieved[live] = op_norms(
            [E[live, None] @ y[live] @ E[live, None] for E, y in zip(meets, ys)]
        ).max(axis=1)
        for case, (e, xnorm) in enumerate(zip(es, xnorms)):
            try:  # a Python float power raises on overflow
                scale, ratio = eps ** (-p), (xnorm / eps) ** p
            except OverflowError:
                scale = ratio = math.inf
            with np.errstate(over="ignore", invalid="ignore"):
                chebyshev = scale * power_trace[case]
            cap = q.C * ratio if xnorm > 0 else 0.0
            empirical_c = 0.0  # a meet of co-trace 0 realizes C = 0 at any ratio
            if e.cotrace > 0 and xnorm > 0:
                empirical_c = e.cotrace / ratio if ratio > 0 else math.inf
            finite = math.isfinite(cap) and math.isfinite(empirical_c)
            if not (finite and np.isfinite(chebyshev).all()):
                raise ConfigError(
                    f"p={p:g} is too large at eps={eps:g}: eps^-p, (||x||_p / eps)^p, "
                    f"C={q.C:g} times it or the empirical C leaves the float range"
                )
            bound = float(achieved[case])
            flags = []
            if bound > eps + BOUND_SLACK:
                flags.append("compressed bound exceeds epsilon")
            if e.cotrace > cap and xnorm > 0:
                flags.append("bound exceeded for configured C")
            certs[case].append(ProjectionCertificate(
                projection=e,
                epsilon=eps,
                achieved_bound=bound,
                family="cesaro averages over T grid",
                grid=grid,
                params={
                    "p": p,
                    "C": q.C,
                    "cotrace_cap": cap,
                    "empirical_C": empirical_c,
                    "x_norm_p": xnorm,
                    "chebyshev": np.column_stack([grid, cotraces[case], chebyshev]).tolist(),
                },
                flags=tuple(flags),
            ))
    return certs


# ---------------------------------------------------------------------------
# shrinking-window construction for the double average
# ---------------------------------------------------------------------------

def double_average_certificate(
    sg: Semigroup,
    x: Operator,
    b: float,
    p: float,
    epsilon: float,
    a_schedule: Sequence[float],
    levels: int = 5,
) -> ProjectionCertificate:
    """Certify that averaging over a shrinking window fixes beta_b(x).

    For positive x set h(a) = (1/b) integral_0^a a_s(x) ds = (a/b) beta_a(x)
    and g(a) = (1/b) integral_b^{b+a} a_s(x) ds = a_b(h(a)), both in closed
    form for the whole schedule from :func:`averaging.double_average_windows`
    with the gaps below.  Walking the schedule in order, window lengths a_k are
    chosen with tau(h(a_k)^p) < eps^2 / 4^k, the spectral cut of h(a_k)^p at
    level eps/2^{k+1} gives p_k, the same construction on g gives q, and e is
    the meet.  One stacked eigvalsh of the heads (and one of the tails)
    gives the traces tau(h(a)^p), and one stacked resolution of the
    ``levels`` picked windows the cuts (a window picked for several levels
    is decomposed for each), so a level's trace and co-trace come from two
    LAPACK routines (``eigvalsh``, ``eigh``) whose spectra may differ in the
    last bits.  The certificate checks tau(1-e) < eps and reports the decay
    of ||e (beta_a(beta_b(x)) - beta_b(x)) e|| over the schedule.
    """
    if not b > 0:
        raise ValueError("window length b must be positive")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if not x.is_positive(tol=INPUT_TOL):
        raise ValueError("double-average certificate needs a positive operator")
    schedule = [float(a) for a in a_schedule]
    if any(a2 >= a1 for a1, a2 in zip(schedule, schedule[1:])) or any(
        a <= 0 for a in schedule
    ):
        raise ValueError("a_schedule must be positive and strictly decreasing")
    if not schedule:
        raise ScheduleExhaustedError(1, math.inf, epsilon * epsilon / 4.0)
    alg = sg.algebra
    heads, tails, gaps = double_average_windows(sg, stack_blocks([x]), schedule, b)
    budgets = [epsilon / (2.0 ** (k + 1)) for k in range(1, levels + 1)]
    level_rows = []
    flags = []

    def cut_windows(windows, tag):
        sym = [(h + h.conj().swapaxes(1, 2)) / 2.0 for h in windows]
        spectra = [np.linalg.eigvalsh(h) for h in sym]
        powers = power_traces(alg, [np.clip(w, 0.0, None) for w in spectra], p)
        picks, idx = [], 0
        for k in range(1, levels + 1):
            target = epsilon * epsilon / (4.0**k)
            while idx < len(schedule) and not powers[idx] < target:
                idx += 1
            if idx == len(schedule):
                raise ScheduleExhaustedError(k, min(powers, default=math.inf), target)
            picks.append(idx)
        res = spectral_resolution([h[picks] for h in sym], alg=alg)
        cuts = [lv ** (1.0 / p) for lv in budgets]
        cotraces, meet = res.cut_cotrace(cuts), spectral_projection(res, cuts)
        for k, (i, level, cot) in enumerate(zip(picks, budgets, cotraces), start=1):
            if cot > level + COTRACE_SLACK:
                flags.append(f"{tag} level {k} cotrace above geometric budget")
            level_rows.append([tag, k, schedule[i], float(powers[i]), level, float(cot)])
        return meet

    p_meet = cut_windows([h[:, 0] for h in heads], "head")
    q_meet = cut_windows([t[:, 0] for t in tails], "tail")
    e = proj_meet(p_meet, q_meet)
    if e.cotrace >= epsilon:
        flags.append("cotrace budget exceeded")

    diffs = [g[:, 0] for g in gaps]
    decay = [(a, float(d)) for a, d in zip(schedule, compressed_norms(e, diffs))]

    return ProjectionCertificate(
        projection=e,
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
    )


# ---------------------------------------------------------------------------
# Cauchy certification of operator families
# ---------------------------------------------------------------------------

def bau_cauchy_certify(
    family: Sequence[tuple[float, Operator]],
    epsilon: float,
    tol: float = DECAY_TOL,
) -> ProjectionCertificate:
    """Certify that a T-indexed family is Cauchy after one compression.

    ``family`` is a list of (T, y_T) with strictly decreasing T.  Pairwise
    differences z on the grid tail (the last ``CAUCHY_TAIL`` share of the
    members, two at least) are compressed through spectral cuts of
    |z| whose excluded weights follow the geometric budget eps/2^{k+1}: the
    k-th pair is cut at level tau(|z|) / budget, which keeps its co-trace
    below the budget by the Chebyshev count.  So the meet e always satisfies
    tau(1-e) <= eps/2.  Exactly zero pairs are skipped but still advance k,
    and cuts of co-trace 0 stay out of the meet.  The decay table lists
    d(delta) = max over pairs below delta of ||e (y_T - y_S) e||; the family
    certifies when the final entry drops below ``tol``.
    """
    grid, ops = [T for T, _ in family], [y for _, y in family]
    alg = ops[0].algebra if ops else None
    return _cauchy_certify(alg, grid, stack_blocks(ops), epsilon, tol)


def _cauchy_certify(alg, grid, ys, epsilon, tol) -> ProjectionCertificate:
    """:func:`bau_cauchy_certify` of a family held as per-block stacks ``ys``
    over ``grid``."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    grid = [float(T) for T in grid]
    if len(grid) < 2:
        raise ValueError("need at least two family members")
    if any(t2 >= t1 for t1, t2 in zip(grid, grid[1:])):
        raise ValueError("family grid must be strictly decreasing")
    m = len(grid)
    tail_start = max(0, m - max(2, math.ceil(CAUCHY_TAIL * m)))
    diffs = pair_differences([a[tail_start:] for a in ys])
    rows, cols = np.triu_indices(m - tail_start, 1)
    budgets = np.array([epsilon / (2.0 ** (k + 1)) for k in range(1, len(rows) + 1)])
    nonzero = np.any([np.any(z, axis=(1, 2)) for z in diffs], axis=0)
    rows, cols, budgets = rows[nonzero], cols[nonzero], budgets[nonzero]
    zs = [z[nonzero] for z in diffs]
    # |z| comes from eigh of z* z, whose entries are at most ||z||_F^2: a
    # pair whose squares leave the float range is refused before the product
    with np.errstate(over="ignore"):
        squares = [np.sum((z * z.conj()).real, axis=(1, 2)) for z in zs]
    if not all(np.isfinite(s).all() for s in squares):
        raise ConfigError(
            "family too large to certify: the squares of a pair difference "
            "y_T - y_S leave the float range"
        )
    mags = abs_value(zs)
    res = spectral_resolution(mags, alg=alg)
    cuts = traces(alg, mags).real / budgets
    cotraces, e = res.cut_cotrace(cuts), spectral_projection(res, cuts)
    levels = [
        [grid[tail_start + i], grid[tail_start + j], float(budget), float(cot)]
        for i, j, budget, cot in zip(rows, cols, budgets, cotraces)
    ]

    decay = _suffix_decay(grid, _pair_table(e, ys))

    final = decay[-1][1]
    flags = []
    if final >= tol:
        flags.append("final compressed gap above tolerance")
    if e.cotrace > epsilon:
        flags.append("cotrace budget exceeded")
    # the certified family is the tail pair set; the achieved bound is its sup
    return ProjectionCertificate(
        projection=e,
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
    )


def _suffix_decay(
    grid: Sequence[float], pairs: np.ndarray
) -> list[tuple[float, float]]:
    """(T_j, max over j <= i < l of the pair table) for every j but the last."""
    suffix = np.maximum.accumulate(pairs[:-1].max(axis=1)[::-1])[::-1]
    return list(zip(grid[:-1], suffix.tolist()))


def first_index_below(cert: ProjectionCertificate, target: float) -> int | None:
    """First grid index whose suffix decay is <= target, from a decay table."""
    if cert.decay is None:
        return None
    return next((i for i, (_, value) in enumerate(cert.decay) if value <= target), None)


# ---------------------------------------------------------------------------
# perturbation transfer
# ---------------------------------------------------------------------------

def perturbation_transfer(
    tilde_family: Sequence[tuple[float, Operator]],
    base_family: Sequence[tuple[float, Operator]],
    base_cert: ProjectionCertificate,
    eps_seq: Sequence[float],
) -> ProjectionCertificate:
    """Carry a Cauchy certificate of ``base_family`` to a uniformly close family.

    For each eps in ``eps_seq`` the premise "||tilde_y_T - y_T|| < eps from
    some grid index on" is verified and the threshold index recorded; the
    base projection is reused, pairwise compressed gaps can grow by at most
    2 eps, and single-element compressed norms by at most eps (compression is
    a contraction).  The base family's largest compressed pair gap from the
    threshold on is read off the certificate's decay table, which holds it.
    The transferred bound is verified by direct recomputation on the tilde
    family, up to ``BOUND_SLACK``.
    """
    t_grid = [float(T) for T, _ in tilde_family]
    b_grid = [float(T) for T, _ in base_family]
    if t_grid != b_grid:
        raise ValueError("families must share the same grid")
    if not t_grid:
        raise ValueError("need at least one family member")
    if len(eps_seq) == 0:
        raise ValueError("eps_seq must hold at least one premise gap")
    if base_cert.decay is None or [T for T, _ in base_cert.decay] != b_grid[:-1]:
        raise ValueError("base_cert must be a Cauchy certificate over the base family's grid")
    t_ys = stack_blocks([y for _, y in tilde_family])
    b_ys = stack_blocks([y for _, y in base_family])
    gaps = op_norms([t - b for t, b in zip(t_ys, b_ys)])
    # the premise holds from index i on when the suffix maximum there is < eps
    suffix = np.maximum.accumulate(gaps[::-1])[::-1]
    chain = []
    for eps in eps_seq:
        if not suffix[-1] < eps:
            worst = int(np.argmax(gaps))
            raise TransferPremiseError(t_grid[worst], float(gaps[worst]), eps)
        chain.append((float(eps), int(np.argmax(suffix < eps))))
    eps_last, start = chain[-1]

    e = base_cert.projection
    t_tail = [a[start:] for a in t_ys]
    b_tail = [a[start:] for a in b_ys]

    t_pairs = _pair_table(e, t_ys)
    base_tail = base_cert.decay[start][1] if start < len(base_cert.decay) else 0.0
    predicted = base_tail + 2.0 * eps_last
    achieved = float(t_pairs[start:, start:].max())
    base_sup = float(compressed_norms(e, b_tail).max())
    tilde_sup = float(compressed_norms(e, t_tail).max())
    flags = []
    if achieved > predicted + BOUND_SLACK:
        flags.append("transferred bound exceeded")
    if tilde_sup > base_sup + eps_last + BOUND_SLACK:
        flags.append("compressed sup grew beyond the premise gap")

    decay = _suffix_decay(t_grid, t_pairs)

    return ProjectionCertificate(
        projection=e,
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
            "max_gap": float(gaps.max()),
        },
        flags=tuple(flags),
        decay=tuple(decay),
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
    family: Sequence[tuple[float, Operator]], p: float, limit: Operator
) -> LpLimitReport:
    """Check ||limit||_p against the smallest tail norm of the family.

    The minimum of ||y_T||_p over the grid's tail (``averaging.grid_tail``)
    is the finite stand-in for the limit inferior; the candidate limit must
    not exceed it (plus ``LP_SLACK``).
    """
    grid = [float(T) for T, _ in family]
    if not grid:
        raise ValueError("need at least one family member")
    if any(t2 >= t1 for t1, t2 in zip(grid, grid[1:])):
        raise ValueError("family grid must be strictly decreasing")
    alg = limit.algebra
    table = tuple(zip(grid, pnorm(alg, stack_blocks([y for _, y in family]), p)))
    liminf = min(v for _, v in grid_tail(table))
    limit_norm = pnorm(alg, limit, p)
    return LpLimitReport(
        liminf_norm=liminf,
        limit_norm=limit_norm,
        passed=limit_norm <= liminf + LP_SLACK,
        table=table,
    )
