"""Flow averages, almost-periodic weights and the quadrature kept for residuals.

The central object is the time average ``(1/T) * integral_0^T w(t) a_t(x) dt``
for a semigroup ``a_t``, an operator ``x`` and a bounded scalar weight ``w``.
Cesaro averages and every trigonometric term exp(2 pi i theta t) are exact:
each is one closed-form :meth:`Semigroup.mean` at shift s = 2 pi i theta, so
``cesaro_average``, ``trig_average`` and ``dense_approximant`` take no
quadrature settings.  One stacked builder, ``double_average_windows``, gives
the heads, tails and gaps of the double average beta_a(beta_b(x)) - beta_b(x)
to its two users, the sandwich check (``sandwich_slacks``) and the window
certificate of :mod:`ncerg.bau`.
A Besicovitch weight b = P + r is exact in P; its residual r is exact too
when it is itself a trigonometric polynomial that declares its terms
(``constant`` c is the term c at theta = 0, ``cos`` (a, omega) the terms a/2
at theta = +-omega / 2 pi).  The averages of many weights, inputs and
lengths share one :meth:`Semigroup.mean_batch` per term index, with
per-input lengths and shifts: ``weighted_families`` gives the P- and
b-weighted families over a T grid, and ``substitution_bound_checks`` checks
k cases in one pass.  Any other residual (``linear_capped``, ``sin_inv_t``,
a plain callable, which a weight wraps as a :class:`Residual` that declares
nothing) is integrated numerically.  The local mean gap
(1/T) integral |b - P| and the substitution bound's right side read r
alone: ``constant`` and ``cos`` declare that mean in closed form, and every
other residual takes it from the scalar quadrature.  One doubling core
serves both integrators: composite
Gauss-Legendre panels whose count doubles until the difference between
successive refinements drops below ``QUAD_RTOL`` (in the operator norm for
``integrate_flow``), for at most ``MAX_REFINEMENTS`` doublings.  These are
constants, not settings.  A built-in residual (:class:`Residual`) declares
its kinks, the points where r or |r| is not smooth, and both integrators cut
their panels there, so every panel holds a smooth piece.  Weight values are
taken exactly at the quadrature nodes, never interpolated.  In the
weighted-avg suite ``integrate_flow`` cross-checks the closed-form residual
average and ``integrate_scalar`` the declared mean of |r|
(``declared_mean_abs_gap``); ``integrate_flow``
also serves as the independent oracle for the closed forms in the tests, at
a tighter ``rtol``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .algebra import (
    INPUT_TOL,
    AlgebraMismatchError,
    Operator,
    hermitian_defects,
    min_eig,
    op_norms,
    stack_blocks,
)
from .config import ConfigError, require_finite, require_keys
from .semigroups import Semigroup

__all__ = [
    "QuadratureError",
    "QuadratureResult",
    "Residual",
    "integrate_flow",
    "integrate_scalar",
    "cesaro_average",
    "weighted_average",
    "trig_average",
    "weighted_families",
    "dense_approximant",
    "double_average_windows",
    "sandwich_slacks",
    "sandwich_check",
    "TrigTerm",
    "trig_value",
    "BesicovitchWeight",
    "besicovitch_error",
    "declared_mean_abs_gap",
    "substitution_bound_check",
    "substitution_bound_checks",
    "residual_from_config",
    "weight_from_config",
]


QUAD_RTOL = 1e-10  # relative change between passes at which the doubling stops
MAX_REFINEMENTS = 12  # doubling budget: at most 8 * 2**12 nodes per unit length
SUP_SAMPLES = 1001  # samples of [0, 1] (every t a suite weights) that test a declared sup bound
SUP_SLACK = 1e-12  # roundoff excess allowed over it, relative to sum |kappa_j| + residual_sup
MAX_KINKS = 4096  # most kinks a residual declares in (0, T): the panels of a unit interval's last pass
TAIL_SHARE = 0.25  # share of a decreasing T grid, rounded up, that stands in for the limit at 0

# Roundoff level of a quadrature sum, per unit of its scale
# sum_k |w_k| * max_k ||f(t_k)|| (Frobenius norm for operators).  On exactly
# zero averages successive passes differ by under 2 eps of that scale, up to
# 8192 nodes at block size 32.
_ROUNDOFF = 16 * np.finfo(float).eps


class QuadratureError(RuntimeError):
    """Refinement budget exhausted before reaching the requested tolerance."""

    def __init__(self, achieved: float, target: float, refinements: int):
        super().__init__(
            f"quadrature did not converge: achieved {achieved:.3e} "
            f"(target {target:.3e}) after {refinements} refinements"
        )
        self.achieved = achieved
        self.target = target
        self.refinements = refinements


@dataclass(frozen=True)
class QuadratureResult:
    value: Operator
    error: float
    refinements: int


# the 8-point Gauss-Legendre rule of every panel: the bits of
# np.polynomial.legendre.leggauss(8), as a table so that no run loads numpy.polynomial
_GL_X = np.array([
    -0.9602898564975362, -0.7966664774136267, -0.525532409916329, -0.18343464249564978,
    0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362,
])
_GL_W = np.array([
    0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166,
    0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706,
])


def _panel_points(pieces: Sequence[float], level: int):
    """Nodes and weights of max(1, ceil(length)) * 2**level panels of 8
    Gauss-Legendre nodes on each piece between successive ``pieces`` edges."""
    edges = np.concatenate([
        *(np.linspace(a, b, max(1, math.ceil(b - a)) * 2**level + 1)[:-1]
          for a, b in zip(pieces, pieces[1:])),
        pieces[-1:],
    ])
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    ts = (mid[:, None] + half[:, None] * _GL_X).ravel()
    ws = (half[:, None] * _GL_W).ravel()
    return ts, ws


def _refine(lo: float, hi: float, rtol: float, evaluate, distance, kinks=()):
    """The doubling Gauss-Legendre loop behind both integrators.  [lo, hi] is
    cut at the ``kinks`` inside it; each piece starts with one panel per unit
    length (at least one) of 8 nodes, doubled per pass.

    ``evaluate(ts, ws)`` returns a pass's sum and its roundoff scale
    sum_k |w_k f(t_k)| (or a bound on it); ``distance(cur, prev)`` returns
    ||cur - prev|| and ||cur||.  Refinement stops once the change, relative
    to the larger of ||cur|| and the roundoff scale over ``rtol`` (so an
    exactly zero integral converges), is below ``rtol``, or after
    ``MAX_REFINEMENTS`` doublings (read at call time).  Returns (value,
    error, refinements, converged), the last pass when the budget runs out.
    """
    if not hi > lo:
        raise ValueError("integration interval must have hi > lo")
    pieces = [lo, *sorted({float(t) for t in kinks if lo < t < hi}), hi]
    prev = None
    err = math.inf
    for level in range(MAX_REFINEMENTS + 1):
        cur, roundoff = evaluate(*_panel_points(pieces, level))
        if prev is not None:
            change, scale = distance(cur, prev)
            err = change / max(scale, _ROUNDOFF * roundoff / rtol, 1e-300)
            if err <= rtol:
                return cur, err, level, True
        prev = cur
    return cur, err, level, False


def integrate_flow(
    sg: Semigroup,
    x: Operator,
    lo: float,
    hi: float,
    weight: Callable[[np.ndarray], np.ndarray] | None = None,
    rtol: float = QUAD_RTOL,
    kinks: Sequence[float] = (),
) -> QuadratureResult:
    """integral_lo^hi w(t) a_t(x) dt with doubling Gauss-Legendre panels, cut
    at the ``kinks`` of w.

    Raises :class:`QuadratureError` when ``MAX_REFINEMENTS`` runs out.  The
    library integrates at ``QUAD_RTOL``; the tests pass a tighter ``rtol``
    to make this the oracle of the closed forms.  The norms ||cur - prev||
    and ||cur|| of a refinement come from one batched SVD per block.
    """

    def evaluate(ts, ws):
        cw = ws.astype(complex) if weight is None else ws * np.asarray(weight(ts), dtype=complex)
        stacks = sg.propagate_stack(ts, x)
        size = max(float(np.linalg.norm(s, axis=(1, 2)).max()) for s in stacks)
        return [np.einsum("t,tij->ij", cw, s) for s in stacks], float(np.abs(cw).sum()) * size

    def distance(cur, prev):
        return op_norms([np.stack([c - p, c]) for c, p in zip(cur, prev)]).tolist()

    cur, err, level, converged = _refine(lo, hi, rtol, evaluate, distance, kinks)
    if not converged:
        raise QuadratureError(err, rtol, level)
    return QuadratureResult(Operator(sg.algebra, cur), err, level)


def integrate_scalar(
    f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, kinks: Sequence[float] = ()
) -> tuple[float, float]:
    """Best-effort scalar integral at ``QUAD_RTOL``, cut at the ``kinks`` of f;
    returns (value, error estimate), also when ``MAX_REFINEMENTS`` runs out.
    Each pass is a pairwise ``np.sum``, not a BLAS dot, so the value does not
    depend on the BLAS thread count."""

    def evaluate(ts, ws):
        fs = np.asarray(f(ts))
        return float(np.sum(ws * fs).real), float(np.sum(ws * np.abs(fs)))

    cur, err, _, _ = _refine(
        lo, hi, QUAD_RTOL, evaluate, lambda c, p: (abs(c - p), abs(c)), kinks
    )
    return cur, err


# ---------------------------------------------------------------------------
# averages
# ---------------------------------------------------------------------------

def cesaro_average(sg: Semigroup, x: Operator, T: float) -> Operator:
    """Time average (1/T) integral_0^T a_t(x) dt, T > 0, in closed form."""
    return sg.mean(T, x)


def weighted_average(sg: Semigroup, b: "BesicovitchWeight", x: Operator, T: float) -> Operator:
    """(1/T) integral_0^T b(t) a_t(x) dt for a bounded weight b.

    The trigonometric part is exact (:func:`trig_average`), and so is a
    residual that declares its terms; any other residual goes through
    :func:`integrate_flow`.
    """
    return trig_average(sg, b.terms, x, T) + _residual_average(sg, b, x, T)


def _one_input(sg: Semigroup, x: Operator) -> list[np.ndarray]:
    """x as a one-input (1, n, n) stack per block, once it is checked to
    belong to the algebra of ``sg``."""
    if x.algebra != sg.algebra:
        raise AlgebraMismatchError("operator does not belong to this algebra")
    return stack_blocks([x])


def _operators(alg, ys: Sequence[np.ndarray]) -> list[Operator]:
    """Operators y[q, 0] for every q of (m, 1, n, n) per-block stacks."""
    return [Operator(alg, [y[q, 0] for y in ys]) for q in range(len(ys[0]))]


def _trig_means(
    sg: Semigroup, term_lists: Sequence[Sequence["TrigTerm"]], xs: Sequence[np.ndarray], Ts
) -> list[np.ndarray]:
    """sum_j kappa_cj (1/T) integral_0^T exp(2 pi i theta_cj t) a_t(x_c) dt for
    every input c of a (k, n, n) stack with its own terms ``term_lists[c]``,
    at lengths ``Ts`` of shape (m,) or (m, k): (m, k, n, n) per block, from
    one :meth:`Semigroup.mean_batch` per term index over the inputs that
    have that term."""
    Ts = np.asarray(Ts, dtype=float)
    out = [np.zeros((len(Ts), *a.shape), dtype=complex) for a in xs]
    for j in range(max(map(len, term_lists), default=0)):
        cases = [c for c, terms in enumerate(term_lists) if len(terms) > j]
        kappa = np.array([term_lists[c][j].kappa for c in cases])[:, None, None]
        shifts = np.array([2j * math.pi * term_lists[c][j].theta for c in cases])
        lengths = Ts[:, cases] if Ts.ndim == 2 else Ts
        for o, y in zip(out, sg.mean_batch(lengths, [a[cases] for a in xs], shifts)):
            o[:, cases] += kappa * y
    return out


def _residual_means(
    sg: Semigroup, weights: Sequence["BesicovitchWeight"], xs: Sequence[np.ndarray], Ts
) -> list[np.ndarray]:
    """(1/T) integral_0^T r_c(t) a_t(x_c) dt for the residual r_c of
    ``weights[c]`` (zero without one) and every input c of a (k, n, n)
    stack, at lengths ``Ts`` of shape (m,) or (m, k): (m, k, n, n) per block.
    Residuals that declare their terms share :func:`_trig_means`; any other
    goes through :func:`integrate_flow`, one call per length."""
    Ts = np.asarray(Ts, dtype=float)
    residuals = [b.residual for b in weights]
    out = _trig_means(sg, [r.terms if r and r.terms else () for r in residuals], xs, Ts)
    for c, r in enumerate(residuals):
        if r is None or r.terms is not None:
            continue
        x = Operator(sg.algebra, [a[c] for a in xs])
        for q, T in enumerate(map(float, Ts[:, c] if Ts.ndim == 2 else Ts)):
            y = integrate_flow(sg, x, 0.0, T, weight=r, kinks=r.kinks(T)).value / T
            for o, a in zip(out, y.blocks):
                o[q, c] = a
    return out


def _residual_average(sg: Semigroup, b: "BesicovitchWeight", x: Operator, T: float) -> Operator:
    """(1/T) integral_0^T r(t) a_t(x) dt for the residual r of b (zero without one)."""
    return _operators(sg.algebra, _residual_means(sg, [b], _one_input(sg, x), [T]))[0]


def trig_average(
    sg: Semigroup, terms: Sequence["TrigTerm"], x: Operator, T: float
) -> Operator:
    """Average weighted by a trigonometric polynomial alone, in closed form:
    sum_j kappa_j (1/T) integral_0^T exp(2 pi i theta_j t) a_t(x) dt."""
    return _operators(sg.algebra, _trig_means(sg, [terms], _one_input(sg, x), [T]))[0]


def weighted_families(
    sg: Semigroup, b: "BesicovitchWeight", x: Operator, Ts: Sequence[float]
) -> tuple[list[tuple[float, Operator]], list[tuple[float, Operator]]]:
    """The families T -> P-weighted average and T -> b-weighted average of x
    over a T grid, as (T, average) pairs, for b = P + r: one
    :meth:`Semigroup.mean_batch` per term of P and per declared term of r."""
    xs = _one_input(sg, x)
    base = _operators(sg.algebra, _trig_means(sg, [b.terms], xs, Ts))
    res = _operators(sg.algebra, _residual_means(sg, [b], xs, Ts))
    return list(zip(Ts, base)), [(T, y + r) for T, y, r in zip(Ts, base, res)]


def dense_approximant(sg: Semigroup, x: Operator, k: int) -> Operator:
    """k * integral_0^{1/k} a_s(x) ds, the mollified copy of x at scale 1/k."""
    if int(k) != k or k < 1:
        raise ValueError("approximant index k must be a positive integer")
    return cesaro_average(sg, x, 1.0 / int(k))


def double_average_windows(
    sg: Semigroup, xs: Sequence[np.ndarray], a_grid: Sequence[float], b: float
) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
    """Heads (1/b) integral_0^a a_s(x) ds = (a/b) beta_a(x), tails a_b(head) and
    gaps beta_a(beta_b(x)) - beta_b(x), each (len(a_grid), k, n, n) per block,
    for every a and every input of a (k, n, n) stack: four core calls."""
    grid = _window_grid(a_grid, [b])
    return _windows(sg, xs, grid, sg.mean_batch(grid, xs), b)


def _window_grid(a_grid: Sequence[float], bs: Sequence[float]) -> np.ndarray:
    """The a grid as an array, once it and every b are checked positive."""
    grid = np.asarray(a_grid, dtype=float)
    if not (np.all(grid > 0) and all(b > 0 for b in bs)):
        raise ValueError("window lengths must be positive")
    return grid


def _windows(
    sg: Semigroup, xs: Sequence[np.ndarray], grid: np.ndarray, means: list[np.ndarray], b: float
) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
    """:func:`double_average_windows` from the averages beta_a(x) over the a
    grid, ``means``, which do not depend on b."""
    heads = [y * (grid / b)[:, None, None, None] for y in means]
    flat = sg.propagate_batch([b], [h.reshape(-1, *h.shape[2:]) for h in heads])
    beta_b = [y[0] for y in sg.mean_batch([b], xs)]
    gaps = [y - c for y, c in zip(sg.mean_batch(grid, beta_b), beta_b)]
    return heads, [y.reshape(h.shape) for y, h in zip(flat, heads)], gaps


def sandwich_slacks(
    sg: Semigroup,
    xs: Sequence[np.ndarray],
    a_grid: Sequence[float],
    b: float | Sequence[float],
) -> np.ndarray:
    """(min eig of D + head, min eig of tail - D), each (len(a_grid), k), for the
    windows of :func:`double_average_windows`.  For a stack positive at
    ``INPUT_TOL`` the gap D sits between minus the head and the tail: both
    are >= 0 up to roundoff.  ``b`` may also be a sequence of window lengths:
    the slacks are then (2, len(b), len(a_grid), k), from one positivity
    check and one beta_a(x) for all of them.  The check is the screened rule
    of :func:`hermitian_defects`, so a member it clears takes no SVD."""
    bs = np.atleast_1d(np.asarray(b, dtype=float))
    if hermitian_defects(xs, INPUT_TOL, positive=True)[0].any():
        raise ValueError("sandwich check needs a positive operator")
    grid = _window_grid(a_grid, bs)
    means = sg.mean_batch(grid, xs)
    slacks = []
    for length in bs.tolist():
        heads, tails, gaps = _windows(sg, xs, grid, means, length)
        slacks.append(min_eig([np.stack([g + h, t - g]) for h, t, g in zip(heads, tails, gaps)]))
    return np.stack(slacks, axis=1) if np.ndim(b) else slacks[0]


def sandwich_check(sg: Semigroup, x: Operator, a: float, b: float) -> tuple[float, float]:
    """(lower, upper) slacks of :func:`sandwich_slacks` for one a and one x."""
    return tuple(float(s[0, 0]) for s in sandwich_slacks(sg, stack_blocks([x]), [a], b))


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrigTerm:
    """One term kappa * exp(2 pi i theta t)."""

    kappa: complex
    theta: float


def trig_value(terms: Sequence[TrigTerm], ts: np.ndarray) -> np.ndarray:
    ts = np.asarray(ts, dtype=float)
    out = np.zeros(ts.shape, dtype=complex)
    for term in terms:
        out += term.kappa * np.exp(2j * math.pi * term.theta * ts)
    return out


@dataclass(frozen=True)
class Residual:
    """A residual r(t) that declares its kinks: ``kinks(T)`` holds the points
    of (0, T) where r or |r| is not smooth (points outside are ignored), at
    most ``MAX_KINKS`` of them.  The quadrature cuts its panels there.  A
    residual that is itself a trigonometric polynomial also declares its
    ``terms``, and its average is then taken in closed form; it may declare
    ``mean_abs(T)`` = (1/T) integral_0^T |r| as well, which then replaces
    the scalar quadrature."""

    func: Callable[[np.ndarray], np.ndarray]
    kinks: Callable[[float], Sequence[float]] = lambda T: ()
    terms: tuple[TrigTerm, ...] | None = None
    mean_abs: Callable[[float], float] | None = None

    def __call__(self, ts: np.ndarray) -> np.ndarray:
        return self.func(ts)


@dataclass(frozen=True)
class BesicovitchWeight:
    """Trigonometric polynomial plus a bounded residual.

    ``value(t) = sum_j kappa_j exp(2 pi i theta_j t) + residual(t)``.  The
    residual must accept numpy arrays and stay below ``residual_sup`` in
    modulus; ``sup_bound`` is the declared bound on the whole weight
    (defaults to sum |kappa_j| + residual_sup).  The residual is stored as a
    :class:`Residual`: a plain callable is wrapped as one that declares no
    kinks, no terms and no mean of |r|.
    """

    terms: tuple[TrigTerm, ...]
    residual: Residual | None = None
    residual_sup: float = 0.0
    sup_bound: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))
        if self.residual is not None and not isinstance(self.residual, Residual):
            object.__setattr__(self, "residual", Residual(self.residual))
        if self.residual is None and self.residual_sup != 0.0:
            raise ValueError("residual_sup without a residual")
        if self.sup_bound is None:
            bound = sum(abs(t.kappa) for t in self.terms) + self.residual_sup
            object.__setattr__(self, "sup_bound", float(bound))

    @classmethod
    def constant(cls, value: complex) -> "BesicovitchWeight":
        return cls((TrigTerm(complex(value), 0.0),))

    def value(self, ts: np.ndarray) -> np.ndarray:
        out = trig_value(self.terms, ts)
        if self.residual is not None:
            out = out + np.asarray(self.residual(np.asarray(ts, dtype=float)), dtype=complex)
        return out

    def sup_violation(self, ts: np.ndarray) -> float:
        """max sampled |b(t)| minus the declared bound (negative when fine)."""
        return float(np.max(np.abs(self.value(ts))) - self.sup_bound)

    def _mapped(self, term_map, residual_map) -> "BesicovitchWeight":
        """The weight with terms ``term_map(term)`` (each a tuple of terms) and
        residual ``residual_map(r)``, under the same sup bounds and kinks; the
        residual's declared terms go through ``term_map`` too, and its mean
        of |r| is not carried over (|Re r| is not |r|)."""

        def mapped(terms):
            return tuple(new for t in terms for new in term_map(t))

        res, orig = None, self.residual
        if orig is not None:
            res = Residual(
                lambda ts: residual_map(np.asarray(orig(ts))).astype(complex),
                orig.kinks,
                None if orig.terms is None else mapped(orig.terms),
            )
        return BesicovitchWeight(mapped(self.terms), res, self.residual_sup, self.sup_bound)

    def conjugated(self) -> "BesicovitchWeight":
        return self._mapped(lambda t: (TrigTerm(t.kappa.conjugate(), -t.theta),), np.conj)

    def real_part(self) -> "BesicovitchWeight":
        return self._mapped(lambda t: _real_terms(t.kappa, t.theta), np.real)

    def imag_part(self) -> "BesicovitchWeight":
        # Im(kappa e) = Re(-i kappa e)
        return self._mapped(lambda t: _real_terms(-1j * t.kappa, t.theta), np.imag)


def _real_terms(kappa: complex, theta: float) -> tuple[TrigTerm, TrigTerm]:
    """Re(kappa exp(2 pi i theta t)) as two terms."""
    return TrigTerm(0.5 * kappa, theta), TrigTerm((0.5 * kappa).conjugate(), -theta)


@dataclass(frozen=True)
class BesicovitchErrorTable:
    """Local mean errors (1/T) integral_0^T |b - P| dt over a shrinking grid;
    ``errors`` holds the relative error the quadrature achieved on each row
    (0 on rows whose residual declares the mean in closed form)."""

    rows: tuple[tuple[float, float], ...]
    tail_sup: float
    errors: tuple[float, ...]


def _mean_abs_residual(b: BesicovitchWeight, T: float) -> tuple[float, float]:
    """(1/T) integral_0^T |r(t)| dt for the residual r = b - P, with the
    relative error :func:`integrate_scalar` achieved; (0, 0) without one,
    and error 0 when the residual declares this mean in closed form."""
    if b.residual is None:
        return 0.0, 0.0
    if b.residual.mean_abs is not None:
        return b.residual.mean_abs(T), 0.0
    return _quadrature_mean_abs(b, T)


def _quadrature_mean_abs(b: BesicovitchWeight, T: float) -> tuple[float, float]:
    """(1/T) integral_0^T |r| for the residual r of b, by :func:`integrate_scalar`
    cut at the kinks of r, with its achieved relative error."""
    val, err = integrate_scalar(lambda ts: np.abs(b.residual(ts)), 0.0, T, b.residual.kinks(T))
    return val / T, err


def _mean_abs_cos(amp: float, freq: float, T: float) -> float:
    """(1/T) integral_0^T |amp cos(freq t)| dt = |amp| (2k + (-1)^k sin u) / u,
    with u = |freq| T and k = floor(u / pi + 1/2) the zeros of cos in (0, u];
    |amp| at u = 0."""
    u = abs(freq) * T
    if u == 0:
        return abs(amp)
    k = math.floor(u / math.pi + 0.5)
    return abs(amp) * (2 * k + (-1) ** k * math.sin(u)) / u


def declared_mean_abs_gap(b: BesicovitchWeight, T: float) -> float:
    """|declared - quadrature| for (1/T) integral_0^T |r| of the residual r
    of b: the closed form its residual declares against
    :func:`integrate_scalar`; 0 when it declares none."""
    if b.residual is None or b.residual.mean_abs is None:
        return 0.0
    return abs(b.residual.mean_abs(T) - _quadrature_mean_abs(b, T)[0])


def besicovitch_error(b: BesicovitchWeight, T_grid: Sequence[float]) -> BesicovitchErrorTable:
    """Local mean gap (1/T) integral_0^T |b - P| dt between a weight and its
    trigonometric polynomial P, which is the mean of the residual's modulus.

    ``T_grid`` must decrease toward zero; the tail supremum over
    :func:`grid_tail` stands in for the limit superior at zero and is
    reported next to the full table so the approach to zero can be judged.
    """
    grid = [float(T) for T in T_grid]
    if not grid:
        raise ValueError("T_grid must hold at least one T")
    if any(t2 >= t1 for t1, t2 in zip(grid, grid[1:])) or any(t <= 0 for t in grid):
        raise ValueError("T_grid must be positive and strictly decreasing")
    means = [_mean_abs_residual(b, T) for T in grid]
    rows = tuple((T, v) for T, (v, _) in zip(grid, means))
    tail = grid_tail(rows)
    return BesicovitchErrorTable(rows, max(v for _, v in tail), tuple(e for _, e in means))


def grid_tail(rows: Sequence) -> Sequence:
    """The last ``TAIL_SHARE`` of the rows of a decreasing T grid, rounded up:
    the members that stand in for T -> 0 (one at least for a nonempty grid)."""
    return rows[-math.ceil(TAIL_SHARE * len(rows)):]


def substitution_bound_checks(
    sg: Semigroup,
    weights: Sequence[BesicovitchWeight],
    xs: Sequence[np.ndarray],
    Ts: Sequence[float],
) -> np.ndarray:
    """Compare weighted averages against their trigonometric substitutes,
    case c pairing ``weights[c]``, input c of a (k, n, n) stack and ``Ts[c]``.

    Returns a (k, 3) array of rows (lhs, rhs, quad_error).  The b- and
    P-weighted averages of a positive bounded x differ by the residual's
    average, so lhs is the operator norm of (1/T) integral_0^T r(t) a_t(x) dt;
    rhs = 2 * ((1/T) integral_0^T |r|) * ||x||, and quad_error is the relative
    error :func:`integrate_scalar` achieved on that mean gap (0 where the
    residual declares it in closed form).  The factor two
    absorbs the norm growth of the extended flow on non-self-adjoint parts;
    the contract is lhs <= rhs up to quadrature error.  Every input must be
    positive at ``INPUT_TOL`` (``ValueError`` names the first case that is
    not).  The residual averages come from one :meth:`Semigroup.mean_batch`
    per term index where the residuals declare their terms, and the lhs
    norms and ||x|| from one batched SVD per block each.
    """
    xs = [np.asarray(a, dtype=complex) for a in xs]
    Ts = np.asarray(Ts, dtype=float)
    if Ts.shape != (len(weights),) or len(xs[0]) != len(weights):
        raise ValueError("substitution bound needs one weight, input and length per case")
    fails = hermitian_defects(xs, INPUT_TOL, positive=True)[0]
    if fails.any():
        raise ValueError(
            f"substitution bound needs a positive operator (case {int(np.argmax(fails))})"
        )
    lhs = op_norms([y[0] for y in _residual_means(sg, weights, xs, Ts[None, :])])
    gaps = np.reshape([_mean_abs_residual(b, float(T)) for b, T in zip(weights, Ts)], (-1, 2))
    return np.column_stack([lhs, 2.0 * gaps[:, 0] * op_norms(xs), gaps[:, 1]])


def substitution_bound_check(
    sg: Semigroup, b: BesicovitchWeight, x: Operator, T: float
) -> tuple[float, float, float]:
    """(lhs, rhs, quad_error) of :func:`substitution_bound_checks` for one
    weight, one positive x and one T."""
    return tuple(float(v) for v in substitution_bound_checks(sg, [b], _one_input(sg, x), [T])[0])


# ---------------------------------------------------------------------------
# weight config loading
# ---------------------------------------------------------------------------

# the keys each residual reads besides "name"
_RESIDUAL_KEYS = {
    "none": (),
    "constant": ("value",),
    "cos": ("amplitude", "frequency"),
    "sin_inv_t": ("amplitude",),
    "linear_capped": ("slope", "cap"),
}


def residual_from_config(spec: dict | None) -> tuple[Residual | None, float]:
    """Named built-in residuals: none, constant, cos, sin_inv_t, linear_capped.
    Every number in ``spec`` must be finite and every key one its residual
    reads (``ConfigError`` otherwise).

    Each declares its kinks in (0, T): the zeros (k + 1/2) pi / |omega| of
    cos(omega t), the corner cap / slope of linear_capped when positive, and
    none for constant and sin_inv_t (whose oscillation at 0 no finite set of
    kinks resolves).  constant c declares the term c and cos (a, omega) the
    terms a/2 at theta = +-omega / 2 pi, so their averages are closed forms;
    linear_capped and sin_inv_t declare none and go through the quadrature.
    constant and cos also declare the mean (1/T) integral_0^T |r| of the
    local mean gap: |c|, and |a| (2k + (-1)^k sin u) / u with u = |omega| T
    and k = floor(u / pi + 1/2) (|a| at omega = 0); the other two take it
    from the scalar quadrature.
    """
    require_finite(spec, "residual")
    if spec is None:
        return None, 0.0
    name = spec.get("name", "none")
    if name in _RESIDUAL_KEYS:
        require_keys(spec, ("name", *_RESIDUAL_KEYS[name]), f"{name} residual")
    if name == "none":
        return None, 0.0
    if name == "constant":
        value = complex(spec.get("value", 0.0))
        terms = (TrigTerm(value, 0.0),)
        return Residual(
            lambda ts: np.full(np.shape(ts), value), terms=terms, mean_abs=lambda T: abs(value)
        ), abs(value)
    if name == "cos":
        amp = float(spec.get("amplitude", 0.1))
        freq = float(spec.get("frequency", 1.0))

        def zeros(T):
            count = T * abs(freq) / math.pi + 0.5
            if freq == 0 or not count < MAX_KINKS:
                return ()
            return (np.arange(math.floor(count)) + 0.5) * (math.pi / abs(freq))

        # a cos(omega t) = (a/2) (exp(i omega t) + exp(-i omega t))
        theta = freq / (2.0 * math.pi)
        terms = (TrigTerm(complex(amp / 2.0), theta), TrigTerm(complex(amp / 2.0), -theta))
        return Residual(
            lambda ts: amp * np.cos(freq * np.asarray(ts)),
            zeros,
            terms,
            lambda T: _mean_abs_cos(amp, freq, T),
        ), abs(amp)
    if name == "sin_inv_t":
        amp = float(spec.get("amplitude", 0.1))

        def res(ts):
            ts = np.asarray(ts, dtype=float)
            out = np.zeros_like(ts)
            nz = ts > 0
            out[nz] = amp * np.sin(1.0 / ts[nz])
            return out

        return Residual(res), abs(amp)
    if name == "linear_capped":
        slope = float(spec.get("slope", 1.0))
        cap = float(spec.get("cap", 1.0))
        corner = cap / slope if slope != 0 else 0.0
        # r is monotone, so its sup on [0, 1] is at an endpoint: |min(0, cap)| <= |cap|
        return Residual(
            lambda ts: np.minimum(slope * np.asarray(ts, dtype=float), cap),
            lambda T: (corner,) if corner > 0 else (),
        ), max(abs(cap), abs(min(slope, cap)))
    raise ValueError(f"unknown residual: {name!r}")


def weight_from_config(spec: dict) -> BesicovitchWeight:
    """Trigonometric terms, residual and sup bound from a config mapping whose
    numbers must all be finite and whose keys, and those of each trig term,
    must be ones it reads (``ConfigError`` otherwise).

    A declared ``sup_bound`` that |b(t)| exceeds at one of ``SUP_SAMPLES``
    points of [0, 1] is false, and is rejected with ``ConfigError``; an
    excess within ``SUP_SLACK`` is roundoff of a tight bound.
    """
    require_finite(spec, "weight")
    require_keys(spec, ("trig", "residual", "sup_bound"), "weight")
    for i, t in enumerate(spec.get("trig", [])):
        require_keys(t, ("kappa_re", "kappa_im", "theta"), f"weight.trig[{i}]")
    terms = tuple(
        TrigTerm(complex(t.get("kappa_re", 0.0), t.get("kappa_im", 0.0)), float(t["theta"]))
        for t in spec.get("trig", [])
    )
    residual, res_sup = residual_from_config(spec.get("residual"))
    sup_bound = spec.get("sup_bound")
    b = BesicovitchWeight(
        terms,
        residual,
        res_sup,
        float(sup_bound) if sup_bound is not None else None,
    )
    excess = b.sup_violation(np.linspace(0.0, 1.0, SUP_SAMPLES))
    if excess > SUP_SLACK * (sum(abs(t.kappa) for t in terms) + res_sup):
        raise ConfigError(
            f"weight.sup_bound={b.sup_bound!r} is below the sampled sup of |b(t)| "
            f"on [0, 1], {b.sup_bound + excess:.6g}"
        )
    return b
