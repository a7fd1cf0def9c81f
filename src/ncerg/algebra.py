"""Block-diagonal matrix algebras with weighted traces.

A :class:`TracialAlgebra` is a finite direct sum of full complex matrix
blocks, each carrying a strictly positive trace weight.  Elements are
:class:`Operator` instances; the weighted trace, the p-norms built from it,
absolute values, spectral resolutions, spectral projections and lattice meets
of projections all live in this module, and so does the package's one rule
for self-adjoint and positive inputs (:func:`hermitian_defects`).  Operator
norms come from one function, :func:`op_norms`, which gives a member that is
exactly 0 norm 0 without an SVD; the self-adjointness, positivity and
projection gates clear members by a Frobenius screen before it.  Every
:class:`Projection`, each meet included, comes from its one constructor,
which checks it, and every co-trace is one exact weighted count of dropped
dimensions (:func:`_cotraces`).  The per-block functions take one array
(..., n, n) per block with any leading axes, and their results have the
shape of those axes (none for an :class:`Operator`'s blocks); the meets
consume the last one, the members.
:func:`random_operators` draws k inputs at once, and
:func:`normalized_draws` makes them positive or self-adjoint and
normalizes them with one :func:`op_norms`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

# Numerical cutoffs.  "Relative" means times the operator scale max(||x||, 1e-14).
SELF_ADJOINT_TOL = 1e-10  # relative cap on ||x - x*||, and floor -tol on the spectrum of herm x
INPUT_TOL = 1e-8  # the same relative rule, looser, for inputs of certificates and checks
PROJECTION_TOL = 1e-8  # absolute cap on the idempotency and self-adjointness residuals
SPECTRAL_INCLUDE = 1e-12  # absolute slack of spectral cuts: eigenvalues within it stay below
MEET_RANK_TOL = 1e-8  # singular values below it times the block dimension count as zero
SCREEN_MARGIN = 1e-6  # relative margin of the Frobenius screens for the roundoff of their sums
SCREEN_FLOOR = 1e-150  # screens clear nothing below this bound (sums of squares may underflow)

__all__ = [
    "AlgebraMismatchError",
    "TracialAlgebra",
    "Operator",
    "Projection",
    "SpectralResolution",
    "trace",
    "traces",
    "pnorm",
    "pnorms",
    "spectral_sums",
    "power_traces",
    "abs_value",
    "spectral_resolution",
    "spectral_projection",
    "proj_meet",
    "meet_all",
    "meet_complements",
    "stack_blocks",
    "op_norms",
    "min_eig",
    "hermitian_defects",
    "screened_norms",
    "random_operator",
    "random_operators",
    "random_self_adjoint",
    "random_positive",
    "normalized_draws",
    "random_projection",
    "operator_to_dict",
    "operator_from_dict",
    "vec",
    "unvec",
    "vecs",
    "unvecs",
]


class AlgebraMismatchError(ValueError):
    """Raised when operator blocks do not match the algebra they are used with."""


@dataclass(frozen=True)
class TracialAlgebra:
    """Direct sum of full matrix blocks with a weighted block trace.

    Parameters
    ----------
    blocks:
        Block dimensions, each >= 1.
    weights:
        Strictly positive trace weight per block.  The trace of an element is
        ``sum_i weights[i] * tr(block_i)``, so the trace of the identity is
        ``sum_i weights[i] * blocks[i]``.
    """

    blocks: tuple[int, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", tuple(int(n) for n in self.blocks))
        object.__setattr__(self, "weights", tuple(float(c) for c in self.weights))
        if len(self.blocks) == 0:
            raise ValueError("algebra needs at least one block")
        if len(self.blocks) != len(self.weights):
            raise ValueError("one weight per block required")
        if any(n < 1 for n in self.blocks):
            raise ValueError("block dimensions must be >= 1")
        if any(not (c > 0) for c in self.weights):
            raise ValueError("trace weights must be > 0")

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def trace_of_identity(self) -> float:
        return float(sum(c * n for c, n in zip(self.weights, self.blocks)))

    @cached_property
    def vec_dim(self) -> int:
        """Dimension of the algebra viewed as a complex vector space."""
        return sum(n * n for n in self.blocks)

    @cached_property
    def vec_offsets(self) -> tuple[int, ...]:
        offs = [0]
        for n in self.blocks:
            offs.append(offs[-1] + n * n)
        return tuple(offs)

    def identity(self) -> Operator:
        return Operator(self, [np.eye(n, dtype=complex) for n in self.blocks])

    def zero(self) -> Operator:
        return Operator(self, [np.zeros((n, n), dtype=complex) for n in self.blocks])


class Operator:
    """Element of a :class:`TracialAlgebra`: one complex matrix per block.

    Instances are immutable; all arithmetic returns new operators.
    """

    __slots__ = ("algebra", "blocks")

    def __init__(self, algebra: TracialAlgebra, blocks: Sequence[np.ndarray]):
        if len(blocks) != algebra.n_blocks:
            raise AlgebraMismatchError(
                f"expected {algebra.n_blocks} blocks, got {len(blocks)}"
            )
        mats = []
        for n, b in zip(algebra.blocks, blocks):
            arr = np.array(b, dtype=complex)
            if arr.shape != (n, n):
                raise AlgebraMismatchError(
                    f"block of shape {arr.shape} does not match dimension {n}"
                )
            arr.setflags(write=False)
            mats.append(arr)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "blocks", tuple(mats))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Operator is immutable")

    # -- arithmetic -------------------------------------------------------
    def _check(self, other: "Operator") -> None:
        if self.algebra != other.algebra:
            raise AlgebraMismatchError("operators live in different algebras")

    def __add__(self, other: "Operator") -> "Operator":
        self._check(other)
        return Operator(self.algebra, [a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other: "Operator") -> "Operator":
        self._check(other)
        return Operator(self.algebra, [a - b for a, b in zip(self.blocks, other.blocks)])

    def __neg__(self) -> "Operator":
        return Operator(self.algebra, [-a for a in self.blocks])

    def __mul__(self, scalar: complex) -> "Operator":
        return Operator(self.algebra, [a * scalar for a in self.blocks])

    __rmul__ = __mul__

    def __truediv__(self, scalar: complex) -> "Operator":
        return Operator(self.algebra, [a / scalar for a in self.blocks])

    def __matmul__(self, other: "Operator") -> "Operator":
        self._check(other)
        return Operator(self.algebra, [a @ b for a, b in zip(self.blocks, other.blocks)])

    @property
    def H(self) -> "Operator":
        """Adjoint (conjugate transpose blockwise)."""
        return Operator(self.algebra, [a.conj().T for a in self.blocks])

    def herm(self) -> "Operator":
        """Hermitian part (x + x*)/2."""
        return Operator(
            self.algebra, [(a + a.conj().T) / 2.0 for a in self.blocks]
        )

    # -- predicates and scalars -------------------------------------------
    def norm_inf(self) -> float:
        """Largest singular value across blocks (the operator norm)."""
        return float(op_norms(self.blocks))

    def self_adjoint_defect(self) -> float:
        return (self - self.H).norm_inf()

    def is_self_adjoint(self, tol: float = SELF_ADJOINT_TOL) -> bool:
        return not hermitian_defects(self.blocks, tol)[0]

    def is_positive(self, tol: float = SELF_ADJOINT_TOL) -> bool:
        return not hermitian_defects(self.blocks, tol, positive=True)[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Operator(blocks={self.algebra.blocks}, norm={self.norm_inf():.3g})"


def stack_blocks(ops: Sequence[Operator]) -> list[np.ndarray]:
    """Per-block stacks (m, n, n) of m operators, in order: the one form a
    family takes inside the package (empty for no operators)."""
    return [np.stack(blocks) for blocks in zip(*(x.blocks for x in ops))]


def op_norms(stacks: Sequence[np.ndarray]) -> np.ndarray:
    """Operator norm of every member of per-block (..., n, n) arrays, one
    batched SVD per block (the first of the descending singular values).

    A member that is exactly 0 in a block adds norm 0 there without an SVD;
    a block with no such member goes to the SVD whole, without a copy.
    """
    rows = [np.zeros(a.shape[:-2]) for a in stacks]
    for row, a in zip(rows, stacks):
        live = np.any(a, axis=(-2, -1))
        if live.all():
            row[...] = np.linalg.svd(a, compute_uv=False)[..., 0]
        elif live.any():
            row[live] = np.linalg.svd(a[live], compute_uv=False)[..., 0]
    return np.max(rows, axis=0)


def min_eig(x: Operator | Sequence[np.ndarray]) -> float | np.ndarray:
    """Minimum eigenvalue of the hermitian part over all blocks: of ``x``, or of
    every member of a per-block stacked family (one batched eigvalsh per block)."""
    herm = [(a + a.conj().swapaxes(-1, -2)) / 2.0 for a in getattr(x, "blocks", x)]
    low = np.min([np.linalg.eigvalsh(h)[..., 0] for h in herm], axis=0)
    return float(low) if isinstance(x, Operator) else low


def hermitian_defects(
    stacks: Sequence[np.ndarray], tol: float, positive: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one self-adjointness and positivity rule, per member of per-block
    (..., n, n) arrays: a member fails when ||x - x*||, or with ``positive``
    the negative part of the spectrum of herm x, exceeds bound = tol *
    max(||x||, 1e-14).  Returns (fails, ||x - x*||, bound).

    The members go through :func:`screened_norms` at the bound tol max(L,
    1e-14), L the largest column norm of x; with ``positive`` a member whose
    least eigenvalue of herm x is below -bound / (1 + ``SCREEN_MARGIN``)
    gets screen bound 0.  As L <= ||x||, a member the screen clears (every
    member whose skew part is exactly 0, whose bound is in range and whose
    spectrum clears it) passes the SVD rule too, and its screen values are
    its defect and bound.  Every other member takes the SVD rule, so the
    decisions are the rule's.
    """
    skew = [a - a.conj().swapaxes(-1, -2) for a in stacks]
    with np.errstate(over="ignore"):  # an inf column norm clears nothing
        lower = np.max([np.linalg.norm(a, axis=-2).max(axis=-1) for a in stacks], axis=0)
    bound = np.asarray(tol * np.maximum(lower, 1e-14))
    low = min_eig(stacks) if positive else np.inf
    (defect,), opened = screened_norms(
        [skew], np.where(low < -bound / (1.0 + SCREEN_MARGIN), 0.0, bound)
    )
    if opened.any():
        bound[opened] = tol * np.maximum(op_norms([a[opened] for a in stacks]), 1e-14)
    return (defect > bound) | (low < -bound), defect, bound


def screened_norms(
    families: Sequence[Sequence[np.ndarray]], bound: np.ndarray | float
) -> tuple[list[np.ndarray], np.ndarray]:
    """Operator norms of one or more residual families, each per-block
    (..., n, n) arrays of the same members, for a gate whose decision alone
    is read.  A member whose Frobenius norms in every family and block,
    raised by ``SCREEN_MARGIN``, are at most its ``bound`` gets those
    Frobenius norms, which bound the operator norms from above, and no SVD.
    Every other member, and every member whose bound is not finite or below
    ``SCREEN_FLOOR``, gets :func:`op_norms`.  Either way a residual that is
    exactly 0 gets norm 0 without an SVD.  Returns (the norms of each
    family, the mask of members given :func:`op_norms` norms).

    The margin covers the roundoff of the sums of squares; a norm of a
    residual whose squares overflow is inf and clears nothing.  The floor
    keeps the screen from reading sums of squares that underflow: below it
    the margin no longer covers the absolute error of the subnormal squares.
    """
    norms = [np.zeros(families[0][0].shape[:-2]) for _ in families]
    with np.errstate(over="ignore"):
        for row, stacks in zip(norms, families):
            for a in stacks:
                np.maximum(row, np.linalg.norm(a, axis=(-2, -1)), out=row)
    cleared = np.max(norms, axis=0) * (1.0 + SCREEN_MARGIN) <= bound
    opened = ~(cleared & (SCREEN_FLOOR <= bound) & (bound < np.inf))
    if opened.any():
        for row, stacks in zip(norms, families):
            row[opened] = op_norms([a[opened] for a in stacks])
    return norms, opened


# ---------------------------------------------------------------------------
# trace and p-norms
# ---------------------------------------------------------------------------

def trace(alg: TracialAlgebra, x: Operator) -> complex:
    """Weighted trace ``sum_i c_i tr(x_i)``.

    Linear in ``x`` and real on self-adjoint inputs (up to roundoff).
    """
    if x.algebra != alg:
        raise AlgebraMismatchError("operator does not belong to this algebra")
    return complex(traces(alg, x.blocks))


def traces(alg: TracialAlgebra, stacks: Sequence[np.ndarray]) -> np.ndarray:
    """Weighted trace of every member of per-block (..., n, n) stacks."""
    return sum(c * np.trace(a, axis1=-2, axis2=-1) for c, a in zip(alg.weights, stacks))


def pnorm(
    alg: TracialAlgebra, x: Operator | Sequence[np.ndarray], p: float
) -> float | list[float]:
    """p-norm ``tau(|x|^p)^(1/p)`` of ``x``, or the list of those of every
    member of per-block (m, n, n) stacks; ``p = inf`` gives the operator norm.

    Computed by :func:`pnorms` from singular values, one batched SVD per
    block, with each block's contribution weighted by its trace weight.
    ``p < 1`` is rejected.
    """
    one = isinstance(x, Operator)
    if one and x.algebra != alg:
        raise AlgebraMismatchError("operator does not belong to this algebra")
    blocks = getattr(x, "blocks", x)
    svals = [np.linalg.svd(a, compute_uv=False).reshape(-1, a.shape[-1]) for a in blocks]
    norms = pnorms(alg, svals, p)
    return norms[0] if one else norms


def pnorms(alg: TracialAlgebra, svals: Sequence[np.ndarray], p: float) -> list[float]:
    """p-norms of m operators from their singular values.

    ``svals`` holds one array per block with shape (m, n), the descending
    rows ``np.linalg.svd`` returns for a stack of m block matrices; entry k
    of the result is :func:`pnorm` of operator k.  The norm is the root of
    the scaled :func:`spectral_sums`, scaled back by 2^e, so no p-norm in
    range overflows or underflows.  At p = 2 the root is ``math.sqrt``,
    which is correctly rounded (``pow`` is not), and at p = 1 the identity;
    both commute exactly with the scaling, so at p = 1 and 2 a norm in the
    normal range has the bits of the root of the unscaled sum.
    """
    if p != math.inf and p < 1:
        raise ValueError("p must be >= 1 or inf")
    if p == math.inf:
        return np.max([s[:, 0] for s in svals], axis=0).tolist()
    total, exps = spectral_sums(alg, svals, p)
    root = math.sqrt if p == 2 else lambda v: v ** (1.0 / p)
    return [math.ldexp(root(s), e) for s, e in zip(total.tolist(), exps.tolist())]


def spectral_sums(
    alg: TracialAlgebra, spectra: Sequence[np.ndarray], p: float
) -> tuple[np.ndarray, np.ndarray]:
    """The weighted spectral sum tau(|y|^p) = sum_i c_i sum_j v_ij^p of every
    member, from its values v >= 0 per block ((..., n) arrays: singular
    values, |eigenvalues| or indicators), as (sums, exponents) with
    tau(|y|^p) = sums * 2^(exponents p).

    Each member is scaled by 2^-e before the powers, where 2^e times a
    mantissa in [0.5, 1) is its largest value (``np.frexp``), so the sums lie
    in [0, tau(1)] and neither overflow nor underflow.  At p = 1 and 2 the
    scaling is exact: scaled back, the sums keep the bits of unscaled ones.
    """
    exps = np.frexp(np.max([v.max(axis=-1) for v in spectra], axis=0))[1]
    total = sum(
        c * np.sum(np.ldexp(v, -exps[..., None]) ** p, axis=-1)
        for c, v in zip(alg.weights, spectra)
    )
    return total, exps


def power_traces(alg: TracialAlgebra, spectra: Sequence[np.ndarray], p: float) -> np.ndarray:
    """tau(|y|^p) of every member from its values per block: the
    :func:`spectral_sums` scaled back, inf or 0 out of range."""
    total, exps = spectral_sums(alg, spectra, p)
    with np.errstate(over="ignore", invalid="ignore"):
        return total * np.ldexp(1.0, exps) ** p


def _cotraces(alg: TracialAlgebra, dropped: Sequence[np.ndarray]) -> np.ndarray:
    """Co-trace sum_i c_i k_i of every member of projections that drop k_i
    dimensions of block i, from the integer counts ``dropped`` (one array of
    the members' shape per block): the one count of every co-trace, of
    :meth:`SpectralResolution.cut_cotrace`, :func:`meet_complements`,
    :func:`random_projection` and a :class:`Projection` given none."""
    return sum(c * k for c, k in zip(alg.weights, dropped))


def abs_value(x: Operator | Sequence[np.ndarray]) -> Operator | list[np.ndarray]:
    """Positive square root of ``x* x``: of an operator, or of every member
    of a per-block stacked family (one batched ``eigh`` per block)."""
    blocks = []
    for a in x.blocks if isinstance(x, Operator) else x:
        w, v = np.linalg.eigh(a.conj().swapaxes(-1, -2) @ a)
        w = np.sqrt(np.clip(w, 0.0, None))
        blocks.append((v * w[..., None, :]) @ v.conj().swapaxes(-1, -2))
    return Operator(x.algebra, blocks) if isinstance(x, Operator) else blocks


# ---------------------------------------------------------------------------
# spectral machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralResolution:
    """Eigendecomposition of a self-adjoint operator, or of per-block arrays.

    ``eigenvalues[i]`` is the ascending spectrum of block ``i`` and
    ``eigenvectors[i]`` the matching orthonormal eigenvector columns, with the
    input's leading axes ((..., n) and (..., n, n) per block).
    """

    algebra: TracialAlgebra
    eigenvalues: tuple[np.ndarray, ...]
    eigenvectors: tuple[np.ndarray, ...]

    def cut_cotrace(self, level: float | Sequence[float]) -> float | np.ndarray:
        """Co-trace of :func:`spectral_projection` at ``level``, one per member
        of a stacked resolution: the weighted count of dropped eigenvalues."""
        return _cotraces(self.algebra, [d.sum(axis=-1) for d in self._drops(level)])

    def _drops(self, level: float | Sequence[float]) -> list[np.ndarray]:
        top = np.asarray(level, dtype=float)[..., None] + SPECTRAL_INCLUDE
        return [w > top for w in self.eigenvalues]


def spectral_resolution(
    x: Operator | Sequence[np.ndarray], alg: TracialAlgebra | None = None
) -> SpectralResolution:
    """Eigendecomposition of a (numerically) self-adjoint operator, or of
    every member of per-block (..., n, n) arrays of ``alg``, one batched
    ``eigh`` per block.

    The input may carry roundoff; it is symmetrized before decomposition, but
    a member that fails :func:`hermitian_defects` at ``SELF_ADJOINT_TOL`` is
    rejected.
    """
    alg = getattr(x, "algebra", alg)
    if alg is None:
        raise ValueError("a stacked family needs its algebra")
    stacks = getattr(x, "blocks", x)
    fails, defect, bound = hermitian_defects(stacks, SELF_ADJOINT_TOL)
    if fails.any():
        i = np.unravel_index(np.argmax(fails), fails.shape)
        raise ValueError(
            f"operator is not self-adjoint within tolerance "
            f"({defect[i]:.3e} > {bound[i]:.3e})"
        )
    ws, vs = zip(*(np.linalg.eigh((a + a.conj().swapaxes(-1, -2)) / 2.0) for a in stacks))
    return SpectralResolution(alg, ws, vs)


class Projection:
    """Idempotent self-adjoint element, checked to PROJECTION_TOL on construction
    (:func:`_check_projections`); every projection is made here, meets included.

    ``cotrace`` is the weighted trace of the complement ``1 - p``, the exact
    weighted count of the dimensions p drops: given by the caller that knows
    them (a cut, a meet or a random projection), else counted from the ranks
    the check has just accepted, n_i - round(tr p_i) in block i.
    """

    __slots__ = ("op", "cotrace")

    def __init__(self, op: Operator, cotrace: float | None = None):
        _check_projections(op.blocks)
        object.__setattr__(self, "op", op)
        if cotrace is None:
            alg = op.algebra
            cotrace = _cotraces(alg, [n - r for n, r in zip(alg.blocks, self.ranks())])
        object.__setattr__(self, "cotrace", float(cotrace))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Projection is immutable")

    @property
    def algebra(self) -> TracialAlgebra:
        return self.op.algebra

    def ranks(self) -> tuple[int, ...]:
        return tuple(int(round(np.trace(a).real)) for a in self.op.blocks)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Projection(ranks={self.ranks()}, cotrace={self.cotrace:.6g})"


def _check_projections(blocks: Sequence[np.ndarray]) -> None:
    """The :class:`Projection` rule for every member of per-block (..., n, n)
    arrays: idempotency and self-adjointness residuals at most
    ``PROJECTION_TOL``, one batched norm per block for each; raises on the
    worst member.  When every member is diagonal with entries exactly 0 or 1
    in every block (as one that is exactly 0 or the identity there), each is
    exactly a projection and the check returns at once, forming no residual.
    Otherwise the norms come from :func:`screened_norms` at
    ``PROJECTION_TOL``, which screens a member's two residuals together: a
    member it clears passes the SVD rule too, and a member it does not clear
    gets SVD norms for both, so the decision and the worst member's
    residuals are the SVD rule's.  A member that is exactly 0 or exactly the
    identity in a block has residuals exactly 0 there, which take no SVD."""
    if all(((e == 0) | (e == np.eye(e.shape[-1]))).all() for e in blocks):
        return
    (idem, sa), _ = screened_norms(
        [[e @ e - e for e in blocks], [e - e.conj().swapaxes(-1, -2) for e in blocks]],
        PROJECTION_TOL,
    )
    idem, sa = idem.ravel(), sa.ravel()
    worst = int(np.argmax(np.maximum(idem, sa)))
    if idem[worst] > PROJECTION_TOL or sa[worst] > PROJECTION_TOL:
        raise ValueError(
            f"not a projection: idempotency residual {idem[worst]:.3e}, "
            f"self-adjointness residual {sa[worst]:.3e} (tol {PROJECTION_TOL:.1e})"
        )


def spectral_projection(res: SpectralResolution, level: float | Sequence[float]) -> Projection:
    """Projection onto eigenvectors with eigenvalue <= ``level + SPECTRAL_INCLUDE``.

    Ties at the threshold are included, so the co-trace never exceeds the
    weighted count of eigenvalues strictly above the level.  The result is
    the meet (:func:`meet_complements`) of the cuts' rows V_d* of dropped
    eigenvectors, which have the null space and Gram matrix V_d V_d* of the
    complements: of the one cut of a single resolution, or on a stacked
    resolution, members (..., m), of the m cuts for every index of the other
    leading axes, member i cut at ``level[..., i]`` (or a shared level).
    """
    drops = res._drops(level)
    rows = [(v * d[..., None, :]).conj().swapaxes(-1, -2) for v, d in zip(res.eigenvectors, drops)]
    return meet_complements(res.algebra, [r[None] for r in rows] if drops[0].ndim == 1 else rows)


def proj_meet(p: Projection, q: Projection) -> Projection:
    """Lattice meet: projection onto ``range(p) & range(q)``; see :func:`meet_all`."""
    return meet_all([p, q])


def meet_all(projections: Iterable[Projection]) -> Projection:
    """Lattice meet of a nonempty family: projection onto the common range.

    One SVD per block of the stacked complements ``[(1-p_1); ...; (1-p_m)]``
    (:func:`meet_complements`).
    """
    ps = list(projections)
    if not ps:
        raise ValueError("meet of an empty family is undefined")
    alg = ps[0].algebra
    if any(p.algebra != alg for p in ps):
        raise AlgebraMismatchError("projections live in different algebras")
    stacks = stack_blocks([p.op for p in ps])
    return meet_complements(alg, [np.eye(n) - a for n, a in zip(alg.blocks, stacks)])


def meet_complements(
    alg: TracialAlgebra, stacks: Sequence[np.ndarray]
) -> Projection | list[Projection]:
    """Meet of projections given per block as stacks ``(m, n, n)`` of their
    complements, or of any matrices with the same null spaces; with more
    leading axes, ``(..., m, n, n)`` per block, the meets of every index of
    ``...`` as nested lists, from one batched SVD per block.  Every meet is
    made by :class:`Projection`, which checks it.

    The meet is the null space of one SVD of the ``(m n, n)`` stack (Bjorck
    and Golub 1973); singular values below ``MEET_RANK_TOL * n`` count as
    zero, a cutoff that separates it from roundoff and can widen for
    ill-conditioning.  Zero complements (identity members) leave the null
    space unchanged, and a case whose complements in a block are all zero
    meets to the identity there exactly, without an SVD.  A member whose
    complement is the whole block (rows of full rank n) leaves no null
    space, so its case meets to exactly 0 there, with co-trace c_i n_i.
    """
    lead = stacks[0].shape[:-3]
    blocks, dropped = [], []
    for n, comp in zip(alg.blocks, stacks):
        comp = comp.reshape(math.prod(lead), *comp.shape[-3:])  # m may be 0
        cut = np.any(comp, axis=(1, 2, 3))
        e = np.zeros((len(comp), n, n), dtype=complex)
        e[~cut] = np.eye(n)
        nullity = np.full(len(comp), n)
        if cut.any():
            _, s, vh = np.linalg.svd(comp[cut].reshape(int(cut.sum()), -1, n), full_matrices=False)
            null = s <= MEET_RANK_TOL * n
            basis = vh.conj().swapaxes(1, 2) * null[:, None, :]
            # + 0.0 gives the masked columns' -0.0 entries the sign of an empty sum
            e[cut] = basis @ basis.conj().swapaxes(1, 2) + 0.0
            nullity[cut] = null.sum(axis=1)
        blocks.append(e.reshape(*lead, n, n))
        dropped.append(n - nullity.reshape(lead))
    cotrace = _cotraces(alg, dropped)
    meets = np.empty(lead, dtype=object)
    for i in np.ndindex(lead):
        meets[i] = Projection(Operator(alg, [e[i] for e in blocks]), cotrace[i])
    return meets.tolist()


# ---------------------------------------------------------------------------
# random elements
# ---------------------------------------------------------------------------

def random_operators(
    alg: TracialAlgebra, rng: np.random.Generator, k: int = 1
) -> list[np.ndarray]:
    """k random operators as per-block (k, n, n) stacks, from one draw of
    ``rng`` that takes its numbers in the order of k :func:`random_operator`
    calls: operator by operator, and within one the real, then the imaginary
    Gaussian part of each block in turn."""
    raw = rng.standard_normal((k, 2 * alg.vec_dim))
    stacks, at = [], 0
    for n in alg.blocks:
        re, im = raw[:, at:at + n * n], raw[:, at + n * n:at + 2 * n * n]
        stacks.append((re + 1j * im).reshape(k, n, n) / math.sqrt(2 * n))
        at += 2 * n * n
    return stacks


def normalized_draws(
    draws: Sequence[np.ndarray], positive: bool, norm: float | None = 1.0
) -> list[np.ndarray]:
    """a a* (with ``positive``) or (a + a*)/2 for every member a of per-block
    stacks of :func:`random_operators`, scaled to operator norm ``norm`` by
    one :func:`op_norms` (members of norm 0, and all for ``norm=None``, stay)."""
    adj = [a.conj().swapaxes(1, 2) for a in draws]
    xs = [a @ b if positive else (a + b) / 2.0 for a, b in zip(draws, adj)]
    if norm is None:
        return xs
    cur = op_norms(xs)
    factor = np.divide(norm, cur, out=np.ones_like(cur), where=cur > 0)[:, None, None]
    return [a * factor for a in xs]


def random_operator(alg: TracialAlgebra, rng: np.random.Generator) -> Operator:
    return Operator(alg, [a[0] for a in random_operators(alg, rng)])


def random_self_adjoint(
    alg: TracialAlgebra, rng: np.random.Generator, norm: float | None = 1.0
) -> Operator:
    return Operator(alg, [a[0] for a in normalized_draws(random_operators(alg, rng), False, norm)])


def random_positive(
    alg: TracialAlgebra, rng: np.random.Generator, norm: float | None = 1.0
) -> Operator:
    return Operator(alg, [a[0] for a in normalized_draws(random_operators(alg, rng), True, norm)])


def random_projection(
    alg: TracialAlgebra,
    rng: np.random.Generator,
    ranks: Sequence[int] | None = None,
) -> Projection:
    blocks, dropped = [], []
    for i, n in enumerate(alg.blocks):
        r = int(rng.integers(0, n + 1)) if ranks is None else int(ranks[i])
        if r == 0:
            blocks.append(np.zeros((n, n), dtype=complex))
        else:
            a = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
            qmat, _ = np.linalg.qr(a)
            blocks.append(qmat @ qmat.conj().T)
        dropped.append(n - r)
    return Projection(Operator(alg, blocks), cotrace=_cotraces(alg, dropped))


# ---------------------------------------------------------------------------
# serialization (JSON-friendly dicts) and vectorization
# ---------------------------------------------------------------------------

def operator_to_dict(x: Operator) -> dict:
    """Schema: {"blocks": [{"dim", "re", "im"}], "weights": [...]}."""
    return {
        "blocks": [
            {
                "dim": int(a.shape[0]),
                "re": a.real.tolist(),
                "im": a.imag.tolist(),
            }
            for a in x.blocks
        ],
        "weights": list(x.algebra.weights),
    }


def operator_from_dict(data: dict, alg: TracialAlgebra | None = None) -> Operator:
    dims = tuple(int(b["dim"]) for b in data["blocks"])
    weights = tuple(float(w) for w in data.get("weights", ()))
    if alg is None:
        alg = TracialAlgebra(dims, weights if weights else tuple(1.0 for _ in dims))
    else:
        if dims != alg.blocks:
            raise AlgebraMismatchError(
                f"serialized dims {dims} do not match algebra blocks {alg.blocks}"
            )
    blocks = [
        np.asarray(b["re"], dtype=float) + 1j * np.asarray(b["im"], dtype=float)
        for b in data["blocks"]
    ]
    return Operator(alg, blocks)


def vec(x: Operator) -> np.ndarray:
    """Flatten to a single complex vector (row-major within each block)."""
    return vecs(x.blocks)


def unvec(alg: TracialAlgebra, v: np.ndarray) -> Operator:
    if v.shape != (alg.vec_dim,):
        raise AlgebraMismatchError(
            f"vector of length {v.shape} does not match algebra dimension {alg.vec_dim}"
        )
    return Operator(alg, unvecs(alg, v))


def vecs(stacks: Sequence[np.ndarray]) -> np.ndarray:
    """Per-block (..., n, n) stacks as one (..., d) array of vecs."""
    return np.concatenate([a.reshape(*a.shape[:-2], -1) for a in stacks], axis=-1)


def unvecs(alg: TracialAlgebra, v: np.ndarray) -> list[np.ndarray]:
    """(..., d) vecs as per-block (..., n, n) stacks: the inverse of :func:`vecs`."""
    off = alg.vec_offsets
    return [v[..., a:b].reshape(*v.shape[:-1], n, n) for n, a, b in zip(alg.blocks, off, off[1:])]
