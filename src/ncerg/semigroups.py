"""One-parameter semigroups of absolute contractions on the block algebra.

An absolute contraction is a positive linear map a with a(1) <= 1 and
tau(a(x)) <= tau(x) for positive x.  Five constructions are shipped:

* ``Identity``      -- a_t = id.
* ``ScalarDecay``   -- a_t(x) = exp(-rate * t) * x.
* ``UnitaryFlow``   -- a_t(x) = exp(itH) x exp(-itH) for self-adjoint H.
* ``SchurDecay``    -- entrywise damping a_t(x) = S(t) o x with
  S_jk(t) = exp(-t * c_jk); valid whenever S(t) stays positive semidefinite
  with unit-bounded diagonal.
* ``GeneratorExp``  -- a_t = exp(tL) for a matrix L acting on the vectorized
  algebra; its contraction properties are checked after the fact.

The first four share one evaluation core: block by block they act as
a_t(x) = V (exp(t Lambda) o V* x V) V* for a fixed unitary V and an entrywise
rate matrix Lambda (``o`` is the entrywise product).  Identity has Lambda = 0,
ScalarDecay Lambda = -rate, SchurDecay Lambda = -c, all with V = 1, and
UnitaryFlow takes V from the eigenbasis of H, with Lambda_jk = i (w_j - w_k).

The core takes stacks of inputs: :meth:`Semigroup.propagate_batch` maps one
(k, n, n) input stack per block to images of shape (len(ts), k, n, n), and
``propagate_stack`` and ``apply`` are its one-input case.  A T-indexed family
is such a per-block stack in grid order (``algebra.stack_blocks`` builds one
from a list of operators).

GeneratorExp takes the same pattern on the vectorized algebra with the basis of
L W = W diag(mu), which need not be unitary: a_t(x) = W (exp(t mu) o W^-1 vec x).

Every semigroup also has the closed-form mean (1/T) integral_0^T e^{st} a_t(x)
dt.  :meth:`Semigroup.mean_batch` evaluates it for a whole T grid and input
stack on the same core, with the multiplier phi1(T (Lambda + s)) in place of
exp(t Lambda) (phi1(T (mu + s)) for GeneratorExp), where phi1(z) = (e^z - 1)/z;
the lengths T and shifts s may be shared by the stack or given per input.
:meth:`Semigroup.mean` is its one-T, one-input case.

``validate_absolute_contraction`` produces a :class:`ValidationReport` that
records positivity, subunitality, trace non-increase, the semigroup law and a
continuity table.  Complete positivity is certified through the smallest
eigenvalue of the Choi matrices of the block components (``choi_min_eig``):
a semigroup with modes reads it off them, one n x n eigvalsh of
herm exp(t Lambda) per block, and GeneratorExp reads the dense Choi matrices
of ``choi_blocks`` off the columns of its d x d ``propagator``.  With modes
the Choi test is exact, as a_t is positive exactly when it is completely
positive, so a failing test fails the report; a map without modes that fails
it falls back to sampled positivity checks and is flagged as "sampled only".
Each check stacks its inputs, and the time-grid passes (the sampled checks
of the validation and local-avg's shift samples) walk their grid in slabs
from :func:`time_slabs`: consecutive times whose largest per-block image
stack (len, k, n, n) stays within ``SLAB_BYTES``, at least one time each.
The law check takes one distinct s at a time.  Witnesses of the worst
violations are recorded only above a roundoff floor that grows with kappa(W)
on the eigenbasis path.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from .algebra import (
    AlgebraMismatchError,
    Operator,
    TracialAlgebra,
    min_eig,
    op_norms,
    pnorm,
    normalized_draws,
    random_operators,
    random_self_adjoint,
    stack_blocks,
    traces,
    unvecs,
    vecs,
    operator_from_dict,
)
from .config import ConfigError, require_finite, require_keys

__all__ = [
    "Semigroup",
    "Identity",
    "ScalarDecay",
    "UnitaryFlow",
    "SchurDecay",
    "GeneratorExp",
    "ValidationReport",
    "validate_absolute_contraction",
    "continuity_modulus",
    "semigroup_law_residual",
    "choi_blocks",
    "choi_min_eig",
    "lindblad_generator",
    "semigroup_from_config",
    "time_slabs",
]

CONTRACTION_TOL = 1e-8  # cap on positivity, unitality and trace violations and on -choi_min
LAW_TOL = 1e-9  # cap on the relative semigroup-law residual ||a_t a_s - a_{t+s}||
MAX_JUMPS = 1000  # most jump operators a random Lindblad generator may draw
MAX_GENERATOR_DIM = 1280  # largest vectorized dimension sum n_i^2 a GeneratorExp may take
EIGEN_TOL = 1e-10  # cap on kappa(W) * max(backward error, eps) for GeneratorExp's eigenbasis path
SLAB_BYTES = 1 << 18  # cap on the largest per-block image stack of one time slab


def time_slabs(m: int, k: int, blocks: Sequence[int]) -> list[slice]:
    """Consecutive slices of a grid of ``m`` times for ``k`` inputs, each as
    long as ``SLAB_BYTES`` allows for the (len, k, n, n) complex images of
    the largest block, and at least one time long.  An empty grid is one
    empty slice, so a pass over it still makes its one call."""
    step = max(1, SLAB_BYTES // (16 * k * max(blocks) ** 2))
    return [slice(i, i + step) for i in range(0, max(m, 1), step)]


def phi1(z: np.ndarray | complex) -> np.ndarray:
    """(e^z - 1) / z entrywise; expm1 keeps small |z| exact.

    Below |z| = 1e-8 the series 1 + z/2 is exact to rounding (phi1(0) = 1),
    and it avoids dividing by a subnormal z, which overflows.
    """
    z = np.asarray(z, dtype=complex)
    out = np.asarray(1.0 + z / 2.0)
    big = np.abs(z) >= 1e-8
    out[big] = np.expm1(z[big]) / z[big]
    return out


def _multiplier(tt: np.ndarray, lam: np.ndarray | float, s: complex | None) -> np.ndarray:
    """exp(t Lambda) for propagation, or phi1(T (Lambda + s)) for the mean at shift s."""
    return np.exp(tt * lam) if s is None else phi1(tt * (lam + s))


def _expm(a: np.ndarray) -> np.ndarray:
    import scipy.linalg  # deferred: only the dense GeneratorExp path needs it

    return scipy.linalg.expm(a)


class Semigroup:
    """Base class: an immutable semigroup a_t(x) = V (exp(t Lambda) o V* x V) V*.

    ``modes`` holds one ``(V, Lambda)`` pair per block: V unitary, or ``None``
    for the standard basis, and Lambda an entrywise rate matrix or a scalar.
    ``_modal`` evaluates V (M o V* x V) V* for an entrywise multiplier M built
    from Lambda, on block arrays with any leading axes.  ``_stack(ts, xs, s)``
    takes per-block input stacks of shape (k, n, n), times ``ts`` of shape
    (m, 1) or (m, k) (shared or per input) and, for the mean, shifts ``s`` of
    shape (1,) or (k,), and returns arrays of shape (m, k, n, n): its
    multiplier exp(t Lambda), or phi1(t (Lambda + s)) when shifts are given,
    has shape (m, 1 or k, n, n) and broadcasts against V* X V.
    ``GeneratorExp``, whose basis acts on the vectorized algebra and is not
    unitary, overrides ``_stack``.
    """

    # achieved-error inputs of a basis that is not unitary (GeneratorExp):
    # kappa(W), the backward error of its decomposition and the path that ran
    condition: float | None = None
    backward_error: float | None = None
    path: str | None = None

    def __init__(
        self,
        algebra: TracialAlgebra,
        modes: Sequence[tuple[np.ndarray | None, np.ndarray | float]] = (),
    ):
        self.algebra = algebra
        self.modes = tuple(modes)

    def _modal(
        self,
        blocks: Sequence[np.ndarray],
        multiplier: Callable[[np.ndarray | float], np.ndarray],
    ) -> list[np.ndarray]:
        out = []
        for (v, lam), a in zip(self.modes, blocks):
            m = multiplier(lam)
            if v is None:
                out.append(m * a)
            else:
                vh = v.conj().T
                out.append(v @ (m * (vh @ a @ v)) @ vh)
        return out

    def _stack(
        self, ts: np.ndarray, xs: list[np.ndarray], s: np.ndarray | None = None
    ) -> list[np.ndarray]:
        tt = ts[:, :, None, None]
        ss = None if s is None else s[None, :, None, None]
        return self._modal(xs, lambda lam: _multiplier(tt, lam, ss))

    def _inputs(self, xs: Sequence[np.ndarray]) -> list[np.ndarray]:
        xs = [np.asarray(a, dtype=complex) for a in xs]
        if len(xs) != self.algebra.n_blocks or xs[0].ndim != 3:
            raise AlgebraMismatchError("expected one (k, n, n) input stack per block")
        k = xs[0].shape[0]
        if k < 1 or any(a.shape != (k, n, n) for n, a in zip(self.algebra.blocks, xs)):
            raise AlgebraMismatchError("input stacks do not match the algebra blocks")
        return xs

    def propagate_batch(
        self, ts: np.ndarray, xs: Sequence[np.ndarray]
    ) -> list[np.ndarray]:
        """Evaluate a_t(x) for every t in ``ts`` and every input of a stack.

        ``xs`` holds one array per block with shape (k, n, n): block i of the
        k inputs, stacked.  Returns one array per block with shape
        (len(ts), k, n, n).  a_0 is the identity exactly.
        """
        ts = np.asarray(ts, dtype=float)
        if ts.ndim != 1:
            raise ValueError("ts must be one-dimensional")
        if np.any(ts < 0):
            raise ValueError("negative times are not in the semigroup domain")
        xs = self._inputs(xs)
        out = self._stack(ts[:, None], xs)
        at_zero = ts == 0
        if at_zero.any():
            for o, a in zip(out, xs):
                o[at_zero] = a
        return out

    def propagate_stack(self, ts: np.ndarray, x: Operator) -> list[np.ndarray]:
        """Evaluate a_t(x) for every t in ``ts``, stacked per block as
        (len(ts), n, n): the one-input case of :meth:`propagate_batch`."""
        if x.algebra != self.algebra:
            raise AlgebraMismatchError("operator does not belong to this algebra")
        return [s[:, 0] for s in self.propagate_batch(ts, [a[None] for a in x.blocks])]

    def mean_batch(
        self, Ts: np.ndarray, xs: Sequence[np.ndarray], s: complex | np.ndarray = 0.0
    ) -> list[np.ndarray]:
        """(1/T) integral_0^T e^{st} a_t(x) dt in closed form for every T > 0
        in ``Ts`` and every input of a stack; shapes as :meth:`propagate_batch`.

        ``Ts`` of shape (m,) holds lengths shared by the k inputs; of shape
        (m, k), row q gives input c the length Ts[q, c].  Likewise ``s`` is one
        shift or one per input, shape (k,).  The result is (m, k, n, n) per
        block either way, and (0, k, n, n) for an empty grid.
        """
        xs = self._inputs(xs)
        k = xs[0].shape[0]
        Ts = np.asarray(Ts, dtype=float)
        s = np.asarray(s, dtype=complex)
        if Ts.ndim not in (1, 2) or not np.all(Ts > 0):
            raise ValueError("averaging lengths T must be of shape (m,) or (m, k) and > 0")
        if Ts.ndim == 2 and Ts.shape[1] != k or s.shape not in ((), (k,)):
            raise ValueError(f"per-input lengths and shifts need one column per input ({k})")
        return self._stack(Ts if Ts.ndim == 2 else Ts[:, None], xs, s.reshape(-1))

    def mean(self, T: float, x: Operator, s: complex = 0.0) -> Operator:
        """(1/T) integral_0^T e^{st} a_t(x) dt in closed form, T > 0: the
        one-T, one-input case of :meth:`mean_batch`."""
        if x.algebra != self.algebra:
            raise AlgebraMismatchError("operator does not belong to this algebra")
        out = self.mean_batch([T], [a[None] for a in x.blocks], s)
        return Operator(self.algebra, [y[0, 0] for y in out])

    def propagator(self, t: float) -> np.ndarray:
        """The d x d matrix of a_t on the vectorized algebra: column c is
        vec a_t(e_c) for the c-th matrix unit, all d units in one core call."""
        units = unvecs(self.algebra, np.eye(self.algebra.vec_dim, dtype=complex))
        return vecs([y[0] for y in self.propagate_batch(np.array([float(t)]), units)]).T

    def apply(self, t: float, x: Operator) -> Operator:
        """a_t(x).  Rejects t < 0; t = 0 returns x itself."""
        if t < 0:
            raise ValueError("negative times are not in the semigroup domain")
        if t == 0:
            return x
        stacks = self.propagate_stack(np.array([float(t)]), x)
        return Operator(self.algebra, [s[0] for s in stacks])


class Identity(Semigroup):
    def __init__(self, algebra: TracialAlgebra):
        super().__init__(algebra, [(None, 0.0)] * algebra.n_blocks)


class ScalarDecay(Semigroup):
    """a_t(x) = exp(-rate t) x with rate >= 0 (units 1/time)."""

    def __init__(self, algebra: TracialAlgebra, rate: float):
        if rate < 0:
            raise ValueError("decay rate must be >= 0")
        self.rate = float(rate)
        super().__init__(algebra, [(None, -self.rate)] * algebra.n_blocks)


class UnitaryFlow(Semigroup):
    """Conjugation by the unitary group of a self-adjoint generator.

    With H = V diag(w) V* per block, Lambda_jk = i (w_j - w_k).
    """

    def __init__(self, algebra: TracialAlgebra, hamiltonian: Operator):
        if hamiltonian.algebra != algebra:
            raise AlgebraMismatchError("hamiltonian lives in a different algebra")
        if not hamiltonian.is_self_adjoint():
            raise ValueError("hamiltonian must be self-adjoint")
        self.hamiltonian = hamiltonian.herm()
        modes = []
        for h in self.hamiltonian.blocks:
            w, v = np.linalg.eigh(h)
            modes.append((v, 1j * (w[:, None] - w[None, :])))
        super().__init__(algebra, modes)


class SchurDecay(Semigroup):
    """Entrywise damping by S_jk(t) = exp(-t c_jk), one rate matrix per block.

    The rate matrices must be symmetric with nonnegative entries (zero
    diagonal allowed).  Whether S(t) is positive semidefinite is a property of
    the data; the validator decides it from the sampled eigenvalues of S(t).
    """

    def __init__(self, algebra: TracialAlgebra, rates: Sequence[np.ndarray]):
        if len(rates) != algebra.n_blocks:
            raise AlgebraMismatchError("one rate matrix per block required")
        mats = []
        for n, c in zip(algebra.blocks, rates):
            arr = np.asarray(c, dtype=float)
            if arr.shape != (n, n):
                raise AlgebraMismatchError("rate matrix shape mismatch")
            if np.any(arr < 0):
                raise ValueError("Schur rates must be entrywise nonnegative")
            if np.linalg.norm(arr - arr.T) > 1e-12 * max(1.0, np.abs(arr).max()):
                raise ValueError("Schur rates must be symmetric")
            arr.setflags(write=False)
            mats.append(arr)
        self.rates = tuple(mats)
        super().__init__(algebra, [(None, -c) for c in self.rates])


class GeneratorExp(Semigroup):
    """a_t = exp(tL) for L given as a matrix on the vectorized algebra.

    Vectorization is row-major within each block, blocks concatenated in
    order (``algebra.vecs`` and ``unvecs``).  L is decomposed once,
    L W = W diag(mu), and the (d, k) matrix X of the vecs of an input stack
    maps to W (M o W^-1 X) for a whole t grid, with M = exp(t mu), or
    phi1(T (mu + s)) for means.  Its error is about kappa(W)
    times the larger of the backward error and the roundoff eps (Moler and Van
    Loan, SIAM Rev. 2003, section 6): ``condition`` is ||W||_1 ||W^-1||_1
    (None for a singular W), ``backward_error`` ||LW - W diag mu||_1 /
    (||L||_1 ||W||_1).  Above ``EIGEN_TOL`` (a defective or nearly defective
    L) ``path`` is "dense": a_t is expm(tL), and the mean at T is the top-right
    block of expm([[T (L + s), X], [0, 0]]), phi1(T (L + s)) X (Van Loan 1978),
    one expm per T for shared lengths and shift and one per T and input else.
    A t or T at which either path leaves the float range (roundoff can
    leave real parts of mu just above 0, expm can turn NaN) raises ``ConfigError``.
    """

    def __init__(self, algebra: TracialAlgebra, matrix: np.ndarray):
        super().__init__(algebra)
        arr = np.array(matrix, dtype=complex)
        d = algebra.vec_dim
        if arr.shape != (d, d):
            raise AlgebraMismatchError(
                f"generator must be {d}x{d} for this algebra, got {arr.shape}"
            )
        arr.setflags(write=False)
        self.matrix = arr
        mu, w = np.linalg.eig(arr)
        try:
            w_inv = np.linalg.inv(w)
            self.condition = float(np.linalg.norm(w, 1) * np.linalg.norm(w_inv, 1))
        except np.linalg.LinAlgError:  # a singular W has no condition number
            w_inv = None
        residual = float(np.linalg.norm(arr @ w - w * mu, 1))
        scale = float(np.linalg.norm(arr, 1) * np.linalg.norm(w, 1))
        self.backward_error = residual / scale if residual else 0.0
        eps = np.finfo(float).eps
        eigen = w_inv is not None and self.condition * max(self.backward_error, eps) <= EIGEN_TOL
        self.path = "eigen" if eigen else "dense"
        self._eig = (w, mu, w_inv)

    def propagator(self, t: float) -> np.ndarray:
        """The d x d matrix of a_t: (W exp(t mu)) W^-1, or expm(tL) on the
        dense path; the identity exactly at t = 0."""
        if t == 0:
            return np.eye(self.algebra.vec_dim, dtype=complex)
        if self.path == "dense":
            return self._finite(_expm(t * self.matrix), t)
        w, mu, w_inv = self._eig
        with np.errstate(over="ignore", invalid="ignore"):
            return self._finite((w * np.exp(t * mu)) @ w_inv, t)

    def _finite(self, out: np.ndarray, ts) -> np.ndarray:
        """``out``, a result of a_t at the times ``ts``, refused with
        ``ConfigError`` unless finite (before any decomposition of it)."""
        if not np.isfinite(out).all():
            raise ConfigError(
                f"generator_exp leaves the float range at t up to {np.max(ts):g} on its {self.path} "
                f"path (the eigenvalues of L reach real part {self._eig[1].real.max():.3g})"
            )
        return out

    def _stack(self, ts, xs, s=None):
        cols = vecs(xs).T  # column c is vec of input c
        if self.path == "eigen":
            w, mu, w_inv = self._eig
            ss = None if s is None else s[None, None, :]
            with np.errstate(over="ignore", invalid="ignore"):
                out = w @ (_multiplier(ts[:, None, :], mu[:, None], ss) * (w_inv @ cols))
        elif s is None:
            out = np.array([self.propagator(t) @ cols for t in ts[:, 0]], dtype=complex)
            out = out.reshape(len(ts), *cols.shape)  # (0, d, k) complex for no times
        else:
            # one augmented expm per length for shared lengths and shift, else
            # one per length and input
            d, k = cols.shape
            shared = ts.shape[1] == s.size == 1
            groups = [slice(None)] if shared else [slice(c, c + 1) for c in range(k)]
            ts, s = np.broadcast_to(ts, (len(ts), k)), np.broadcast_to(s, (k,))
            out = np.empty((len(ts), d, k), dtype=complex)
            for g in groups:
                gen, x = self.matrix + s[g][0] * np.eye(d), cols[:, g]
                zero = np.zeros((x.shape[1], d + x.shape[1]))
                for q, t in enumerate(ts[:, g][:, 0]):
                    out[q, :, g] = _expm(np.block([[t * gen, x], [zero]]))[:d, d:]
        return unvecs(self.algebra, self._finite(out, ts).swapaxes(1, 2))


# ---------------------------------------------------------------------------
# generator builders
# ---------------------------------------------------------------------------

def lindblad_generator(
    alg: TracialAlgebra,
    hamiltonian: Operator,
    jumps: Sequence[Operator],
) -> np.ndarray:
    """Generator L(x) = i[H, x] + sum_k (A_k x A_k - (A_k^2 x + x A_k^2)/2)
    as a matrix on the vectorized algebra: column c is vec of L applied to
    the c-th matrix unit.  H and the A_k lie in the algebra, so L acts block
    by block, once per block on the (d, n, n) stack of every unit's block.

    With self-adjoint jump operators the generated semigroup fixes the
    identity and preserves the weighted trace, so it is an absolute
    contraction by construction; the validator confirms it numerically.
    """
    if not hamiltonian.is_self_adjoint():
        raise ValueError("hamiltonian must be self-adjoint")
    for a in jumps:
        if not a.is_self_adjoint():
            raise ValueError("jump operators must be self-adjoint")
    h = hamiltonian.herm()
    # every block sees all d units, not only its own n^2: the others give
    # zeros whose sign bits match a per-unit build, and the eigensolver of
    # GeneratorExp may depend on those signs
    units = unvecs(alg, np.eye(alg.vec_dim, dtype=complex))
    images = []
    for i, x in enumerate(units):
        out = 1j * (h.blocks[i] @ x - x @ h.blocks[i])
        for a in (a.blocks[i] for a in jumps):
            a2 = a @ a
            out = out + (a @ x @ a - 0.5 * (a2 @ x + x @ a2))
        images.append(out)
    return np.ascontiguousarray(vecs(images).T)


# ---------------------------------------------------------------------------
# Choi matrices of the block components
# ---------------------------------------------------------------------------

def choi_blocks(sg: Semigroup, t: float) -> list[tuple[int, int, np.ndarray]]:
    """Choi matrices of every block component of a_t.

    A linear map on a direct sum splits into components between block pairs;
    the map is completely positive exactly when every pairwise Choi matrix is
    positive semidefinite.  Returns (output_block, input_block, choi) triples.
    All are reshuffles of the d x d matrix P of a_t (``propagator``): block
    (k, l) of the Choi matrix with input block i and output block j is block j
    of a_t(E_kl), rows off_j:off_{j+1} of the column of P at off_i + k n_i + l.
    """
    alg = sg.algebra
    p = sg.propagator(float(t))
    off = alg.vec_offsets
    chois = []
    for i, ni in enumerate(alg.blocks):
        for j, nj in enumerate(alg.blocks):
            y = p[off[j] : off[j + 1], off[i] : off[i + 1]].T.reshape(ni, ni, nj, nj)
            chois.append((j, i, y.transpose(0, 2, 1, 3).reshape(ni * nj, ni * nj)))
    return chois


def choi_min_eig(sg: Semigroup, t: float) -> float:
    """Smallest eigenvalue of the Hermitian parts of all Choi matrices of a_t.

    With modes, block i of a_t is Ad_V o S_M o Ad_V* for the Schur multiplier
    S_M(x) = M o x, M = exp(t Lambda_i).  Its Choi matrix is unitarily
    equivalent to M (+) 0, with n_i^2 - n_i zeros, and every cross-block Choi
    matrix is 0 (Paulsen, Completely Bounded Maps and Operator Algebras, 2002,
    Ch. 3).  So the minimum is that of lambda_min(herm M) over the blocks and
    of 0 when some n_i > 1 or there are two blocks or more: one n_i x n_i
    eigvalsh per block.  ``GeneratorExp`` has no modes and takes the minimum
    over the dense Choi matrices of :func:`choi_blocks`.
    """
    if t < 0:
        raise ValueError("negative times are not in the semigroup domain")
    blocks = sg.algebra.blocks
    if not sg.modes:
        return float(min_eig([c for _, _, c in choi_blocks(sg, t)]))
    mats = [np.exp(t * np.asarray(lam)) for _, lam in sg.modes]
    low = float(min_eig([np.broadcast_to(m, (n, n)) for n, m in zip(blocks, mats)]))
    return min(0.0, low) if len(blocks) > 1 or max(blocks) > 1 else low


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    """Worst observed violations of the absolute-contraction contract.

    ``per_t`` lists (t, positivity, unitality, trace excess) with each entry
    maximized over the sampled inputs at that time.  ``eigen_condition``,
    ``eigen_backward_error`` and ``generator_path`` are the semigroup's
    kappa(W), backward error and path ("eigen" or "dense"), None for the
    variants with a unitary basis.
    """

    t_samples: tuple[float, ...]
    max_positivity_violation: float
    max_unitality_excess: float
    max_trace_excess: float
    law_residual: float
    continuity: tuple[tuple[float, float], ...]
    choi_min: float | None
    sampled_only: bool
    passed: bool
    per_t: tuple[tuple[float, float, float, float], ...] = ()
    worst: dict = field(default_factory=dict)
    eigen_condition: float | None = None
    eigen_backward_error: float | None = None
    generator_path: str | None = None

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def continuity_modulus(
    sg: Semigroup, x: Operator, p: float, s_grid: Sequence[float]
) -> tuple[tuple[float, float], ...]:
    """Table of (s, ||a_s(x) - x||_p); the value at s = 0 is exactly 0.

    One stacked core call over the s grid, one batched SVD per block.
    """
    grid = [float(s) for s in s_grid]
    stacks = sg.propagate_stack(np.array(grid), x)
    return tuple(zip(grid, pnorm(sg.algebra, [st - a for st, a in zip(stacks, x.blocks)], p)))


def semigroup_law_residual(
    sg: Semigroup, t: float, s: float, probes: Sequence[Operator]
) -> float:
    """max over probes of ||a_t(a_s(x)) - a_{t+s}(x)|| / ||x||, all probes
    stacked into one core call at (s, t + s) and one at t (the one-pair case
    of the validation's law check)."""
    if t < 0 or s < 0:
        raise ValueError("law residual needs t, s >= 0")
    if not probes:
        return 0.0
    return _law_residual(sg, [(t, s)], stack_blocks(probes))


def _law_residual(sg: Semigroup, pairs, xs: list[np.ndarray]) -> float:
    """:func:`semigroup_law_residual` maximized over ``pairs`` (t, s), for
    probes stacked as ``xs``, one distinct s at a time: one core call gives
    a_s(x) and a_{t+s}(x) at that s's t, one more a_t(a_s(x)) (so each call
    keeps the probes as its inputs), and one norm takes that s's gaps."""
    t, s = np.array(pairs, dtype=float).reshape(-1, 2).T
    scale = np.maximum(op_norms(xs), 1e-300)
    worst = []
    # dict.fromkeys, not np.unique: its first call imports numpy.ma, and
    # doing that here raised the peak memory of a run
    for v in dict.fromkeys(s.tolist()):
        tv = t[s == v]
        both = sg.propagate_batch(np.concatenate([[v], tv + v]), xs)
        lhs = sg.propagate_batch(tv, [y[0] for y in both])
        gaps = op_norms([a - y[1:] for a, y in zip(lhs, both)])
        worst.append(np.max(gaps / scale, initial=0.0))
    return float(np.max(worst, initial=0.0))


def _witness(values: np.ndarray, floors) -> tuple[int, ...] | None:
    """Index of the witness of a violation array: scanning ``values`` in
    row-major order, an entry rises when it is above 0 and above every earlier
    entry, and the witness is the last rising entry above its own floor
    (``floors`` broadcasts against ``values``).  None when no entry qualifies;
    ties keep the first entry."""
    flat = values.ravel()
    prior = np.maximum.accumulate(np.concatenate(([0.0], flat)))[:-1]
    hits = np.flatnonzero((flat > prior) & (values > floors).ravel())
    return tuple(int(i) for i in np.unravel_index(hits[-1], values.shape)) if hits.size else None


def validate_absolute_contraction(
    sg: Semigroup,
    t_samples: Sequence[float],
    rng: np.random.Generator | None = None,
) -> ValidationReport:
    """Check positivity, subunitality and trace non-increase on sampled times.

    Never raises on a failing map; the report carries the worst witness.  For
    a semigroup with modes the Choi test decides positivity exactly (a_t is
    positive exactly when herm exp(t Lambda) >= 0, exactly when it is
    completely positive), so a failing test fails the report; without modes
    a failing Choi test downgrades the positivity claim to "sampled only".
    Twenty random positive inputs are sampled; the Choi test runs at the
    first six positive times and the continuity table uses the 2-norm.  The
    identity and the positives go through the core in one call per slab of
    :func:`time_slabs`, and their spectra, self-adjoint defects and traces
    come from batched eigvalsh and ``algebra.traces`` on that slab's images.
    The positivity violation is relative to the norm 1 that
    ``normalized_draws`` gave each positive (1e-300 for a zero draw).
    """
    ts = [float(t) for t in t_samples]
    if any(t < 0 for t in ts):
        raise ValueError("t_samples must be nonnegative")
    rng = np.random.default_rng(0) if rng is None else rng
    alg = sg.algebra
    positives = normalized_draws(random_operators(alg, rng, 20), True)
    # input 0 is the identity, input k + 1 the k-th positive
    inputs = [
        np.concatenate([np.eye(n, dtype=complex)[None], a]) for n, a in zip(alg.blocks, positives)
    ]
    # normalized_draws scaled every positive to norm 1; a zero draw stays 0
    scales = np.where(np.any([a.any(axis=(1, 2)) for a in positives], axis=0), 1.0, 1e-300)
    traces_in = traces(alg, positives).real
    del positives  # the inputs hold them

    # unitality (per t), positivity relative to the input's norm and trace
    # excess (per t and sample), each clamped at 0, one time slab at a time
    grid = np.array(ts, dtype=float)
    unital, pos, texc = [], [], []
    for cut in time_slabs(len(ts), len(inputs[0]), alg.blocks):
        images = sg.propagate_batch(grid[cut], inputs)
        texc.append(np.maximum(traces(alg, [y[:, 1:] for y in images]).real - traces_in, 0.0))
        # per block, in one scratch array so no step holds more than the core
        # did: ||y - y*|| as the largest |eigenvalue| of the exactly Hermitian
        # -i(y - y*), then herm(a_t(1) - 1) at input 0, herm(a_t(x_k)) after;
        # y* is copied, then conjugated in place, as a ufunc reading the
        # transposed y would take a buffer besides
        defects, tops, mins = [], [], []
        for y, a in zip(images, inputs):
            adj = y.swapaxes(-1, -2).copy()
            np.conj(adj, out=adj)
            np.multiply(np.subtract(y, adj, out=adj), -1j, out=adj)
            defects.append(np.abs(np.linalg.eigvalsh(adj)[..., [0, -1]]).max(axis=-1))
            y[:, 0] -= a[0]
            np.copyto(adj, y.swapaxes(-1, -2))
            np.conj(adj, out=adj)
            w = np.linalg.eigvalsh(np.divide(np.add(y, adj, out=adj), 2.0, out=adj))
            tops.append(w[:, 0, -1])
            mins.append(w[:, 1:, 0])
            del adj  # before the next block's scratch
        del images, y  # before the next slab's images
        defects = np.max(defects, axis=0)
        unital.append(np.maximum(0.0, np.max(tops, axis=0)) + defects[:, 0])
        pos.append(np.maximum(np.maximum(-np.min(mins, axis=0), defects[:, 1:]) / scales, 0.0))
    unital, pos, texc = (np.concatenate(a) for a in (unital, pos, texc))
    max_unital, max_pos, max_trace = (float(a.max(initial=0.0)) for a in (unital, pos, texc))
    rows = np.column_stack(
        [ts, pos.max(axis=1, initial=0.0), unital, texc.max(axis=1, initial=0.0)]
    )
    per_t = tuple(map(tuple, rows.tolist()))

    # witnesses are recorded only above roundoff: relative to the input's
    # norm for positivity, to 1 for unitality and to tau(x_k) for the trace;
    # the eigenbasis path loses up to kappa(W) times more
    floor = 16 * np.finfo(float).eps * (sg.condition if sg.path == "eigen" else 1.0)
    worst: dict[str, float | int] = {}
    for name, values, floors in (
        ("unitality", unital, floor),
        ("positivity", pos, floor),
        ("trace", texc, floor * traces_in),
    ):
        at = _witness(values, floors)
        if at is not None:
            worst[f"{name}_t"] = ts[at[0]]
            if values.ndim == 2:
                worst[f"{name}_sample"] = at[1]

    # Choi certificate on a subsample of times (skip t = 0, identity map).
    choi_ts = [t for t in ts if t > 0][:6]
    choi_min = min(choi_min_eig(sg, t) for t in choi_ts) if choi_ts else None

    # semigroup law on pairs drawn from the sample grid
    law_pairs = []
    sub = ts[: min(len(ts), 5)]
    for i, t in enumerate(sub):
        for s in sub[i:]:
            law_pairs.append((t, s))
    # three law probes and one continuity probe, drawn together
    probes = normalized_draws(random_operators(alg, rng, 4), False)
    law = _law_residual(sg, law_pairs, [a[:3] for a in probes])
    cont = continuity_modulus(sg, Operator(alg, [a[3] for a in probes]), 2.0, ts)

    choi_ok = choi_min is None or choi_min >= -CONTRACTION_TOL
    sampled_only = not choi_ok and not sg.modes
    worst_violation = max(max_pos, max_unital, max_trace)
    passed = worst_violation <= CONTRACTION_TOL and law <= LAW_TOL and (choi_ok or sampled_only)
    if sg.modes and not choi_ok:  # fails: with modes the Choi test is exact
        worst["choi_min"] = choi_min

    return ValidationReport(
        t_samples=tuple(ts),
        max_positivity_violation=max_pos,
        max_unitality_excess=max_unital,
        max_trace_excess=max_trace,
        law_residual=law,
        continuity=cont,
        choi_min=choi_min,
        sampled_only=sampled_only,
        passed=passed,
        per_t=per_t,
        worst=worst,
        eigen_condition=sg.condition,
        eigen_backward_error=sg.backward_error,
        generator_path=sg.path,
    )


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------

def _distance_rates(alg: TracialAlgebra, scale: float) -> list[np.ndarray]:
    rates = []
    for n in alg.blocks:
        idx = np.arange(n)
        rates.append(scale * np.abs(idx[:, None] - idx[None, :]).astype(float))
    return rates


# the keys each variant reads besides "variant"
_SPEC_KEYS = {
    "identity": (),
    "scalar_decay": ("rate",),
    "unitary_flow": ("hamiltonian", "norm"),
    "schur_decay": ("rates",),
    "generator_exp": ("matrix", "lindblad"),
}


def semigroup_from_config(
    alg: TracialAlgebra,
    spec: dict,
    rng: np.random.Generator | None = None,
) -> Semigroup:
    """Build a semigroup from a config mapping with a "variant" discriminator.

    Random constructions ("hamiltonian": "random", lindblad with
    "random": true) draw from ``rng`` and therefore require one.  Every number
    in ``spec`` must be finite, every mapping hold only keys its variant
    reads in the form given (a ``matrix`` reads no ``lindblad``, a given
    ``hamiltonian`` no ``norm``), ``lindblad.random`` be true (a given
    generator goes through ``matrix``) and a Lindblad jump count an integer
    in [0, ``MAX_JUMPS``] (``ConfigError`` otherwise).  A ``generator_exp``
    semigroup acts on the vectorized algebra of dimension d = sum n_i^2,
    and d above ``MAX_GENERATOR_DIM`` raises ``ConfigError`` before anything
    is drawn or built.
    """
    require_finite(spec, "semigroup")
    variant = spec.get("variant")
    if variant in _SPEC_KEYS:
        keys, form = _SPEC_KEYS[variant], ""
        # a given generator or Hamiltonian reads none of the random draw's keys
        if variant == "generator_exp" and "matrix" in spec:
            keys, form = ("matrix",), " with a given matrix"
        if variant == "unitary_flow" and spec.get("hamiltonian", "random") != "random":
            keys, form = ("hamiltonian",), " with a given hamiltonian"
        require_keys(spec, ("variant", *keys), f"{variant} semigroup{form}")
    if variant == "identity":
        return Identity(alg)
    if variant == "scalar_decay":
        return ScalarDecay(alg, float(spec.get("rate", 1.0)))
    if variant == "unitary_flow":
        ham = spec.get("hamiltonian", "random")
        if ham == "random":
            if rng is None:
                raise ValueError("random hamiltonian needs an rng")
            h = random_self_adjoint(alg, rng, norm=float(spec.get("norm", 1.0)))
        else:
            h = operator_from_dict(ham, alg)
        return UnitaryFlow(alg, h)
    if variant == "schur_decay":
        rates = spec.get("rates", {"pattern": "distance"})
        if isinstance(rates, dict):
            require_keys(rates, ("pattern", "scale"), "semigroup.rates")
            if rates.get("pattern") != "distance":
                raise ValueError(f"unknown Schur rate pattern: {rates}")
            mats = _distance_rates(alg, float(rates.get("scale", 1.0)))
        else:
            mats = [np.asarray(m, dtype=float) for m in rates]
        return SchurDecay(alg, mats)
    if variant == "generator_exp":
        if alg.vec_dim > MAX_GENERATOR_DIM:
            raise ConfigError(
                f"generator_exp needs the vectorized dimension d={alg.vec_dim} "
                f"to be at most {MAX_GENERATOR_DIM}"
            )
        if "matrix" in spec:
            mat_op = operator_from_dict(spec["matrix"])
            if mat_op.algebra.blocks != (alg.vec_dim,):
                raise ValueError(
                    "generator matrix must be a single block of the vectorized dimension"
                )
            return GeneratorExp(alg, mat_op.blocks[0])
        lind = spec.get("lindblad", {"random": True, "jumps": 1, "norm": 0.5})
        require_keys(lind, ("random", "jumps", "norm"), "semigroup.lindblad")
        if lind.get("random", True) is not True:
            raise ConfigError(
                f"semigroup.lindblad.random={lind['random']!r} must be true "
                "(a given generator goes through semigroup.matrix)"
            )
        count = lind.get("jumps", 1)
        if isinstance(count, bool) or not (
            isinstance(count, numbers.Integral) and 0 <= count <= MAX_JUMPS
        ):
            raise ConfigError(f"lindblad.jumps={count!r} must be an integer in [0, {MAX_JUMPS}]")
        if rng is None:
            raise ValueError("random lindblad generator needs an rng")
        # H, then the jumps, drawn together
        norm = float(lind.get("norm", 0.5))
        ops = normalized_draws(random_operators(alg, rng, 1 + count), False, norm)
        h, *jumps = (Operator(alg, [a[c] for a in ops]) for c in range(1 + count))
        return GeneratorExp(alg, lindblad_generator(alg, h, jumps))
    raise ValueError(f"unknown semigroup variant: {variant!r}")
