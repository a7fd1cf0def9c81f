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

Every semigroup also has the closed-form mean (1/T) integral_0^T e^{st} a_t(x)
dt (:meth:`Semigroup.mean`).  The same core gives it with the multiplier
phi1(T (Lambda + s)) in place of exp(t Lambda), where phi1(z) = (e^z - 1)/z;
GeneratorExp reads it off one augmented matrix exponential (Van Loan 1978).

``validate_absolute_contraction`` produces a :class:`ValidationReport` that
records positivity, subunitality, trace non-increase, the semigroup law and a
continuity table.  Complete positivity is certified through Choi matrices of
the block components; maps that fail the Choi test fall back to sampled
positivity checks and are flagged as "sampled only".
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from .algebra import (
    AlgebraMismatchError,
    Operator,
    TracialAlgebra,
    min_eig,
    pnorm,
    random_positive,
    random_self_adjoint,
    trace,
    unvec,
    vec,
    operator_from_dict,
)
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
    "generator_from_map",
    "semigroup_from_config",
]


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


class Semigroup:
    """Base class: an immutable semigroup a_t(x) = V (exp(t Lambda) o V* x V) V*.

    ``modes`` holds one ``(V, Lambda)`` pair per block: V unitary, or ``None``
    for the standard basis, and Lambda an entrywise rate matrix or a scalar.
    ``_modal`` evaluates V (M o V* x V) V* for an entrywise multiplier M built
    from Lambda: ``_stack`` uses exp(t Lambda) for a whole time grid at once,
    ``_mean`` uses phi1(T (Lambda + s)).  A subclass without such a form
    (``GeneratorExp``) overrides both.
    """

    variant: str = "abstract"
    cp_by_construction: bool = False

    def __init__(
        self,
        algebra: TracialAlgebra,
        modes: Sequence[tuple[np.ndarray | None, np.ndarray | float]] = (),
    ):
        self.algebra = algebra
        self.modes = tuple(modes)

    def _modal(
        self, x: Operator, multiplier: Callable[[np.ndarray | float], np.ndarray]
    ) -> list[np.ndarray]:
        out = []
        for (v, lam), a in zip(self.modes, x.blocks):
            m = multiplier(lam)
            if v is None:
                out.append(m * a)
            else:
                vh = v.conj().T
                out.append(v @ (m * (vh @ a @ v)) @ vh)
        return out

    # list over blocks of arrays with shape (len(ts), n, n)
    def _stack(self, ts: np.ndarray, x: Operator) -> list[np.ndarray]:
        return self._modal(x, lambda lam: np.exp(ts[:, None, None] * lam))

    def _mean(self, T: float, s: complex, x: Operator) -> Operator:
        return Operator(self.algebra, self._modal(x, lambda lam: phi1(T * (lam + s))))

    def propagate_stack(self, ts: np.ndarray, x: Operator) -> list[np.ndarray]:
        """Evaluate a_t(x) for every t in ``ts``, stacked per block."""
        if x.algebra != self.algebra:
            raise AlgebraMismatchError("operator does not belong to this algebra")
        ts = np.asarray(ts, dtype=float)
        if ts.ndim != 1:
            raise ValueError("ts must be one-dimensional")
        if np.any(ts < 0):
            raise ValueError("negative times are not in the semigroup domain")
        return self._stack(ts, x)

    def mean(self, T: float, x: Operator, s: complex = 0.0) -> Operator:
        """(1/T) integral_0^T e^{st} a_t(x) dt in closed form, T > 0."""
        if x.algebra != self.algebra:
            raise AlgebraMismatchError("operator does not belong to this algebra")
        if not T > 0:
            raise ValueError("averaging length T must be > 0")
        return self._mean(float(T), complex(s), x)

    def apply(self, t: float, x: Operator) -> Operator:
        """a_t(x).  Rejects t < 0; t = 0 returns x itself."""
        if t < 0:
            raise ValueError("negative times are not in the semigroup domain")
        if t == 0:
            return x
        stacks = self.propagate_stack(np.array([float(t)]), x)
        return Operator(self.algebra, [s[0] for s in stacks])


class Identity(Semigroup):
    variant = "identity"
    cp_by_construction = True

    def __init__(self, algebra: TracialAlgebra):
        super().__init__(algebra, [(None, 0.0)] * algebra.n_blocks)


class ScalarDecay(Semigroup):
    """a_t(x) = exp(-rate t) x with rate >= 0 (units 1/time)."""

    variant = "scalar_decay"
    cp_by_construction = True

    def __init__(self, algebra: TracialAlgebra, rate: float):
        if rate < 0:
            raise ValueError("decay rate must be >= 0")
        self.rate = float(rate)
        super().__init__(algebra, [(None, -self.rate)] * algebra.n_blocks)


class UnitaryFlow(Semigroup):
    """Conjugation by the unitary group of a self-adjoint generator.

    With H = V diag(w) V* per block, Lambda_jk = i (w_j - w_k).
    """

    variant = "unitary_flow"
    cp_by_construction = True

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

    variant = "schur_decay"
    cp_by_construction = True

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
    order.  Propagators exp(tL) are cached per time point.  The mean is the
    top-right column of expm([[T (L + s), vec x], [0, 0]]), which is
    phi1(T (L + s)) vec x (Van Loan 1978; Higham, Functions of Matrices, 2008).
    """

    variant = "generator_exp"
    cp_by_construction = False

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
        self._cache: dict[float, np.ndarray] = {}

    def propagator(self, t: float) -> np.ndarray:
        t = float(t)
        hit = self._cache.get(t)
        if hit is not None:
            return hit
        return self._cache.setdefault(t, scipy.linalg.expm(t * self.matrix))

    def _stack(self, ts, x):
        v = vec(x)
        outs = [
            np.empty((len(ts), n, n), dtype=complex) for n in self.algebra.blocks
        ]
        offsets = self.algebra.vec_offsets
        for k, t in enumerate(ts):
            w = self.propagator(t) @ v
            for i, n in enumerate(self.algebra.blocks):
                outs[i][k] = w[offsets[i] : offsets[i + 1]].reshape(n, n)
        return outs

    def _mean(self, T, s, x):
        d = self.algebra.vec_dim
        aug = np.zeros((d + 1, d + 1), dtype=complex)
        aug[:d, :d] = T * (self.matrix + s * np.eye(d))
        aug[:d, d] = vec(x)
        return unvec(self.algebra, scipy.linalg.expm(aug)[:d, d])


# ---------------------------------------------------------------------------
# generator builders
# ---------------------------------------------------------------------------

def generator_from_map(
    alg: TracialAlgebra, func: Callable[[Operator], Operator]
) -> np.ndarray:
    """Matrix of a linear map on the vectorized algebra, built column-wise."""
    d = alg.vec_dim
    mat = np.zeros((d, d), dtype=complex)
    basis = np.eye(d)
    for j in range(d):
        e = unvec(alg, basis[:, j].astype(complex))
        mat[:, j] = vec(func(e))
    return mat


def lindblad_generator(
    alg: TracialAlgebra,
    hamiltonian: Operator,
    jumps: Sequence[Operator],
) -> np.ndarray:
    """Generator L(x) = i[H, x] + sum_k (A_k x A_k - (A_k^2 x + x A_k^2)/2).

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

    def apply_l(x: Operator) -> Operator:
        out = 1j * (h @ x - x @ h)
        for a in jumps:
            a2 = a @ a
            out = out + (a @ x @ a - 0.5 * (a2 @ x + x @ a2))
        return out

    return generator_from_map(alg, apply_l)


# ---------------------------------------------------------------------------
# Choi matrices of the block components
# ---------------------------------------------------------------------------

def choi_blocks(sg: Semigroup, t: float) -> list[tuple[int, int, np.ndarray]]:
    """Choi matrices of every block component of a_t.

    A linear map on a direct sum splits into components between block pairs;
    the map is completely positive exactly when every pairwise Choi matrix is
    positive semidefinite.  Returns (output_block, input_block, choi) triples.
    """
    alg = sg.algebra
    chois = []
    for i, ni in enumerate(alg.blocks):
        images = []
        for k in range(ni):
            for l in range(ni):
                blocks = [np.zeros((n, n), dtype=complex) for n in alg.blocks]
                blocks[i][k, l] = 1.0
                images.append(sg.apply(t, Operator(alg, blocks)))
        for j, nj in enumerate(alg.blocks):
            choi = np.zeros((ni * nj, ni * nj), dtype=complex)
            for k in range(ni):
                for l in range(ni):
                    img = images[k * ni + l].blocks[j]
                    choi[k * nj : (k + 1) * nj, l * nj : (l + 1) * nj] = img
            chois.append((j, i, choi))
    return chois


def choi_min_eig(sg: Semigroup, t: float) -> float:
    vals = []
    for _, _, choi in choi_blocks(sg, t):
        h = (choi + choi.conj().T) / 2.0
        vals.append(float(np.linalg.eigvalsh(h)[0]))
    return min(vals)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    """Worst observed violations of the absolute-contraction contract.

    ``per_t`` lists (t, positivity, unitality, trace excess) with each entry
    maximized over the sampled inputs at that time.
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

    def to_json_dict(self) -> dict:
        return {
            "t_samples": list(self.t_samples),
            "max_positivity_violation": self.max_positivity_violation,
            "max_unitality_excess": self.max_unitality_excess,
            "max_trace_excess": self.max_trace_excess,
            "law_residual": self.law_residual,
            "continuity": [[s, v] for s, v in self.continuity],
            "choi_min": self.choi_min,
            "sampled_only": self.sampled_only,
            "passed": self.passed,
            "per_t": [list(row) for row in self.per_t],
            "worst": {k: v for k, v in sorted(self.worst.items())},
        }


def _positive_part_norm(x: Operator) -> float:
    worst = 0.0
    for a in x.blocks:
        h = (a + a.conj().T) / 2.0
        w = np.linalg.eigvalsh(h)
        worst = max(worst, float(max(w[-1], 0.0)))
    return worst


def continuity_modulus(
    sg: Semigroup, x: Operator, p: float, s_grid: Sequence[float]
) -> tuple[tuple[float, float], ...]:
    """Table of (s, ||a_s(x) - x||_p); the value at s = 0 is exactly 0."""
    alg = sg.algebra
    rows = []
    for s in s_grid:
        if s == 0:
            rows.append((0.0, 0.0))
        else:
            rows.append((float(s), pnorm(alg, sg.apply(s, x) - x, p)))
    return tuple(rows)


def semigroup_law_residual(
    sg: Semigroup, t: float, s: float, probes: Sequence[Operator]
) -> float:
    """max over probes of ||a_t(a_s(x)) - a_{t+s}(x)|| / ||x||."""
    if t < 0 or s < 0:
        raise ValueError("law residual needs t, s >= 0")
    worst = 0.0
    for x in probes:
        scale = max(x.norm_inf(), 1e-300)
        gap = (sg.apply(t, sg.apply(s, x)) - sg.apply(t + s, x)).norm_inf()
        worst = max(worst, gap / scale)
    return worst


def validate_absolute_contraction(
    sg: Semigroup,
    t_samples: Sequence[float],
    tol: float = 1e-8,
    law_tol: float = 1e-9,
    rng: np.random.Generator | None = None,
    n_samples: int = 20,
    choi_samples: int = 6,
    probe_p: float = 2.0,
) -> ValidationReport:
    """Check positivity, subunitality and trace non-increase on sampled times.

    Never raises on a failing map; the report carries the worst witness.  For
    variants that are completely positive by construction the Choi test is a
    certificate; otherwise a failing Choi test downgrades the positivity
    claim to "sampled only".
    """
    ts = [float(t) for t in t_samples]
    if any(t < 0 for t in ts):
        raise ValueError("t_samples must be nonnegative")
    rng = np.random.default_rng(0) if rng is None else rng
    alg = sg.algebra
    one = alg.identity()
    positives = [random_positive(alg, rng) for _ in range(max(20, n_samples))]

    worst: dict[str, float | str] = {}
    max_pos = 0.0
    max_unital = 0.0
    max_trace = 0.0
    per_t = []

    for t in ts:
        yt = sg.apply(t, one)
        excess = _positive_part_norm(yt - one) + yt.self_adjoint_defect()
        if excess > max_unital:
            max_unital = excess
            worst["unitality_t"] = t
        t_pos = 0.0
        t_trace = 0.0
        for k, x in enumerate(positives):
            image = sg.apply(t, x)
            scale = max(x.norm_inf(), 1e-300)
            viol = max(0.0, -min_eig(image) / scale)
            viol = max(viol, image.self_adjoint_defect() / scale)
            t_pos = max(t_pos, viol)
            if viol > max_pos:
                max_pos = viol
                worst["positivity_t"] = t
                worst["positivity_sample"] = k
            texc = max(0.0, trace(alg, image).real - trace(alg, x).real)
            t_trace = max(t_trace, texc)
            if texc > max_trace:
                max_trace = texc
                worst["trace_t"] = t
                worst["trace_sample"] = k
        per_t.append((t, t_pos, excess, t_trace))

    # Choi certificate on a subsample of times (skip t = 0, identity map).
    choi_ts = [t for t in ts if t > 0][: max(1, choi_samples)]
    choi_min = min(choi_min_eig(sg, t) for t in choi_ts) if choi_ts else None

    # semigroup law on pairs drawn from the sample grid
    law_pairs = []
    sub = ts[: min(len(ts), 5)]
    for i, t in enumerate(sub):
        for s in sub[i:]:
            law_pairs.append((t, s))
    probes = [random_self_adjoint(alg, rng) for _ in range(3)]
    law = max(
        (semigroup_law_residual(sg, t, s, probes) for t, s in law_pairs),
        default=0.0,
    )

    probe = random_self_adjoint(alg, rng)
    cont = continuity_modulus(sg, probe, probe_p, ts)

    choi_ok = choi_min is None or choi_min >= -tol
    sampled_only = not choi_ok and not sg.cp_by_construction
    passed = (
        max_pos <= tol
        and max_unital <= tol
        and max_trace <= tol
        and law <= law_tol
        and (choi_ok or sampled_only)
    )
    if sg.cp_by_construction and not choi_ok:
        passed = False
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
        per_t=tuple(per_t),
        worst=worst,
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


def semigroup_from_config(
    alg: TracialAlgebra,
    spec: dict,
    rng: np.random.Generator | None = None,
) -> Semigroup:
    """Build a semigroup from a config mapping with a "variant" discriminator.

    Random constructions ("hamiltonian": "random", lindblad with
    "random": true) draw from ``rng`` and therefore require one.
    """
    variant = spec.get("variant")
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
            if rates.get("pattern") != "distance":
                raise ValueError(f"unknown Schur rate pattern: {rates}")
            mats = _distance_rates(alg, float(rates.get("scale", 1.0)))
        else:
            mats = [np.asarray(m, dtype=float) for m in rates]
        return SchurDecay(alg, mats)
    if variant == "generator_exp":
        if "matrix" in spec:
            mat_op = operator_from_dict(spec["matrix"])
            if mat_op.algebra.blocks != (alg.vec_dim,):
                raise ValueError(
                    "generator matrix must be a single block of the vectorized dimension"
                )
            return GeneratorExp(alg, mat_op.blocks[0])
        lind = spec.get("lindblad", {"random": True, "jumps": 1, "norm": 0.5})
        if rng is None:
            raise ValueError("random lindblad generator needs an rng")
        h = random_self_adjoint(alg, rng, norm=float(lind.get("norm", 0.5)))
        jumps = [
            random_self_adjoint(alg, rng, norm=float(lind.get("norm", 0.5)))
            for _ in range(int(lind.get("jumps", 1)))
        ]
        return GeneratorExp(alg, lindblad_generator(alg, h, jumps))
    raise ValueError(f"unknown semigroup variant: {variant!r}")
