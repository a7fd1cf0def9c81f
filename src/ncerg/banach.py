"""Constructive extension engine for bilateral-almost-uniform convergence.

Given a family of linear maps, a dense-approximation scheme and a
maximal-inequality oracle, the engine builds one projection f under which all
pairwise map differences on x are uniformly small, by the standard route:
approximants x_n with geometrically shrinking gaps, one oracle projection per
approximant, a meet p, a dense-set Cauchy certificate q for a well-chosen
approximant, and f = p ^ q with a three-way bound split.  The engine only
ever touches pairwise differences a_m(x) - a_n(x), never a limit object.

A map family evaluates on one operator to a per-block stack (m, n, n) over
its labels, ``MapFamily.images``: for Cesaro averages one closed-form
``mean_batch`` call.  The assembly evaluates each input once and hands the
images to the oracle and the dense certifier, which take ``(y, eps, images)``.
Every bound enters the ledger through one recorder, which raises at the first
failed row; a compressed-norm step is recorded once, as a :class:`NormStep`,
and its rows come from ``_norm_rows``.  The replay re-runs the recorded steps
on fresh images as the independent check, and fails when it re-ran nothing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from .algebra import Operator, Projection, meet_all, pnorm, proj_meet, stack_blocks
from .averaging import dense_approximant
from .bau import (
    DECAY_TOL,
    ProjectionCertificate,
    _cauchy_certify,
    compressed_norms,
    first_index_below,
    maximal_projection,
    MaximalParams,
    pair_differences,
)
from .config import ConfigError
from .semigroups import Semigroup, continuity_modulus

__all__ = [
    "ApproximationScheme",
    "ConditionOneOracle",
    "MapFamily",
    "NormStep",
    "StepRecord",
    "AssemblyCertificate",
    "AssemblyError",
    "SchemeError",
    "OracleContractError",
    "assemble_certificate",
    "scheme_from_semigroup",
    "cesaro_map_family",
    "make_maximal_oracle",
    "make_dense_certifier",
]

ORACLE_SLACK = 1e-12  # absolute slack of an oracle certificate over its two caps
REPLAY_TOL = 1e-10  # largest deviation of a replayed compressed-norm row from its record
K_CAP = 2**40  # largest k of the window 1/k that scheme_from_semigroup doubles up to
Images = list[np.ndarray]  # a map family on one input: per-block (m, n, n) stacks


def _alpha_power(base: float, exponent: float, alpha: float) -> float:
    """base ** exponent for an exponent set by alpha: ``ConfigError`` naming
    alpha where the power leaves the float range."""
    try:  # a Python float power raises on overflow
        value = base ** exponent
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(
            f"alpha={alpha:g} is out of range here: {base:.6g} ** {exponent:.6g} "
            "leaves the float range"
        )
    return value


def _gap_bound(n: int, eps: float, alpha: float) -> float:
    """(eps / 2^(n+1))^(2/alpha): the gap an approximant x_n must stay below."""
    return _alpha_power(eps / 2.0 ** (n + 1), 2.0 / alpha, alpha)


class SchemeError(RuntimeError):
    def __init__(self, achieved: float, target: float):
        super().__init__(
            f"approximation scheme could not reach gap {target:.3e}; "
            f"achieved {achieved:.3e}"
        )
        self.achieved = achieved
        self.target = target


class OracleContractError(RuntimeError):
    def __init__(self, which: str, achieved: float, cap: float):
        super().__init__(
            f"oracle certificate violates its {which} bound: "
            f"{achieved:.3e} vs cap {cap:.3e}"
        )
        self.which = which
        self.achieved = achieved
        self.cap = cap


class AssemblyError(RuntimeError):
    def __init__(self, row: StepRecord):
        super().__init__(
            f"assembly step {row.name!r} failed at witness {row.witness}: "
            f"achieved {row.achieved:.3e}, claimed {row.claimed:.3e}"
        )
        self.step, self.witness, self.achieved, self.claimed = (
            row.name, row.witness, row.achieved, row.claimed
        )


@dataclass(frozen=True)
class MapFamily:
    """Indexed family of linear maps a_m: ``images(y)`` returns every a_m(y)
    as per-block (m, n, n) stacks in label order."""

    labels: tuple[float, ...]
    images: Callable[[Operator], Images]


def cesaro_map_family(sg: Semigroup, T_list: Sequence[float]) -> MapFamily:
    """The Cesaro averages beta_T, T in ``T_list``: one closed-form
    ``mean_batch`` call per input."""
    Ts = tuple(float(T) for T in T_list)
    return MapFamily(Ts, lambda y: [a[:, 0] for a in sg.mean_batch(Ts, stack_blocks([y]))])


@dataclass(frozen=True)
class ApproximationScheme:
    """Generator of approximants with a guaranteed norm gap.

    ``start(x)`` does the work the approximants of one x share and returns
    the generator (n, eps) -> x_n of that x, which must give
    ||x_n - x||_p < (eps / 2^{n+1})^{2/alpha}; :meth:`maker` verifies the gap
    at generation time and raises :class:`SchemeError` otherwise (and
    ``ConfigError`` naming alpha where that bound leaves the float range).
    """

    start: Callable[[Operator], Callable[[int, float], Operator]]
    norm_p: float
    alpha: float

    def gap_bound(self, n: int, eps: float) -> float:
        return _gap_bound(n, eps, self.alpha)

    def maker(self, x: Operator) -> Callable[[int, float], tuple[Operator, float]]:
        """(n, eps) -> (x_n, ||x_n - x||_p) for one x, its gap verified."""
        generate = self.start(x)

        def make(n: int, eps: float) -> tuple[Operator, float]:
            x_n = generate(n, eps)
            gap = pnorm(x.algebra, x_n - x, self.norm_p)
            bound = self.gap_bound(n, eps)
            if not gap < bound:
                raise SchemeError(gap, bound)
            return x_n, gap

        return make


@dataclass(frozen=True)
class ConditionOneOracle:
    """Uniform-control oracle: (y, eps, images) -> certificate with both bounds.

    ``images`` is the map family on y, ``MapFamily.images(y)``.  The returned
    certificate must satisfy tau(p_perp) <= C (eps^-1 ||y||_X)^alpha and an
    achieved compressed bound below eps; both are re-verified here and a
    violation beyond ``ORACLE_SLACK`` raises :class:`OracleContractError`.
    A power (eps^-1 ||y||_X)^alpha that leaves the float range raises
    ``ConfigError`` naming alpha.
    """

    build: Callable[[Operator, float, Images], ProjectionCertificate]
    C: float
    alpha: float
    norm: Callable[[Operator], float]

    def __call__(self, y: Operator, eps: float, images: Images) -> ProjectionCertificate:
        cert = self.build(y, eps, images)
        size = self.norm(y)
        cap = self.C * _alpha_power(size / eps, self.alpha, self.alpha) if size > 0 else 0.0
        if cert.cotrace > cap + ORACLE_SLACK:
            raise OracleContractError("cotrace", cert.cotrace, cap)
        if cert.achieved_bound > eps + ORACLE_SLACK:
            raise OracleContractError("compressed", cert.achieved_bound, eps)
        return cert


def make_maximal_oracle(
    sg: Semigroup,
    T_grid: Sequence[float],
    p: float,
    C: float,
    alpha: float,
) -> ConditionOneOracle:
    """Condition-one oracle backed by the maximal projection over a T grid,
    whose averages are the ``images`` it is handed."""

    def build(y: Operator, eps: float, images: Images) -> ProjectionCertificate:
        return maximal_projection(
            sg, y.herm(), MaximalParams(C=C, p=p, epsilon=eps), T_grid, family=images
        )

    alg = sg.algebra
    return ConditionOneOracle(
        build=build, C=C, alpha=alpha, norm=lambda y: pnorm(alg, y, p)
    )


def make_dense_certifier(
    maps: MapFamily, tol: float = DECAY_TOL
) -> Callable[[Operator, float, Images], ProjectionCertificate]:
    """Cauchy certifier for the map family on a dense-set element y, given as
    its ``images``."""

    def certify(y: Operator, eps_budget: float, images: Images) -> ProjectionCertificate:
        return _cauchy_certify(y.algebra, maps.labels, images, eps_budget, tol)

    return certify


@dataclass
class StepRecord:
    name: str
    claimed: float
    achieved: float
    witness: tuple | None = None

    @property
    def ok(self) -> bool:
        return self.achieved <= self.claimed

    @property
    def key(self) -> str:
        return f"{self.name}{self.witness or ''}"

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class NormStep:
    """One compressed-norm step of the ledger: ``projection`` compresses the
    images of ``input``, each row held to ``claimed`` (rows: ``_norm_rows``)."""

    name: str
    claimed: float
    projection: Projection
    input: Operator
    n: int | None = None
    start: int = 0


@dataclass
class AssemblyCertificate:
    """Full trace of an extension run: projections, indices, bound ledger
    and its recorded compressed-norm steps; the co-trace is f's."""

    projection: Projection
    epsilon: float
    C: float
    n0: int
    N0_index: int
    steps: list[StepRecord]
    budget_spent: float
    approximants: tuple[Operator, ...] = field(repr=False, default=())
    approximant_projs: tuple[Projection, ...] = field(repr=False, default=())
    dense_cert: ProjectionCertificate | None = field(repr=False, default=None)
    meet_proj: Projection | None = field(repr=False, default=None)
    norm_steps: list[NormStep] = field(repr=False, default_factory=list)

    @property
    def cotrace(self) -> float:
        return self.projection.cotrace

    def to_json_dict(self) -> dict:
        keys = ("cotrace", "epsilon", "C", "n0", "N0_index", "budget_spent")
        steps = [s.to_json_dict() for s in self.steps]
        return {k: getattr(self, k) for k in keys} | {"steps": steps}

    def replay(self, maps: MapFamily, x: Operator) -> dict[str, float]:
        """Re-run every recorded compressed-norm step of the assembly of x (the
        same object), each distinct input evaluated once; returns each row's
        deviation from the ledger by ``StepRecord.key`` (inf if it lacks one)."""
        if all(s.input is not x for s in self.norm_steps):
            raise ValueError("replay takes the operator the certificate was assembled on")
        inputs = {id(s.input): s.input for s in self.norm_steps}
        images = {key: maps.images(y) for key, y in inputs.items()}
        recorded = {s.key: s.achieved for s in self.steps}
        return {
            r.key: abs(r.achieved - recorded.get(r.key, math.inf))
            for s in self.norm_steps
            for r in _norm_rows(s, images[id(s.input)])
        }

    def replay_passes(self, devs: dict[str, float]) -> bool:
        """Whether ``devs`` from :meth:`replay` holds every compressed-norm row
        of the ledger, at least one, each within ``REPLAY_TOL``."""
        names = {s.name for s in self.norm_steps}
        rows = {s.key for s in self.steps if s.name in names}
        return bool(rows) and rows <= devs.keys() and all(d <= REPLAY_TOL for d in devs.values())


def _norm_rows(step: NormStep, values: Images) -> list[StepRecord]:
    """Ledger rows of one compressed-norm step over the stacked images a_m(y)
    of its input: with ``step.n`` given, ||e a_m(y) e|| with witness (n, m);
    otherwise ||e (a_i(y) - a_j(y)) e|| with witness (i, j), start <= i < j."""
    if step.n is None:
        values = [a[step.start:] for a in values]
        rows, cols = np.triu_indices(len(values[0]), 1)
        witnesses = zip((rows + step.start).tolist(), (cols + step.start).tolist())
        values = pair_differences(values)
    else:
        witnesses = ((step.n, m) for m in range(len(values[0])))
    norms = compressed_norms(step.projection, values).tolist()
    return [StepRecord(step.name, step.claimed, v, w) for w, v in zip(witnesses, norms)]


def assemble_certificate(
    maps: MapFamily,
    x: Operator,
    eps: float,
    scheme: ApproximationScheme,
    oracle: ConditionOneOracle,
    certifier: Callable[[Operator, float, Images], ProjectionCertificate],
    n_approx: int = 4,
) -> AssemblyCertificate:
    """Extend uniform smallness of pairwise map differences from a dense set.

    Steps, each verified on the finite index grid and recorded:

    1. approximants x_n with ||x_n - x|| < (eps/2^{n+1})^{2/alpha};
    2. oracle projections p_n compressing a_m(x_n - x) below eps/2^{n+1};
    3. p = meet p_n with tau(1-p) < C eps / 2;
    4. n0 = 1, whose compressed gaps under p sit below eps/3;
    5. a Cauchy certificate q for {a_m(x_{n0})} with budget eps/2, giving the
       horizon index N0 past which pairwise gaps are below eps/3;
    6. f = p ^ q with tau(1-f) < eps (C+1)/2 and pairwise compressed
       differences of a_m(x) below eps on the grid tail.

    Each input (x_n - x, x_{n0} and x) is evaluated once, and the oracle and
    the certifier read those images.  Every row goes through one recorder,
    and the first failed bound raises :class:`AssemblyError` naming the step
    and the witness index.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    if n_approx < 1:
        raise ValueError("need at least one approximant")
    steps: list[StepRecord] = []
    norm_steps: list[NormStep] = []

    def record(step: StepRecord | NormStep, images: Images | None = None) -> None:
        """Append a row, or a compressed-norm step and its rows over ``images``."""
        if images is not None:
            norm_steps.append(step)
        for row in [step] if images is None else _norm_rows(step, images):
            steps.append(row)
            if not row.ok:
                raise AssemblyError(row)

    approximants: list[Operator] = []
    certs: list[ProjectionCertificate] = []
    make = scheme.maker(x)
    for n in range(1, n_approx + 1):
        x_n, gap = make(n, eps)
        approximants.append(x_n)
        record(StepRecord("approximant_gap", scheme.gap_bound(n, eps), gap, (n,)))
        y, claimed = x_n - x, eps / 2.0 ** (n + 1)
        images = maps.images(y)
        certs.append(oracle(y, claimed, images))
        record(NormStep("uniform_control", claimed, certs[-1].projection, y, n), images)
        if n == 1:
            y1, images1 = y, images

    projs = [c.projection for c in certs]
    p_meet = meet_all(projs)
    record(StepRecord("meet_budget", oracle.C * eps / 2.0, p_meet.cotrace))

    # p <= p_1, so uniform control at n = 1 already puts every row of the
    # first approximant under p below eps/4 < eps/3: n0 = 1.
    record(NormStep("approximant_choice", eps / 3.0, p_meet, y1, 1), images1)

    x_n0 = approximants[0]
    images = maps.images(x_n0)
    dense_cert = certifier(x_n0, eps / 2.0, images)
    record(StepRecord("dense_budget", eps / 2.0, dense_cert.cotrace))
    N0 = first_index_below(dense_cert, eps / 3.0)
    if N0 is None:
        worst = dense_cert.decay[0][1] if dense_cert.decay else math.inf
        raise AssemblyError(StepRecord("dense_cauchy", eps / 3.0, worst))
    record(NormStep("dense_cauchy", eps / 3.0, dense_cert.projection, x_n0, start=N0), images)

    f = proj_meet(p_meet, dense_cert.projection)
    record(StepRecord("final_budget", eps * (oracle.C + 1.0) / 2.0, f.cotrace))
    record(NormStep("final_bound", eps, f, x, start=N0), maps.images(x))

    return AssemblyCertificate(
        projection=f,
        epsilon=eps,
        C=oracle.C,
        n0=1,
        N0_index=N0,
        steps=steps,
        budget_spent=sum(c.cotrace for c in certs) + dense_cert.cotrace,
        approximants=tuple(approximants),
        approximant_projs=tuple(projs),
        dense_cert=dense_cert,
        meet_proj=p_meet,
        norm_steps=norm_steps,
    )


def scheme_from_semigroup(sg: Semigroup, p: float, alpha: float) -> ApproximationScheme:
    """Approximation scheme built from shrinking-window flow averages.

    x_n is the window average of x at scale 1/k(n); the continuity modulus of
    the flow at x, computed once per x (``start``), picks a starting k and the
    gap is verified directly, doubling k until the target is met or k passes
    ``K_CAP``.  A modulus too flat to meet the target raises
    :class:`SchemeError` with the achieved gap.
    """
    alg = sg.algebra
    probe = np.geomspace(1.0, 1e-12, 25)

    def start(x: Operator) -> Callable[[int, float], Operator]:
        modulus = continuity_modulus(sg, x, p, probe)

        def generate(n: int, eps: float) -> Operator:
            target = _gap_bound(n, eps, alpha)
            k = next(
                (max(1, math.ceil(1.0 / s)) for s, value in modulus if value <= target / 4.0),
                math.ceil(1.0 / probe[-1]),
            )
            gap = math.inf
            while k <= K_CAP:
                x_k = dense_approximant(sg, x, k)
                gap = pnorm(alg, x_k - x, p)
                if gap < target:
                    return x_k
                k *= 2
            raise SchemeError(gap, target)

        return generate

    return ApproximationScheme(start, p, alpha)
