"""Experiment runner: named suites, machine-readable reports, plot data.

A run executes one suite against a configured algebra / semigroup / weight.
The suites keep their table rows and certificate payloads; after the last
one returns, the run writes CSV tables to ``<out>/tables``, certificate JSON
files to ``<out>/certs`` and a ``report.json`` index, so a refused run leaves
no tree.  Reports contain no timestamps,
no absolute paths and no wall times, so runs with the same configuration,
seed and BLAS thread count produce byte-identical output trees.  The thread
count matters for ``generator_exp``: ``np.linalg.eig`` of its generator may
return another eigenbasis under another thread count.  Wall time is kept on
the in-memory report only.
"""
from __future__ import annotations

import csv
import json
import math
import numbers
import time
from dataclasses import asdict, dataclass, field, fields
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable

import numpy as np

from .algebra import (
    TracialAlgebra,
    min_eig,
    pnorm,
    pnorms,
    normalized_draws,
    random_operators,
    random_positive,
    random_self_adjoint,
    stack_blocks,
)
from .averaging import (
    QUAD_RTOL,
    BesicovitchWeight,
    TrigTerm,
    _residual_average,
    besicovitch_error,
    cesaro_average,
    declared_mean_abs_gap,
    integrate_flow,
    residual_from_config,
    sandwich_slacks,
    substitution_bound_checks,
    trig_average,
    weight_from_config,
    weighted_average,
    weighted_families,
)
from .banach import (
    AssemblyError,
    OracleContractError,
    SchemeError,
    assemble_certificate,
    cesaro_map_family,
    make_dense_certifier,
    make_maximal_oracle,
    scheme_from_semigroup,
)
from .bau import (
    BOUND_SLACK,
    MaximalParams,
    ProjectionCertificate,
    ScheduleExhaustedError,
    TransferPremiseError,
    _cauchy_certify,
    bau_cauchy_certify,
    double_average_certificate,
    lp_limit_check,
    maximal_certificates,
    perturbation_transfer,
)
from .config import ConfigError
from .semigroups import Semigroup, semigroup_from_config, validate_absolute_contraction

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "RunReport",
    "run",
    "emit_plot_data",
    "build_schemas",
    "SUITE_NAMES",
]

# the leading columns of every sweep table: achieved norm against its bound over T
_SWEEP = ("T", "norm_p", "bound", "slack")

# the columns of every CSV table a suite writes, by table name
_TABLES = {
    "validate_semigroup_violations": ("kind", "t", "value"),
    "validate_semigroup_continuity": ("s", "modulus"),
    "local_avg_p1": _SWEEP,
    "local_avg_p2": _SWEEP,
    "sandwich": ("case", "a", "b", "lower_slack", "upper_slack"),
    "maximal": ("epsilon", "case", "cotrace", "achieved_bound", "cotrace_cap", "empirical_C"),
    "weighted_avg": (*_SWEEP, "quad_error"),
    "besicovitch": ("T", "local_mean_gap", "quad_error"),
    "banach_steps": ("step", "witness", "claimed", "achieved"),
}

# the keys of a certificate file that certificates_summary.json keeps, when present
_SUMMARY_KEYS = ("cotrace", "epsilon", "achieved_bound", "flags", "passed", "error")


def _default_weight_spec() -> dict:
    return {
        "trig": [
            {"kappa_re": 0.55, "kappa_im": 0.0, "theta": 0.3},
            {"kappa_re": 0.25, "kappa_im": 0.1, "theta": -0.21},
        ],
        "residual": {"name": "cos", "amplitude": 0.04, "frequency": 7.0},
        "sup_bound": 0.95,
    }


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs of a run.  The seed fixes every random draw.

    Documented ranges, every number finite, every count an integer and no
    number a JSON boolean: total algebra dimension in [1, 64]; epsilon,
    banach_epsilon in (0, 100]; p >= 1; C, alpha > 0; 0 < T_lo < min(1,
    T_hi); grid sizes in [2, 512]; counts in [1, 1000]; maximal_epsilons and
    sandwich_grid non-empty and positive; banach_map_exps at least two
    increasing exponents in [1, 40].  Inside these ranges, an alpha, a
    weight or a generator_exp T_hi that takes a number out of the float
    range is refused with ``ConfigError`` where that number is formed.
    """

    blocks: tuple[int, ...] = (2, 4)
    weights: tuple[float, ...] = (1.0, 0.5)
    semigroup: dict = field(
        default_factory=lambda: {"variant": "unitary_flow", "hamiltonian": "random", "norm": 1.0}
    )
    weight: dict = field(default_factory=_default_weight_spec)
    T_lo: float = 1e-5
    T_hi: float = 10.0
    T_n: int = 48
    dyadic_exp_max: int = 12
    epsilon: float = 0.1
    banach_epsilon: float = 0.5
    p: float = 1.0
    C: float = 1.0
    alpha: float = 1.0
    maximal_epsilons: tuple[float, ...] = (0.5, 0.2, 0.1)
    n_random: int = 20
    weighted_cases: int = 48
    sandwich_grid: tuple[float, ...] = (0.1, 0.5, 1.0)
    besicovitch_tail_bound: float = 0.05
    banach_n_approx: int = 3
    banach_map_exps: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8)
    seed: int = 20240810

    def __post_init__(self) -> None:
        for name in ("blocks", "weights", "maximal_epsilons", "sandwich_grid", "banach_map_exps"):
            kind = int if name in ("blocks", "banach_map_exps") else float
            given = getattr(self, name)
            try:
                vals = tuple(kind(v) for v in given)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"{name}: {exc}") from exc
            if not all(math.isfinite(v) and v == w and not isinstance(w, bool)
                       for v, w in zip(vals, given)):
                raise ConfigError(f"{name}={list(given)} must hold finite {kind.__name__}s")
            object.__setattr__(self, name, vals)
        scalars = {"int": numbers.Integral, "float": numbers.Real}
        for f in fields(self):
            val = getattr(self, f.name)
            number = isinstance(val, scalars.get(f.type, ())) and not isinstance(val, bool)
            if f.type in scalars and not (number and math.isfinite(val)):
                raise ConfigError(f"{f.name}={val!r} must be a finite {f.type}")
        for name in ("semigroup", "weight"):
            if not isinstance(getattr(self, name), dict):
                raise ConfigError(f"{name} must be a JSON object")
        total = sum(self.blocks)
        if not 1 <= total <= 64:
            raise ConfigError(f"total algebra dimension {total} outside [1, 64]")
        if len(self.blocks) != len(self.weights):
            raise ConfigError("blocks and weights must have equal length")
        if any(c <= 0 for c in self.weights):
            raise ConfigError("trace weights must be positive")
        for name, val, lo, hi in (
            ("epsilon", self.epsilon, 0.0, 100.0),
            ("banach_epsilon", self.banach_epsilon, 0.0, 100.0),
            ("C", self.C, 0.0, math.inf),
            ("alpha", self.alpha, 0.0, math.inf),
            ("besicovitch_tail_bound", self.besicovitch_tail_bound, 0.0, 1.0),
        ):
            if not lo < val <= hi:
                raise ConfigError(f"{name}={val} outside ({lo}, {hi}]")
        if self.p < 1:
            raise ConfigError("p must be >= 1")
        if not 0 < self.T_lo < min(1.0, self.T_hi):
            raise ConfigError(f"T_lo={self.T_lo} outside (0, min(1, T_hi))")
        for name, lo, hi in (
            ("T_n", 2, 512),
            ("dyadic_exp_max", 1, 40),
            ("n_random", 1, 1000),
            ("weighted_cases", 1, 1000),
            ("banach_n_approx", 1, 1000),
        ):
            if not lo <= getattr(self, name) <= hi:
                raise ConfigError(f"{name}={getattr(self, name)} outside [{lo}, {hi}]")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        for name in ("maximal_epsilons", "sandwich_grid"):
            vals = getattr(self, name)
            if not vals or not all(v > 0 for v in vals):
                raise ConfigError(f"{name}={list(vals)} must be non-empty and positive")
        exps = list(self.banach_map_exps)
        if len(exps) < 2 or sorted(set(exps)) != exps or not 1 <= exps[0] <= exps[-1] <= 40:
            raise ConfigError(
                f"banach_map_exps={exps} needs two or more increasing entries in [1, 40]"
            )

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class RunReport:
    """Index of what a run wrote.  Serialized without wall time or paths
    outside the output directory, so equal configurations give equal bytes.

    ``tables`` and ``certificates`` map each name to its file, relative to
    ``outdir``.  ``rows`` holds each table's rows as the strings written to
    its CSV file, and ``summaries`` each certificate's ``_SUMMARY_KEYS``
    entries; the plot files are derived from them (:func:`emit_plot_data`).
    """

    experiment: str
    passed: dict[str, bool]
    tables: dict[str, str]
    certificates: dict[str, str]
    wall_time_s: float
    outdir: Path
    config: dict
    rows: dict[str, list[list[str]]]
    summaries: dict[str, dict]

    # the keys of report.json
    JSON_KEYS = ("experiment", "passed", "tables", "certificates", "config")

    @property
    def ok(self) -> bool:
        return all(self.passed.values())

    def to_json_dict(self) -> dict:
        return {key: getattr(self, key) for key in self.JSON_KEYS}


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, payload) -> None:
    """Every JSON file of a run: the bytes of ``json.dumps(payload, indent=2,
    sort_keys=True)`` and a final newline, encoded by :func:`_encode`."""
    path.write_text(_encode(payload, 0) + "\n", encoding="utf-8")


_SPECIAL_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_key(key) -> str:
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return _encode(key, 0)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _encode(o, level: int) -> str:
    """``json.dumps(o, indent=2, sort_keys=True)`` for ``o`` nested ``level``
    containers deep, value by value the way ``json`` encodes it (ASCII
    escapes, NaN and Infinity, float and int subclasses by their base repr,
    ``TypeError`` for other types), but without its pure-Python encoder, which
    ``json`` takes whenever it indents.  A list of finite plain floats, most
    of a certificate's bytes, is one join of ``float.__repr__``.  There is no
    check for circular references: payloads are trees.
    """
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        text = float.__repr__(o)
        return _SPECIAL_FLOATS.get(text, text)
    inner = "\n" + "  " * (level + 1)
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        if set(map(type, o)) == {float}:
            body = ("," + inner).join(map(float.__repr__, o))
            if "n" not in body:  # no nan, inf or -inf
                return "[" + inner + body + inner[:-2] + "]"
        body = ("," + inner).join([_encode(v, level + 1) for v in o])
        return "[" + inner + body + inner[:-2] + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        body = ("," + inner).join([
            encode_basestring_ascii(_json_key(k)) + ": " + _encode(v, level + 1)
            for k, v in sorted(o.items())
        ])
        return "{" + inner + body + inner[:-2] + "}"
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _fmt(value) -> str:
    if type(value) is float:
        return float.__repr__(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


class _Env:
    """Per-run context shared by suite implementations; it keeps their
    checks, table rows and certificate payloads for :func:`run` to write."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.alg = TracialAlgebra(cfg.blocks, cfg.weights)
        rng0 = np.random.default_rng([cfg.seed, 0])
        try:
            self.sg: Semigroup = semigroup_from_config(self.alg, cfg.semigroup, rng0)
            self.weight: BesicovitchWeight = weight_from_config(cfg.weight)
        except ConfigError:
            raise
        except (ValueError, TypeError, KeyError, AttributeError) as exc:
            raise ConfigError(f"bad semigroup or weight config: {exc}") from exc
        self.passed: dict[str, bool] = {}
        self.rows: dict[str, list[list[str]]] = {}
        self.payloads: dict[str, dict] = {}

    def rng(self, purpose: int) -> np.random.Generator:
        return np.random.default_rng([self.cfg.seed, purpose])

    def write_table(self, name: str, rows) -> None:
        self.rows[name] = [[v if isinstance(v, str) else _fmt(v) for v in row] for row in rows]

    def write_cert(self, name: str, payload: dict) -> None:
        self.payloads[name] = payload


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def _suite_validate(env: _Env) -> None:
    ts = np.geomspace(1e-4, 10.0, 10)
    report = validate_absolute_contraction(env.sg, ts, rng=env.rng(1))
    rows = [
        (kind, t, value)
        for (t, pos, unital, texc) in report.per_t
        for kind, value in (("positivity", pos), ("unitality", unital), ("trace", texc))
        if value > 0.0
    ]
    env.write_table("validate_semigroup_violations", rows)
    env.write_table("validate_semigroup_continuity", report.continuity)
    env.write_cert("validation", report.to_json_dict())
    env.passed["validate-semigroup:absolute_contraction"] = report.passed


def _suite_local_avg(env: _Env) -> None:
    cfg, alg, sg = env.cfg, env.alg, env.sg
    rng = env.rng(2)
    x = random_self_adjoint(alg, rng, norm=1.0)
    Ts = [2.0**-k for k in range(cfg.dyadic_exp_max + 1)]
    means = [y[:, 0] for y in sg.mean_batch(Ts, stack_blocks([x]))]
    # singular values of y_T - x, and of a_s(x) - x at 16 sample times s in
    # (0, T] for every T, shared by both p: the dyadic T make many sample
    # times coincide, and each distinct one goes through one core call once
    samples = np.outer(Ts, np.linspace(1.0 / 16.0, 1.0, 16))
    times, at = np.unique(samples.ravel(), return_inverse=True)
    errs = [np.linalg.svd(y - a, compute_uv=False) for y, a in zip(means, x.blocks)]
    shifts = sg.propagate_stack(times, x)
    shifts = [np.linalg.svd(st - a, compute_uv=False) for st, a in zip(shifts, x.blocks)]

    for p in (1.0, 2.0):
        err = np.array(pnorms(alg, errs, p))
        bound = np.array(pnorms(alg, shifts, p))[at].reshape(samples.shape).max(axis=1)
        slack = bound - err
        monotone = bool(np.all(err[1:] <= err[:-1] * (1 + 1e-9) + 1e-15))
        rows = list(zip(Ts, err.tolist(), bound.tolist(), slack.tolist()))
        tag = f"p{int(p)}"
        env.write_table(f"local_avg_{tag}", rows)
        env.passed[f"local-avg:decay_monotone_{tag}"] = monotone
        env.passed[f"local-avg:final_below_{tag}"] = rows[-1][1] < 1e-3 * pnorm(alg, x, p)
        env.passed[f"local-avg:bounds_hold_{tag}"] = bool(np.all(slack >= -BOUND_SLACK))

    cert = _cauchy_certify(
        alg, Ts, means, epsilon=0.1 * alg.trace_of_identity, tol=1e-3 * x.norm_inf()
    )
    env.write_cert("local_avg_cauchy", cert.to_json_dict())
    env.passed["local-avg:cauchy_certificate"] = cert.ok

    # shrinking-window construction around a fixed base average
    x_pos = random_positive(alg, rng, norm=1.0)
    schedule = np.geomspace(0.25, 1e-7, 22)
    try:
        window_cert = double_average_certificate(
            sg, x_pos, b=1.0, p=cfg.p, epsilon=cfg.epsilon, a_schedule=schedule
        )
    except ScheduleExhaustedError as exc:
        env.write_cert("local_avg_window_failure", {"error": str(exc)})
        env.passed["local-avg:window_certificate"] = False
        return
    env.write_cert("local_avg_window", window_cert.to_json_dict())
    # .ok covers tau(1 - e) < epsilon: the certificate flags a larger co-trace
    env.passed["local-avg:window_certificate"] = (
        window_cert.ok and window_cert.params["final_decay"] < 1e-6
    )


def _suite_sandwich(env: _Env) -> None:
    grid, rng = env.cfg.sandwich_grid, env.rng(3)
    xs = normalized_draws(random_operators(env.alg, rng, env.cfg.n_random), True)
    # one stacked call for all b; slacks[:, c, i, j] = (lower, upper) at case c, grid[i], grid[j]
    slacks = np.transpose(sandwich_slacks(env.sg, xs, grid, grid), (0, 3, 2, 1))
    rows = [
        (c, grid[i], grid[j], *map(float, slacks[:, c, i, j]))
        for c, i, j in np.ndindex(slacks.shape[1:])
    ]
    env.write_table("sandwich", rows)
    env.passed["sandwich:slacks_nonnegative"] = bool(np.all(slacks >= -BOUND_SLACK))


def _suite_maximal(env: _Env) -> None:
    cfg, alg, sg = env.cfg, env.alg, env.sg
    rng = env.rng(4)
    xs = normalized_draws(random_operators(alg, rng, cfg.n_random), False)
    T_grid = np.geomspace(cfg.T_lo, cfg.T_hi, cfg.T_n)
    params = [MaximalParams(C=cfg.C, p=cfg.p, epsilon=eps) for eps in cfg.maximal_epsilons]

    certs = maximal_certificates(sg, xs, params, T_grid)  # [case][epsilon]
    rows = [  # epsilon-major
        (eps, case, c.cotrace, c.achieved_bound, c.params["cotrace_cap"], c.params["empirical_C"])
        for i, eps in enumerate(cfg.maximal_epsilons)
        for case, c in enumerate(cs[i] for cs in certs)
    ]
    for i, eps in enumerate(cfg.maximal_epsilons):
        env.write_cert(f"maximal_eps{_fmt(eps)}", certs[0][i].to_json_dict())
    env.write_table("maximal", rows)
    bound_ok = all(bound <= eps + BOUND_SLACK for eps, _, _, bound, _, _ in rows)
    # per epsilon, the largest empirical C; it may be 0 only where every
    # certificate keeps the whole algebra, and only positive ones are compared
    cmax = [max(cs[i].params["empirical_C"] for cs in certs) for i in range(len(params))]
    whole = [all(cs[i].cotrace == 0 for cs in certs) for i in range(len(params))]
    finite = all(math.isfinite(c) and (c > 0 or w) for c, w in zip(cmax, whole))
    positive = [c for c in cmax if c > 0]
    stable = finite and (not positive or max(positive) / min(positive) < 10.0)
    env.passed["maximal:compressed_bounds"] = bound_ok
    env.passed["maximal:empirical_C_finite"] = finite
    env.passed["maximal:empirical_C_stable"] = stable


def _random_weight(rng: np.random.Generator) -> BesicovitchWeight:
    n_terms = int(rng.integers(1, 4))
    amps = rng.uniform(0.05, 1.0, n_terms)
    amps *= 0.85 / amps.sum()
    terms = tuple(
        TrigTerm(
            complex(a * math.cos(ph), a * math.sin(ph)),
            float(rng.uniform(-0.45, 0.45)),
        )
        for a, ph in zip(amps, rng.uniform(0, 2 * math.pi, n_terms))
    )
    amp = float(rng.uniform(0.0, 0.1))
    freq = float(rng.uniform(0.5, 9.0))
    spec = {"name": "cos", "amplitude": amp, "frequency": freq} if amp > 0 else None
    return BesicovitchWeight(terms, *residual_from_config(spec))


def _suite_weighted(env: _Env) -> None:
    cfg, alg, sg = env.cfg, env.alg, env.sg
    rng = env.rng(5)
    T_list = np.geomspace(1e-3, 1.0, 12)
    weights, draws = [], []
    for _ in range(cfg.weighted_cases):  # weight c, then input c
        weights.append(_random_weight(rng))
        draws.append(random_operators(alg, rng))
    xs = normalized_draws([np.concatenate(a) for a in zip(*draws)], True)
    Ts = T_list[np.arange(cfg.weighted_cases) % len(T_list)]
    checks = substitution_bound_checks(sg, weights, xs, Ts)
    rows = [(float(T), lhs, rhs, rhs - lhs, err) for T, (lhs, rhs, err) in zip(Ts, checks.tolist())]
    env.write_table("weighted_avg", rows)
    env.passed["weighted-avg:substitution_bound"] = all(r[1] <= r[2] + BOUND_SLACK for r in rows)

    # structural identities of the weighted average on the configured weight
    b = env.weight
    x = random_positive(alg, rng, norm=1.0)
    # ||x|| and the p-norms of x, each taken once
    xnorm = x.norm_inf()
    xp = {p: pnorm(alg, x, p) for p in dict.fromkeys((1.0, 2.0, math.inf, cfg.p))}
    T = 0.75
    r_av = _residual_average(sg, b, x, T)
    wav = trig_average(sg, b.terms, x, T) + r_av
    # roundoff of the averages grows with the weight: gaps are held relative
    # to max(1, sup |b|) ||x||
    scale = max(1.0, b.sup_bound) * max(xnorm, 1e-300)
    conj_gap = (wav.H - weighted_average(sg, b.conjugated(), x, T)).norm_inf()
    real_av = weighted_average(sg, b.real_part(), x, T)
    imag_av = weighted_average(sg, b.imag_part(), x, T)
    decomp_gap = (wav - (real_av + 1j * imag_av)).norm_inf()
    beta = cesaro_average(sg, x, T)
    domination = min_eig((beta - real_av).herm())
    norm_ok = all(
        pnorm(alg, wav, p) <= 2.0 * b.sup_bound * xp[p] + BOUND_SLACK
        for p in (1.0, 2.0, math.inf)
    )
    env.passed["weighted-avg:conjugation"] = conj_gap <= 1e-10 * scale
    env.passed["weighted-avg:decomposition"] = decomp_gap <= 1e-12 * scale
    env.passed["weighted-avg:domination"] = domination >= -BOUND_SLACK
    env.passed["weighted-avg:norm_bound"] = norm_ok
    if b.residual is not None and b.residual.terms is not None:
        # the closed-form residual average and mean of |r| against the
        # adaptive operator and scalar quadratures
        quad = integrate_flow(sg, x, 0.0, T, weight=b.residual, kinks=b.residual.kinks(T)).value / T
        gap = (r_av - quad).norm_inf()
        mean_gap = declared_mean_abs_gap(b, T)
        env.passed["weighted-avg:residual_quadrature"] = (
            gap <= QUAD_RTOL * b.residual_sup * xnorm
            and mean_gap <= QUAD_RTOL * b.residual_sup
        )

    # transfer from the trig-only averages to the full weighted averages
    base, tilde = weighted_families(sg, b, x, [2.0**-k for k in range(11)])
    base_cert = bau_cauchy_certify(base, epsilon=0.1 * alg.trace_of_identity, tol=1e-3 * xnorm)
    eps_gap = 2.0 * cfg.besicovitch_tail_bound * xnorm
    try:
        transferred = perturbation_transfer(tilde, base, base_cert, [eps_gap])
        env.write_cert("weighted_transfer", transferred.to_json_dict())
        env.passed["weighted-avg:transfer"] = transferred.ok and base_cert.ok
    except TransferPremiseError as exc:
        env.write_cert("weighted_transfer_failure", {"error": str(exc)})
        env.passed["weighted-avg:transfer"] = False
    limit = tilde[-1][1]
    rep = lp_limit_check(tilde, cfg.p, limit)
    cap = 2.0 * b.sup_bound * xp[cfg.p]
    env.passed["weighted-avg:lp_limit"] = rep.passed and rep.limit_norm <= cap + BOUND_SLACK


def _suite_besicovitch(env: _Env) -> None:
    cfg = env.cfg
    grid = np.geomspace(1.0, cfg.T_lo, cfg.T_n)
    table = besicovitch_error(env.weight, grid)
    rows = [(T, v, err) for (T, v), err in zip(table.rows, table.errors)]
    env.write_table("besicovitch", rows)
    env.passed["besicovitch:tail_sup_below_bound"] = (
        table.tail_sup < cfg.besicovitch_tail_bound
    )


def _suite_banach(env: _Env) -> None:
    cfg, alg, sg = env.cfg, env.alg, env.sg
    rng = env.rng(7)
    x = random_self_adjoint(alg, rng, norm=1.0)
    T_maps = [2.0**-k for k in cfg.banach_map_exps]
    maps = cesaro_map_family(sg, T_maps)

    params = [MaximalParams(C=cfg.C, p=cfg.p, epsilon=eps) for eps in cfg.maximal_epsilons]
    images = [y[:, None] for y in maps.images(x)]
    certs = maximal_certificates(sg, stack_blocks([x]), params, T_maps, images)[0]
    c_use = max(max(c.params["empirical_C"] for c in certs), 1e-6)

    eps = cfg.banach_epsilon
    oracle = make_maximal_oracle(sg, T_maps, cfg.p, c_use, cfg.alpha)
    scheme = scheme_from_semigroup(sg, cfg.p, cfg.alpha)
    certifier = make_dense_certifier(maps, tol=eps / 3.0)
    try:
        asm = assemble_certificate(
            maps, x, eps, scheme, oracle, certifier, n_approx=cfg.banach_n_approx
        )
    except (AssemblyError, SchemeError, OracleContractError, ScheduleExhaustedError) as exc:
        env.write_cert("banach_failure", {"error": str(exc)})
        env.passed["banach-check:assembled"] = False
        env.passed["banach-check:replay"] = False
        env.passed["banach-check:final_cotrace"] = False
        return
    env.write_table(
        "banach_steps",
        [
            (s.name, "" if s.witness is None else ";".join(str(w) for w in s.witness), s.claimed, s.achieved)
            for s in asm.steps
        ],
    )
    env.write_cert("banach_assembly", asm.to_json_dict())
    devs = asm.replay(maps, x)
    env.passed["banach-check:assembled"] = True
    env.passed["banach-check:replay"] = asm.replay_passes(devs)
    env.passed["banach-check:final_cotrace"] = asm.cotrace < eps * (c_use + 1.0) / 2.0


_SUITES: dict[str, Callable[[_Env], None]] = {
    "validate-semigroup": _suite_validate,
    "local-avg": _suite_local_avg,
    "sandwich": _suite_sandwich,
    "maximal": _suite_maximal,
    "weighted-avg": _suite_weighted,
    "besicovitch": _suite_besicovitch,
    "banach-check": _suite_banach,
}

SUITE_NAMES = (*_SUITES, "full")


def run(config: ExperimentConfig, suite: str, outdir: str | Path) -> RunReport:
    """Execute a named suite, then write its tables, certificates and
    report.json into ``outdir``, which must be new or empty and below a
    directory (``ConfigError`` before the suites otherwise).  Nothing is
    written before every suite has returned: where a suite raises, no output
    directory is left, and an existing empty one stays empty."""
    if suite not in SUITE_NAMES:
        raise ConfigError(f"unknown suite {suite!r}; choose from {SUITE_NAMES}")
    out = Path(outdir)
    try:
        if out.is_dir() and any(out.iterdir()):
            raise ConfigError(f"output directory {out} is not empty")
        # the nearest existing path up from out must be a directory
        if not next(p for p in (out, *out.parents) if p.exists()).is_dir():
            raise ConfigError(f"cannot make output directory {out}: Not a directory")
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {out}: {exc.strerror}") from exc
    env = _Env(config)
    start = time.perf_counter()
    for name in _SUITES if suite == "full" else (suite,):
        _SUITES[name](env)
    wall = time.perf_counter() - start
    try:
        (out / "tables").mkdir(parents=True, exist_ok=True)
        (out / "certs").mkdir(exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {out}: {exc.strerror}") from exc
    tables = {name: f"tables/{name}.csv" for name in env.rows}
    certificates = {name: f"certs/{name}.json" for name in env.payloads}
    for name, rel in tables.items():
        _write_csv(out / rel, _TABLES[name], env.rows[name])
    for name, rel in certificates.items():
        _write_json(out / rel, env.payloads[name])
    report = RunReport(
        experiment=suite,
        passed=env.passed,
        tables=tables,
        certificates=certificates,
        wall_time_s=wall,
        outdir=out,
        config=config.to_dict(),
        rows=env.rows,
        summaries={n: {k: p[k] for k in _SUMMARY_KEYS if k in p} for n, p in env.payloads.items()},
    )
    _write_json(out / "report.json", report.to_json_dict())
    return report


# ---------------------------------------------------------------------------
# plot data
# ---------------------------------------------------------------------------

_PLOT_SCHEMA = {
    "plot_decay.csv": {
        "columns": ["table", "T", "value"],
        "meaning": "decay curves: second column of every two-column table "
        "and of every table whose only other column is quad_error",
    },
    "plot_bounds.csv": {
        "columns": ["table", "T", "achieved", "bound", "slack"],
        "meaning": "achieved-versus-bound rows from every sweep table",
    },
    "certificates_summary.json": {
        "keys": list(_SUMMARY_KEYS),
        "meaning": "one summary entry per certificate file",
    },
}


def emit_plot_data(report: RunReport) -> dict[str, str]:
    """Write plot-ready CSV/JSON files derived from a run's tables and
    certificates.  They are built from the rows and summaries ``report``
    carries, the strings and values the run wrote; no file of the run is read
    back.  Only the tables and certificates ``report`` lists are used."""
    plots = report.outdir / "plots"
    plots.mkdir(parents=True, exist_ok=True)
    decay_rows = []
    bound_rows = []
    for name in sorted(report.tables):
        header, rows = _TABLES[name], report.rows[name]
        if header[:4] == _SWEEP:
            bound_rows += [(name, *row[:4]) for row in rows]
            decay_rows += [(name, *row[:2]) for row in rows]
        elif len(header) == 2 or header[2:] == ("quad_error",):
            decay_rows += [(name, *row[:2]) for row in rows]
    for fname, rows in (("plot_decay.csv", decay_rows), ("plot_bounds.csv", bound_rows)):
        _write_csv(plots / fname, _PLOT_SCHEMA[fname]["columns"], rows)
    summary = {name: report.summaries[name] for name in report.certificates}
    _write_json(plots / "certificates_summary.json", summary)
    _write_json(plots / "SCHEMA.json", _PLOT_SCHEMA)
    return {fname: f"plots/{fname}" for fname in (*_PLOT_SCHEMA, "SCHEMA.json")}


def build_schemas() -> dict:
    """Schemas printed by the command-line ``schema`` subcommand."""
    return {
        "config": {
            "defaults": ExperimentConfig().to_dict(),
            "notes": "JSON object; unknown keys rejected; flags override file values",
        },
        "report.json": {
            "keys": list(RunReport.JSON_KEYS),
            "determinism": "no timestamps, wall times or absolute paths",
        },
        "sweep_csv": {"columns": list(_SWEEP)},
        "tables": {name: list(cols) for name, cols in _TABLES.items()},
        "certificate_json": {"keys": list(ProjectionCertificate.JSON_KEYS)},
        "plots": _PLOT_SCHEMA,
    }
