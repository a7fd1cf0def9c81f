"""Shared numeric tolerances and the configuration error.

Every predicate in the package that needs a cutoff reads its default from a
single ``Tolerances`` instance, so a whole experiment can be tightened or
relaxed coherently instead of sprinkling magic numbers around.  The config
loaders of every module raise ``ConfigError``, and ``require_finite`` is their
check that a config mapping holds no infinite or NaN number.
"""
from __future__ import annotations

import cmath
import numbers
from dataclasses import dataclass


class ConfigError(ValueError):
    """Configuration file or parameter outside its documented range."""


def require_finite(spec, name: str) -> None:
    """Raise ConfigError if a number nested in ``spec`` (mappings and
    sequences of them) is infinite or NaN, also one written as a string."""
    if isinstance(spec, dict):
        for key, val in spec.items():
            require_finite(val, f"{name}.{key}")
    elif isinstance(spec, (list, tuple)):
        for i, val in enumerate(spec):
            require_finite(val, f"{name}[{i}]")
    elif isinstance(spec, (numbers.Number, str)):
        try:
            finite = cmath.isfinite(complex(spec))
        except ValueError:  # a name such as "random", not a number
            return
        if not finite:
            raise ConfigError(f"{name}={spec!r} must be finite")


@dataclass(frozen=True)
class Tolerances:
    """Default numeric cutoffs.  Relative to the operator scale unless noted.

    Attributes
    ----------
    positivity:
        Eigenvalue floor; x counts as positive when the minimum eigenvalue of
        its hermitian part is >= -positivity * ||x||.
    self_adjoint:
        Cap on ||x - x*|| relative to ||x||.
    projection:
        Cap on the idempotency and self-adjointness residuals of projections.
    spectral_include:
        Absolute slack added to spectral thresholds; eigenvalues within this
        slack of a cut level are included below the cut.
    meet_rank:
        Singular-value cutoff used by projection meets, scaled by the block
        dimension.
    certificate:
        Agreement required when a certificate's stored bounds are recomputed.
    decay:
        Default final-decay target for convergence certificates.
    """

    positivity: float = 1e-10
    self_adjoint: float = 1e-10
    projection: float = 1e-8
    spectral_include: float = 1e-12
    meet_rank: float = 1e-8
    certificate: float = 1e-10
    decay: float = 1e-6


DEFAULT_TOLS = Tolerances()
