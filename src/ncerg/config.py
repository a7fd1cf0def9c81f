"""The configuration error and the checks of config mappings.

The config loaders of every module raise ``ConfigError``; ``require_finite``
is their check that a config mapping holds no infinite or NaN number, and
``require_keys`` that it holds no key they do not read.  Numerical cutoffs
are not configuration: each is a named constant of the module that applies
it.
"""
from __future__ import annotations

import cmath
import numbers


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


def require_keys(spec, known, name: str) -> None:
    """Raise ConfigError if ``spec`` is not a mapping or has a key outside ``known``."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{name} must be a JSON object")
    unknown = set(spec) - set(known)
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
