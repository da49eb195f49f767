"""Exception types shared across the package, and the one conversion of config scalars that raises them."""

import math
import numbers


class InvariantViolation(RuntimeError):
    """A structural invariant of the dynamics was broken at run time.

    Raised e.g. when the inter-particle gap drops below the analytic floor,
    which signals an integrator-tolerance problem rather than bad input.
    """


class ConfigError(ValueError):
    """A scenario configuration or CLI argument is malformed."""


def number(name: str, value, integer: bool = False) -> float | int:
    """A config scalar as a finite float, or an int when ``integer``; ConfigError
    for anything else: strings, null, booleans, NaN and infinities."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer too large for a float
        x = math.inf
    if not math.isfinite(x) or (integer and not x.is_integer()):
        raise ConfigError(f"{name} must be a finite {'integer' if integer else 'number'}, got {value!r}")
    return int(value) if integer else x
