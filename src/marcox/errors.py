"""Semantic exceptions shared across the package."""

import math
import numbers


class ValidationError(ValueError):
    """Input violates a domain contract (event times, parameter ranges, grids)."""


def check_count(value, name: str, low: int) -> None:
    """Raise ``ValidationError`` unless value is an integer (not a bool) >= low."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValidationError(f"{name} must be an integer >= {low}, got {value!r}")


def check_real(value, name: str) -> float:
    """value as a float; raises ``ValidationError`` unless it is a number, not a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    return float(value)


def check_horizon(T) -> float:
    """T as a float; raises ``ValidationError`` unless it is a finite, positive number."""
    T = check_real(T, "horizon T")
    if not (math.isfinite(T) and T > 0):
        raise ValidationError("horizon T must be finite and positive")
    return T
