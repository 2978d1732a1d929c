"""Semantic exceptions shared across the package."""

import numbers


class ValidationError(ValueError):
    """Input violates a domain contract (event times, parameter ranges, grids)."""


def check_count(value, name: str, low: int) -> None:
    """Raise ``ValidationError`` unless value is an integer (not a bool) >= low."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValidationError(f"{name} must be an integer >= {low}, got {value!r}")
