"""Semantic exceptions shared across the package."""


class ValidationError(ValueError):
    """Input violates a domain contract (event times, parameter ranges, grids)."""
