"""Shared helpers: unit constants."""

from repro.utils.units import GIBI, GIGA

__all__ = ["GIBI", "GIGA"]
