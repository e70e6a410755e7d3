"""Exception types shared across the package."""

from __future__ import annotations

__all__ = ["ConfigError", "DegenerateMaskError", "ImageConsistencyError"]


class ConfigError(ValueError):
    """Raised when an experiment configuration file is malformed."""


class DegenerateMaskError(ValueError):
    """Raised when a contrast is undefined: no bright or no dark pixels, or a zero total."""


class ImageConsistencyError(RuntimeError):
    """Raised when independently computed images violate an exact internal identity."""
