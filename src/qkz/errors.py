"""Typed errors. Every failure mode is an exception; no silent wrong answers.

``DegenerateParameterError`` is the one signal of a non-generic parameter
point (some denominator, resonance condition or pivot chain collapsed).
Nothing recovers from it: a check that meets it fails, and its report
names the point and the exception.
"""


class QkzError(Exception):
    pass


class ConfigError(QkzError):
    """Invalid CLI / suite configuration."""


class SamplingError(QkzError):
    """Generic-point sampler exhausted its retry budget."""


class DegenerateParameterError(QkzError):
    """A parameter point failed a genericity requirement at use time."""


class ResonanceError(DegenerateParameterError):
    """A diagonal eigenvalue of the level-by-level solve hit 1."""


class SingularMatrixError(DegenerateParameterError):
    """Exact linear solve met a non-invertible pivot chain: the point is
    degenerate.  A non-square solve is a fault instead (ValueError)."""
