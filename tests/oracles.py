"""What the oracle tests compare: a value with the type of every scalar in
it, so that the int 0 and a Rat 0 differ, and so do an int and a Rat."""

from qkz.scalars import TruncatedSeries


def typed(x):
    """x with the type of every scalar in it, series coefficients and the
    items of (nested) lists included."""
    if isinstance(x, TruncatedSeries):
        return type(x), [typed(c) for c in x.coeffs]
    if isinstance(x, list):
        return [typed(v) for v in x]
    return type(x), x
