"""Exact-arithmetic verification engine for a non-stationary q-difference
equation and its q-KZ, Jackson-integral and surface-defect partition-sum
companions.  Everything is certified by exact rational equality at generic
parameter points; there are no tolerances anywhere.
"""

__version__ = "0.1.0"

from .scalars import (  # noqa: F401
    Rat,
    HJet,
    ParamPoint,
    exp_jet,
    sample_generic_point,
)
