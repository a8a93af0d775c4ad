"""Numerical toolkit for a family of quadratic Poisson structures on pairs of
rectangular complex matrices, their triangular factorizations, and the local
diffeomorphisms that decouple them into independent spin copies.
"""

from .brackets import BracketSpec, HoloFn1
from .errors import (
    BranchCut,
    ConfigError,
    ConstraintViolated,
    PlieError,
    SingularMinor,
    ZeroG,
)
from .points import DualPair, SPoint, SpinPoint, SpinTuple

__version__ = "0.1.0"

__all__ = [
    "BracketSpec",
    "HoloFn1",
    "SPoint",
    "SpinPoint",
    "SpinTuple",
    "DualPair",
    "PlieError",
    "SingularMinor",
    "BranchCut",
    "ZeroG",
    "ConstraintViolated",
    "ConfigError",
    "__version__",
]
