"""Exception types shared across the package."""


class PlieError(Exception):
    """Base class for all library errors."""


class SingularMinor(PlieError):
    """A principal minor required by the Gauss decomposition vanishes.

    ``index`` is the size of the offending trailing principal block of the
    matrix being decomposed (the factorization eliminates from the
    bottom-right corner).
    """

    def __init__(self, index: int, value: complex = 0j):
        self.index = index
        self.value = value
        super().__init__(f"trailing principal minor ratio #{index} is singular ({value})")


class BranchCut(PlieError):
    """A principal square root would be taken on the negative real axis."""

    def __init__(self, index: int, value: complex):
        self.index = index
        self.value = value
        super().__init__(f"square-root argument #{index} lies on the branch cut ({value})")


class ZeroG(PlieError):
    """One of the locally-defined denominators G_j vanishes."""

    def __init__(self, index: int, value: complex = 0j):
        self.index = index
        self.value = value
        super().__init__(f"G_{index} = {value} vanishes")


class ConstraintViolated(PlieError):
    """A parameter constraint such as xi_A * xi_B = -1/kappa fails."""


class ConfigError(PlieError):
    """Invalid run configuration."""
