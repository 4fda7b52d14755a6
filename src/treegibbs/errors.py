"""Exception taxonomy shared across the package."""


class TreeGibbsError(Exception):
    """Base class for all package errors."""


class ConfigError(TreeGibbsError):
    """Malformed configuration input (schema violation, unknown field)."""


class GraphError(TreeGibbsError):
    """Structurally invalid edge-indexed graph."""


class NonUnimodularError(GraphError):
    """No consistent order grading exists (a cycle has index ratio != 1)."""


class NoClosedGeodesicError(GraphError):
    """The quotient carries no closed non-backtracking path of positive weight."""


class DivergenceError(TreeGibbsError):
    """Growth is dominated by a tail; no convergent resummation regime."""

    def __init__(self, message, tail_critical=None):
        super().__init__(message)
        self.tail_critical = tail_critical


class NoPositiveSolutionError(TreeGibbsError):
    """The shadow fixed-point equation has no positive solution at this exponent."""


class ZeroShadowError(TreeGibbsError):
    """A non-funnel core state carries zero shadow mass."""


class ReducibleChainError(TreeGibbsError):
    """The chain support splits into non-communicating pieces."""


class NoGeometricDriftError(TreeGibbsError):
    """No geometric drift weight family exists for the requested tail."""


class ResourceLimitError(TreeGibbsError):
    """A computation would exceed a fixed resource guard."""
