"""Exception hierarchy.

Structural errors (bad grids, bad configs) are kept distinct from
validation *failures*, which are ordinary results carried in reports.
"""


class WarpedSphereError(Exception):
    """Base class for all package errors."""


class StructuralError(WarpedSphereError):
    """Malformed input data (non-monotone grid, wrong array shapes)."""


class DegenerateMetricError(WarpedSphereError):
    """The warping profile f vanishes in the interior."""


class DomainError(WarpedSphereError, ValueError):
    """Argument outside its admissible range (negative radius, etc.)."""


class ConstructionError(WarpedSphereError):
    """A metric family was asked for inadmissible parameters.

    Carries the name of the violated constraint.
    """

    def __init__(self, constraint: str, message: str = ""):
        self.constraint = constraint
        super().__init__(message or constraint)


class SolverError(WarpedSphereError):
    """A potential solve produced an unusable result."""


class ConfigError(WarpedSphereError):
    """Invalid solver or scenario configuration."""


class ResidualGuardError(WarpedSphereError):
    """A functional refused to evaluate a potential with a large PDE residual."""
