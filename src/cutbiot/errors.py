"""Exception types shared across the package.

The CLI maps these onto process exit codes: configuration problems exit
with 2, solver failures with 3, geometry failures with 4, any other package
error with 1.
"""


class CutBiotError(Exception):
    """Base class for all package errors."""


class ConfigurationError(CutBiotError):
    """Invalid user input: mesh/geometry/stabilization parameters or config file."""


class GeometryError(CutBiotError):
    """Base class for geometry processing failures."""


class GeometryResolutionError(GeometryError):
    """The implicit boundary could not be resolved by the cut-cell subdivision."""


class GeometryConflictError(GeometryError):
    """Both level sets vanish in the same cell; boundary parts are ambiguous."""


class AssemblyError(CutBiotError):
    """Inconsistent inputs detected during form assembly (layouts, tags)."""


class SolverError(CutBiotError):
    """Linear solve failed: structural/numerical singularity or residual too large."""
