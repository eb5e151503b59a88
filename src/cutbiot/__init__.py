"""Cut finite element solver for the Biot system in total-pressure form."""

from .errors import (AssemblyError, ConfigurationError, CutBiotError,
                     GeometryConflictError, GeometryError, GeometryResolutionError,
                     SolverError)
from .forms import (BlockSystem, PhysicalParams, StabilizationParams, assemble_ghost,
                    assemble_rhs, assemble_system)
from .geometry import CutRule, LevelSetDomain, build_cut_rules, make_flower_domain
from .mesh import ActiveMesh, BackgroundMesh, CellTag, build_mesh, classify, translate_box
from .solver import SolveReport, estimate_condition, solve
from .spaces import FeSpace, FieldLayout, build_space
from .verification import ManufacturedCase, eoc, error_norms, make_case

__version__ = "0.1.0"
