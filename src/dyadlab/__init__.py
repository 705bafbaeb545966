"""Desk-scale laboratory for a positive dyadic box operator between
mixed-norm spaces: exact testing constants, stopping families, Carleson
embedding checks and operator-norm estimation on finite truncated lattices.
"""

from .errors import GuardError, PathError, SchemaError, SizeLimitError
from .forms import Instance, lambda_array, lambda_form, lambda_form_local, test_function
from .generators import GenSpec, adversarial_family, generate, worked_instances
from .lattice import DyadicSystem, build_system
from .measures import conjugate, ell2_slice, lp_norm, mixed_norm
from .normest import NormEstimate, alternating_maximization, grid_oracle, spectral_oracle_p2
from .stopping import StoppingFamily, build_average_family, build_ratio_family
from .testing_constants import TestingReport, testing_report

__all__ = [
    "DyadicSystem",
    "GenSpec",
    "GuardError",
    "Instance",
    "NormEstimate",
    "PathError",
    "SchemaError",
    "SizeLimitError",
    "StoppingFamily",
    "TestingReport",
    "adversarial_family",
    "alternating_maximization",
    "build_average_family",
    "build_ratio_family",
    "build_system",
    "conjugate",
    "ell2_slice",
    "generate",
    "grid_oracle",
    "lambda_array",
    "lambda_form",
    "lambda_form_local",
    "lp_norm",
    "mixed_norm",
    "spectral_oracle_p2",
    "test_function",
    "testing_report",
    "worked_instances",
]

__version__ = "0.1.0"
