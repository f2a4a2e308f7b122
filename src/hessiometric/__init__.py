"""Degenerate Hessian metrics on radiant state spaces: metric assembly
from scalar potentials, extensivity and Gibbs-Duhem diagnostics, linear
Hessian submanifolds, Ruppeiner-style curvature, and Legendre duality."""

from .errors import (DegenerateSliceError, DomainError, ExprSyntaxError,
                     HessiometricError, ModelSchemaError, RankDeficientError,
                     SingularDualChartError, UnknownIdentifierError)
from .expr import parse, validate, eval_jet
from .geometry import (KernelBasis, MetricField, codazzi_residual,
                       euler_defect, gibbs_duhem_residual, hessian_metric,
                       kernel, psd_check)
from .jets import Jet
from .models import BUILTIN_NAMES, PotentialModel, builtin, load_model
from .submanifold import (CurvatureReport, DualPotential, PullbackData,
                          SliceSpec, christoffel_derivatives, curvature,
                          dual_coordinates, dual_flatness_residual,
                          dual_potential, legendre_invariance_residual,
                          levi_civita, make_slice, pullback_metric)

__version__ = "0.1.0"
