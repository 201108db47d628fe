"""Pointwise curvature models of (kappa,mu)-contact space forms and a
verification engine for Chen-type curvature inequalities of their
submanifolds under two generalized semi-symmetric non-metric connections."""

from .contact import (
    ContactPointModel,
    ValidationReport,
    curvature_lc,
    random_point,
    standard_point,
    validate_structure,
)
from .connections import (
    ConnectionSpec,
    CorrectionTensors,
    ambient_curvature,
    correction_tensors,
    first_connection,
    second_connection,
)
from .errors import (
    DimensionMismatch,
    GeometryError,
    MissingArgument,
    NonSymmetricH,
    RankDeficient,
    ScenarioError,
    WrongConnectionKind,
)
from .frames import Plane, orthonormalize
from .fuzz import FuzzConfig, FuzzReport, run_fuzz
from .scenario import load_scenario, parse_scenario, save_scenario, scenario_from_parts
from .submanifold import (
    CasoratiCurvatures,
    SubmanifoldPoint,
    ThetaEstimate,
    attach,
    casorati,
    casorati_bounds,
    induced_curvature,
    ricci,
    ricci_form,
    scalar_tau,
    scalar_tau_pair,
    sectional,
    theta_k,
)
from .verifier import (
    CrossCheckReport,
    VerdictReport,
    applicable_theorems,
    casorati_verdict,
    cross_check,
    equality_instance,
    verify,
)

__version__ = "0.1.0"
