"""Finite-N Monte Carlo simulator of the spherical pure p-spin model."""

from .checks import CovarianceRow, GradientCheckRow, covariance_check, gradient_fd_check
from .disorder import (
    DEFAULT_ENTRY_BUDGET,
    DisorderSizeError,
    DisorderTensor,
    gradient,
    hamiltonian,
    load_disorder,
    overlap,
    project_to_sphere,
    random_configuration,
    sample_disorder,
    save_disorder,
    sym_gradient,
)
from .ground_state import GroundStateResult, ground_state_search
from .mcmc import (
    OverlapHistogram,
    TemperingEnsemble,
    ThermoPoint,
    batch_means_stderr,
    default_ladder,
    overlap_probe,
    split_rhat,
    tempering_sweep,
    thermo_integration,
)

__all__ = [
    "DEFAULT_ENTRY_BUDGET",
    "CovarianceRow",
    "DisorderSizeError",
    "DisorderTensor",
    "GradientCheckRow",
    "GroundStateResult",
    "OverlapHistogram",
    "TemperingEnsemble",
    "ThermoPoint",
    "batch_means_stderr",
    "covariance_check",
    "default_ladder",
    "gradient",
    "gradient_fd_check",
    "ground_state_search",
    "hamiltonian",
    "load_disorder",
    "overlap",
    "overlap_probe",
    "project_to_sphere",
    "random_configuration",
    "sample_disorder",
    "save_disorder",
    "split_rhat",
    "sym_gradient",
    "tempering_sweep",
    "thermo_integration",
]
