"""Kernel plug-in estimation for current status data with continuous marks.

The observable data are triples ``(t, z, delta)``: a censoring time, a mark
(zero when censored) and the indicator of whether the latent event happened
by ``t``.  The package estimates the joint law of the event time and mark
from such data, studies the estimators' limit behaviour by seeded Monte
Carlo, and selects bandwidths through a smoothed bootstrap.
"""

from .errors import (
    BandwidthRegimeError,
    CsmarkError,
    DegeneratePilotError,
    DerivativeUnavailableError,
    EmptySampleError,
    InvalidBandwidthError,
    KernelAssumptionError,
    QuadratureError,
    ReplicationFailureError,
    SelectionError,
    SupportError,
    UnstableDenominatorError,
)
from .kernels import (
    Bandwidths,
    KernelValidationReport,
    UnivariateKernel,
    custom_kernel,
    epanechnikov_kernel,
    eval_rescaled,
    eval_rescaled_cdf,
    l2_norm_sq,
    second_moment,
    uniform_kernel,
    validate_conditions,
)
from .scenarios import (
    Sample,
    Scenario,
    sample,
    scenario_a,
    scenario_b,
)
from .estimators import (
    EstimatorConfig,
    evaluate_grid,
    f1,
    f1_counting,
    f2,
    f2_density,
    write_grid_csv,
)
from .asymptotics import (
    AsymptoticParams,
    BandwidthSchedule,
    EquivalenceCurve,
    MeanFunctionalResult,
    MonteCarloSummary,
    difference_sample,
    efficient_variance,
    equivalence_curve,
    mc_functional,
    mc_mse,
    mc_normality,
    mean_functional,
    mu1_sigma2,
    mu2,
    true_mean_event_time,
)
from .bandwidth import (
    BootstrapMseTable,
    BootstrapPlan,
    MseRow,
    PilotModel,
    bootstrap_mse,
    fit_pilot,
    select,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "CsmarkError",
    "InvalidBandwidthError",
    "DerivativeUnavailableError",
    "KernelAssumptionError",
    "SupportError",
    "EmptySampleError",
    "BandwidthRegimeError",
    "UnstableDenominatorError",
    "DegeneratePilotError",
    "ReplicationFailureError",
    "SelectionError",
    "QuadratureError",
    # kernels
    "UnivariateKernel",
    "Bandwidths",
    "KernelValidationReport",
    "uniform_kernel",
    "epanechnikov_kernel",
    "custom_kernel",
    "eval_rescaled",
    "eval_rescaled_cdf",
    "second_moment",
    "l2_norm_sq",
    "validate_conditions",
    # scenarios
    "Scenario",
    "Sample",
    "scenario_a",
    "scenario_b",
    "sample",
    # estimators
    "EstimatorConfig",
    "f1",
    "f1_counting",
    "f2",
    "f2_density",
    "evaluate_grid",
    "write_grid_csv",
    # asymptotics
    "AsymptoticParams",
    "BandwidthSchedule",
    "EquivalenceCurve",
    "MonteCarloSummary",
    "mu1_sigma2",
    "mu2",
    "mc_normality",
    "mc_mse",
    "equivalence_curve",
    "difference_sample",
    "MeanFunctionalResult",
    "mean_functional",
    "true_mean_event_time",
    "efficient_variance",
    "mc_functional",
    # bandwidth selection
    "BootstrapPlan",
    "BootstrapMseTable",
    "MseRow",
    "PilotModel",
    "fit_pilot",
    "bootstrap_mse",
    "select",
]
