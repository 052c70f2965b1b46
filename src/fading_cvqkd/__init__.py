"""Simulation and security analysis of CV QKD over fading channels."""

from .channel import ProtocolParams, Run, noise_variance, simulate_run
from .clustering import ClusterPlan, ClusterReport, OptimizeResult, \
    cluster_assign, optimize, optimize_each, optimize_pooled, rate_ceiling, \
    total_key_rate, total_key_rate_from_estimates
from .distributions import Empirical, LogNegativeWeibull, Moments, \
    TransmittanceDistribution, TruncatedNormal, Uniform, \
    beam_geometry_constants, calibrate_beam_wander, from_descriptor
from .errors import ClusterTooSmallError, FadingCVQKDError, \
    InsufficientDataError, NumericalError, ParameterError, \
    UnphysicalStateError, ValidationError
from .estimation import AggregateStats, Estimates, WorstCaseChannel, \
    aggregate, estimate_flags, estimate_run, worst_case, worst_case_rectangular
from .security import EffectiveChannel, KeyRateReport, delta_fs, \
    effective_channel, holevo_bound, key_rate, mutual_information

__version__ = "0.1.0"

__all__ = [
    "ProtocolParams", "Run", "noise_variance", "simulate_run",
    "ClusterPlan", "ClusterReport", "OptimizeResult",
    "cluster_assign", "optimize", "optimize_each", "optimize_pooled",
    "rate_ceiling", "total_key_rate", "total_key_rate_from_estimates",
    "Empirical", "LogNegativeWeibull", "Moments",
    "TransmittanceDistribution", "TruncatedNormal", "Uniform",
    "beam_geometry_constants", "calibrate_beam_wander", "from_descriptor",
    "ClusterTooSmallError", "FadingCVQKDError",
    "InsufficientDataError", "NumericalError", "ParameterError",
    "UnphysicalStateError", "ValidationError",
    "AggregateStats", "Estimates", "WorstCaseChannel", "aggregate",
    "estimate_flags", "estimate_run", "worst_case", "worst_case_rectangular",
    "EffectiveChannel", "KeyRateReport", "delta_fs", "effective_channel",
    "holevo_bound", "key_rate", "mutual_information",
    "__version__",
]
