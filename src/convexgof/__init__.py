"""Distribution-free two- and k-sample tests built from convex generators.

A strictly convex function h on [0,1] with h(0) = 0 turns the pair of
empirical CDF integrals int h(F_n) dG_m + int h(G_m) dF_n into a test
statistic that is zero in population exactly when the distributions
coincide; a log-convex analogue uses xi and its antiderivative.  Null
distributions are calibrated by seeded Monte Carlo, and a quadrature /
enumeration oracle verifies the population identities.
"""

__version__ = "0.1.0"

from .ecdf import (
    MID,
    RIGHT_CONTINUOUS,
    Sample,
    read_sample,
)
from .errors import (
    ConvexGofError,
    DataIngestionError,
    EnumerationTooLargeError,
    GeneratorSpecError,
    InvalidParameterError,
    NotStrictlyConvexError,
    NumericalError,
    QuadratureError,
)
from .generators import (
    ConvexGenerator,
    LogConvexGenerator,
    ValidationReport,
    bernstein_generator,
    exp_sq_generator,
    parse_generator_spec,
    polynomial_generator,
    power_generator,
    validate_generator,
)
from .nulldist import (
    K_SAMPLE,
    TAU,
    TWO_SAMPLE,
    NullTable,
    PowerStudyResult,
    TestReport,
    critical_value,
    load_table,
    p_value,
    power_study,
    replicate_stream,
    run_test,
    save_table,
    simulate_null,
)
from .oracle import (
    AnalyticCdf,
    BatteryCase,
    ExactNullDistribution,
    MaxProbabilityEstimate,
    battery_to_csv,
    cvm_distance,
    enumerate_null,
    exponential_cdf,
    jensen_gap,
    log_convex_functional,
    logistic_cdf,
    max_probability,
    population_functional,
    population_gap,
    power_cdf,
    run_battery,
    uniform_cdf,
)
from .statistics import (
    StatisticValue,
    WeightVector,
    k_sample_statistic,
    tau_statistic,
    two_sample_statistic,
)

__all__ = [
    "__version__",
    # generators
    "ConvexGenerator", "LogConvexGenerator", "ValidationReport",
    "power_generator", "polynomial_generator", "bernstein_generator",
    "exp_sq_generator", "validate_generator", "parse_generator_spec",
    # ecdf
    "Sample", "RIGHT_CONTINUOUS", "MID", "read_sample",
    # statistics
    "WeightVector", "StatisticValue", "two_sample_statistic",
    "k_sample_statistic", "tau_statistic",
    # nulldist
    "TWO_SAMPLE", "K_SAMPLE", "TAU", "NullTable", "TestReport",
    "PowerStudyResult", "simulate_null", "p_value", "critical_value",
    "run_test", "power_study", "replicate_stream", "save_table", "load_table",
    # oracle
    "AnalyticCdf", "uniform_cdf", "power_cdf", "logistic_cdf",
    "exponential_cdf", "population_functional", "population_gap",
    "cvm_distance", "max_probability", "MaxProbabilityEstimate",
    "jensen_gap", "log_convex_functional", "enumerate_null",
    "ExactNullDistribution", "run_battery", "battery_to_csv", "BatteryCase",
    # errors
    "ConvexGofError", "InvalidParameterError", "NotStrictlyConvexError",
    "GeneratorSpecError", "DataIngestionError", "NumericalError", "QuadratureError",
    "EnumerationTooLargeError",
]
