"""Spectral filtering for symmetric linear dynamical systems and a
Monte Carlo harness measuring excess prediction risk, burn-in complexity,
and empirical filter-count complexity."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    ContractViolation,
    IncompatiblePairing,
    IntegrationBlowup,
    NumericalFailure,
    SingularSystem,
)
from .learnability import (
    BiasVarianceReport,
    BurnInReport,
    MStarReport,
    RiskCurve,
    bias_variance_split,
    burn_in_time,
    estimate_excess_risk,
    minimal_filter_count,
    read_risk_curve_csv,
    resolve_oracle,
    write_burn_in_csv,
)
from .numerics import SeededRng, sym_eig
from .oracles import KalmanPredictor, KernelOracle, TruthOracle
from .predictors import SpectralPredictor
from .spectral import (
    FilterBank,
    build_filter_bank,
    hilbert_matrix,
    reliable_filter_cap,
)
from .systems import (
    InitPolicy,
    LdsSpec,
    LorenzSpec,
    NoiseSpec,
    initial_states,
    simulate_ensemble,
    spectral_radius,
    stationary_observation_power,
    stationary_state_covariance,
    write_trajectory_csv,
)

__all__ = [
    "BiasVarianceReport",
    "BurnInReport",
    "ConfigError",
    "ContractViolation",
    "FilterBank",
    "IncompatiblePairing",
    "InitPolicy",
    "IntegrationBlowup",
    "KalmanPredictor",
    "KernelOracle",
    "LdsSpec",
    "LorenzSpec",
    "MStarReport",
    "NoiseSpec",
    "NumericalFailure",
    "RiskCurve",
    "SeededRng",
    "SingularSystem",
    "SpectralPredictor",
    "TruthOracle",
    "bias_variance_split",
    "build_filter_bank",
    "burn_in_time",
    "estimate_excess_risk",
    "hilbert_matrix",
    "initial_states",
    "minimal_filter_count",
    "read_risk_curve_csv",
    "reliable_filter_cap",
    "resolve_oracle",
    "simulate_ensemble",
    "spectral_radius",
    "stationary_observation_power",
    "stationary_state_covariance",
    "sym_eig",
    "write_burn_in_csv",
    "write_trajectory_csv",
]
