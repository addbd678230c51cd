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
    agnostic_gap,
    bias_variance_split,
    burn_in_time,
    estimate_excess_risk,
    minimal_filter_count,
    read_risk_curve_csv,
    resolve_oracle,
    write_burn_in_csv,
)
from .numerics import SeededRng, solve_normal_system, sym_eig
from .oracles import (
    KalmanPredictor,
    KernelOracle,
    TruthOracle,
    default_kernel_truncation,
)
from .predictors import BaselinePredictor, SpectralPredictor
from .spectral import (
    FilterBank,
    build_filter_bank,
    hilbert_matrix,
    reliable_filter_cap,
    residual_energy,
    trajectory_features,
    truncate_bank,
)
from .systems import (
    InitPolicy,
    LdsSpec,
    LorenzSpec,
    NoiseSpec,
    initial_states,
    simulate_ensemble,
    simulate_lds_ensemble,
    spectral_radius,
    spectral_radius_symmetric,
    stationary_observation_power,
    stationary_state_covariance,
    write_trajectory_csv,
)

__all__ = [name for name in dir() if not name.startswith("_")]
