import dynolearn

# The package's public names.  A name added or removed here is public API
# gained or lost: it shows in review, and a name nothing needs is deleted.
PUBLIC = [
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
    "simulate_lds_ensemble",
    "spectral_radius",
    "stationary_observation_power",
    "stationary_state_covariance",
    "sym_eig",
    "write_burn_in_csv",
    "write_trajectory_csv",
]


def test_public_api_is_pinned():
    assert sorted(dynolearn.__all__) == PUBLIC
    assert all(hasattr(dynolearn, name) for name in PUBLIC)
