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


# The predictor classes' public attributes, of an instance, so both the
# class's methods and what its constructor sets.  Each runs one way, as a
# stream (`stream(shape, rows, k)`), and the truth oracle none: a second
# way to run a predictor shows here.
PREDICTOR_PUBLIC = {
    "SpectralPredictor": [
        "ar",
        "bank",
        "baseline",
        "label",
        "obs_dim",
        "readout",
        "refit_period",
        "reg",
        "state_size",
        "stream",
    ],
    "KalmanPredictor": [
        "A",
        "C",
        "P0",
        "Q",
        "R",
        "d",
        "label",
        "p",
        "regularized_steps",
        "spec",
        "steady_state",
        "stream",
    ],
    "KernelOracle": ["betas", "label", "p", "stream"],
    "TruthOracle": ["label", "spec"],
}


def test_predictor_surfaces_are_pinned():
    spec = dynolearn.LdsSpec(A=[[0.5]], C=[[1.0]], noise=dynolearn.NoiseSpec(0.1, 0.1))
    instances = [
        dynolearn.SpectralPredictor(dynolearn.build_filter_bank(8, 2)),
        dynolearn.KalmanPredictor(spec),
        dynolearn.KernelOracle(spec),
        dynolearn.TruthOracle(),
    ]
    surfaces = {
        type(obj).__name__: sorted(name for name in dir(obj) if name[0] != "_")
        for obj in instances
    }
    assert surfaces == PREDICTOR_PUBLIC
