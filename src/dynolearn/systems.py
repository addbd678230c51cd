"""System generators: linear state-space models, closed-loop variants, Lorenz.

Simulation is a pure function of (spec, x0, seed); replaying the same seed
reproduces the trajectory bit for bit.  Ensemble simulators vectorize the
same recursions across trajectories, one child random stream per row.
Drawing an ensemble's noise (`ensemble_noise`) is separate from the state
recursion, so the Monte Carlo harness draws the noise once per ensemble and
shares it, read-only, across the whole x0 grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.linalg

from ._canon import content_digest
from .errors import ContractViolation, IntegrationBlowup
from .numerics import SeededRng, as_matrix, as_vector, sym_eig

LORENZ_COORDS = {"x": 0, "y": 1, "z": 2}

# Fixed entropy for the deterministic quasi-random direction grids; part of
# the file-format-level contract, do not change casually.
_GRID_ENTROPY = 0x1E7BA5E5


@dataclass(frozen=True)
class NoiseSpec:
    """Isotropic process / observation noise levels (Gaussian or disabled)."""

    kind: str = "gaussian"  # "gaussian" | "none"
    stdev_process: float = 0.0
    stdev_obs: float = 0.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "none"):
            raise ContractViolation(f"unknown noise kind {self.kind!r}")
        for name in ("stdev_process", "stdev_obs"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ContractViolation(f"{name} must be finite and >= 0, got {v}")

    @property
    def is_noiseless(self) -> bool:
        return self.kind == "none" or (self.stdev_process == 0.0 and self.stdev_obs == 0.0)


@dataclass(frozen=True)
class InitPolicy:
    """Admissible initial states: a fixed point, a deterministic sphere grid,
    or draws from the stationary law of the system."""

    kind: str = "fixed"  # "fixed" | "ball_grid" | "stationary"
    x0: tuple[float, ...] | None = None
    radius: float = 1.0
    points: int = 8

    def __post_init__(self):
        if self.kind not in ("fixed", "ball_grid", "stationary"):
            raise ContractViolation(f"unknown init policy kind {self.kind!r}")
        if self.kind == "fixed":
            if self.x0 is None:
                raise ContractViolation("fixed init policy requires x0")
            object.__setattr__(self, "x0", tuple(float(v) for v in self.x0))
        if self.kind == "ball_grid" and not self.radius > 0:
            raise ContractViolation(f"ball_grid radius must be > 0, got {self.radius}")
        if self.points < 1:
            raise ContractViolation(f"points must be >= 1, got {self.points}")

    def states(self, d: int, system=None) -> list[np.ndarray]:
        """Deterministic list of initial states for dimension d."""
        if self.kind == "fixed":
            x0 = np.asarray(self.x0, dtype=float)
            if x0.shape != (d,):
                raise ContractViolation(f"fixed x0 has length {x0.size}, expected {d}")
            return [x0]
        if self.kind == "ball_grid":
            return _sphere_grid(d, self.radius, self.points)
        if system is None:
            raise ContractViolation("stationary init policy needs the system spec")
        return _stationary_states(system, self.points)

    def covariance_scale(self) -> float:
        """Prior variance per coordinate encoding ignorance of the initial state."""
        if self.kind == "fixed":
            return float(np.dot(self.x0, self.x0))
        return float(self.radius) ** 2


def _sphere_grid(d: int, radius: float, points: int) -> list[np.ndarray]:
    if d == 1:
        # the 1-d sphere has exactly two points
        return [np.array([radius * s]) for s in (1.0, -1.0)][:points]
    gen = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=_GRID_ENTROPY, spawn_key=(d, points)))
    )
    dirs = gen.standard_normal((points, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return [radius * dirs[i] for i in range(points)]


@dataclass(eq=False)
class LdsSpec:
    """Linear dynamical system x' = A x + w, y = C x + v, optionally with a
    linear feedback loop through (B, K) so that the effective transition is
    A + B K."""

    A: np.ndarray
    C: np.ndarray
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    init: InitPolicy = field(default_factory=lambda: InitPolicy(kind="ball_grid"))
    B: np.ndarray | None = None
    K: np.ndarray | None = None
    symmetric_flag: bool = True

    def __post_init__(self):
        self.A = as_matrix(self.A, "A")
        d = self.A.shape[0]
        if self.A.shape != (d, d):
            raise ContractViolation(f"A must be square, got {self.A.shape}")
        self.C = as_matrix(self.C, "C")
        if self.C.shape[1] != d:
            raise ContractViolation(f"C has {self.C.shape[1]} columns, expected {d}")
        if (self.B is None) != (self.K is None):
            raise ContractViolation("B and K must be provided together")
        if self.B is not None:
            self.B = as_matrix(self.B, "B")
            self.K = as_matrix(self.K, "K")
            if self.B.shape[0] != d or self.K.shape != (self.B.shape[1], d):
                raise ContractViolation(
                    f"incompatible control shapes B={self.B.shape}, K={self.K.shape}"
                )
            rho = spectral_radius(self.A + self.B @ self.K)
            if not rho < 1.0:
                raise ContractViolation(
                    f"unstable closed loop: spectral radius of A + B K is {rho:.6f} >= 1"
                )
        if self.symmetric_flag:
            asym = float(np.abs(self.A - self.A.T).max())
            if asym > 1e-12:
                raise ContractViolation(f"symmetric_flag set but max |A - A^T| = {asym:.3e}")
            norm = spectral_radius_symmetric(self.A)
            if norm > 1.0 + 1e-10:
                raise ContractViolation(f"symmetric_flag set but ||A||_2 = {norm:.6f} > 1")
        for M in (self.A, self.C, self.B, self.K):
            if M is not None:
                M.setflags(write=False)

    @property
    def d(self) -> int:
        return self.A.shape[0]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    def effective_transition(self) -> np.ndarray:
        if self.B is None:
            return self.A
        return self.A + self.B @ self.K

    def process_cov(self) -> np.ndarray:
        s = 0.0 if self.noise.kind == "none" else self.noise.stdev_process
        return (s * s) * np.eye(self.d)

    def obs_cov(self) -> np.ndarray:
        s = 0.0 if self.noise.kind == "none" else self.noise.stdev_obs
        return (s * s) * np.eye(self.p)

    def digest(self) -> str:
        return content_digest(
            {
                "type": "lds",
                "A": self.A,
                "C": self.C,
                "B": self.B if self.B is None else self.B,
                "K": self.K if self.K is None else self.K,
                "noise": (self.noise.kind, self.noise.stdev_process, self.noise.stdev_obs),
                "init": (self.init.kind, self.init.x0, self.init.radius, self.init.points),
                "symmetric": self.symmetric_flag,
            }
        )


@dataclass(eq=False)
class LorenzSpec:
    """Lorenz system integrated with classical fourth-order Runge-Kutta."""

    sigma: float = 10.0
    rho: float = 28.0
    beta: float = 8.0 / 3.0
    dt: float = 0.01
    obs_coords: tuple[str, ...] = ("x",)
    obs_noise: float = 0.0
    init: InitPolicy = field(default_factory=lambda: InitPolicy(kind="fixed", x0=(1.0, 1.0, 1.0)))

    def __post_init__(self):
        for name in ("sigma", "rho", "beta"):
            if not getattr(self, name) > 0:
                raise ContractViolation(f"{name} must be positive")
        if not 0 < self.dt <= 0.05:
            raise ContractViolation(f"dt must lie in (0, 0.05], got {self.dt}")
        coords = tuple(self.obs_coords)
        if not coords or any(c not in LORENZ_COORDS for c in coords):
            raise ContractViolation(f"obs_coords must be a nonempty subset of x,y,z, got {coords}")
        self.obs_coords = coords
        if self.obs_noise < 0:
            raise ContractViolation(f"obs_noise must be >= 0, got {self.obs_noise}")

    @property
    def d(self) -> int:
        return 3

    @property
    def p(self) -> int:
        return len(self.obs_coords)

    @property
    def is_noiseless(self) -> bool:
        return self.obs_noise == 0.0

    def digest(self) -> str:
        return content_digest(
            {
                "type": "lorenz",
                "params": (self.sigma, self.rho, self.beta, self.dt),
                "obs": self.obs_coords,
                "obs_noise": self.obs_noise,
                "init": (self.init.kind, self.init.x0, self.init.radius, self.init.points),
            }
        )


@dataclass(eq=False)
class Trajectory:
    """A realized observation sequence with optional latent states/inputs."""

    ys: np.ndarray  # (H, p)
    xs: np.ndarray | None
    us: np.ndarray | None
    seed: int
    spec_digest: str

    def __post_init__(self):
        self.ys = np.asarray(self.ys, dtype=float)
        if self.ys.ndim != 2 or self.ys.shape[0] < 1:
            raise ContractViolation(f"ys must be (H, p) with H >= 1, got {self.ys.shape}")
        if not np.isfinite(self.ys).all():
            raise ContractViolation("trajectory contains non-finite observations")
        if self.xs is not None and self.xs.shape[0] != self.ys.shape[0]:
            raise ContractViolation("xs and ys must have equal length")

    @property
    def horizon(self) -> int:
        return self.ys.shape[0]


# ---------------------------------------------------------------------------
# linear simulation


def _lds_noise(spec: LdsSpec, horizon: int, rng: SeededRng):
    if spec.noise.kind == "none":
        return np.zeros((horizon, spec.d)), np.zeros((horizon, spec.p))
    w = rng.normals((horizon, spec.d), 0.0, spec.noise.stdev_process)
    v = rng.normals((horizon, spec.p), 0.0, spec.noise.stdev_obs)
    return w, v


def _coerce_rng(seed) -> SeededRng:
    return seed if isinstance(seed, SeededRng) else SeededRng(seed)


def _simulate_linear(
    spec: LdsSpec, horizon: int, x0, rng: SeededRng, record_states: bool, record_inputs: bool
) -> Trajectory:
    if horizon < 1:
        raise ContractViolation(f"horizon must be >= 1, got {horizon}")
    x0 = as_vector(x0, "x0")
    if x0.shape != (spec.d,):
        raise ContractViolation(f"x0 has length {x0.size}, expected {spec.d}")
    A = spec.effective_transition()
    C = spec.C
    w, v = _lds_noise(spec, horizon, rng)
    ys = np.empty((horizon, spec.p))
    xs = np.empty((horizon, spec.d)) if record_states else None
    us = np.empty((horizon, spec.K.shape[0])) if (record_inputs and spec.K is not None) else None
    x = x0.copy()
    for t in range(horizon):
        ys[t] = C @ x + v[t]
        if xs is not None:
            xs[t] = x
        if us is not None:
            us[t] = spec.K @ x
        x = A @ x + w[t]
    return Trajectory(ys=ys, xs=xs, us=us, seed=rng.seed, spec_digest=spec.digest())


def simulate_lds(spec: LdsSpec, horizon: int, x0, seed, record_states: bool = False) -> Trajectory:
    """Simulate x' = A x + w, y = C x + v for `horizon` steps from x0."""
    return _simulate_linear(spec, horizon, x0, _coerce_rng(seed), record_states, False)


def simulate_closed_loop(
    spec: LdsSpec, horizon: int, x0, seed, record_states: bool = False
) -> Trajectory:
    """Simulate the closed loop x' = (A + B K) x + w; records u = K x with the states."""
    if spec.B is None:
        raise ContractViolation("closed-loop simulation requires B and K in the spec")
    return _simulate_linear(spec, horizon, x0, _coerce_rng(seed), record_states, record_states)


def ensemble_noise(system, horizon: int, rngs: Sequence[SeededRng], out=None):
    """Noise of an n-trajectory ensemble: (W, V) for an LDS, V for Lorenz.

    Row i comes from rngs[i] alone, drawn in the order of the
    single-trajectory simulators (w, then v), so any split of the rows
    between callers gives the same bits.  `out`, if given, has the layout of
    the result (or is a block of its rows) and is filled in place.
    """
    n = len(rngs)
    if isinstance(system, LdsSpec):
        if out is None:
            out = (np.empty((n, horizon, system.d)), np.empty((n, horizon, system.p)))
        W, V = out
        for i, rng in enumerate(rngs):
            W[i], V[i] = _lds_noise(system, horizon, rng)
        return out
    if isinstance(system, LorenzSpec):
        V = np.empty((n, horizon, system.p)) if out is None else out
        for i, rng in enumerate(rngs):
            V[i] = _lorenz_noise(system, horizon, rng)
        return V
    raise ContractViolation(f"unsupported system type {type(system)!r}")


def _check_noise(arrays, n: int, horizon: int) -> None:
    for a in arrays:
        if a.shape[:2] != (n, horizon):
            raise ContractViolation(
                f"noise has shape {a.shape}, expected ({n}, {horizon}, ...) for this ensemble"
            )


def simulate_lds_ensemble(
    spec: LdsSpec, horizon: int, x0, rngs: Sequence[SeededRng], *, noise=None
) -> np.ndarray:
    """Observations (n, H, p) for n trajectories sharing x0, one child stream each.

    Mathematically identical to stacking `simulate_lds` outputs; the recursion
    is vectorized across trajectories.  `noise`, if given, is the (W, V) that
    `ensemble_noise(spec, horizon, rngs)` returned: it is read, not drawn
    again, so one draw can serve every x0 of a grid.
    """
    x0 = as_vector(x0, "x0")
    if x0.shape != (spec.d,):
        raise ContractViolation(f"x0 has length {x0.size}, expected {spec.d}")
    n = len(rngs)
    W, V = ensemble_noise(spec, horizon, rngs) if noise is None else noise
    _check_noise((W, V), n, horizon)
    A = spec.effective_transition()
    C = spec.C
    Ys = np.empty((n, horizon, spec.p))
    X = np.broadcast_to(x0, (n, spec.d)).copy()
    At, Ct = A.T.copy(), C.T.copy()
    for t in range(horizon):
        Ys[:, t, :] = X @ Ct + V[:, t]
        X = X @ At + W[:, t]
    return Ys


# ---------------------------------------------------------------------------
# Lorenz simulation


def _lorenz_deriv(s: np.ndarray, sigma: float, rho: float, beta: float) -> np.ndarray:
    x, y, z = s[..., 0], s[..., 1], s[..., 2]
    return np.stack([sigma * (y - x), x * (rho - z) - y, x * y - beta * z], axis=-1)


def _lorenz_noise(spec: LorenzSpec, horizon: int, rng: SeededRng) -> np.ndarray:
    if spec.obs_noise > 0:
        return rng.normals((horizon, spec.p), 0.0, spec.obs_noise)
    return np.zeros((horizon, spec.p))


def _rk4_step(s: np.ndarray, dt: float, sigma: float, rho: float, beta: float) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):  # blowups surface as IntegrationBlowup
        k1 = _lorenz_deriv(s, sigma, rho, beta)
        k2 = _lorenz_deriv(s + 0.5 * dt * k1, sigma, rho, beta)
        k3 = _lorenz_deriv(s + 0.5 * dt * k2, sigma, rho, beta)
        k4 = _lorenz_deriv(s + dt * k3, sigma, rho, beta)
        return s + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def simulate_lorenz(
    spec: LorenzSpec, horizon: int, x0, seed, record_states: bool = False
) -> Trajectory:
    """Integrate the Lorenz equations, observing the selected coordinates each step."""
    if horizon < 1:
        raise ContractViolation(f"horizon must be >= 1, got {horizon}")
    x0 = as_vector(x0, "x0")
    if x0.shape != (3,):
        raise ContractViolation(f"Lorenz x0 must have length 3, got {x0.size}")
    rng = _coerce_rng(seed)
    coords = [LORENZ_COORDS[c] for c in spec.obs_coords]
    v = _lorenz_noise(spec, horizon, rng)
    ys = np.empty((horizon, spec.p))
    xs = np.empty((horizon, 3)) if record_states else None
    s = x0.copy()
    for t in range(horizon):
        ys[t] = s[coords] + v[t]
        if xs is not None:
            xs[t] = s
        s = _rk4_step(s, spec.dt, spec.sigma, spec.rho, spec.beta)
        if not np.isfinite(s).all():
            raise IntegrationBlowup(f"Lorenz integration produced non-finite state at step {t + 1}")
    return Trajectory(ys=ys, xs=xs, us=None, seed=rng.seed, spec_digest=spec.digest())


def simulate_lorenz_ensemble(
    spec: LorenzSpec, horizon: int, x0, rngs: Sequence[SeededRng], *, noise=None
) -> np.ndarray:
    """Observations (n, H, p) for n Lorenz runs from the same x0 (noise streams differ).

    `noise`, if given, is the V that `ensemble_noise(spec, horizon, rngs)`
    returned; it is read, not drawn again.
    """
    x0 = as_vector(x0, "x0")
    n = len(rngs)
    coords = [LORENZ_COORDS[c] for c in spec.obs_coords]
    V = ensemble_noise(spec, horizon, rngs) if noise is None else noise
    _check_noise((V,), n, horizon)
    Ys = np.empty((n, horizon, spec.p))
    S = np.broadcast_to(x0, (n, 3)).copy()
    for t in range(horizon):
        Ys[:, t, :] = S[:, coords] + V[:, t]
        S = _rk4_step(S, spec.dt, spec.sigma, spec.rho, spec.beta)
        if not np.isfinite(S).all():
            raise IntegrationBlowup(f"Lorenz integration produced non-finite state at step {t + 1}")
    return Ys


# ---------------------------------------------------------------------------
# spec utilities


def spectral_norm(M) -> float:
    """Largest singular value, computed from the eigenvalues of M^T M."""
    A = as_matrix(M, "matrix")
    if A.shape[0] != A.shape[1]:
        raise ContractViolation(f"spectral_norm expects a square matrix, got {A.shape}")
    evals, _ = sym_eig(A.T @ A)
    return float(np.sqrt(max(evals[0], 0.0)))


def spectral_radius_symmetric(M) -> float:
    """Largest |eigenvalue| of a symmetric matrix."""
    evals, _ = sym_eig(M)
    return float(max(abs(evals[0]), abs(evals[-1])))


def spectral_radius(M) -> float:
    """Largest |eigenvalue| of a general square matrix (stability checks)."""
    A = as_matrix(M, "matrix")
    if A.shape[0] != A.shape[1]:
        raise ContractViolation(f"spectral_radius expects a square matrix, got {A.shape}")
    return float(np.abs(np.linalg.eigvals(A)).max())


def stationary_state_covariance(spec: LdsSpec) -> np.ndarray:
    """Fixed point of Sigma = A Sigma A^T + Q for the (stable) effective transition."""
    A = spec.effective_transition()
    if not spectral_radius(A) < 1.0 - 1e-12:
        raise ContractViolation("stationary covariance requires spectral radius < 1")
    Q = spec.process_cov()
    return scipy.linalg.solve_discrete_lyapunov(A, Q)


def stationary_observation_power(spec: LdsSpec) -> float:
    """Stationary E||y||^2 = tr(C Sigma C^T) + p * stdev_obs^2."""
    sigma = stationary_state_covariance(spec)
    r = 0.0 if spec.noise.kind == "none" else spec.noise.stdev_obs ** 2
    return float(np.trace(spec.C @ sigma @ spec.C.T) + spec.p * r)


def _stationary_states(system, points: int) -> list[np.ndarray]:
    gen = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=_GRID_ENTROPY, spawn_key=(points, 7)))
    )
    if isinstance(system, LdsSpec):
        sigma = stationary_state_covariance(system)
        evals, vecs = sym_eig(sigma)
        root = vecs @ np.diag(np.sqrt(np.maximum(evals, 0.0)))
        return [root @ gen.standard_normal(system.d) for _ in range(points)]
    if isinstance(system, LorenzSpec):
        # burn onto the attractor, then take states spaced two time units
        burn = int(round(10.0 / system.dt))
        gap = int(round(2.0 / system.dt))
        s = np.array([1.0, 1.0, 1.0])
        for _ in range(burn):
            s = _rk4_step(s, system.dt, system.sigma, system.rho, system.beta)
        states = []
        for _ in range(points):
            states.append(s.copy())
            for _ in range(gap):
                s = _rk4_step(s, system.dt, system.sigma, system.rho, system.beta)
        return states
    raise ContractViolation(f"unsupported system type {type(system)!r}")


def initial_states(system) -> list[np.ndarray]:
    """Initial-state grid of a system spec, with exact duplicates removed."""
    states = system.init.states(system.d, system)
    seen: list[np.ndarray] = []
    for s in states:
        if not any(np.array_equal(s, t) for t in seen):
            seen.append(s)
    return seen


def simulate_ensemble(
    system, horizon: int, x0, rngs: Sequence[SeededRng], *, noise=None
) -> np.ndarray:
    if isinstance(system, LdsSpec):
        return simulate_lds_ensemble(system, horizon, x0, rngs, noise=noise)
    if isinstance(system, LorenzSpec):
        return simulate_lorenz_ensemble(system, horizon, x0, rngs, noise=noise)
    raise ContractViolation(f"unsupported system type {type(system)!r}")


# ---------------------------------------------------------------------------
# serialization


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """CSV with header t,y_0,...,y_{p-1}[,x_0,...,x_{d-1}], one row per step."""
    p = traj.ys.shape[1]
    cols = ["t"] + [f"y_{j}" for j in range(p)]
    if traj.xs is not None:
        cols += [f"x_{j}" for j in range(traj.xs.shape[1])]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        for t in range(traj.horizon):
            row = [str(t + 1)] + [format_float(v) for v in traj.ys[t]]
            if traj.xs is not None:
                row += [format_float(v) for v in traj.xs[t]]
            fh.write(",".join(row) + "\n")


def random_symmetric_psd(d: int, eig_low: float, eig_high: float, rng: SeededRng) -> np.ndarray:
    """Random symmetric PSD matrix with spectrum drawn uniformly from [eig_low, eig_high]."""
    if not 0 <= eig_low <= eig_high:
        raise ContractViolation("need 0 <= eig_low <= eig_high")
    g = rng.generator
    q, _ = np.linalg.qr(g.standard_normal((d, d)))
    lam = eig_low + (eig_high - eig_low) * g.random(d)
    M = (q * lam[None, :]) @ q.T
    return 0.5 * (M + M.T)


def random_unit_row(d: int, rng: SeededRng) -> np.ndarray:
    """1 x d observation matrix with unit Euclidean norm."""
    c = rng.generator.standard_normal(d)
    return (c / np.linalg.norm(c))[None, :]
