"""System generators: linear state-space models, closed-loop variants, Lorenz.

Simulation is a pure function of (spec, x0, seed); replaying the same seed
reproduces the trajectory bit for bit.  Ensemble simulators vectorize the
same recursions across trajectories, one child random stream per row; the
Lorenz one also takes a stack of initial states and integrates the whole
grid in one in-place RK4 recursion, with the same bits as one x0 at a time.
Drawing an ensemble's noise (`ensemble_noise`) is separate from the state
recursion, so the Monte Carlo harness draws the noise once per ensemble and
shares it, read-only, across the whole x0 grid.

An LDS observation is linear in (x0, noise): the run from x0 is the run from
0 on the same noise plus x0's free response C A^t x0 (`lds_free_responses`).
The harness therefore simulates an LDS ensemble once, from 0, for a whole
grid; the sum agrees with a direct run from x0 up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

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
    """A realized observation sequence with optional latent states."""

    ys: np.ndarray  # (H, p)
    xs: np.ndarray | None
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


def _lds_noise(spec: LdsSpec, horizon: int, rng: SeededRng, out=None):
    """Process and observation noise (w, v) of one trajectory, drawn into `out`
    ((H, d), (H, p)) when given."""
    w, v = (np.empty((horizon, spec.d)), np.empty((horizon, spec.p))) if out is None else out
    if spec.noise.kind == "none":
        w[...] = 0.0
        v[...] = 0.0
    else:
        rng.normals(w.shape, 0.0, spec.noise.stdev_process, out=w)
        rng.normals(v.shape, 0.0, spec.noise.stdev_obs, out=v)
    return w, v


def _coerce_rng(seed) -> SeededRng:
    return seed if isinstance(seed, SeededRng) else SeededRng(seed)


def simulate_lds(spec: LdsSpec, horizon: int, x0, seed, record_states: bool = False) -> Trajectory:
    """Simulate x' = A x + w, y = C x + v for `horizon` steps from x0, with
    A + B K in place of A for a closed-loop spec."""
    if horizon < 1:
        raise ContractViolation(f"horizon must be >= 1, got {horizon}")
    x0 = as_vector(x0, "x0")
    if x0.shape != (spec.d,):
        raise ContractViolation(f"x0 has length {x0.size}, expected {spec.d}")
    A = spec.effective_transition()
    C = spec.C
    rng = _coerce_rng(seed)
    w, v = _lds_noise(spec, horizon, rng)
    ys = np.empty((horizon, spec.p))
    xs = np.empty((horizon, spec.d)) if record_states else None
    x = x0.copy()
    for t in range(horizon):
        ys[t] = C @ x + v[t]
        if xs is not None:
            xs[t] = x
        x = A @ x + w[t]
    return Trajectory(ys=ys, xs=xs, seed=rng.seed, spec_digest=spec.digest())


def ensemble_noise(system, horizon: int, rngs: Sequence[SeededRng], out=None):
    """Noise of an n-trajectory ensemble: (W, V) for an LDS, V for Lorenz.

    Row i comes from rngs[i] alone, drawn in the order of the
    single-trajectory simulators (w, then v), so any split of the rows
    between callers gives the same bits.  `out`, if given, has the layout of
    the result (or is a block of its rows) and is filled in place: each row
    is drawn straight into its slot.
    """
    n = len(rngs)
    if isinstance(system, LdsSpec):
        if out is None:
            out = (np.empty((n, horizon, system.d)), np.empty((n, horizon, system.p)))
        W, V = out
        for i, rng in enumerate(rngs):
            _lds_noise(system, horizon, rng, out=(W[i], V[i]))
        return out
    if isinstance(system, LorenzSpec):
        V = np.empty((n, horizon, system.p)) if out is None else out
        for i, rng in enumerate(rngs):
            _lorenz_noise(system, horizon, rng, out=V[i])
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
    return _lds_steps(spec, horizon, np.broadcast_to(x0, (n, spec.d)).copy(), (W, V))


def lds_free_responses(spec: LdsSpec, horizon: int, states) -> np.ndarray:
    """Noise-free observations C A^t x0 (k, H, p) of a stack of k initial states.

    With the same noise, the run from x0 is the run from 0 plus x0's free
    response.  Row j depends on the whole stack only through the rounding of
    one (k, d) matmul per step, so a given stack always gives the same bits.
    """
    rows = [as_vector(x0, "x0") for x0 in states]
    for x0 in rows:
        if x0.shape != (spec.d,):
            raise ContractViolation(f"x0 has length {x0.size}, expected {spec.d}")
    if not rows:
        raise ContractViolation("states must be nonempty")
    return _lds_steps(spec, horizon, np.stack(rows))


def _lds_steps(spec: LdsSpec, horizon: int, X: np.ndarray, noise=None) -> np.ndarray:
    """Observations (k, H, p) of x' = A x + w, y = C x + v from the k rows of
    X, with (W, V) = `noise`, or none."""
    At, Ct = spec.effective_transition().T.copy(), spec.C.T.copy()
    Ys = np.empty((len(X), horizon, spec.p))
    for t in range(horizon):
        Ys[:, t, :] = X @ Ct
        X = X @ At
        if noise is not None:
            Ys[:, t, :] += noise[1][:, t]
            X += noise[0][:, t]
    return Ys


# ---------------------------------------------------------------------------
# Lorenz simulation


def _lorenz_noise(spec: LorenzSpec, horizon: int, rng: SeededRng, out=None) -> np.ndarray:
    """Observation noise (H, p) of one trajectory, drawn into `out` when given."""
    v = np.empty((horizon, spec.p)) if out is None else out
    if spec.obs_noise > 0:
        rng.normals(v.shape, 0.0, spec.obs_noise, out=v)
    else:
        v[...] = 0.0
    return v


class _Rk4:
    """Classical RK4 on the Lorenz field, stepping one (3, ...) state in place.

    The state is laid out coordinate first, so x, y and z are contiguous
    arrays of any shape.  Every stage writes into buffers allocated once,
    and the elementwise operations and their order are those of the textbook
    step `s + dt/6 (k1 + 2 k2 + 2 k3 + k4)`, so the bits do not depend on the
    shape: one run alone and the same run inside a stack agree exactly.
    """

    def __init__(self, spec: LorenzSpec, s: np.ndarray):
        self.s, self.dt = s, spec.dt
        self.sigma, self.rho, self.beta = spec.sigma, spec.rho, spec.beta
        self.k = np.empty((4,) + s.shape)
        self.arg = np.empty_like(s)
        self.tmp = np.empty(s.shape[1:])
        # coordinate views of each stage's input and output, made once
        inputs = (s, self.arg, self.arg, self.arg)
        self.stages = [(tuple(i), tuple(k)) for i, k in zip(inputs, self.k)]

    def _deriv(self, inp, out) -> None:
        (x, y, z), (dx, dy, dz) = inp, out
        np.subtract(y, x, out=dx)
        dx *= self.sigma  # sigma (y - x)
        np.subtract(self.rho, z, out=dy)
        dy *= x
        dy -= y  # x (rho - z) - y
        np.multiply(x, y, out=dz)
        np.multiply(z, self.beta, out=self.tmp)
        dz -= self.tmp  # x y - beta z

    def step(self) -> None:
        s, arg, stages = self.s, self.arg, self.stages
        k1, k2, k3, k4 = self.k
        half = 0.5 * self.dt
        self._deriv(*stages[0])
        np.multiply(k1, half, out=arg)
        arg += s
        self._deriv(*stages[1])
        np.multiply(k2, half, out=arg)
        arg += s
        self._deriv(*stages[2])
        np.multiply(k3, self.dt, out=arg)
        arg += s
        self._deriv(*stages[3])
        k2 *= 2.0
        k2 += k1
        k3 *= 2.0
        k2 += k3
        k2 += k4
        k2 *= self.dt / 6.0
        s += k2


_RECORD_VALUES = 1 << 16  # state values buffered between two calls of `record`


def _lorenz_steps(spec: LorenzSpec, s: np.ndarray, horizon: int, record) -> None:
    """Step the (3, ...) state s `horizon` times in place, recording each state.

    `record(t0, X)` receives, in order, blocks X (b, 3, ...) holding the
    states of steps t0 .. t0 + b - 1, each taken before it moves.  A
    non-finite state raises IntegrationBlowup naming the first step that
    produced one.
    """
    rk4 = _Rk4(spec, s)
    X = np.empty((max(1, min(horizon, _RECORD_VALUES // s.size)),) + s.shape)
    with np.errstate(over="ignore", invalid="ignore"):  # blowups surface as IntegrationBlowup
        for t0 in range(0, horizon, len(X)):
            block = X[: min(len(X), horizon - t0)]
            for i, x in enumerate(block):
                x[...] = s
                rk4.step()
                if not np.isfinite(s).all():
                    raise IntegrationBlowup(
                        f"Lorenz integration produced non-finite state at step {t0 + i + 1}"
                    )
            record(t0, block)


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

    def record(t0, X):
        t1 = t0 + len(X)
        np.add(X[:, coords, 0], v[t0:t1], out=ys[t0:t1])
        if xs is not None:
            xs[t0:t1] = X[:, :, 0]

    _lorenz_steps(spec, x0[:, None].copy(), horizon, record)
    return Trajectory(ys=ys, xs=xs, seed=rng.seed, spec_digest=spec.digest())


def simulate_lorenz_ensemble(
    spec: LorenzSpec, horizon: int, x0, rngs: Sequence[SeededRng], *, noise=None
) -> np.ndarray:
    """Observations of n Lorenz runs from each initial state (noise streams differ).

    x0 is one state (3,), giving (n, H, p), or a stack (k, 3), giving
    (k, n, H, p): the whole stack integrates in one recursion, and row i
    equals the call with x0[i] alone, bit for bit.  Every initial state
    reads the same noise.  `noise`, if given, is the V that
    `ensemble_noise(spec, horizon, rngs)` returned; it is read, not drawn
    again.
    """
    X0 = np.asarray(x0, dtype=float)
    if X0.ndim not in (1, 2) or X0.shape[-1] != 3 or X0.size == 0:
        raise ContractViolation(f"Lorenz x0 must be (3,) or (k, 3), got shape {X0.shape}")
    if not np.isfinite(X0).all():
        raise ContractViolation("x0 contains non-finite entries")
    stack = np.atleast_2d(X0)
    k, n = stack.shape[0], len(rngs)
    coords = [LORENZ_COORDS[c] for c in spec.obs_coords]
    V = ensemble_noise(spec, horizon, rngs) if noise is None else noise
    _check_noise((V,), n, horizon)
    Ys = np.empty((k, n, horizon, spec.p))

    def record(t0, X):  # X (b, 3, k, n) -> Ys[:, :, t0:t0 + b] (k, n, b, p)
        t1 = t0 + len(X)
        np.add(X[:, coords].transpose(2, 3, 0, 1), V[:, t0:t1], out=Ys[:, :, t0:t1])

    _lorenz_steps(spec, np.repeat(stack.T[:, :, None], n, axis=2), horizon, record)
    return Ys[0] if X0.ndim == 1 else Ys


# ---------------------------------------------------------------------------
# spec utilities


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
    import scipy.linalg  # here, not at the top: it dominates the package's import time

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
        s = np.ones((3, 1))
        rk4 = _Rk4(system, s)
        states = []
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(burn):
                rk4.step()
            for _ in range(points):
                states.append(s[:, 0].copy())
                for _ in range(gap):
                    rk4.step()
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
