"""System generators: linear state-space models, closed-loop variants, Lorenz.

Every simulation is an ensemble: n trajectories from one initial state x0
(d,), checked once (`_x0`), one child random stream per row, so a pure
function of (spec, x0, streams); replaying the same streams reproduces the
ensemble bit for bit.  Each system type has one recursion: `_lds_steps` for
a linear system, `_lorenz_steps` (in-place RK4) for Lorenz, a generator of
blocks of states that also takes a stack of initial states and integrates
the whole grid at once, with the same bits as one x0 at a time; on the
harness's small states a step is bound by numpy's cost per call, so it is
45 numpy calls on 0-d array constants and nothing else (`_Rk4`).
A non-finite observation or state raises IntegrationBlowup naming the first
step that produced one.  Each simulator draws its ensemble's noise itself,
one block of rows per worker; row i comes from rngs[i] alone, so the bits do
not depend on the worker count.  Noise is drawn one piece of time at a time
(an LDS's process noise one chunk at a time as the recursion reaches it and
its observation noise one chunk at a time after it, a Lorenz run's
observation noise one recorded block at a time as the recursion makes it),
so the noise alive is bounded by the piece and not the horizon; the pieces
read each stream in the order of one whole draw, so the bits do not depend
on their size either.  A standard deviation of 0 disables that noise; a
noiseless system draws nothing.  Lorenz observations are yielded one
recorded block at a time (`_lorenz_observations`): the harness pushes
those blocks to its learners, and `simulate_ensemble` collects them.

An LDS observation is linear in (x0, noise): the run from x0 is the run from
0 on the same noise plus x0's free response C A^t x0 (`lds_free_responses`).
The harness therefore simulates an LDS ensemble once, from 0, for a whole
grid; the sum agrees with a direct run from x0 up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ContractViolation, IntegrationBlowup
from .numerics import SeededRng, _parallel_map, as_matrix, as_vector, sym_eig

LORENZ_COORDS = {"x": 0, "y": 1, "z": 2}

# Fixed entropy for the deterministic quasi-random direction grids; part of
# the file-format-level contract, do not change casually.
_GRID_ENTROPY = 0x1E7BA5E5


@dataclass(frozen=True)
class NoiseSpec:
    """Isotropic Gaussian process / observation noise levels; 0 disables one."""

    stdev_process: float = 0.0
    stdev_obs: float = 0.0

    def __post_init__(self):
        for name in ("stdev_process", "stdev_obs"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ContractViolation(f"{name} must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class InitPolicy:
    """Admissible initial states: a fixed point, a deterministic sphere grid,
    or draws from the stationary law of the system.

    The 1-d sphere has two points, so a 1-d `ball_grid` has the two states
    +radius and -radius whatever `points` (the config's `x0_points`) asks
    for above 1: `configs/scalar_lds.cfg` asks for 8 and gets 2."""

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
            norm = float(np.linalg.norm(self.A, 2))
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

    @property
    def is_noiseless(self) -> bool:
        return self.noise.stdev_process == 0.0 and self.noise.stdev_obs == 0.0

    def effective_transition(self) -> np.ndarray:
        if self.B is None:
            return self.A
        return self.A + self.B @ self.K

    def process_cov(self) -> np.ndarray:
        return self.noise.stdev_process**2 * np.eye(self.d)

    def obs_cov(self) -> np.ndarray:
        return self.noise.stdev_obs**2 * np.eye(self.p)


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
        if not np.isfinite(self.obs_noise) or self.obs_noise < 0:
            raise ContractViolation(f"obs_noise must be finite and >= 0, got {self.obs_noise}")

    @property
    def d(self) -> int:
        return 3

    @property
    def p(self) -> int:
        return len(self.obs_coords)

    @property
    def is_noiseless(self) -> bool:
        return self.obs_noise == 0.0


# ---------------------------------------------------------------------------
# noise


def _draw_noise(rngs: Sequence[SeededRng], shape, stdev: float, n_workers: int, out=None):
    """Gaussian noise (n, *shape) of an n-trajectory ensemble, written into
    `out` when given: row i is the next prod(shape) normals of rngs[i] alone,
    drawn one block of rows per worker, so the bits do not depend on
    n_workers.  A stream read in consecutive pieces gives the values of one
    draw of the whole."""
    n = len(rngs)
    out = np.empty((n, *shape)) if out is None else out

    def fill(rows):
        for i in rows:
            rngs[i].normals(shape, 0.0, stdev, out=out[i])

    k = max(1, min(n_workers, n))
    _parallel_map(fill, [range(n * j // k, n * (j + 1) // k) for j in range(k)], k)
    return out


# ---------------------------------------------------------------------------
# linear simulation


def lds_free_responses(spec: LdsSpec, horizon: int, states) -> np.ndarray:
    """Noise-free observations C A^t x0 (k, H, p) of a stack of k initial states.

    With the same noise, the run from x0 is the run from 0 plus x0's free
    response.  Row j depends on the whole stack only through the rounding of
    one (k, d) matmul per step, so a given stack always gives the same bits.
    """
    rows = [_x0(spec, x0) for x0 in states]
    if not rows:
        raise ContractViolation("states must be nonempty")
    return _lds_steps(spec, horizon, np.stack(rows))


_NOISE_VALUES = 1 << 20  # noise values drawn per time chunk of an LDS ensemble
_NOISE_ROWS = 1024  # and steps per chunk, so a chunk stops growing with the horizon


def _lds_steps(spec: LdsSpec, horizon: int, X: np.ndarray, rngs=None, n_workers=1, Xs=None):
    """Observations (k, H, p) of x' = A x + w, y = C x + v from the k rows of
    X; each step's state goes to Xs (k, H, d) when given.

    Without `rngs` there is no noise.  With one stream per row, row i reads
    rngs[i] as w (H, d), then v (H, p).  The w are drawn one time chunk of
    about `_NOISE_VALUES` values, and at most `_NOISE_ROWS` steps, at a time,
    and after the loop so are the v, each chunk added to its observations in
    place, so the noise alive is bounded by the chunk, not the horizon.  A
    noiseless spec draws nothing and adds zeros, as the noisy run adds its
    draws.

    The output is checked once, after the noise is added: a non-finite
    observation raises IntegrationBlowup naming the first step that has one.
    """
    At, Ct = spec.effective_transition().T.copy(), spec.C.T.copy()
    (k, d), p = X.shape, spec.p
    Ys = np.empty((k, horizon, p))
    noisy = rngs is not None and not spec.is_noiseless
    chunk = max(1, min(_NOISE_ROWS, _NOISE_VALUES // max(1, k * d)))  # k = 0: no ensemble
    W = None if rngs is None else np.zeros((k, min(chunk, horizon), d))
    with np.errstate(over="ignore", invalid="ignore"):  # blowups surface as IntegrationBlowup
        for t in range(horizon):
            if noisy and t % chunk == 0:
                b = min(chunk, horizon - t)
                _draw_noise(rngs, (b, d), spec.noise.stdev_process, n_workers, out=W[:, :b])
            if Xs is not None:
                Xs[:, t] = X
            Ys[:, t, :] = X @ Ct
            X = X @ At
            if W is not None:
                X += W[:, t % chunk]
        if noisy:  # w is spent: its buffer goes before v's chunks are drawn
            W, chunk = None, max(1, min(_NOISE_ROWS, _NOISE_VALUES // max(1, k * p)))
            V = np.empty((k, min(chunk, horizon), p))
            for t in range(0, horizon, chunk):
                v = V[:, : min(chunk, horizon - t)]
                _draw_noise(rngs, v.shape[1:], spec.noise.stdev_obs, n_workers, out=v)
                Ys[:, t : t + chunk] += v
        elif rngs is not None:
            Ys += 0.0
    # NaN propagates through min and max, so both are finite iff every entry is
    if not (np.isfinite(Ys.min(initial=0.0)) and np.isfinite(Ys.max(initial=0.0))):
        step = int(np.argmin(np.isfinite(Ys).all(axis=(0, 2)))) + 1
        raise IntegrationBlowup(f"LDS simulation produced a non-finite observation at step {step}")
    return Ys


# ---------------------------------------------------------------------------
# Lorenz simulation


class _Rk4:
    """Classical RK4 on the Lorenz field, stepping one (3, ...) state in place.

    The state is laid out coordinate first, so x, y and z are contiguous
    arrays of any shape.  Every stage writes into buffers allocated once,
    and the elementwise operations and their order are those of the textbook
    step `s + dt/6 (k1 + 2 k2 + 2 k3 + k4)`, so the bits do not depend on the
    shape: one run alone and the same run inside a stack agree exactly.

    On the harness's states (tens to hundreds of values) a step costs numpy's
    overhead per call, not arithmetic, so a step is 45 numpy calls and no
    other work: 8 per derivative, 2 per stage argument, 6 for the
    combination (k2 and k3 doubled in one call) and the copy that records the
    state.  Each call names its output as its third argument, which numpy
    parses faster than `out=`.  The constants sigma, rho, beta, dt/2, dt,
    dt/6 and 2 are 0-d float64 arrays made once, since numpy converts a
    Python float operand again on every call: on a 64-value array a multiply
    by a float takes 0.49 µs, by a 0-d array 0.29 µs (2-vCPU Xeon VM, numpy
    2.4).  `run` steps a whole recorded block in one loop.
    """

    def __init__(self, spec: LorenzSpec, s: np.ndarray):
        self.s = s
        self.k = np.empty((4,) + s.shape)
        self.arg = np.empty_like(s)
        self.tmp = np.empty(s.shape[1:])
        dt = spec.dt
        consts = (spec.sigma, spec.rho, spec.beta, 0.5 * dt, dt, dt / 6.0, 2.0)
        self.consts = tuple(np.array(c, dtype=float) for c in consts)

    def run(self, block: np.ndarray) -> None:
        """Step s once per row of `block`, copying each state into its row
        before it moves."""
        sub, mul, add, copyto = np.subtract, np.multiply, np.add, np.copyto
        s, arg, tmp, k = self.s, self.arg, self.tmp, self.k
        sigma, rho, beta, half, dt, sixth, two = self.consts
        k1, k2, k3, k4 = k
        k23 = k[1:3]
        # each stage's input and output coordinates, its k, and the scale of
        # that k in the next stage's argument s + h k
        stages = [
            (tuple(inp), tuple(ki), ki, h)
            for inp, ki, h in zip((s, arg, arg, arg), k, (half, half, dt, None))
        ]
        for row in block:
            copyto(row, s)
            for (x, y, z), (dx, dy, dz), ki, h in stages:
                sub(y, x, dx)  # the third argument is the output
                mul(dx, sigma, dx)  # sigma (y - x)
                sub(rho, z, dy)
                mul(dy, x, dy)
                sub(dy, y, dy)  # x (rho - z) - y
                mul(x, y, dz)
                mul(z, beta, tmp)
                sub(dz, tmp, dz)  # x y - beta z
                if h is not None:
                    mul(ki, h, arg)
                    add(arg, s, arg)  # the next stage's input, s + h k
            mul(k23, two, k23)  # 2 k2 and 2 k3
            add(k2, k1, k2)
            add(k2, k3, k2)
            add(k2, k4, k2)
            mul(k2, sixth, k2)
            add(s, k2, s)  # s + dt/6 (k1 + 2 k2 + 2 k3 + k4)


_RECORD_VALUES = 1 << 16  # state values in one block that `_lorenz_steps` yields


def _lorenz_steps(spec: LorenzSpec, s: np.ndarray, horizon: int):
    """Step the (3, ...) state s `horizon` times in place, yielding its states
    block by block.

    Yields, in order, (t0, X) with X (b, 3, ...) the states of steps
    t0 .. t0 + b - 1, each taken before it moves, in a buffer that the next
    block overwrites.  A non-finite state raises IntegrationBlowup naming the
    first step that produced one, before its block is yielded.  A non-finite
    value stays non-finite under the RK4 step, so each block is checked
    once, by its last state, and searched for its first bad step only on
    failure.  The floating-point warnings are silenced only around the
    recursion: numpy's error state is a context variable, so one held
    across a yield would silence the consumer's code too.
    """
    rk4 = _Rk4(spec, s)
    X = np.empty((max(1, min(horizon, _RECORD_VALUES // max(1, s.size))),) + s.shape)
    for t0 in range(0, horizon, len(X)):
        block = X[: min(len(X), horizon - t0)]
        with np.errstate(over="ignore", invalid="ignore"):  # blowups surface as IntegrationBlowup
            rk4.run(block)
        if not np.isfinite(s).all():
            # the state each step of the block produced: the next one's start, then s
            made = np.concatenate([block[1:], s[None]]).reshape(len(block), -1)
            step = t0 + int(np.argmin(np.isfinite(made).all(axis=1))) + 1
            raise IntegrationBlowup(f"Lorenz integration produced non-finite state at step {step}")
        yield t0, block


def _lorenz_observations(spec: LorenzSpec, horizon: int, X0, rngs, n_workers: int):
    """Observe n Lorenz runs from each of the k initial states of the stack
    X0 (k, 3) of checked states (`_x0`) in one stacked recursion, block by
    block.

    Yields, in order, (t0, Y, X): the observations Y (k, n, b, p) of steps
    t0 .. t0 + b - 1 and their states X (b, 3, k, n), a view that the next
    block overwrites.  Run i of every initial state reads rngs[i]: each
    block's observation noise (n, b, p) is drawn, on up to `n_workers`
    threads, as the recursion makes that block, so the noise alive is
    bounded by the block, not the horizon.  The blocks read each stream in
    the order of one whole (H, p) draw, so the bits depend neither on the
    block size nor on the worker count.  A noiseless spec draws nothing and
    adds 0.0.
    """
    k, n, p = len(X0), len(rngs), spec.p
    coords = [LORENZ_COORDS[c] for c in spec.obs_coords]
    for t0, X in _lorenz_steps(spec, np.repeat(X0.T[:, :, None], n, axis=2), horizon):
        v = 0.0 if spec.is_noiseless else _draw_noise(rngs, (len(X), p), spec.obs_noise, n_workers)
        Y = np.empty((k, n, len(X), p))
        np.add(X[:, coords].transpose(2, 3, 0, 1), v, out=Y)
        yield t0, Y, X


# ---------------------------------------------------------------------------
# simulation of either system


def _x0(system, x0) -> np.ndarray:
    """An initial state of `system`, checked: a finite vector of length d."""
    if not isinstance(system, (LdsSpec, LorenzSpec)):
        raise ContractViolation(f"unsupported system type {type(system)!r}")
    x0 = as_vector(x0, "x0")
    if x0.shape != (system.d,):
        raise ContractViolation(f"x0 has length {x0.size}, expected {system.d}")
    return x0


def simulate_ensemble(
    system,
    horizon: int,
    x0,
    rngs: Sequence[SeededRng],
    *,
    n_workers: int = 1,
    record_states: bool = False,
):
    """Observations (n, H, p) of n trajectories of `system` from one initial
    state x0 (d,), one child stream each, with the noise drawn on up to
    `n_workers` threads and the same bits at any count.  With
    `record_states` the result is (Ys, Xs), Xs (n, H, d) holding the state
    that each observation reads.

    An LDS is x' = A x + w, y = C x + v, with A + B K in place of A for a
    closed-loop spec; its process noise is drawn one time chunk at a time
    (see `_lds_steps`).  A Lorenz run collects the blocks of
    `_lorenz_observations`, whose stacks of initial states give each x0 the
    bits of this call with that x0 alone.
    """
    x0, n = _x0(system, x0), len(rngs)
    Xs = np.empty((n, horizon, system.d)) if record_states else None
    if isinstance(system, LdsSpec):
        X = np.broadcast_to(x0, (n, system.d)).copy()
        Ys = _lds_steps(system, horizon, X, rngs, n_workers, Xs)
        return (Ys, Xs) if record_states else Ys
    Ys = np.empty((n, horizon, system.p))
    for t0, Y, X in _lorenz_observations(system, horizon, x0[None], rngs, n_workers):
        Ys[:, t0 : t0 + len(X)] = Y[0]
        if Xs is not None:
            Xs[:, t0 : t0 + len(X)] = X[:, :, 0].transpose(2, 0, 1)
    return (Ys, Xs) if record_states else Ys


# ---------------------------------------------------------------------------
# spec utilities


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
    return float(np.trace(spec.C @ sigma @ spec.C.T) + spec.p * spec.noise.stdev_obs**2)


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
        picks = [burn + i * gap for i in range(points)]
        states = []
        for t0, X in _lorenz_steps(system, np.ones((3, 1)), picks[-1] + 1):
            # X (b, 3, 1) holds the states of steps t0 .. t0 + b - 1
            states.extend(X[t - t0, :, 0].copy() for t in picks if t0 <= t < t0 + len(X))
        return states
    raise ContractViolation(f"unsupported system type {type(system)!r}")


def _distinct(states) -> list[np.ndarray]:
    """`states` without exact duplicates, each kept at its first occurrence."""
    seen: list[np.ndarray] = []
    for s in states:
        if not any(np.array_equal(s, t) for t in seen):
            seen.append(s)
    return seen


def initial_states(system) -> list[np.ndarray]:
    """Initial-state grid of a system spec, with exact duplicates removed."""
    return _distinct(system.init.states(system.d, system))


# ---------------------------------------------------------------------------
# serialization


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format_float(value)


def _write_table(path, header, rows) -> None:
    """The one CSV writer: the header, then one line per row of cells.  A str
    cell is written as is, an integer (Python or NumPy) in decimal, anything
    else through `format_float` (17 significant digits, lossless)."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")


def write_trajectory_csv(ys: np.ndarray, path, xs: np.ndarray | None = None) -> None:
    """CSV with header t,y_0,...,y_{p-1}[,x_0,...,x_{d-1}], one row per step of
    the observations ys (H, p) and, when given, the states xs (H, d)."""
    xs = np.empty((len(ys), 0)) if xs is None else xs
    header = ["t", *(f"y_{j}" for j in range(ys.shape[1])), *(f"x_{j}" for j in range(xs.shape[1]))]
    rows = ([t, *y, *x] for t, (y, x) in enumerate(zip(ys, xs), start=1))
    _write_table(path, header, rows)


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
