"""Reference predictors that excess risk is measured against.

`KalmanPredictor` is the conditional-mean predictor for a Gaussian linear
system and serves as the optimal baseline.  `KernelOracle` is the unrolled
convolution with coefficients beta_k = C A^{k-1} C^T, exact for noiseless
observations and used as the realizability reference for the spectral
learner.  `TruthOracle` emits the realized next observation of a
deterministic system, whose optimal one-step loss is zero.

Every predictor exposes `run_ensemble(Ys) -> preds` where `Ys` is
(n, H, p) and `preds[i, t]` depends only on `Ys[i, :t]`.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .errors import ContractViolation, IncompatiblePairing
from .numerics import as_vector
from .systems import LdsSpec, LorenzSpec, Trajectory, spectral_norm, stationary_state_covariance

INNOVATION_RIDGE = 1e-12


class KalmanState:
    """Posterior mean and covariance of the latent state (predictive form)."""

    def __init__(self, xhat: np.ndarray, P: np.ndarray):
        self.xhat = np.asarray(xhat, dtype=float)
        self.P = np.asarray(P, dtype=float)
        d = self.xhat.shape[0]
        if self.P.shape != (d, d):
            raise ContractViolation(f"covariance shape {self.P.shape} does not match state {d}")
        if float(np.abs(self.P - self.P.T).max()) > 1e-9:
            raise ContractViolation("covariance must be symmetric")


class KalmanPredictor:
    """Conditional-mean one-step predictor for a Gaussian linear system.

    Initialized with zero state mean and a prior covariance encoding
    ignorance of the admissible initial state (grid radius squared per
    coordinate, or the stationary covariance for stationary starts).
    """

    label = "kalman"

    def __init__(self, spec: LdsSpec, init_cov: np.ndarray | float | None = None):
        if not isinstance(spec, LdsSpec):
            raise IncompatiblePairing(
                f"Kalman prediction requires a linear system spec, got {type(spec).__name__}"
            )
        self.spec = spec
        self.A = spec.effective_transition()
        self.C = spec.C
        self.Q = spec.process_cov()
        self.R = spec.obs_cov()
        self.d = spec.d
        self.p = spec.p
        if init_cov is None:
            if spec.init.kind == "stationary":
                self.P0 = stationary_state_covariance(spec)
            else:
                self.P0 = spec.init.covariance_scale() * np.eye(self.d)
        elif np.isscalar(init_cov):
            self.P0 = float(init_cov) * np.eye(self.d)
        else:
            self.P0 = np.asarray(init_cov, dtype=float)
        self.regularized_steps = 0
        self._schedule_cache: dict[int, tuple] = {}
        self._schedule_lock = threading.Lock()

    def initial_state(self) -> KalmanState:
        return KalmanState(np.zeros(self.d), self.P0.copy())

    def step(self, state: KalmanState, y) -> tuple[KalmanState, np.ndarray]:
        """Measurement update with y, then time update.

        Returns the new predictive state and the prediction of the next
        observation, C A xhat_posterior.
        """
        y = as_vector(y, "observation")
        if y.shape != (self.p,):
            raise ContractViolation(f"observation has length {y.size}, expected {self.p}")
        xhat, P = state.xhat, state.P
        S = self.C @ P @ self.C.T + self.R
        try:
            gain = np.linalg.solve(S, self.C @ P).T  # (d, p)
        except np.linalg.LinAlgError:
            self.regularized_steps += 1
            S = S + INNOVATION_RIDGE * np.eye(self.p)
            gain = np.linalg.solve(S, self.C @ P).T
        xpost = xhat + gain @ (y - self.C @ xhat)
        ImKC = np.eye(self.d) - gain @ self.C
        Ppost = ImKC @ P @ ImKC.T + gain @ self.R @ gain.T  # Joseph form keeps PSD
        xpred = self.A @ xpost
        Ppred = self.A @ Ppost @ self.A.T + self.Q
        Ppred = 0.5 * (Ppred + Ppred.T)
        return KalmanState(xpred, Ppred), self.C @ xpred

    def gain_schedule(self, horizon: int):
        """Data-independent filter recursion matrices for `horizon` steps.

        Returns (F, G, Ps) with xpred' = F[t] xpred + G[t] y_t and Ps[t] the
        predictive covariance before absorbing y_t.  Each horizon is built
        once per predictor: concurrent callers wait for that one build, so
        `regularized_steps` does not depend on the thread count.
        """
        with self._schedule_lock:
            if horizon not in self._schedule_cache:
                self._schedule_cache[horizon] = self._build_schedule(horizon)
            return self._schedule_cache[horizon]

    def _build_schedule(self, horizon: int):
        P = self.P0.copy()
        F = np.empty((horizon, self.d, self.d))
        G = np.empty((horizon, self.d, self.p))
        Ps = np.empty((horizon, self.d, self.d))
        for t in range(horizon):
            Ps[t] = P
            S = self.C @ P @ self.C.T + self.R
            try:
                gain = np.linalg.solve(S, self.C @ P).T
            except np.linalg.LinAlgError:
                self.regularized_steps += 1
                gain = np.linalg.solve(S + INNOVATION_RIDGE * np.eye(self.p), self.C @ P).T
            ImKC = np.eye(self.d) - gain @ self.C
            Ppost = ImKC @ P @ ImKC.T + gain @ self.R @ gain.T
            F[t] = self.A @ ImKC
            G[t] = self.A @ gain
            P = self.A @ Ppost @ self.A.T + self.Q
            P = 0.5 * (P + P.T)
        return F, G, Ps

    def run(self, ys: np.ndarray) -> np.ndarray:
        return self.run_ensemble(np.asarray(ys, dtype=float)[None])[0]

    def run_ensemble(self, Ys: np.ndarray) -> np.ndarray:
        n, H, p = Ys.shape
        if p != self.p:
            raise ContractViolation(f"observation dim {p} does not match spec ({self.p})")
        F, G, _ = self.gain_schedule(H)
        Ft = F.transpose(0, 2, 1)
        Gt = G.transpose(0, 2, 1)
        Ct = self.C.T
        preds = np.empty((n, H, p))
        X = np.zeros((n, self.d))
        for t in range(H):
            preds[:, t, :] = X @ Ct
            X = X @ Ft[t] + Ys[:, t, :] @ Gt[t]
        return preds


def kalman_step(spec: LdsSpec, state: KalmanState, y) -> tuple[KalmanState, np.ndarray]:
    """One measurement-then-time update; see `KalmanPredictor.step`."""
    return KalmanPredictor(spec).step(state, y)


def default_kernel_truncation(spec: LdsSpec, tail: float = 1e-8, cap: int = 10_000) -> int:
    """Smallest K with ||A||_2^K <= tail, capped; the convolution tail beyond
    K is then negligible for stable systems."""
    a = spectral_norm(spec.effective_transition())
    if a <= 0.0:
        return 1
    if a >= 1.0:
        return cap
    k = math.ceil(math.log(tail) / math.log(a))
    return int(min(max(k, 1), cap))


class KernelOracle:
    """Truncated convolution predictor y' = sum_k beta_k y_{t+1-k},
    beta_k = C A^{k-1} C^T."""

    label = "kernel"

    def __init__(self, spec: LdsSpec, k_trunc: int | None = None):
        if not isinstance(spec, LdsSpec):
            raise IncompatiblePairing(
                f"kernel oracle requires a linear system spec, got {type(spec).__name__}"
            )
        if k_trunc is None:
            k_trunc = default_kernel_truncation(spec)
        if k_trunc < 1:
            raise ContractViolation(f"k_trunc must be >= 1, got {k_trunc}")
        self.spec = spec
        self.k_trunc = int(k_trunc)
        A = spec.effective_transition()
        C = spec.C
        p, d = C.shape
        self.p = p
        betas = np.empty((self.k_trunc, p, p))
        M = np.eye(d)
        for k in range(self.k_trunc):
            betas[k] = C @ M @ C.T
            M = M @ A
        self.betas = betas

    def predict(self, history) -> np.ndarray:
        """Prediction from a newest-first history (history[0] = latest y)."""
        h = np.asarray(history, dtype=float)
        if h.ndim == 1:
            h = h[:, None]
        if h.shape[0] < 1:
            raise ContractViolation("kernel oracle needs at least one observation")
        kk = min(self.k_trunc, h.shape[0])
        return np.einsum("kij,kj->i", self.betas[:kk], h[:kk])

    def run(self, ys: np.ndarray) -> np.ndarray:
        return self.run_ensemble(np.asarray(ys, dtype=float)[None])[0]

    def run_ensemble(self, Ys: np.ndarray) -> np.ndarray:
        n, H, p = Ys.shape
        if p != self.p:
            raise ContractViolation(f"observation dim {p} does not match spec ({self.p})")
        K = self.k_trunc
        bflip = self.betas[::-1]  # window below is oldest-first
        preds = np.empty((n, H, p))
        for i in range(n):
            ypad = np.concatenate([np.zeros((K, p)), Ys[i, : H - 1]], axis=0)
            win = np.lib.stride_tricks.sliding_window_view(ypad, K, axis=0)  # (H, p, K)
            preds[i] = np.einsum("tqk,kiq->ti", win, bflip)
        return preds


class ZeroRiskOracle:
    """Reference with identically zero loss: excess over it is the raw risk.

    Used where no optimal predictor is available (or wanted); the resulting
    curve is labeled so raw-risk mode is visible in the outputs.
    """

    label = "zero"

    def run(self, ys: np.ndarray) -> np.ndarray:
        return np.asarray(ys, dtype=float).copy()

    def run_ensemble(self, Ys: np.ndarray) -> np.ndarray:
        return np.asarray(Ys, dtype=float).copy()


class TruthOracle:
    """Perfect per-step predictions for a deterministic, noiselessly observed system."""

    label = "truth"

    def __init__(self, spec):
        if isinstance(spec, LdsSpec):
            noiseless = spec.noise.is_noiseless
        elif isinstance(spec, LorenzSpec):
            noiseless = spec.is_noiseless
        else:
            raise ContractViolation(f"unsupported system type {type(spec)!r}")
        if not noiseless:
            raise ContractViolation("perfect-prediction oracle requires a noiseless system")
        self.spec = spec

    def run(self, ys: np.ndarray) -> np.ndarray:
        ys = np.asarray(ys, dtype=float)
        return ys.copy()

    def run_ensemble(self, Ys: np.ndarray) -> np.ndarray:
        return np.asarray(Ys, dtype=float).copy()


def deterministic_truth(traj: Trajectory, spec) -> np.ndarray:
    """Exact per-step predictions for a noiseless trajectory with recorded states.

    Returns preds with preds[t] = ys[t]; the squared one-step loss of these
    predictions is identically zero.
    """
    oracle = TruthOracle(spec)
    if traj.xs is None:
        raise ContractViolation("deterministic truth requires recorded latent states")
    return oracle.run(traj.ys)
