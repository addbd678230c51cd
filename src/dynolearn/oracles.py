"""Reference predictors that excess risk is measured against.

`KalmanPredictor` is the conditional-mean predictor for a Gaussian linear
system and serves as the optimal baseline.  `KernelOracle` convolves the
past observations with beta_k = C A^(k-1) C^T, which is not the optimal
predictor even of a noiseless system: on a = 0.5 from x0 = 1, observations
1, 0.5, 0.25, 0.125, it predicts 0, 1, 1, 0.75 where the Kalman predictor
gives 0, 0.5, 0.25, 0.125.  Building it from the Kalman predictor's own
convolution is an open ROADMAP item ("The kernel oracle predicts the wrong
thing").  `TruthOracle` emits the realized next observation, whose loss is
zero: the optimal predictor of a deterministic, noiselessly observed system
("truth"), or, built without a system, the zero-risk reference that turns
excess risk into raw risk ("zero").

`KalmanPredictor.run_ensemble` runs the filter from a data-independent gain
schedule: one covariance recursion, built once per horizon.

Every predictor exposes `run_ensemble(Ys) -> preds` where `Ys` is
(n, H, p) and `preds[i, t]` depends only on `Ys[i, :t]`.

Linearity contract: a predictor class whose `linear` attribute is true
promises that `run_ensemble` is a fixed linear map of `Ys` with zero initial
mean that acts on each trajectory alone, so run_ensemble(a + b) =
run_ensemble(a) + run_ensemble(b) up to rounding.  All three classes here
declare it.  The harness relies on it for a linear system: it runs such a
predictor once on the ensemble simulated from x0 = 0 and once on the grid's
free responses C A^t x0, and gives each x0 the sum, in every role
(algorithm, oracle or baseline), so two equal arms still get identical bits.
The learners in `predictors` fit their readout to the data and are not
linear.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .errors import ContractViolation, IncompatiblePairing
from .systems import LdsSpec, stationary_state_covariance

INNOVATION_RIDGE = 1e-12


class KalmanPredictor:
    """Conditional-mean one-step predictor for a Gaussian linear system.

    Initialized with zero state mean and a prior covariance encoding
    ignorance of the admissible initial state (grid radius squared per
    coordinate, or the stationary covariance for stationary starts).
    """

    label = "kalman"
    linear = True  # see the module docstring

    def __init__(self, spec: LdsSpec):
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
        if spec.init.kind == "stationary":
            self.P0 = stationary_state_covariance(spec)
        else:
            self.P0 = spec.init.covariance_scale() * np.eye(self.d)
        self.regularized_steps = 0
        self._schedule_cache: dict[int, tuple] = {}
        self._schedule_lock = threading.Lock()

    def _covariance_update(self, P: np.ndarray):
        """Measurement update of the predictive covariance P, then time update.

        Returns (gain, I - gain C, next predictive covariance).  A singular
        innovation covariance is regularized by INNOVATION_RIDGE and counted
        in `regularized_steps`.
        """
        S = self.C @ P @ self.C.T + self.R
        try:
            gain = np.linalg.solve(S, self.C @ P).T  # (d, p)
        except np.linalg.LinAlgError:
            self.regularized_steps += 1
            gain = np.linalg.solve(S + INNOVATION_RIDGE * np.eye(self.p), self.C @ P).T
        ImKC = np.eye(self.d) - gain @ self.C
        Ppost = ImKC @ P @ ImKC.T + gain @ self.R @ gain.T  # Joseph form keeps PSD
        Ppred = self.A @ Ppost @ self.A.T + self.Q
        return gain, ImKC, 0.5 * (Ppred + Ppred.T)

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
            gain, ImKC, P = self._covariance_update(P)
            F[t] = self.A @ ImKC
            G[t] = self.A @ gain
        return F, G, Ps

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


def default_kernel_truncation(spec: LdsSpec, tail: float = 1e-8, cap: int = 10_000) -> int:
    """Smallest K with ||A||_2^K <= tail, capped; the convolution tail beyond
    K is then negligible for stable systems."""
    a = float(np.linalg.norm(spec.effective_transition(), 2))
    if a <= 0.0:
        return 1
    if a >= 1.0:
        return cap
    k = math.ceil(math.log(tail) / math.log(a))
    return int(min(max(k, 1), cap))


class KernelOracle:
    """Truncated convolution predictor y_hat_t = sum_{k=1..K} beta_k y_{t-k},
    beta_k = C A^(k-1) C^T.

    Not the conditional mean, even without noise (see the module docstring).
    """

    label = "kernel"
    linear = True  # see the module docstring

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


class TruthOracle:
    """Predicts each realized observation exactly, so its loss is identically zero.

    Given a system spec, it is the perfect per-step predictor of that
    deterministic, noiselessly observed system (label "truth"); the spec
    must be noiseless.  Given none, it is the zero-risk reference used where
    no optimal predictor is available (or wanted): the excess over it is the
    raw risk, and the label "zero" makes raw-risk mode visible in the outputs.
    """

    linear = True  # see the module docstring

    def __init__(self, spec=None):
        self.spec, self.label = spec, "zero" if spec is None else "truth"
        if spec is not None and not spec.is_noiseless:
            raise ContractViolation("perfect-prediction oracle requires a noiseless system")

    def run_ensemble(self, Ys: np.ndarray) -> np.ndarray:
        return np.asarray(Ys, dtype=float).copy()
