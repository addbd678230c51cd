"""Reference predictors that excess risk is measured against.

`KalmanPredictor` is the conditional-mean predictor for a Gaussian linear
system and serves as the optimal baseline.  `KernelOracle` is the same
predictor in steady state, written as a truncated convolution over past
observations: the improper comparator that needs no system identification.
`TruthOracle` emits the realized next observation, whose loss is
zero: the optimal predictor of a deterministic, noiselessly observed system
("truth"), or, built without a system, the zero-risk reference that turns
excess risk into raw risk ("zero").

`KalmanPredictor.run_ensemble` runs the filter from data-independent gains:
one covariance recursion, computed once per horizon, keeps each step's gain
(H, d, p), and each step forms its filter matrices from its gain, so nothing
of size H d^2 is held.  Once a covariance step returns its input bit for bit,
every later gain is that step's: the recursion stops there, and the filter
matrices are formed once for all the remaining steps.  `KernelOracle` reads
its taps off the converged step of that same recursion.

Every predictor exposes `run_ensemble(Ys) -> preds` where `Ys` is
(n, H, p) and `preds[i, t]` depends only on `Ys[i, :t]`.

Linearity contract: a predictor class whose `linear` attribute is true
promises that `run_ensemble` is a fixed linear map of `Ys` with zero initial
mean that acts on each trajectory alone, so run_ensemble(a + b) =
run_ensemble(a) + run_ensemble(b) up to rounding.  All three classes here
declare it, and so do the zero and last-value baselines in `predictors`.
The harness relies on it for a linear system: it runs such a predictor once
on the ensemble simulated from x0 = 0 and once on the grid's free responses
C A^t x0, and gives each x0 the sum, in every role (algorithm, oracle or
baseline), so two equal arms still get identical bits.  The learner in
`predictors`, `SpectralPredictor` (AR(k) included), fits its readout to the
data and is not linear; only its features are, which the harness
superposes instead.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import ContractViolation, IncompatiblePairing
from .systems import LdsSpec, stationary_state_covariance

INNOVATION_RIDGE = 1e-12
COLLAPSE_RTOL = 1e-12  # S is rounding once min eig(S) <= this times the first S's max eig
CONVERGED_RTOL = 1e-12  # P has converged once a step moves it <= this times max|P0| + max|Q|
MAX_STEPS = 10_000  # bound on the covariance steps to convergence and on the kernel's taps
KERNEL_TAIL = 1e-8  # the kernel's last tap K is the first k with ||F^k||_2 <= KERNEL_TAIL


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
        S0 = self.C @ self.P0 @ self.C.T + self.R
        self._collapsed = COLLAPSE_RTOL * np.linalg.eigvalsh(S0)[-1]
        self.regularized_steps = 0
        self._schedule_cache: dict[int, tuple[np.ndarray, int]] = {}
        self._schedule_lock = threading.Lock()

    def _covariance_update(self, P: np.ndarray):
        """Measurement update of the predictive covariance P, then time update.

        Returns (gain, next predictive covariance).  An innovation covariance
        that has collapsed to rounding (COLLAPSE_RTOL) is regularized by
        INNOVATION_RIDGE and counted in `regularized_steps`.
        """
        S = self.C @ P @ self.C.T + self.R
        if np.linalg.eigvalsh(S)[0] <= self._collapsed:
            self.regularized_steps += 1
            S = S + INNOVATION_RIDGE * np.eye(self.p)
        gain = np.linalg.solve(S, self.C @ P).T  # (d, p)
        ImKC = np.eye(self.d) - gain @ self.C
        Ppost = ImKC @ P @ ImKC.T + gain @ self.R @ gain.T  # Joseph form keeps PSD
        Ppred = self.A @ Ppost @ self.A.T + self.Q
        return gain, 0.5 * (Ppred + Ppred.T)

    def _filter_step(self, gain: np.ndarray):
        """The filter step (F, G) = (A (I - gain C), A gain) of one gain:
        xpred' = F xpred + G y."""
        return self.A @ (np.eye(self.d) - gain @ self.C), self.A @ gain

    def gain_schedule(self, horizon: int) -> tuple[np.ndarray, int]:
        """Data-independent Kalman gains (H, d, p) of `horizon` steps (step t
        absorbs y_t through `_filter_step(gains[t])`) and the step from which
        every gain is that step's (`horizon` if the recursion has no fixed point).

        Each horizon is built once per predictor: concurrent callers wait for
        that one build, so `regularized_steps` does not depend on the thread
        count.  Only the gains are kept, not the (H, d, d) filter matrices.
        """
        with self._schedule_lock:
            if horizon not in self._schedule_cache:
                self._schedule_cache[horizon] = self._build_schedule(horizon)
            return self._schedule_cache[horizon]

    def _build_schedule(self, horizon: int) -> tuple[np.ndarray, int]:
        # each gain is stored in the layout `_covariance_update` returns it
        # in, so a step's products round as they would on the fresh gain
        P = self.P0.copy()
        gains = np.empty((horizon, self.p, self.d))
        for t in range(horizon):
            regularized = self.regularized_steps
            gain, P_next = self._covariance_update(P)
            gains[t] = gain.T
            if P_next.tobytes() == P.tobytes():
                # a fixed point: every later step repeats this one, regularization included
                gains[t + 1 :] = gain.T
                self.regularized_steps += (self.regularized_steps - regularized) * (horizon - 1 - t)
                return gains.transpose(0, 2, 1), t
            P = P_next
        return gains.transpose(0, 2, 1), horizon

    def steady_state(self):
        """Converged filter step (F, G) = (A(I - LC), AL) of the covariance recursion.

        P steps from P0 until it converges (CONVERGED_RTOL).  On a noiseless
        system P collapses instead, and the step is the last one before the
        innovation covariance collapses: the dead-beat predictor.  A P that
        has not settled within MAX_STEPS steps raises IncompatiblePairing.
        """
        scale = np.abs(self.P0).max() + np.abs(self.Q).max()
        P, step = self.P0, None
        for _ in range(MAX_STEPS):
            regularized = self.regularized_steps
            gain, P_next = self._covariance_update(P)
            if self.regularized_steps > regularized and step is not None:
                return step
            step = self._filter_step(gain)
            if np.abs(P_next - P).max() <= CONVERGED_RTOL * scale:
                return step
            P = P_next
        raise IncompatiblePairing(f"the Kalman gain does not converge within {MAX_STEPS} steps")

    def run_ensemble(self, Ys: np.ndarray) -> np.ndarray:
        n, H, p = Ys.shape
        if p != self.p:
            raise ContractViolation(f"observation dim {p} does not match spec ({self.p})")
        gains, fixed_from = self.gain_schedule(H)
        Ct = self.C.T
        preds = np.empty((n, H, p))
        X = np.zeros((n, self.d))
        for t in range(H):
            if t <= fixed_from:  # later gains are bitwise gains[fixed_from]
                F, G = self._filter_step(gains[t])
            preds[:, t, :] = X @ Ct
            X = X @ F.T + Ys[:, t, :] @ G.T
        return preds


class KernelOracle:
    """Truncated convolution predictor y_hat_t = sum_{k=1..K} beta_k y_{t-k},
    beta_k = C F^(k-1) G, with (F, G) = `KalmanPredictor.steady_state()`.

    It is the steady-state Kalman predictor unrolled over past observations;
    K is the first k with ||F^k||_2 <= KERNEL_TAIL.  A system whose gain does
    not converge, or whose taps do not decay within MAX_STEPS, has no kernel
    and raises IncompatiblePairing.
    """

    label = "kernel"
    linear = True  # see the module docstring

    def __init__(self, spec: LdsSpec):
        F, G = KalmanPredictor(spec).steady_state()  # refuses a non-linear spec
        taps, Fk = [spec.C @ G], F
        while np.linalg.norm(Fk, 2) > KERNEL_TAIL:
            if len(taps) == MAX_STEPS:
                raise IncompatiblePairing(f"the kernel's taps do not decay within {MAX_STEPS}")
            taps.append(spec.C @ Fk @ G)
            Fk = Fk @ F
        self.p = spec.p
        self.betas = np.stack(taps)  # (K, p, p)

    def run_ensemble(self, Ys: np.ndarray) -> np.ndarray:
        n, H, p = Ys.shape
        if p != self.p:
            raise ContractViolation(f"observation dim {p} does not match spec ({self.p})")
        preds = np.zeros((n, H, p))
        for k, beta in zip(range(1, H), self.betas):
            preds[:, k:] += Ys[:, : H - k] @ beta.T
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
