"""Reference predictors that excess risk is measured against.

`KalmanPredictor` is the conditional-mean predictor for a Gaussian linear
system and serves as the optimal baseline.  `KernelOracle` is the same
predictor in steady state, written as a truncated convolution over past
observations: the improper comparator that needs no system identification.
`TruthOracle` emits the realized next observation, whose loss is
zero: the optimal predictor of a deterministic, noiselessly observed system
("truth"), or, built without a system, the zero-risk reference that turns
excess risk into raw risk ("zero").

The Kalman and kernel predictors run as streams (`stream`), as the learners
run in `predictors._Arms`: `push(ys, free)` takes the next rows of an
(n, H, p) ensemble, and of k free responses when given, and keeps the
predictions of the rows in the mask `rows`; `preds[i, t]` depends only on
`ys[i, :t]`.  Each is a fixed linear map of the observations with zero
initial mean, acting on each trajectory alone, so on an LDS grid x0 j's
predictions are those of the ensemble simulated from x0 = 0 plus those of
its free response C A^t x0 (see `learnability`).  `run_ensemble(Ys)`
pushes a whole array and returns every row's predictions.

The Kalman stream steps the covariance recursion beside the filter, so it
holds nothing that grows with the horizon: each step forms its gain and
filter matrices (F, G) once, for the base and the free states.  Once a
covariance step returns its input bit for bit, every later step is that
step, and the recursion stops.  `KernelOracle` reads its taps off the
converged step of the same covariance update.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation, IncompatiblePairing
from .predictors import _check_obs_dim
from .systems import LdsSpec, stationary_state_covariance

INNOVATION_RIDGE = 1e-12
COLLAPSE_RTOL = 1e-12  # S is rounding once min eig(S) <= this times the first S's max eig
CONVERGED_RTOL = 1e-12  # P has converged once a step moves it <= this times max|P0| + max|Q|
MAX_STEPS = 10_000  # bound on the covariance steps to convergence and on the kernel's taps
KERNEL_TAIL = 1e-8  # the kernel's last tap K is the first k with ||F^k||_2 <= KERNEL_TAIL


class _Stream:
    """A reference predictor's run on an (n, H, p) ensemble whose rows arrive
    in order, with k free responses when k is given.

    `preds` holds the predictions of the rows in the mask `rows` (every row
    when None), in order: (n, R, p) for the ensemble, then (k, R, p) for the
    free responses.  `t` counts the rows pushed, `kept` the rows kept.
    """

    def __init__(self, p: int, shape, rows=None, k=None):
        n, H, q = shape
        _check_obs_dim(q, p)
        self.rows = np.ones(H, dtype=bool) if rows is None else rows
        R = int(np.count_nonzero(self.rows))
        self.preds = [np.empty((m, R, p)) for m in (n, k) if m is not None]
        self.t = self.kept = 0

    def reader(self):
        """The kept predictions by trajectories x0 (a slice) of the stacked
        ensemble, x0-major as in `predictors._Arms`: with free responses,
        trajectories j * n .. j * n + n - 1 are the ensemble plus free[j]."""
        base, *free = self.preds
        return lambda x0: [base + free[0][x0.start // len(base)] if free else base[x0]]


class _Streamed:
    """A predictor that runs as a stream (`stream(shape, rows=None, k=None)`)."""

    def run_ensemble(self, Ys: np.ndarray) -> np.ndarray:
        """Every row's predictions on the whole ensemble Ys (n, H, p), pushed at once."""
        stream = self.stream(np.shape(Ys))
        stream.push(np.asarray(Ys, dtype=float))
        return stream.preds[0]


class KalmanPredictor(_Streamed):
    """Conditional-mean one-step predictor for a Gaussian linear system.

    Initialized with zero state mean and a prior covariance encoding
    ignorance of the admissible initial state (grid radius squared per
    coordinate, or the stationary covariance for stationary starts).
    """

    label = "kalman"

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

    def stream(self, shape, rows=None, k=None) -> _KalmanStream:
        return _KalmanStream(self, shape, rows, k)


class _KalmanStream(_Stream):
    """The Kalman filter of an ensemble and its free responses, stepped
    together: each step's gain comes from one covariance update, and its
    filter matrices (F, G) are formed once for the base state X (n, d) and
    the free state (k, d).  `fixed_from` is the step whose covariance update
    returned its input bit for bit (None until one does); every later step
    is that one, regularization included, so the recursion stops there."""

    def __init__(self, kal: KalmanPredictor, shape, rows=None, k=None):
        super().__init__(kal.p, shape, rows, k)
        self.kal, self.P = kal, kal.P0
        self.X = [np.zeros((len(preds), kal.d)) for preds in self.preds]
        self.F = self.G = self.fixed_from = None
        self.regularized = 0  # regularized steps per step from `fixed_from`

    def push(self, ys: np.ndarray, free=None) -> None:
        kal, Ct = self.kal, self.kal.C.T
        for i in range(ys.shape[1]):
            if self.fixed_from is None:
                regularized = kal.regularized_steps
                gain, P = kal._covariance_update(self.P)
                self.F, self.G = kal._filter_step(gain)
                if P.tobytes() == self.P.tobytes():  # every later step repeats this one
                    self.fixed_from, self.regularized = self.t, kal.regularized_steps - regularized
                self.P = P
            else:
                kal.regularized_steps += self.regularized
            read = self.rows[self.t]
            for j, y in enumerate((ys, free)[: len(self.X)]):
                if read:
                    self.preds[j][:, self.kept] = self.X[j] @ Ct
                self.X[j] = self.X[j] @ self.F.T + y[:, i, :] @ self.G.T
            self.t, self.kept = self.t + 1, self.kept + read


class KernelOracle(_Streamed):
    """Truncated convolution predictor y_hat_t = sum_{k=1..K} beta_k y_{t-k},
    beta_k = C F^(k-1) G, with (F, G) = `KalmanPredictor.steady_state()`.

    It is the steady-state Kalman predictor unrolled over past observations;
    K is the first k with ||F^k||_2 <= KERNEL_TAIL.  A system whose gain does
    not converge, or whose taps do not decay within MAX_STEPS, has no kernel
    and raises IncompatiblePairing.
    """

    label = "kernel"

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

    def stream(self, shape, rows=None, k=None) -> _KernelStream:
        return _KernelStream(self, shape, rows, k)


class _KernelStream(_Stream):
    """The kernel's convolution of an ensemble and its free responses: each
    keeps its last K rows (zero before row 0), and a pushed piece's read
    rows sum their terms beta_k[:, c] y_{t-k, c} one product at a time, in
    ascending k, then c, so the bits depend neither on the pieces nor on
    the rows read.  At p = 1 that is the tap-by-tap whole-array sum."""

    def __init__(self, oracle: KernelOracle, shape, rows=None, k=None):
        super().__init__(oracle.p, shape, rows, k)
        self.betas = oracle.betas
        self.hist = [np.zeros((len(preds), len(self.betas), oracle.p)) for preds in self.preds]

    def push(self, ys: np.ndarray, free=None) -> None:
        K, L = len(self.betas), ys.shape[1]
        read = K + np.flatnonzero(self.rows[self.t : self.t + L])  # rows of `past`
        for j, y in enumerate((ys, free)[: len(self.hist)]):
            past = np.concatenate([self.hist[j], y], axis=1)
            acc = np.zeros((len(y), len(read), y.shape[2]))
            for lag, beta in enumerate(self.betas, start=1):
                lagged = past[:, read - lag]
                for c in range(beta.shape[1]):  # one product per term: no matmul's order
                    acc += lagged[:, :, c, None] * beta[:, c]
            self.preds[j][:, self.kept : self.kept + len(read)] = acc
            self.hist[j] = past[:, L:].copy()
        self.t, self.kept = self.t + L, self.kept + len(read)


class TruthOracle:
    """Predicts each realized observation exactly, so its loss is identically zero.

    Given a system spec, it is the perfect per-step predictor of that
    deterministic, noiselessly observed system (label "truth"); the spec
    must be noiseless.  Given none, it is the zero-risk reference used where
    no optimal predictor is available (or wanted): the excess over it is the
    raw risk, and the label "zero" makes raw-risk mode visible in the
    outputs.  It has no stream: the harness predicts the read observations
    by themselves.
    """

    def __init__(self, spec=None):
        self.spec, self.label = spec, "zero" if spec is None else "truth"
        if spec is not None and not spec.is_noiseless:
            raise ContractViolation("perfect-prediction oracle requires a noiseless system")

    def run_ensemble(self, Ys: np.ndarray) -> np.ndarray:
        return np.asarray(Ys, dtype=float).copy()
