"""Universal convolutional filter bank from the Hilbert matrix spectrum.

The bank is data independent: filters are the top eigenvectors of the
Hilbert matrix H[i, j] = 1/(i + j - 1) over a fixed window length.  Its
eigenvalues decay exponentially, so a small bank captures every impulse
response of the form (1, a, a^2, ...) with a in [0, 1] almost perfectly;
the optional sign-augmented variant extends coverage to a in [-1, 0).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .numerics import sym_eig

#: Eigenvalues of the Hilbert matrix below this are dominated by double
#: precision rounding; filters past that index are usable but their
#: individual eigenpairs should not be trusted.
RELIABLE_EIGENVALUE_FLOOR = 1e-12


def hilbert_matrix(window: int) -> np.ndarray:
    """The window x window matrix with entries 1/(i + j - 1), 1-based."""
    if window < 1:
        raise ContractViolation(f"window must be >= 1, got {window}")
    idx = np.arange(1, window + 1, dtype=float)
    return 1.0 / (idx[:, None] + idx[None, :] - 1.0)


@functools.lru_cache(maxsize=64)
def _hilbert_eig(window: int) -> tuple[np.ndarray, np.ndarray]:
    evals, vecs = sym_eig(hilbert_matrix(window))
    # Deterministic sign convention: largest-magnitude entry positive.
    for j in range(vecs.shape[1]):
        k = int(np.argmax(np.abs(vecs[:, j])))
        if vecs[k, j] < 0:
            vecs[:, j] = -vecs[:, j]
    evals.setflags(write=False)
    vecs.setflags(write=False)
    return evals, vecs


def reliable_filter_cap(window: int, floor: float = RELIABLE_EIGENVALUE_FLOOR) -> int:
    """Number of Hilbert eigenvalues at or above the double-precision trust floor."""
    evals, _ = _hilbert_eig(window)
    return int((evals >= floor).sum())


def positive_filter_limit(window: int) -> int:
    """Hard limit on the filter count: leading run of strictly positive eigenvalues."""
    evals, _ = _hilbert_eig(window)
    pos = evals > 0.0
    return int(np.argmin(pos)) if not pos.all() else int(evals.size)


@dataclass(frozen=True, eq=False)
class FilterBank:
    """Top-m Hilbert eigenfilters over a fixed window.

    `phis` holds filter j in column j (orthonormal columns, descending
    eigenvalue order).  When `sign_augmented` is set, features are computed
    against the filters and their alternating-sign counterparts, doubling
    the feature count; `phis`/`mus` always describe the base filters.
    `reliable_m` records how many of the filters sit above the
    double-precision trust floor.
    """

    window: int
    m: int
    phis: np.ndarray
    mus: np.ndarray
    sign_augmented: bool = False
    reliable_m: int = 0

    @property
    def feature_count(self) -> int:
        return 2 * self.m if self.sign_augmented else self.m

    def filter_matrix(self) -> np.ndarray:
        """(window, feature_count) matrix of the filters actually convolved."""
        if not self.sign_augmented:
            return self.phis
        signs = np.where(np.arange(self.window) % 2 == 0, 1.0, -1.0)
        return np.concatenate([self.phis, self.phis * signs[:, None]], axis=1)


def build_filter_bank(window: int, m: int, sign_augmented: bool = False) -> FilterBank:
    """Construct the top-m eigenfilter bank of the Hilbert matrix.

    Rejects m beyond the strictly-positive part of the computed spectrum.
    Asking for filters past the reliable cap succeeds with a warning naming
    the cap: those filters still span the right subspace but their
    individual eigenpairs are at rounding level.
    """
    limit = positive_filter_limit(window)
    if not 1 <= m <= limit:
        raise ContractViolation(
            f"filter count m={m} is outside [1, {limit}] for window {window} "
            f"(eigenvalues past index {limit} are not resolvable in double precision)"
        )
    cap = reliable_filter_cap(window)
    if m > cap:
        warnings.warn(
            f"filter count m={m} exceeds the reliable cap {cap} for window {window}; "
            f"eigenvalues below {RELIABLE_EIGENVALUE_FLOOR:g} are rounding-level",
            stacklevel=2,
        )
    evals, vecs = _hilbert_eig(window)
    phis = vecs[:, :m].copy()
    mus = evals[:m].copy()
    phis.setflags(write=False)
    mus.setflags(write=False)
    return FilterBank(
        window=window,
        m=m,
        phis=phis,
        mus=mus,
        sign_augmented=sign_augmented,
        reliable_m=min(m, cap),
    )


def truncate_bank(bank: FilterBank, m: int) -> FilterBank:
    """The sub-bank of the first m filters (same window, same spectrum prefix)."""
    if not 1 <= m <= bank.m:
        raise ContractViolation(f"cannot truncate bank of {bank.m} filters to m={m}")
    return FilterBank(
        window=bank.window,
        m=m,
        phis=bank.phis[:, :m],
        mus=bank.mus[:m],
        sign_augmented=bank.sign_augmented,
        reliable_m=min(m, bank.reliable_m),
    )


def default_filter_count(window: int, eps_target: float) -> int:
    """Heuristic bank size ceil(ln(window) * ln(1/eps)), clipped to the positive limit."""
    if not 0 < eps_target < 1:
        raise ContractViolation(f"eps_target must be in (0, 1), got {eps_target}")
    raw = math.ceil(math.log(max(window, 2)) * math.log(1.0 / eps_target))
    return max(1, min(raw, positive_filter_limit(window)))


def _window_history(history, window: int) -> np.ndarray:
    """Newest-first history as a zero-padded (window, p) block."""
    h = np.asarray(history, dtype=float)
    if h.ndim == 1:
        h = h[:, None]
    if h.ndim != 2:
        raise ContractViolation(f"history must be 1-d or 2-d, got shape {h.shape}")
    out = np.zeros((window, h.shape[1]))
    take = min(h.shape[0], window)
    out[:take] = h[:take]
    return out


def features(bank: FilterBank, history) -> np.ndarray:
    """Convolutional features of a newest-first observation window.

    Histories shorter than the bank window are zero padded.  For p-dimensional
    observations the features are computed per coordinate and concatenated
    coordinate-major, giving a vector of length feature_count * p.
    """
    win = _window_history(history, bank.window)
    z = bank.filter_matrix().T @ win  # (f, p)
    return z.T.ravel()


def trajectory_features(bank: FilterBank, ys: np.ndarray) -> np.ndarray:
    """Features for every step of a trajectory, row t ending at observation t.

    `ys` is (H,) or (H, p); the result is (H, feature_count * p) and matches
    `features(bank, ys[:t+1][::-1])` row by row.
    """
    Y = np.asarray(ys, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    H, p = Y.shape
    F = bank.filter_matrix()
    Fflip = F[::-1].copy()  # windows below are oldest-first
    out = np.empty((H, p, F.shape[1]))
    pad = np.zeros(bank.window - 1)
    for c in range(p):
        ypad = np.concatenate([pad, Y[:, c]])
        windows = np.lib.stride_tricks.sliding_window_view(ypad, bank.window)
        out[:, c, :] = windows @ Fflip
    return out.reshape(H, p * F.shape[1])


def shifted_features(bank: FilterBank, Ys: np.ndarray) -> np.ndarray:
    """Features of an (n, H, p) ensemble, shifted one step, built in place.

    Row t of trajectory i is the feature vector ending at observation t-1
    (row 0 is zero): the input of a predictor about to see Ys[i, t].  Each
    trajectory goes through `trajectory_features` unchanged, so the result
    equals its rows shifted down one, bit for bit.
    """
    n, H, p = Ys.shape
    out = np.zeros((n, H, bank.feature_count * p))
    for i in range(n):
        out[i, 1:] = trajectory_features(bank, Ys[i])[: H - 1]
    return out


def residual_energy(bank: FilterBank, lam: float) -> float:
    """Relative energy of the impulse response (1, lam, lam^2, ...) outside the bank span."""
    if not -1.0 <= lam <= 1.0:
        raise ContractViolation(f"lam must lie in [-1, 1], got {lam}")
    v = np.power(float(lam), np.arange(bank.window, dtype=float))
    F = bank.filter_matrix()
    if bank.sign_augmented:
        coeffs, *_ = np.linalg.lstsq(F, v, rcond=None)
        proj = F @ coeffs
    else:
        proj = F @ (F.T @ v)
    r = v - proj
    return float((r @ r) / (v @ v))
