"""Universal convolutional filter bank from the Hilbert matrix spectrum.

The bank is data independent: filters are the top eigenvectors of the
Hilbert matrix H[i, j] = 1/(i + j - 1) over a fixed window length.  Its
eigenvalues decay exponentially, so a small bank captures every impulse
response of the form (1, a, a^2, ...) with a in [0, 1] almost perfectly;
the optional sign-augmented variant extends coverage to a in [-1, 0).

Features need only the last `window` observations.  `trajectory_features`
convolves a whole trajectory at once; the learners use the block kernel
`_feature_blocks`, which convolves an ensemble with a (window, f) filter
matrix one block of rows at a time, from the block's observations and the
window - 1 before it, so its working set, O(n * block * p * (window + f)),
does not grow with the horizon.  Every learner runs on it: the spectral
learner with `FilterBank.filter_matrix()`, AR(k) with the k x k identity,
whose features are the last k observations.  Features are laid out
coordinate-major (`_bank_columns`).
"""

from __future__ import annotations

import functools
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


def trajectory_features(bank: FilterBank, ys: np.ndarray) -> np.ndarray:
    """Features for every step of a trajectory, row t ending at observation t.

    `ys` is (H,) or (H, p); the result is (H, feature_count * p).  Row t is
    `filter_matrix().T` applied to each coordinate's last `window`
    observations up to t, newest first and zero padded, concatenated
    coordinate-major.
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


def _feature_blocks(F: np.ndarray, Ys: np.ndarray, block: int):
    """Shifted features of an (n, H, p) ensemble by the (window, f) filter
    matrix F, one block of rows at a time.

    Yields (s, e, Z) for s = 0, block, 2 block, ...: row t - s of Z[i] holds,
    for each coordinate c, F.T applied to Ys[i, t-1, c], ..., Ys[i, t-window, c]
    (newest first, zero before row 0), as columns c * f .. c * f + f - 1: the
    last `trajectory_features` row of Ys[i, :t] for a bank's filter matrix,
    the input of a predictor about to see Ys[i, t].  A block reads Ys rows
    [s - window + 1, e) only; Z is a view into a buffer the next block
    overwrites, so the working set is O(n * block * p * (window + f)) whatever
    H is.

    Each block computes `trajectory_features` rows [s, e) with one matmul and
    carries its last row into the next block, so its row groups line up with
    those of the whole-trajectory product.  Measured with OpenBLAS, the bits
    agree when `block` is a multiple of 4 and there is more than one filter
    column; otherwise rows differ at rounding level.  Products with an
    identity F are exact whatever the block.
    """
    n, H, p = Ys.shape
    window, f = F.shape
    Fflip = F[::-1].copy()  # windows below are oldest-first
    hist = np.empty((n, window - 1 + block, p))
    # (n, p, block, window): the windows of hist, built once; a block reads the first L
    view = np.lib.stride_tricks.sliding_window_view(hist, window, axis=1).transpose(0, 2, 1, 3)
    windows = np.empty((n, p, block, window))
    rows = np.zeros((n, block + 1, p, f))  # row 0: the row carried from the last block
    for s in range(0, H, block):
        e = min(s + block, H)
        L = e - s
        pad = max(window - 1 - s, 0)  # history rows before row 0
        ys = hist[:, : L + window - 1]
        ys[:, :pad] = 0.0
        ys[:, pad:] = Ys[:, s - window + 1 + pad : e]
        np.copyto(windows[:, :, :L], view[:, :, :L])
        np.matmul(windows[:, :, :L], Fflip, out=rows[:, 1 : L + 1].transpose(0, 2, 1, 3))
        yield s, e, rows[:, :L].reshape(n, L, p * f)
        rows[:, 0] = rows[:, L]


def _bank_columns(bank: FilterBank, m: int, p: int) -> np.ndarray:
    """Columns of `bank`'s features that are the features of its first m filters."""
    cols = np.arange(m)
    if bank.sign_augmented:
        cols = np.concatenate([cols, bank.m + cols])
    return (bank.feature_count * np.arange(p)[:, None] + cols).ravel()


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
