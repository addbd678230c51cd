"""Universal convolutional filter bank from the Hilbert matrix spectrum.

The bank is data independent: filters are the top eigenvectors of the
Hilbert matrix H[i, j] = 1/(i + j - 1) over a fixed window length.  Its
eigenvalues decay exponentially, so a small bank captures every impulse
response of the form (1, a, a^2, ...) with a in [0, 1] almost perfectly;
the optional sign-augmented variant extends coverage to a in [-1, 0).

Features need only the last `window` observations.  The one feature kernel
is the block kernel `_feature_blocks`, which convolves an ensemble with a
(window, f) filter matrix one block of rows at a time, from the block's
observations and the window - 1 before it.  It is fed its rows as they
arrive and keeps only the rows of one block and its history, and it copies
the block's sliding windows a bounded piece of trajectories at a time, so
its working set, O(n * p * (window + block * f)) besides one piece's
windows, does not grow with the horizon: an LDS's learners push it their
simulated array, a Lorenz grid's the blocks of its recursion.  Its one
caller is `predictors._Arms`, which every learner runs on: the spectral
learner with `FilterBank.filter_matrix()`, AR(k) and the zero and
last-value baselines with `FilterBank.identity`, whose features are the
last k observations, and the kernel oracle with its taps.  Features are
laid out coordinate-major (`_bank_columns`).  The whole-trajectory convolution that the kernel is
checked against, `trajectory_features`, is a test reference
(`tests/conftest.py`), not library code.
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

_WINDOW_VALUES = 1 << 15  # window values `_feature_blocks` copies at once, one trajectory at least


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
    """Top-m Hilbert eigenfilters over a fixed window, or the identity bank.

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

    @classmethod
    def identity(cls, k: int) -> FilterBank:
        """AR(k)'s bank: k identity filters over a window of k, whose
        features are the last k observations."""
        if k < 1:
            raise ContractViolation(f"ar order must be >= 1, got {k}")
        phis, mus = np.eye(k), np.ones(k)
        phis.setflags(write=False)
        mus.setflags(write=False)
        return cls(window=k, m=k, phis=phis, mus=mus, reliable_m=k)

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


def _feature_blocks(F: np.ndarray, shape, block: int):
    """The convolution of an (n, H, p) ensemble by the (window, f) filter
    matrix F, one block of rows at a time, fed its rows as they arrive.

    Returns `push`: push(ys) takes the next rows ys (n, L, p) of the
    ensemble, any L >= 0, in order, and yields (s, e, Z, Y) for each block
    [s, e) that they complete, s = 0, block, 2 block, ... up to H.  Row t - s
    of Z[i] holds, for each coordinate c, F.T applied to Ys[i, t-1, c], ...,
    Ys[i, t-window, c] (newest first, zero before row 0), as columns
    c * f .. c * f + f - 1: the last row of the tests' whole-trajectory
    reference `trajectory_features` on Ys[i, :t] for a bank's filter matrix,
    the input of a predictor about to see Ys[i, t].  Y holds the block's
    observations Ys[:, s:e], the targets.  Z and Y are views into buffers
    that the next block overwrites, and the stream keeps only the
    window - 1 + block rows that a block reads, so the working set is
    O(n * p * (window + block * f)) whatever H is.  The block's sliding
    windows are copied and multiplied in pieces of whole trajectories, about
    `_WINDOW_VALUES` values each, so the copy does not grow with n.  A
    caller that zips two streams pushes them the same rows and runs both
    pushes to the end (zip's strict=True), so their blocks complete together
    and the rows after the last complete block reach both streams' history.

    Each block computes each trajectory's reference rows [s, e) with one
    product, (L, window) @ (window, f), and carries its last row into the
    next block, so its row groups line up with those of the whole-trajectory
    product.  Measured with OpenBLAS, the bits agree when `block` is a
    multiple of 4 and there is more than one filter column; otherwise rows
    differ at rounding level.  Products with an identity F are exact
    whatever the block.  Each trajectory's product is its own, with the same
    L, so neither the window pieces nor how the rows are split between
    pushes moves a bit.
    """
    n, H, p = shape
    window, f = F.shape
    Fflip = F[::-1].copy()  # windows below are oldest-first
    # rows [s - window + 1, e) of the current block [s, e), zero before row 0
    hist = np.zeros((n, window - 1 + block, p))
    # (n, p, block, window): the windows of hist, built once; a block reads the first L
    view = np.lib.stride_tricks.sliding_window_view(hist, window, axis=1).transpose(0, 2, 1, 3)
    piece = max(1, _WINDOW_VALUES // (p * block * window))  # trajectories copied at once
    windows = np.empty((min(n, piece), p, block, window))
    rows = np.zeros((n, block + 1, p, f))  # row 0: the row carried from the last block
    s = t = 0  # rows [s, t) of the current block have arrived

    def push(ys):
        nonlocal s, t
        i = 0
        while i < ys.shape[1]:
            if t == H:
                raise ContractViolation(f"rows pushed past the horizon {H}")
            e = min(s + block, H)
            if t == e:  # the last block was yielded: carry its history into the next
                L = e - s
                rows[:, 0] = rows[:, L]
                hist[:, : window - 1] = hist[:, L : L + window - 1]
                s, e = e, min(e + block, H)
            take = min(e - t, ys.shape[1] - i)
            at = window - 1 + t - s
            hist[:, at : at + take] = ys[:, i : i + take]
            t, i = t + take, i + take
            if t == e:
                L = e - s
                for a in range(0, n, piece):  # trajectories a .. a + piece - 1
                    w = windows[: min(piece, n - a), :, :L]
                    np.copyto(w, view[a : a + piece, :, :L])
                    np.matmul(w, Fflip, out=rows[a : a + piece, 1 : L + 1].transpose(0, 2, 1, 3))
                yield s, e, rows[:, :L].reshape(n, L, p * f), hist[:, window - 1 : window - 1 + L]

    return push


def _bank_columns(bank: FilterBank, m: int, p: int) -> np.ndarray:
    """Columns of `bank`'s features that are the features of its first m filters."""
    cols = np.arange(m)
    if bank.sign_augmented:
        cols = np.concatenate([cols, bank.m + cols])
    return (bank.feature_count * np.arange(p)[:, None] + cols).ravel()

