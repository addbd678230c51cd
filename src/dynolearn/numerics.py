"""Dense linear-algebra kernels, seeded Gaussian sampling and a thread map.

Matrices and vectors are plain float64 numpy arrays.  All operations are
pure; random draws come from explicit `SeededRng` handles so that every
downstream simulation is a deterministic function of (inputs, seed).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ContractViolation, NumericalFailure, SingularSystem

SYMMETRY_TOL = 1e-12
EIG_RESIDUAL_TOL = 1e-9
EIG_ORTHONORMALITY_TOL = 1e-10


def as_matrix(M, name: str = "matrix") -> np.ndarray:
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
        raise ContractViolation(f"{name} must be a 2-d array, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ContractViolation(f"{name} contains non-finite entries")
    return A


def as_vector(v, name: str = "vector") -> np.ndarray:
    x = np.asarray(v, dtype=float)
    if x.ndim != 1 or x.shape[0] < 1:
        raise ContractViolation(f"{name} must be a 1-d array, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ContractViolation(f"{name} contains non-finite entries")
    return x


def sym_eig(M) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix.

    Returns (eigenvalues sorted descending, eigenvectors as orthonormal
    columns in matching order).  The factorization is validated before
    returning: reconstruction residual and orthonormality must meet the
    module tolerances or a `NumericalFailure` is raised.
    """
    A = as_matrix(M, "sym_eig input")
    n, m = A.shape
    if n != m:
        raise ContractViolation(f"sym_eig requires a square matrix, got {A.shape}")
    asym = float(np.abs(A - A.T).max())
    if asym > SYMMETRY_TOL:
        raise ContractViolation(
            f"sym_eig requires a symmetric matrix; max |A - A^T| entry is {asym:.3e}"
        )
    sym = 0.5 * (A + A.T)
    try:
        evals, vecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"symmetric eigensolver did not converge: {exc}") from exc
    evals = evals[::-1].copy()
    vecs = vecs[:, ::-1].copy()

    scale = 1.0 + float(np.abs(A).max())
    residual = float(np.abs(sym @ vecs - vecs * evals[None, :]).max())
    if residual > EIG_RESIDUAL_TOL * scale:
        raise NumericalFailure(
            f"eigendecomposition residual {residual:.3e} exceeds {EIG_RESIDUAL_TOL * scale:.3e}"
        )
    orth = float(np.abs(vecs.T @ vecs - np.eye(n)).max())
    if orth > EIG_ORTHONORMALITY_TOL:
        raise NumericalFailure(f"eigenvector orthonormality defect {orth:.3e}")
    return evals, vecs


def solve_normal_system(gram, rhs, ridge: float = 0.0) -> np.ndarray:
    """Solve (gram + ridge*I) w = rhs for a symmetric PSD gram matrix.

    Uses a Cholesky factorization L L^T and solves with L, then L^T; raises
    `SingularSystem` when the regularized matrix is not numerically
    positive definite.
    """
    G = as_matrix(gram, "gram")
    if G.shape[0] != G.shape[1]:
        raise ContractViolation(f"gram matrix must be square, got {G.shape}")
    if ridge < 0:
        raise ContractViolation(f"ridge must be nonnegative, got {ridge}")
    b = np.asarray(rhs, dtype=float)
    if ridge > 0:
        G = G + ridge * np.eye(G.shape[0])
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(
            f"normal system is singular or indefinite (ridge={ridge:g})"
        ) from exc
    return np.linalg.solve(L.T, np.linalg.solve(L, b))


class SeededRng:
    """Deterministic random stream with hierarchical splitting.

    Wraps a counter-based Philox generator keyed by (seed, path).  Child
    streams derived through `child()` extend the path and are therefore
    statistically independent of the parent and of each other; identical
    (seed, path) always replays the identical stream.
    """

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise ContractViolation(f"seed must be a 64-bit unsigned integer, got {seed}")
        self.seed = seed
        self.path = tuple(int(i) for i in path)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        self._gen = np.random.Generator(np.random.Philox(ss))

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy generator (single-owner; do not share)."""
        return self._gen

    def child(self, *indices: int) -> "SeededRng":
        """Derive the independent child stream at `path + indices`."""
        return SeededRng(self.seed, self.path + tuple(indices))

    def normals(self, shape, mean: float = 0.0, stdev: float = 1.0, out=None) -> np.ndarray:
        """Gaussian draws of `shape`, written into `out` (a C-contiguous float
        array of that shape) when given.  The bits do not depend on `out`."""
        if stdev < 0:
            raise ContractViolation(f"stdev must be nonnegative, got {stdev}")
        draws = self._gen.standard_normal(shape, out=out)
        draws *= stdev
        draws += mean
        return draws

    def __repr__(self) -> str:
        return f"SeededRng(seed={self.seed}, path={self.path})"


def _parallel_map(fn, items, n_workers: int) -> list:
    """[fn(item) for item in items], on up to n_workers threads, in order."""
    if n_workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(fn, items))
