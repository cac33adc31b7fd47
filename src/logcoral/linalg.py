"""Dense symmetric linear algebra: eigendecomposition, spectral functions
U f(Sigma) U^T (matrix log and exp) and the Daleckii-Krein backward pass
through the matrix logarithm used by the Log-Euclidean loss.

All functions are pure; SymmetricMatrix and EigenPair are immutable values.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInput, NotPositiveDefinite, NumericalFailure


@dataclass(frozen=True)
class SymmetricMatrix:
    """A d x d real symmetric matrix. Asymmetric input is rejected unless the
    caller explicitly asks for symmetrization."""

    data: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.data, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvalidInput(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise InvalidInput("matrix dimension must be >= 1")
        if not np.all(np.isfinite(a)):
            raise InvalidInput("matrix has non-finite entries")
        if not np.array_equal(a, a.T):
            raise InvalidInput("matrix is not symmetric; use SymmetricMatrix.from_array(symmetrize=True)")
        object.__setattr__(self, "data", a)
        self.data.setflags(write=False)

    @classmethod
    def from_array(cls, a, symmetrize: bool = False) -> "SymmetricMatrix":
        a = np.asarray(a, dtype=float)
        if symmetrize:
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise InvalidInput(f"expected a square matrix, got shape {a.shape}")
            a = 0.5 * (a + a.T)
        return cls(a)

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.array(self.data, dtype=dtype)


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalues in ascending order plus the matching orthonormal
    eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return spectral_apply(self.vectors, self.values)


def _as_array(m) -> np.ndarray:
    return m.data if isinstance(m, SymmetricMatrix) else np.asarray(m, dtype=float)


def sym_eig(m: SymmetricMatrix) -> EigenPair:
    """Symmetric eigendecomposition with a deterministic sign convention:
    the largest-magnitude entry of each eigenvector column is made positive."""
    a = _as_array(m)
    if not np.all(np.isfinite(a)):
        raise InvalidInput("matrix has non-finite entries")
    a = 0.5 * (a + a.T)
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition failed to converge: {exc}") from exc
    # fix column signs for reproducible output
    pivot = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[pivot, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    vectors = vectors * signs
    values = values.copy()
    values.setflags(write=False)
    vectors.setflags(write=False)
    return EigenPair(values=values, vectors=vectors)


def regularize_psd(m: SymmetricMatrix, epsilon: float) -> SymmetricMatrix:
    """Shift every eigenvalue up by exactly epsilon: m + epsilon * I."""
    if not epsilon > 0:
        raise InvalidInput(f"epsilon must be positive, got {epsilon}")
    a = _as_array(m)
    return SymmetricMatrix(a + epsilon * np.eye(a.shape[0]))


def default_epsilon(m: SymmetricMatrix, relative: float = 1e-6) -> float:
    """Regularization scaled to the matrix: relative * mean diagonal entry,
    falling back to the relative value itself for (near-)zero matrices."""
    a = _as_array(m)
    mean_diag = float(np.mean(np.diag(a)))
    return relative * mean_diag if mean_diag > 0 else relative


def spectral_apply(vectors: np.ndarray, f_values: np.ndarray) -> np.ndarray:
    """U f(Sigma) U^T from the eigenvectors U and the values f(sigma_i),
    symmetrized."""
    return sym_part((vectors * f_values) @ vectors.T)


def matrix_log(m: SymmetricMatrix) -> SymmetricMatrix:
    """Principal logarithm of an SPD matrix: U log(Sigma) U^T."""
    pair = sym_eig(m)
    if pair.values[0] <= 0:
        raise NotPositiveDefinite(float(pair.values[0]))
    return SymmetricMatrix(spectral_apply(pair.vectors, np.log(pair.values)))


def matrix_exp(m: SymmetricMatrix) -> SymmetricMatrix:
    """Exponential of a symmetric matrix: U exp(Sigma) U^T."""
    pair = sym_eig(m)
    return SymmetricMatrix(spectral_apply(pair.vectors, np.exp(pair.values)))


def matrix_log_backward(vectors: np.ndarray, values: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Gradient with respect to C of a loss whose gradient with respect to
    log(C) = U log(Sigma) U^T is upstream, by the Daleckii-Krein formula
    U (K o U^T sym(upstream) U) U^T.

    K is the Loewner matrix of log: (log s_i - log s_j) / (s_i - s_j), with
    the limit 1/s_i where s_i = s_j. It is evaluated as log1p(x) / (x lo)
    with x = hi/lo - 1 >= 0, lo and hi the smaller and larger of each pair.
    That stays accurate inside the near-degenerate clusters that dead
    rectifier units put into tap covariances, and at any condition number.
    """
    lo = np.minimum.outer(values, values)
    x = np.maximum.outer(values, values) / lo - 1.0
    loewner = np.divide(np.log1p(x), x, out=np.ones_like(x), where=x != 0.0) / lo
    inner = loewner * (vectors.T @ sym_part(upstream) @ vectors)
    return sym_part(vectors @ inner @ vectors.T)


def sym_part(m) -> np.ndarray:
    """(m + m^T) / 2."""
    a = _as_array(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {a.shape}")
    return 0.5 * (a + a.T)
