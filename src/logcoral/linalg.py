"""Dense symmetric linear algebra: eigendecomposition, spectral functions
U f(Sigma) U^T (matrix log and exp) and the Daleckii-Krein backward pass
through the matrix logarithm used by the Log-Euclidean loss.

All functions are pure; SymmetricMatrix and EigenPair are immutable values.

Validation happens at the edges. The public constructors check every matrix
a caller hands in: square, finite, exactly symmetric. Matrices this library
computes itself are symmetric by construction, so they skip those checks
through the private `SymmetricMatrix._trusted`. A check that a computed
value can still fail stays where it can fire: `batch_covariance` checks that
its product did not overflow, `sym_eig` checks finiteness before LAPACK, and
`regularize_psd` checks that its epsilon is finite.
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

    @classmethod
    def _trusted(cls, a: np.ndarray) -> "SymmetricMatrix":
        """Wrap a matrix the library computed, without the constructor's
        checks. The caller guarantees what those checks enforce: a is a
        square float ndarray of dimension >= 1, a == a.T exactly, and its
        entries are finite (arithmetic on finite entries overflows only at
        the edge of the float range, and `sym_eig` still checks for that).
        a is made read-only, as the constructor does."""
        m = object.__new__(cls)
        object.__setattr__(m, "data", a)
        a.setflags(write=False)
        return m

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
    the largest-magnitude entry of each eigenvector column is made positive.
    A plain array is symmetrized first; a SymmetricMatrix already is."""
    a = _as_array(m)
    if not np.all(np.isfinite(a)):
        raise InvalidInput("matrix has non-finite entries")
    if not isinstance(m, SymmetricMatrix):
        a = _symmetrize(a)
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
    if not 0 < epsilon < np.inf:
        raise InvalidInput(f"epsilon must be positive and finite, got {epsilon}")
    a = _as_array(m)
    shifted = a + epsilon * np.eye(a.shape[0])
    # a plain array is checked like any other caller's input
    return SymmetricMatrix._trusted(shifted) if isinstance(m, SymmetricMatrix) else SymmetricMatrix(shifted)


def default_epsilon(m: SymmetricMatrix) -> float:
    """Regularization scaled to the matrix: 1e-6 * mean diagonal entry,
    falling back to 1e-6 itself for (near-)zero matrices."""
    mean_diag = float(np.mean(np.diag(_as_array(m))))
    return 1e-6 * mean_diag if mean_diag > 0 else 1e-6


def spectral_apply(vectors: np.ndarray, f_values: np.ndarray) -> np.ndarray:
    """U f(Sigma) U^T from the eigenvectors U and the values f(sigma_i),
    symmetrized."""
    return _symmetrize((vectors * f_values) @ vectors.T)


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
    inner = loewner * (vectors.T @ _symmetrize(upstream) @ vectors)
    return _symmetrize(vectors @ inner @ vectors.T)


def _symmetrize(a: np.ndarray) -> np.ndarray:
    """(a + a^T) / 2 of a square array, unchecked. Exact on a symmetric a."""
    return 0.5 * (a + a.T)


def sym_part(m) -> np.ndarray:
    """(m + m^T) / 2."""
    a = _as_array(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {a.shape}")
    return _symmetrize(a)
