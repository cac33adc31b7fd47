"""Dense symmetric linear algebra: eigendecomposition, spectral functions
U f(Sigma) U^T (matrix log and exp) and the Daleckii-Krein backward pass
through the matrix logarithm, which takes its upstream in the eigenbasis.

All functions are pure; SymmetricMatrix and EigenPair are immutable values.

Validation happens at the edges. The public constructors check every matrix
a caller hands in: square, finite, exactly symmetric; every function here but
`sym_part` takes a SymmetricMatrix only. Matrices this library computes
itself are symmetric by construction, so they skip those checks through the
private `SymmetricMatrix._trusted`. A check that a computed value can still
fail stays where it can fire: `batch_covariance` checks that its product did
not overflow, `sym_eig` checks finiteness before LAPACK, and `regularize_psd`
checks that its epsilon is finite.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInput, NotPositiveDefinite, NumericalFailure


@dataclass(frozen=True)
class SymmetricMatrix:
    """A d x d real symmetric matrix. Asymmetric input is rejected;
    `SymmetricMatrix(sym_part(a))` symmetrizes it explicitly."""

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
            raise InvalidInput("matrix is not symmetric; use SymmetricMatrix(sym_part(a))")
        object.__setattr__(self, "data", a)
        self.data.setflags(write=False)

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


def _data(m: SymmetricMatrix) -> np.ndarray:
    """m's checked array; a plain ndarray is rejected, as `eigh` would read its lower triangle only."""
    if not isinstance(m, SymmetricMatrix):
        raise InvalidInput(f"expected a SymmetricMatrix, got {type(m).__name__}")
    return m.data


def sym_eig(m: SymmetricMatrix) -> EigenPair:
    """Ascending eigenvalues and orthonormal eigenvectors as LAPACK's `eigh`
    returns them, column signs included: callers read the vectors only through
    sign-free forms (U f(Sigma) U^T, U_s^T U_t), where a flipped column cancels."""
    a = _data(m)
    if not np.all(np.isfinite(a)):
        raise InvalidInput("matrix has non-finite entries")
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition failed to converge: {exc}") from exc
    values.setflags(write=False)
    vectors.setflags(write=False)
    return EigenPair(values=values, vectors=vectors)


def regularize_psd(m: SymmetricMatrix, epsilon: float) -> SymmetricMatrix:
    """Shift every eigenvalue up by exactly epsilon: m + epsilon * I."""
    if not 0 < epsilon < np.inf:
        raise InvalidInput(f"epsilon must be positive and finite, got {epsilon}")
    a = _data(m)
    shifted = a.copy()
    shifted.flat[::a.shape[0] + 1] += epsilon
    return SymmetricMatrix._trusted(shifted)


def default_epsilon(m: SymmetricMatrix) -> float:
    """Regularization scaled to the matrix: 1e-6 * mean diagonal entry,
    falling back to 1e-6 itself for (near-)zero matrices."""
    mean_diag = float(np.mean(np.diag(_data(m))))
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


def matrix_log_backward(vectors: np.ndarray, values: np.ndarray, upstream_eig: np.ndarray) -> np.ndarray:
    """Gradient with respect to C of a loss whose gradient with respect to log(C) =
    U log(Sigma) U^T is U upstream_eig U^T, upstream_eig being in C's eigenbasis: the
    Daleckii-Krein sym(U (K o upstream_eig) U^T), whose sym drops antisymmetric rounding.

    K is the Loewner matrix of log: (log s_i - log s_j) / (s_i - s_j), with
    the limit 1/s_i where s_i = s_j. It is evaluated as log1p(x) / (x lo)
    with x = hi/lo - 1 >= 0, lo and hi the smaller and larger of each pair.
    That stays accurate inside the near-degenerate clusters that dead
    rectifier units put into tap covariances, and at any condition number.
    """
    lo = np.minimum.outer(values, values)
    x = np.maximum.outer(values, values) / lo - 1.0
    loewner = np.divide(np.log1p(x), x, out=np.ones_like(x), where=x != 0.0) / lo
    return _symmetrize(vectors @ (loewner * upstream_eig) @ vectors.T)


def _symmetrize(a: np.ndarray) -> np.ndarray:
    """(a + a^T) / 2 of a square array, unchecked. Exact on a symmetric a."""
    return 0.5 * (a + a.T)


def sym_part(m) -> np.ndarray:
    """(m + m^T) / 2 of a square array."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {a.shape}")
    return _symmetrize(a)
