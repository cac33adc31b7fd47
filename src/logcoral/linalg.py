"""Dense symmetric linear algebra: eigendecomposition, the SPD spectrum a
log needs (`spd_eig`), spectral functions U f(Sigma) U^T (matrix log and exp)
and the Daleckii-Krein backward pass through the matrix logarithm, which
takes its upstream in the eigenbasis.

All functions are pure; SymmetricMatrix and EigenPair are immutable values.

Validation happens at the edges. `_real_array` is the one rule for an array a caller hands in, in
every module: rectangular, real, finite, with the given axes, none empty. The public constructor adds
square and exactly symmetric. `_data` is the one rule for an argument of a checked type, a SymmetricMatrix
or `stats.FeatureBatch`: anything else, a plain ndarray too, is InvalidInput. Every function here but
`sym_part` takes a SymmetricMatrix only; `_is_number` is the kind rule of a scalar, such as epsilon. Values
this library computes itself skip the constructors' checks through the private `_trusted`. A check that a
computed value can still fail stays where it can fire and raises `NumericalFailure`: `batch_covariance`
checks that its product did not overflow, `sym_eig` checks finiteness before LAPACK, and `matrix_exp` and
`matrix_log` check their results.

`SymmetricMatrix._trusted` may also wrap a stack of matrices (leading axes
before the last two): `sym_eig`, `spd_eig` and `regularize_psd` take one and
give stacked results, item by item bit-identical to one call per matrix (so
`losses.log_euclidean` decomposes both its inputs in one call). The other
functions, and the public constructor, take one matrix only.
"""
from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .exceptions import InvalidInput, NotPositiveDefinite, NumericalFailure


@dataclass(frozen=True)
class SymmetricMatrix:
    """A d x d real symmetric matrix. Asymmetric input is rejected;
    `SymmetricMatrix(sym_part(a))` symmetrizes it explicitly."""

    data: np.ndarray

    def __post_init__(self):
        a = _real_array(self.data, "matrix", 2)
        if a.shape[0] != a.shape[1]:
            raise InvalidInput(f"expected a square matrix, got shape {a.shape}")
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
        a is made read-only, as the constructor does. a may also be a stack
        of such matrices, shape (..., d, d), for the stack-aware functions."""
        m = object.__new__(cls)
        object.__setattr__(m, "data", a)
        a.setflags(write=False)
        return m

    @property
    def dim(self) -> int:
        return self.data.shape[-1]


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalues in ascending order plus the matching orthonormal
    eigenvector columns; for a stack, values (..., d) and vectors (..., d, d)."""

    values: np.ndarray
    vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return spectral_apply(self.vectors, self.values)


def _data(v, kind=SymmetricMatrix) -> np.ndarray:
    """v's checked array; InvalidInput unless v is a kind, as `eigh` would read half of a plain ndarray."""
    if not isinstance(v, kind):
        raise InvalidInput(f"expected a {kind.__name__}, got {type(v).__name__}")
    return v.data


def _real_array(x, what: str, ndim: int) -> np.ndarray:
    """x as a float ndarray: the one rule for an array a caller hands in. InvalidInput naming what, with no
    numpy warning, unless x is a rectangular array of bool, int or float entries (not text, objects, None or
    complex) with ndim axes, none of them empty, whose entries are finite as floats."""
    try:
        a = np.asarray(x)
    except ValueError as exc:  # numpy's message for a ragged sequence
        raise InvalidInput(f"{what} must be a rectangular array, got a ragged sequence") from exc
    if a.dtype.kind not in "biuf":
        raise InvalidInput(f"{what} must be real numbers, got dtype {a.dtype}")
    if a.ndim != ndim or 0 in a.shape:
        raise InvalidInput(f"{what} must be a non-empty {ndim}-D array, got shape {a.shape}")
    a = a.astype(float, copy=False)
    if not (finite := np.isfinite(a)).all():
        raise InvalidInput(f"{what} must be finite, got {a[~finite][0]}")
    return a


def _is_number(v, kind=Real) -> bool:
    """Whether v is a number of kind, numpy's included; a bool, which Python counts as an int, is none."""
    return isinstance(v, kind) and not isinstance(v, bool)


def sym_eig(m: SymmetricMatrix) -> EigenPair:
    """Ascending eigenvalues and orthonormal eigenvectors as LAPACK's `eigh`
    returns them, column signs included: callers read the vectors only through
    sign-free forms (U f(Sigma) U^T, U_s^T U_t), where a flipped column cancels.
    A stack gives the stacked pairs of one `eigh` call. A non-finite (so
    computed) matrix, or an `eigh` that fails, raises NumericalFailure."""
    a = _data(m)
    if not np.isfinite(a).all():
        raise NumericalFailure("matrix has non-finite entries", component="sym_eig")
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition failed to converge: {exc}", component="sym_eig") from exc
    values.setflags(write=False)
    vectors.setflags(write=False)
    return EigenPair(values=values, vectors=vectors)


def spd_eig(m: SymmetricMatrix, epsilon: float = 0.0) -> EigenPair:
    """sym_eig of m + epsilon * I, the spectrum a log needs. Raises
    NotPositiveDefinite if its smallest eigenvalue is <= 0, for a stack the
    smallest of any item. At epsilon > 0 the eigenvalues are floored at epsilon;
    at 0 this is sym_eig's pair itself."""
    if not (_is_number(epsilon) and 0 <= epsilon < np.inf):
        raise InvalidInput(f"epsilon must be nonnegative and finite, got {epsilon}")
    pair = sym_eig(regularize_psd(m, epsilon) if epsilon > 0 else m)
    lowest = pair.values[..., 0].min()
    if lowest <= 0:
        raise NotPositiveDefinite(float(lowest))
    if epsilon > 0:
        values = np.maximum(pair.values, epsilon)
        values.setflags(write=False)
        pair = EigenPair(values=values, vectors=pair.vectors)
    return pair


def regularize_psd(m: SymmetricMatrix, epsilon: float) -> SymmetricMatrix:
    """Shift every eigenvalue up by exactly epsilon: m + epsilon * I."""
    if not (_is_number(epsilon) and 0 < epsilon < np.inf):
        raise InvalidInput(f"epsilon must be positive and finite, got {epsilon}")
    shifted = _data(m).copy()
    _add_to_diagonal(shifted, epsilon)
    return SymmetricMatrix._trusted(shifted)


def _add_to_diagonal(a: np.ndarray, v) -> None:
    """a[..., i, i] += v[..., i] in place, for a square array or a stack of them;
    v broadcasts against a's diagonals, shape (..., d)."""
    np.einsum("...ii->...i", a)[...] += v


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
    return _spectral_function(spd_eig(m), np.log, "matrix_log")


def matrix_exp(m: SymmetricMatrix) -> SymmetricMatrix:
    """Exponential of a symmetric matrix: U exp(Sigma) U^T."""
    return _spectral_function(sym_eig(m), np.exp, "matrix_exp")


def _spectral_function(pair: EigenPair, f, component: str) -> SymmetricMatrix:
    """U f(Sigma) U^T, symmetric; NumericalFailure naming component if not finite."""
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        out = spectral_apply(pair.vectors, f(pair.values))
    if not np.isfinite(out).all():
        raise NumericalFailure(f"{component} result has non-finite entries", component=component)
    return SymmetricMatrix._trusted(out)


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
    a = _real_array(m, "matrix", 2)
    if a.shape[0] != a.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {a.shape}")
    return _symmetrize(a)
