"""Forward and backward passes of the alignment losses.

Three distances between domain statistics are implemented: the Euclidean
covariance distance, its Log-Euclidean (geodesic) counterpart, a
`LogEuclidean` value whose `grads()` is the Daleckii-Krein backward pass in
`linalg`, and a first-order mean distance. Gradients use the
symmetric-perturbation convention: for a symmetric direction V, dL = <grad, V>.

The covariance losses take SymmetricMatrix inputs, and `chain_to_features` a SymmetricMatrix gradient and
a FeatureBatch; a bundle's covariance gradients are exactly symmetric, so `SymmetricMatrix` takes them as
they are. The public losses take one input each. The value computations they run, `_coral_value`,
`log_euclidean`, `_mean_value` and `_cross_entropy`, also take leading stack axes and then give one value
per item, bit-identical to the loss of that item alone; the gradient checker evaluates its probes that way.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import InvalidInput, NumericalFailure
from .linalg import (EigenPair, SymmetricMatrix, _add_to_diagonal, _data, _is_number, _real_array,
                     matrix_log_backward, spd_eig)
from .stats import FeatureBatch, _class_labels


@dataclass(frozen=True)
class LossBundle:
    """Scalar loss plus gradients with respect to the two inputs.
    grad_target is None for single-input losses (cross-entropy)."""

    value: float
    grad_source: np.ndarray
    grad_target: Optional[np.ndarray] = None


# Base scales that bring each alignment loss's gradient to the same order of
# magnitude as the classification loss. The fixed 1/(4d^2) and 1/(2d)
# normalizations leave the raw losses orders of magnitude apart at the
# default hidden widths, so "enable this loss" means "weight = base scale".
BASE_SCALES = {
    "classification": 1.0,
    "coral": 300.0,
    "logcoral": 10000.0,
    "mean": 300.0,
}


@dataclass(frozen=True)
class LossWeights:
    """Trade-off weights of the joint objective. Defaults enable the
    geodesic + mean combination at its calibrated base scales."""

    classification: float = 1.0
    coral: float = 0.0
    logcoral: float = BASE_SCALES["logcoral"]
    mean: float = BASE_SCALES["mean"]

    @classmethod
    def from_multipliers(cls, classification=1.0, coral=0.0, logcoral=0.0, mean=0.0) -> "LossWeights":
        """Build weights from per-loss multipliers of the base scales, so
        'logcoral=1' means 'on, at calibrated strength'."""
        return cls(classification=classification * BASE_SCALES["classification"],
                   coral=coral * BASE_SCALES["coral"],
                   logcoral=logcoral * BASE_SCALES["logcoral"],
                   mean=mean * BASE_SCALES["mean"])

    def __post_init__(self):
        if bad := [f"{k}={w}" for k, w in vars(self).items() if not (_is_number(w) and 0 <= w < np.inf)]:
            raise InvalidInput(f"loss weights must be nonnegative and finite real numbers, got {', '.join(bad)}")
        if not any(vars(self).values()):
            raise InvalidInput("at least one loss weight must be positive")


def coral_loss(cov_s: SymmetricMatrix, cov_t: SymmetricMatrix) -> LossBundle:
    """Euclidean covariance alignment: ||C_s - C_t||_F^2 / (4 d^2); NumericalFailure if it overflows."""
    s, t, d = _data(cov_s), _data(cov_t), cov_s.dim
    if cov_t.dim != d:
        raise InvalidInput(f"dimension mismatch: {d} vs {cov_t.dim}")
    with np.errstate(over="ignore", invalid="ignore"):  # checked at once
        diff = s - t
        value = float(_coral_value(diff))
    if not np.isfinite(value):
        raise NumericalFailure("non-finite loss: loss_coral", component="loss_coral")
    grad = diff / (2.0 * d * d)
    return LossBundle(value=value, grad_source=grad, grad_target=-grad)


def _coral_value(diff: np.ndarray):
    """||C_s - C_t||_F^2 / (4 d^2) of diff = C_s - C_t, d x d or a stack of them."""
    d = diff.shape[-1]
    return np.sum(diff * diff, axis=(-2, -1)) / (4.0 * d * d)


@dataclass(frozen=True)
class LogEuclidean:
    """||log C_s - log C_t||_F^2 / (4 d^2) and what its gradients reuse: `spd_eig`'s
    ascending pairs of C_s + eps I and C_t + eps I, m = U_s^T U_t and, with l = log(sigma),
    diff_s = U_s^T (log C_s - log C_t) U_s = diag(l_s) - M diag(l_t) M^T. `from_eigenpairs`
    is the one constructor that computes them; `log_euclidean` calls it on two covariances.
    Built from a stack of pairs, m and diff_s carry its leading axes, value is an array
    of one value per item, and `grads()` raises InvalidInput."""

    value: float | np.ndarray
    eig_s: EigenPair
    eig_t: EigenPair
    m: np.ndarray
    diff_s: np.ndarray

    @classmethod
    def from_eigenpairs(cls, eig_s: EigenPair, eig_t: EigenPair) -> "LogEuclidean":
        """The LogEuclidean of `spd_eig`'s pairs of C_s + eps I and C_t + eps I, in two
        d x d products and no matrix log; `grads()` adds five more. One pair passed as
        both stands for equal inputs: then M = I, so D_s and D_t come out exact zeros.
        Either pair may be `spd_eig`'s of a stack; then so is the result."""
        d = eig_s.values.shape[-1]
        m = np.eye(d) if eig_t is eig_s else eig_s.vectors.mT @ eig_t.vectors
        # 0 - x, not -x: the off-diagonal zeros of equal inputs stay +0, as diag(l_s) - x gives
        diff_s = 0.0 - (m * np.log(eig_t.values)[..., None, :]) @ m.mT
        _add_to_diagonal(diff_s, np.log(eig_s.values))
        value = np.sum(diff_s * diff_s, axis=(-2, -1)) / (4.0 * d ** 2)
        return cls(value=float(value) if value.ndim == 0 else value,
                   eig_s=eig_s, eig_t=eig_t, m=m, diff_s=diff_s)

    def grads(self) -> tuple:
        """(dL/dC_s, dL/dC_t): a Daleckii-Krein backward of D_s and of
        D_t = U_t^T (log C_s - log C_t) U_t = M^T diag(l_s) M - diag(l_t).
        Raises InvalidInput on a LogEuclidean built from a stack."""
        if self.diff_s.ndim != 2:
            raise InvalidInput(f"grads() takes one pair, not a stack of shape {self.diff_s.shape}")
        l_s, l_t = np.log(self.eig_s.values), np.log(self.eig_t.values)
        diff_t = (self.m.T * l_s) @ self.m - np.diag(l_t)
        scale = 1.0 / (2.0 * len(l_s) ** 2)
        return (matrix_log_backward(self.eig_s.vectors, self.eig_s.values, scale * self.diff_s),
                matrix_log_backward(self.eig_t.vectors, self.eig_t.values, -scale * diff_t))


def log_euclidean(cov_s: SymmetricMatrix, cov_t: SymmetricMatrix, epsilon: float) -> LogEuclidean:
    """LogEuclidean of C_s and C_t: `LogEuclidean.from_eigenpairs` of their pairs from one
    `spd_eig` call on C_s's items, then C_t's. Either may be a `_trusted` stack; then so
    is the result. Equal inputs are decomposed once and passed as one pair."""
    s, t, d = _data(cov_s), _data(cov_t), cov_s.dim
    if cov_t.dim != d:
        raise InvalidInput(f"dimension mismatch: {d} vs {cov_t.dim}")
    if np.array_equal(s, t):
        eig = spd_eig(cov_s, epsilon)
        return LogEuclidean.from_eigenpairs(eig, eig)
    # each is checked or trusted symmetric and finite, so their concatenation is too
    eig = spd_eig(SymmetricMatrix._trusted(np.concatenate([s.reshape(-1, d, d), t.reshape(-1, d, d)])), epsilon)
    n = s.size // (d * d)
    return LogEuclidean.from_eigenpairs(
        EigenPair(values=eig.values[:n].reshape(s.shape[:-1]), vectors=eig.vectors[:n].reshape(s.shape)),
        EigenPair(values=eig.values[n:].reshape(t.shape[:-1]), vectors=eig.vectors[n:].reshape(t.shape)))


def logcoral_loss(cov_s: SymmetricMatrix, cov_t: SymmetricMatrix, epsilon: float = 0.0) -> LossBundle:
    """Log-Euclidean covariance alignment: ||log C_s - log C_t||_F^2 / (4 d^2),
    with epsilon * I added to both covariances before the log."""
    le = log_euclidean(cov_s, cov_t, epsilon)
    return LossBundle(le.value, *le.grads())


def mean_loss(mean_s: np.ndarray, mean_t: np.ndarray) -> LossBundle:
    """First-order alignment: ||mu_s - mu_t||^2 / (2 d) on mean vectors; NumericalFailure if it overflows."""
    mean_s, mean_t = _real_array(mean_s, "mean_s", 1), _real_array(mean_t, "mean_t", 1)
    if mean_s.shape != mean_t.shape:
        raise InvalidInput(f"mean vectors must share a shape, got {mean_s.shape} vs {mean_t.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # checked at once
        diff = mean_s - mean_t
        value = float(_mean_value(diff))
    if not np.isfinite(value):
        raise NumericalFailure("non-finite loss: loss_mean", component="loss_mean")
    grad = diff / len(diff)
    return LossBundle(value=value, grad_source=grad, grad_target=-grad)


def _mean_value(diff: np.ndarray):
    """||mu_s - mu_t||^2 / (2 d) of diff = mu_s - mu_t, a d-vector or a stack of them."""
    return np.vecdot(diff, diff) / (2.0 * diff.shape[-1])


def chain_to_features(loss_grad_cov: SymmetricMatrix, batch: FeatureBatch, scale: float = 1.0) -> np.ndarray:
    """Chain a symmetric covariance gradient back to the feature matrix: dL/dD = scale * (2/(n-1)) *
    (D - 1 mu^T) dL/dC. For a smoothed covariance, scale is the batch's share, 1 - momentum (1 in a run's
    first step). The rows are centred as `batch_covariance` centres them; the training step chains through
    this function, and `chain_to_features(SymmetricMatrix(bundle.grad_source), batch)` a loss bundle's."""
    g, x = _data(loss_grad_cov), _data(batch, FeatureBatch)
    if g.shape[0] != batch.d:
        raise InvalidInput(f"covariance gradient is {g.shape[0]}-dim but features are {batch.d}-dim")
    if batch.n < 2:
        raise InvalidInput("need at least 2 rows to chain through a covariance")
    return (2.0 * scale / (batch.n - 1)) * (x - x.mean(axis=0)) @ g


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> LossBundle:
    """Mean negative log-likelihood of the true class under a softmax. labels are
    whole numbers in [0, k), one per row of the n x k finite logits, n >= 1;
    NumericalFailure, with no numpy warning, if the value overflows."""
    logits = _real_array(logits, "logits", 2)
    labels = np.asarray(labels)
    n, k = logits.shape
    if labels.shape != (n,):
        raise InvalidInput(f"labels must have length {n}, got shape {labels.shape}")
    labels = _class_labels(labels)
    if labels.max() >= k:
        raise InvalidInput(f"labels must lie in [0, {k}), got maximum {labels.max()}")
    with np.errstate(over="ignore", invalid="ignore"):  # checked at once
        value, shifted, log_z = _cross_entropy(logits, labels)
    if not np.isfinite(value):
        raise NumericalFailure("non-finite loss: loss_cls", component="loss_cls")
    probs = np.exp(shifted - log_z[:, None])
    probs[np.arange(n), labels] -= 1.0
    return LossBundle(value=float(value), grad_source=probs / n)


def _cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple:
    """(value, shifted logits, log partition) of softmax_cross_entropy, unchecked, on
    n x k logits or a stack of them, all against the same n int labels."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1))
    value = np.mean(log_z - shifted[..., np.arange(len(labels)), labels], axis=-1)
    return value, shifted, log_z
