"""Forward and backward passes of the alignment losses.

Three distances between domain statistics are implemented: the Euclidean
covariance distance, its Log-Euclidean (geodesic) counterpart, a
`LogEuclidean` value whose `grads()` is the Daleckii-Krein backward pass in
`linalg`, and a first-order mean distance. Gradients use the
symmetric-perturbation convention: for a symmetric direction V, dL = <grad, V>.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import InvalidInput
from .linalg import EigenPair, SymmetricMatrix, default_epsilon, matrix_log_backward, spd_eig, sym_part
from .stats import FeatureBatch


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
        vals = (self.classification, self.coral, self.logcoral, self.mean)
        if not all(0 <= w < np.inf for w in vals):
            raise InvalidInput(f"loss weights must be nonnegative and finite, got {vals}")
        if all(w == 0 for w in vals):
            raise InvalidInput("at least one loss weight must be positive")


def coral_loss(cov_s: SymmetricMatrix, cov_t: SymmetricMatrix) -> LossBundle:
    """Euclidean covariance alignment: ||C_s - C_t||_F^2 / (4 d^2)."""
    if cov_s.dim != cov_t.dim:
        raise InvalidInput(f"dimension mismatch: {cov_s.dim} vs {cov_t.dim}")
    d = cov_s.dim
    diff = cov_s.data - cov_t.data
    value = float(np.sum(diff * diff)) / (4.0 * d * d)
    grad = diff / (2.0 * d * d)
    return LossBundle(value=value, grad_source=grad, grad_target=-grad)


def resolve_epsilon(cov_s: SymmetricMatrix, cov_t: SymmetricMatrix, epsilon: float) -> float:
    """The epsilon of the Log-Euclidean term in training and `logcoral losses`:
    epsilon when nonzero, else max(default_epsilon(C_s), default_epsilon(C_t)).
    `logcoral_loss` takes epsilon as given: there 0 means no shift."""
    return epsilon if epsilon else max(default_epsilon(cov_s), default_epsilon(cov_t))


@dataclass(frozen=True)
class LogEuclidean:
    """||log C_s - log C_t||_F^2 / (4 d^2) and what its gradients reuse: `spd_eig`'s
    ascending pairs of C_s + eps I and C_t + eps I, m = U_s^T U_t and, with l = log(sigma),
    diff_s = U_s^T (log C_s - log C_t) U_s = diag(l_s) - M diag(l_t) M^T."""

    value: float
    eig_s: EigenPair
    eig_t: EigenPair
    m: np.ndarray
    diff_s: np.ndarray

    def grads(self) -> tuple:
        """(dL/dC_s, dL/dC_t): a Daleckii-Krein backward of D_s and of
        D_t = U_t^T (log C_s - log C_t) U_t = M^T diag(l_s) M - diag(l_t)."""
        l_s, l_t = np.log(self.eig_s.values), np.log(self.eig_t.values)
        diff_t = (self.m.T * l_s) @ self.m - np.diag(l_t)
        scale = 1.0 / (2.0 * len(l_s) ** 2)
        return (matrix_log_backward(self.eig_s.vectors, self.eig_s.values, scale * self.diff_s),
                matrix_log_backward(self.eig_t.vectors, self.eig_t.values, -scale * diff_t))


def log_euclidean(cov_s: SymmetricMatrix, cov_t: SymmetricMatrix, epsilon: float) -> LogEuclidean:
    """LogEuclidean of C_s and C_t, in seven d x d products and no matrix log. Equal
    inputs are decomposed once, with M = I, so D_s and D_t come out exact zeros."""
    if cov_s.dim != cov_t.dim:
        raise InvalidInput(f"dimension mismatch: {cov_s.dim} vs {cov_t.dim}")
    eig_s = spd_eig(cov_s, epsilon)
    eig_t = eig_s if np.array_equal(cov_s.data, cov_t.data) else spd_eig(cov_t, epsilon)
    m = np.eye(cov_s.dim) if eig_t is eig_s else eig_s.vectors.T @ eig_t.vectors
    diff_s = np.diag(np.log(eig_s.values)) - (m * np.log(eig_t.values)) @ m.T
    value = float(np.sum(diff_s * diff_s)) / (4.0 * cov_s.dim ** 2)
    return LogEuclidean(value=value, eig_s=eig_s, eig_t=eig_t, m=m, diff_s=diff_s)


def logcoral_loss(cov_s: SymmetricMatrix, cov_t: SymmetricMatrix, epsilon: float = 0.0) -> LossBundle:
    """Log-Euclidean covariance alignment: ||log C_s - log C_t||_F^2 / (4 d^2),
    with epsilon * I added to both covariances before the log."""
    le = log_euclidean(cov_s, cov_t, epsilon)
    return LossBundle(le.value, *le.grads())


def mean_loss(mean_s: np.ndarray, mean_t: np.ndarray) -> LossBundle:
    """First-order alignment: ||mu_s - mu_t||^2 / (2 d) on mean vectors."""
    mean_s = np.asarray(mean_s, dtype=float)
    mean_t = np.asarray(mean_t, dtype=float)
    if mean_s.shape != mean_t.shape or mean_s.ndim != 1:
        raise InvalidInput(f"mean vectors must share a 1-D shape, got {mean_s.shape} vs {mean_t.shape}")
    d = len(mean_s)
    diff = mean_s - mean_t
    value = float(diff @ diff) / (2.0 * d)
    grad = diff / d
    return LossBundle(value=value, grad_source=grad, grad_target=-grad)


def chain_to_features(loss_grad_cov: np.ndarray, batch: FeatureBatch, scale: float = 1.0) -> np.ndarray:
    """Chain a covariance gradient back to the feature matrix:
    dL/dD = scale * (2/(n-1)) * (D - 1 mu^T) sym(dL/dC).

    scale carries the (1 - momentum) factor when the covariance entering the
    loss was a smoothed statistic.
    """
    g = sym_part(loss_grad_cov)
    if g.shape[0] != batch.d:
        raise InvalidInput(f"covariance gradient is {g.shape[0]}-dim but features are {batch.d}-dim")
    if batch.n < 2:
        raise InvalidInput("need at least 2 rows to chain through a covariance")
    return _chain_centred(g, batch.data - batch.data.mean(axis=0), scale)


def _chain_centred(g: np.ndarray, centred: np.ndarray, scale: float) -> np.ndarray:
    """chain_to_features, unchecked, on >= 2 centred rows and an exactly symmetric g."""
    return (2.0 * scale / (centred.shape[0] - 1)) * centred @ g


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> LossBundle:
    """Mean negative log-likelihood of the true class under a softmax."""
    logits = np.asarray(logits, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if logits.ndim != 2:
        raise InvalidInput(f"logits must be 2-D, got shape {logits.shape}")
    n, k = logits.shape
    if labels.shape != (n,):
        raise InvalidInput(f"labels must have length {n}, got shape {labels.shape}")
    if labels.min() < 0 or labels.max() >= k:
        raise InvalidInput(f"labels must lie in [0, {k}), got range [{labels.min()}, {labels.max()}]")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    value = float(np.mean(log_z - shifted[np.arange(n), labels]))
    probs = np.exp(shifted - log_z[:, None])
    probs[np.arange(n), labels] -= 1.0
    return LossBundle(value=value, grad_source=probs / n)
