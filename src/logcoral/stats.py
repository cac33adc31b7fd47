"""Batch statistics over feature matrices: sample covariance, column mean,
and the moving-average state carried across training iterations. Training
keeps one `SmoothedStats` per domain, holding the covariance at one feature
tap and the mean at another.

Validation happens at the edges. `FeatureBatch(...)` checks what a caller
hands in: a non-empty finite 2-D array, and labels that are whole,
nonnegative numbers below 2**63, one per row; `SmoothedStats(...)` checks its
cov and mean. Batches the library cuts from checked arrays (a step's sampled
rows, the halves of a tap) skip those checks through the private
`FeatureBatch._trusted`. `batch_covariance` and `batch_mean`, the training
step's too, raise `NumericalFailure` if the value overflows, as finite features
can have an infinite covariance or column sum. The covariance and the moving
averages are symmetric by construction and skip the `SymmetricMatrix` checks.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import InvalidInput, NumericalFailure
from .linalg import SymmetricMatrix, _data, _symmetrize


@dataclass(frozen=True)
class FeatureBatch:
    """n x d matrix of feature row-vectors for one domain, with optional
    integer labels."""

    data: np.ndarray
    labels: Optional[np.ndarray] = None

    def __post_init__(self):
        a = np.asarray(self.data, dtype=float)
        if a.ndim != 2:
            raise InvalidInput(f"feature data must be 2-D, got shape {a.shape}")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise InvalidInput(f"feature data must be non-empty, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise InvalidInput("feature data has non-finite entries")
        object.__setattr__(self, "data", a)
        if self.labels is not None:
            lab = np.asarray(self.labels)
            if lab.shape != (a.shape[0],):
                raise InvalidInput(f"labels must have length {a.shape[0]}, got shape {lab.shape}")
            object.__setattr__(self, "labels", _class_labels(lab))

    @classmethod
    def _trusted(cls, data: np.ndarray, labels: Optional[np.ndarray] = None) -> "FeatureBatch":
        """Wrap arrays the library checked itself (rows cut from checked
        arrays, or a parsed CSV) without the constructor's checks. The caller
        guarantees what those checks enforce: data is a finite 2-D float
        ndarray with at least one row and one column, and labels is None or a
        nonnegative integer ndarray with one entry per row."""
        b = object.__new__(cls)
        object.__setattr__(b, "data", data)
        object.__setattr__(b, "labels", labels)
        return b

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]


def _class_labels(lab: np.ndarray) -> np.ndarray:
    """lab as an int array. Raises InvalidInput unless every entry is a
    nonnegative whole number below 2**63, which int64 holds: the one label
    rule of `FeatureBatch` and `softmax_cross_entropy`."""
    if lab.dtype.kind in "iu":  # whole already; only the sign, or an unsigned int64 overflow, can fail
        class_indices = lab >= 0 if lab.dtype.kind == "i" else lab < 2 ** 63
    else:
        with np.errstate(invalid="ignore"):  # inf % 1 is nan: rejected
            class_indices = (lab >= 0) & (lab % 1 == 0) & (lab < 2.0 ** 63)
    if not class_indices.all():
        raise InvalidInput(f"labels must be nonnegative whole numbers below 2**63, "
                           f"got {lab[~class_indices][0]}")
    return lab.astype(int, copy=False)


def batch_covariance(b: FeatureBatch) -> SymmetricMatrix:
    """Sample covariance with 1/(n-1) normalization, computed from centred
    rows as (D - 1 mu^T)^T (D - 1 mu^T) / (n - 1), which stays accurate at
    large mean offsets; NumericalFailure, with no numpy warning, if it overflows."""
    if b.n < 2:
        raise InvalidInput(f"covariance needs at least 2 rows, got {b.n}")
    with np.errstate(over="ignore", invalid="ignore"):  # checked at once
        centered = b.data - b.data.mean(axis=0)
        cov = _symmetrize(centered.T @ centered / (b.n - 1))
    if not np.isfinite(cov).all():
        raise NumericalFailure("covariance has non-finite entries: the feature values overflow it",
                               component="batch_covariance")
    return SymmetricMatrix._trusted(cov)


def batch_mean(b: FeatureBatch) -> np.ndarray:
    """Column means of the feature matrix; NumericalFailure, with no numpy warning, if a
    column's sum overflows."""
    with np.errstate(over="ignore", invalid="ignore"):  # checked at once
        mean = b.data.mean(axis=0)
    if not np.isfinite(mean).all():
        raise NumericalFailure("mean has non-finite entries: the feature values overflow it",
                               component="batch_mean")
    return mean


@dataclass(frozen=True)
class SmoothedStats:
    """Moving-average covariance and mean of one domain, which may come from
    different feature taps, updated functionally. Both are None until the
    first update, which seeds them with the batch values verbatim. cov must be
    a `SymmetricMatrix` and mean a finite 1-D array, else InvalidInput."""

    momentum: float = 0.9
    cov: Optional[SymmetricMatrix] = None
    mean: Optional[np.ndarray] = None

    def __post_init__(self):
        if not 0.0 < self.momentum < 1.0:
            raise InvalidInput(f"momentum must be in (0, 1), got {self.momentum}")
        if (self.cov is None) != (self.mean is None):
            raise InvalidInput("cov and mean must both be set or both be None")
        if self.cov is not None:
            _data(self.cov)  # a SymmetricMatrix, so finite
            object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
            if self.mean.ndim != 1 or not np.isfinite(self.mean).all():
                raise InvalidInput(f"mean must be a finite 1-D array, got shape {self.mean.shape}")

    @property
    def initialized(self) -> bool:
        return self.mean is not None

    @property
    def batch_share(self) -> float:
        """The next batch's weight in `update_smoothed`: 1 - momentum, or 1.0 before the first update."""
        return 1.0 - self.momentum if self.initialized else 1.0


def update_smoothed(s: SmoothedStats, cov: SymmetricMatrix, mean: np.ndarray) -> SmoothedStats:
    """One moving-average step of cov and mean, momentum * old + s.batch_share * batch,
    through the `SmoothedStats` constructor. A plain-array cov or a NaN mean is InvalidInput."""
    if not s.initialized:
        return SmoothedStats(momentum=s.momentum, cov=cov, mean=mean)
    mean = np.asarray(mean, dtype=float)
    if _data(cov).shape != s.cov.data.shape or mean.shape != s.mean.shape:
        raise InvalidInput(f"batch (cov {cov.dim}, mean {mean.shape}) does not match state ({s.cov.dim}, {s.mean.shape})")
    m, share = s.momentum, s.batch_share
    return SmoothedStats(momentum=m, cov=SymmetricMatrix._trusted(m * s.cov.data + share * cov.data),
                         mean=m * s.mean + share * mean)
