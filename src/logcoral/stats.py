"""Batch statistics over feature matrices: sample covariance, column mean,
and the moving-average state carried across training iterations. Training
keeps one `SmoothedStats` per domain, holding the covariance at one feature
tap and the mean at another, both averaged at the run's one momentum, or at 0 in a run's first step.

Validation happens at the edges. `FeatureBatch(...)` checks what a caller hands in: data by the array
rule, `linalg._real_array`, and labels by `_class_labels`; a function that takes a batch takes a
FeatureBatch only (`linalg._data`). `SmoothedStats(...)` and `update_smoothed` check their cov and mean.
Batches the library makes of checked arrays (a step's sampled rows, its stacked source and target rows,
the halves of a tap) skip those checks through the private `FeatureBatch._trusted`. `batch_covariance` and
`batch_mean` raise `NumericalFailure` if the value overflows, as finite features can have an infinite
covariance or column sum. The covariance (numpy's `syrk` mirrors `c.T @ c`) and the moving averages are
symmetric by construction and skip the `SymmetricMatrix` checks.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import InvalidInput, NumericalFailure
from .linalg import SymmetricMatrix, _all_finite, _checked, _column_mean, _data, _real_array


@dataclass(frozen=True)
class FeatureBatch:
    """n x d matrix of feature row-vectors for one domain, with optional
    integer labels."""

    data: np.ndarray
    labels: Optional[np.ndarray] = None

    def __post_init__(self):
        a = _real_array(self.data, "feature data", 2)
        object.__setattr__(self, "data", a)
        if self.labels is not None:
            lab = np.asarray(self.labels)
            if lab.shape != (a.shape[0],):
                raise InvalidInput(f"labels must have length {a.shape[0]}, got shape {lab.shape}")
            object.__setattr__(self, "labels", _class_labels(lab))

    @classmethod
    def _trusted(cls, data: np.ndarray, labels: Optional[np.ndarray] = None) -> "FeatureBatch":
        """Wrap arrays the library checked itself (rows cut from checked arrays
        or stacked from two, or a parsed CSV) without the constructor's checks. The caller
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
    """lab as an int array. Raises InvalidInput unless its dtype is bool, int or float and every
    entry is a nonnegative whole number below 2**63, which int64 holds: the one label rule of
    `FeatureBatch` and `softmax_cross_entropy`."""
    if lab.dtype.kind not in "biuf":
        raise InvalidInput(f"labels must be real numbers, got dtype {lab.dtype}")
    if lab.dtype.kind in "iu":  # whole already; only the sign, or an unsigned int64 overflow, can fail
        class_indices = lab >= 0 if lab.dtype.kind == "i" else lab < 2 ** 63
    else:
        with np.errstate(invalid="ignore"):  # inf % 1 is nan: rejected
            class_indices = (lab >= 0) & (lab % 1 == 0) & (lab < 2.0 ** 63)
    if not np.logical_and.reduce(class_indices, axis=None):
        raise InvalidInput(f"labels must be nonnegative whole numbers below 2**63, "
                           f"got {lab[~class_indices][0]}")
    return lab.astype(int, copy=False)


def batch_covariance(b: FeatureBatch) -> SymmetricMatrix:
    """Sample covariance with 1/(n-1) normalization, computed from centred
    rows as (D - 1 mu^T)^T (D - 1 mu^T) / (n - 1), which stays accurate at
    large mean offsets; NumericalFailure, with no numpy warning, if it overflows."""
    if _data(b, FeatureBatch).shape[0] < 2:
        raise InvalidInput(f"covariance needs at least 2 rows, got {b.n}")
    with np.errstate(over="ignore", invalid="ignore"):  # checked at once
        centered = b.data - _column_mean(b.data)
        cov = centered.T @ centered / (b.n - 1)  # exactly symmetric, see above
    if not _all_finite(cov):
        raise NumericalFailure("covariance has non-finite entries: the feature values overflow it",
                               component="batch_covariance")
    return SymmetricMatrix._trusted(cov)


def batch_mean(b: FeatureBatch) -> np.ndarray:
    """Column means of the feature matrix; NumericalFailure, with no numpy warning, if a
    column's sum overflows."""
    with np.errstate(over="ignore", invalid="ignore"):  # checked at once
        mean = _column_mean(_data(b, FeatureBatch))
    if not _all_finite(mean):
        raise NumericalFailure("mean has non-finite entries: the feature values overflow it",
                               component="batch_mean")
    return mean


def check_momentum(momentum: float) -> None:
    """InvalidInput unless 0 <= momentum < 1 (0 keeps the paper's per-batch statistics): the one range rule."""
    if not 0.0 <= momentum < 1.0:
        raise InvalidInput(f"momentum must be in [0, 1), got {momentum}")


@dataclass(frozen=True)
class SmoothedStats:
    """Moving-average covariance and mean of one domain, which may come from different feature taps,
    updated functionally at the momentum each update is given; a run's first update has momentum 0, so
    it holds the batch. Cov a `SymmetricMatrix` and mean a finite 1-D array, else InvalidInput."""

    cov: SymmetricMatrix
    mean: np.ndarray

    def __post_init__(self):
        _data(self.cov)  # a SymmetricMatrix, so finite
        object.__setattr__(self, "mean", _real_array(self.mean, "mean", 1))


def update_smoothed(s: SmoothedStats, cov: SymmetricMatrix, mean: np.ndarray, momentum: float) -> SmoothedStats:
    """One moving-average step of cov and mean, momentum * old + (1 - momentum) * batch, through the `SmoothedStats`
    constructor; at momentum 0, the batch. A momentum outside [0, 1), a plain-array cov or a NaN mean is InvalidInput."""
    check_momentum(momentum)
    mean = _real_array(mean, "mean", 1)
    if _data(cov).shape != _checked(s, SmoothedStats).cov.data.shape or mean.shape != s.mean.shape:
        raise InvalidInput(f"batch (cov {cov.dim}, mean {mean.shape}) does not match state ({s.cov.dim}, {s.mean.shape})")
    return SmoothedStats(cov=SymmetricMatrix._trusted(momentum * s.cov.data + (1.0 - momentum) * cov.data),
                         mean=momentum * s.mean + (1.0 - momentum) * mean)
