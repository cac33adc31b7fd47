"""Batch statistics over feature matrices: sample covariance, column mean,
and the moving-average smoothing carried across training iterations.

Validation happens at the edges. `FeatureBatch(...)` checks what a caller
hands in: a non-empty finite 2-D array, and labels that are whole,
nonnegative numbers, one per row. Batches the library cuts from arrays it
already checked (the rows a training step samples, the source and target
halves of a tap) skip those checks through the private `FeatureBatch._trusted`.
`batch_covariance` still checks that its product did not overflow, since
finite features can have an infinite covariance; its result and the moving
averages are symmetric by construction and skip the `SymmetricMatrix` checks.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import InvalidInput
from .linalg import SymmetricMatrix, _symmetrize


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
        if not np.all(np.isfinite(a)):
            raise InvalidInput("feature data has non-finite entries")
        object.__setattr__(self, "data", a)
        if self.labels is not None:
            lab = np.asarray(self.labels)
            if lab.shape != (a.shape[0],):
                raise InvalidInput(f"labels must have length {a.shape[0]}, got shape {lab.shape}")
            with np.errstate(invalid="ignore"):  # inf % 1 is nan: rejected
                class_indices = (lab >= 0) & (lab % 1 == 0)
            if not np.all(class_indices):
                raise InvalidInput(f"labels must be nonnegative whole numbers, got {lab[~class_indices][0]}")
            object.__setattr__(self, "labels", lab.astype(int, copy=False))

    @classmethod
    def _trusted(cls, data: np.ndarray, labels: Optional[np.ndarray] = None) -> "FeatureBatch":
        """Wrap rows the library cut from checked arrays, without the
        constructor's checks. The caller guarantees what those checks
        enforce: data is a finite 2-D float ndarray with at least one row
        and one column, and labels is None or a nonnegative integer ndarray
        with one entry per row."""
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


def batch_covariance(b: FeatureBatch) -> SymmetricMatrix:
    """Sample covariance with 1/(n-1) normalization, computed from centred
    rows as (D - 1 mu^T)^T (D - 1 mu^T) / (n - 1), which stays accurate at
    large mean offsets."""
    if b.n < 2:
        raise InvalidInput(f"covariance needs at least 2 rows, got {b.n}")
    centered = b.data - b.data.mean(axis=0)
    cov = _symmetrize(centered.T @ centered / (b.n - 1))
    if not np.all(np.isfinite(cov)):
        raise InvalidInput("covariance has non-finite entries: the feature values overflow it")
    return SymmetricMatrix._trusted(cov)


def batch_mean(b: FeatureBatch) -> np.ndarray:
    """Column means of the feature matrix."""
    return b.data.mean(axis=0)


@dataclass(frozen=True)
class SmoothedStats:
    """Moving-average mean and optional covariance, updated functionally. The
    first update seeds the state with the batch values verbatim."""

    momentum: float = 0.9
    cov: Optional[SymmetricMatrix] = None
    mean: Optional[np.ndarray] = None
    initialized: bool = False

    def __post_init__(self):
        if not 0.0 < self.momentum < 1.0:
            raise InvalidInput(f"momentum must be in (0, 1), got {self.momentum}")
        if self.initialized:
            if self.mean is None:
                raise InvalidInput("initialized state must carry a mean")
            if self.cov is not None and self.cov.dim != len(self.mean):
                raise InvalidInput("cov dimension does not match mean length")


def update_smoothed(s: SmoothedStats, cov: Optional[SymmetricMatrix], mean: np.ndarray) -> SmoothedStats:
    """One moving-average step, momentum * old + (1 - momentum) * batch, of cov too unless None."""
    mean = np.asarray(mean, dtype=float)
    if cov is not None and cov.dim != len(mean):
        raise InvalidInput("batch cov dimension does not match batch mean length")
    if not s.initialized:
        return SmoothedStats(momentum=s.momentum, cov=cov, mean=mean, initialized=True)
    if len(s.mean) != len(mean) or (s.cov is None) != (cov is None):
        raise InvalidInput(f"batch (dim {len(mean)}, cov {cov is not None}) does not match "
                           f"state (dim {len(s.mean)}, cov {s.cov is not None})")
    m = s.momentum
    new_cov = None if cov is None else SymmetricMatrix._trusted(m * s.cov.data + (1.0 - m) * cov.data)
    new_mean = m * s.mean + (1.0 - m) * mean
    return SmoothedStats(momentum=s.momentum, cov=new_cov, mean=new_mean, initialized=True)
