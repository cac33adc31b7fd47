"""Central finite-difference validation of every analytic gradient in the
losses module. Directional derivatives along random symmetric directions are
compared against <grad, direction>."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import losses as L
from .linalg import SymmetricMatrix, sym_part

# relative-error bars per loss; the eigendecomposition path is noisier
THRESHOLDS = {
    "coral": 1e-6,
    "logcoral": 1e-4,
    "mean": 1e-6,
    "cross_entropy": 1e-6,
}


def spd_with_gaps(dim: int, rng: np.random.Generator, min_gap: float = 1e-3) -> SymmetricMatrix:
    """Random SPD matrix with eigenvalues from 0.5 upward, spaced at least
    min_gap apart. This sweep covers well-separated spectra only; degenerate
    ones are checked in the loss tests."""
    vals = np.sort(rng.uniform(0.5, 3.0, size=dim))
    vals += np.arange(dim) * max(min_gap * 2.0, 1e-3)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return SymmetricMatrix(sym_part((q * vals) @ q.T))


def _rel_err(fd: float, an: float) -> float:
    return abs(fd - an) / max(abs(fd), abs(an), 1e-12)


def _check_pair_loss(fn, x_s, x_t, bundle, rng, h, n_dirs):
    """Directional FD check of a two-argument loss. Returns worst rel error."""
    worst = 0.0
    for _ in range(n_dirs):
        v = sym_part(rng.standard_normal(x_s.shape)) if x_s.ndim == 2 else rng.standard_normal(x_s.shape)
        v /= np.linalg.norm(v)
        fd = (fn(x_s + h * v, x_t) - fn(x_s - h * v, x_t)) / (2 * h)
        worst = max(worst, _rel_err(fd, float(np.sum(bundle.grad_source * v))))
        fd = (fn(x_s, x_t + h * v) - fn(x_s, x_t - h * v)) / (2 * h)
        worst = max(worst, _rel_err(fd, float(np.sum(bundle.grad_target * v))))
    return worst


@dataclass
class GradCheckResult:
    errors: dict          # loss name -> worst relative error seen
    passed: bool
    worst_case: dict      # loss name -> {seed, dim, inputs...} of the worst draw


def run_gradcheck(dims=(2, 5, 16), seeds=range(100), h: float = 1e-5,
                  n_dirs: int = 2) -> GradCheckResult:
    """Sweep random inputs over the given dims and seeds and FD-check all four
    losses."""
    errors = {k: 0.0 for k in THRESHOLDS}
    worst_case = {k: None for k in THRESHOLDS}

    def note(name, err, seed, dim, **inputs):
        # inputs are kept by reference, never copied: this runs for every draw
        if err > errors[name]:
            errors[name] = err
            worst_case[name] = {"seed": seed, "dim": dim, **inputs}

    for seed in seeds:
        rng = np.random.default_rng(seed)
        for dim in dims:
            c_s = spd_with_gaps(dim, rng)
            c_t = spd_with_gaps(dim, rng)

            bundle = L.coral_loss(c_s, c_t)
            err = _check_pair_loss(
                lambda a, b: L.coral_loss(SymmetricMatrix.from_array(a, symmetrize=True),
                                          SymmetricMatrix.from_array(b, symmetrize=True)).value,
                c_s.data, c_t.data, bundle, rng, h, n_dirs)
            note("coral", err, seed, dim, cov_s=c_s.data, cov_t=c_t.data)

            bundle = L.logcoral_loss(c_s, c_t, epsilon=0.0)
            err = _check_pair_loss(
                lambda a, b: L.logcoral_loss(SymmetricMatrix.from_array(a, symmetrize=True),
                                             SymmetricMatrix.from_array(b, symmetrize=True)).value,
                c_s.data, c_t.data, bundle, rng, h, n_dirs)
            note("logcoral", err, seed, dim, cov_s=c_s.data, cov_t=c_t.data)

            m_s = rng.standard_normal(dim)
            m_t = rng.standard_normal(dim)
            bundle = L.mean_loss(m_s, m_t)
            err = _check_pair_loss(lambda a, b: L.mean_loss(a, b).value,
                                   m_s, m_t, bundle, rng, h, n_dirs)
            note("mean", err, seed, dim, mean_s=m_s, mean_t=m_t)

            n = 8
            logits = rng.standard_normal((n, dim if dim > 1 else 2))
            labels = rng.integers(0, logits.shape[1], size=n)
            bundle = L.softmax_cross_entropy(logits, labels)
            worst = 0.0
            for _ in range(n_dirs):
                v = rng.standard_normal(logits.shape)
                v /= np.linalg.norm(v)
                fd = (L.softmax_cross_entropy(logits + h * v, labels).value
                      - L.softmax_cross_entropy(logits - h * v, labels).value) / (2 * h)
                worst = max(worst, _rel_err(fd, float(np.sum(bundle.grad_source * v))))
            note("cross_entropy", worst, seed, dim, logits=logits, labels=labels)

    passed = all(errors[k] <= THRESHOLDS[k] for k in THRESHOLDS)
    return GradCheckResult(errors=errors, passed=passed, worst_case=worst_case)
