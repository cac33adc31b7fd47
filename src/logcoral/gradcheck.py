"""Central finite-difference validation of every analytic gradient in the
losses module. Directional derivatives along random unit directions
(symmetric ones for covariance inputs) are compared against <grad, direction>.
The probes evaluate each loss's value only; the analytic gradients come from
the public losses."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import losses as L
from .exceptions import InvalidInput
from .linalg import SymmetricMatrix, sym_part

# relative-error bars per loss; the eigendecomposition path is noisier
THRESHOLDS = {
    "coral": 1e-6,
    "logcoral": 1e-4,
    "mean": 1e-6,
    "cross_entropy": 1e-6,
}

STEP = 1e-5            # central-difference step along a unit direction
DIRECTIONS = 2         # random directions per loss and draw
EIGEN_SPACING = 2e-3   # added between consecutive eigenvalues by spd_with_gaps


def spd_with_gaps(dim: int, rng: np.random.Generator) -> SymmetricMatrix:
    """Random SPD matrix with eigenvalues from 0.5 upward, consecutive ones at
    least EIGEN_SPACING apart. This sweep covers well-separated spectra only;
    degenerate ones are checked in the loss tests."""
    vals = np.sort(rng.uniform(0.5, 3.0, size=dim))
    vals += np.arange(dim) * EIGEN_SPACING
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return SymmetricMatrix(sym_part((q * vals) @ q.T))


def _rel_err(fd: float, an: float) -> float:
    return abs(fd - an) / max(abs(fd), abs(an), 1e-12)


def _worst_rel_error(value, bundle, rng, *inputs) -> float:
    """Worst relative FD error of value(*inputs) over DIRECTIONS unit
    directions, each shared by the inputs with a gradient in bundle (source,
    then target), which are perturbed in turn; the rest, such as labels, stay
    fixed. A symmetric input gets a symmetric direction, so it stays one."""
    grads = [g for g in (bundle.grad_source, bundle.grad_target) if g is not None]
    x = inputs[0]
    symmetric = x.ndim == 2 and np.array_equal(x, x.T)
    worst = 0.0
    for _ in range(DIRECTIONS):
        v = sym_part(rng.standard_normal(x.shape)) if symmetric else rng.standard_normal(x.shape)
        v /= np.linalg.norm(v)
        for i, grad in enumerate(grads):
            plus, minus = list(inputs), list(inputs)
            plus[i], minus[i] = inputs[i] + STEP * v, inputs[i] - STEP * v
            fd = (value(*plus) - value(*minus)) / (2 * STEP)
            worst = max(worst, _rel_err(fd, float(np.sum(grad * v))))
    return worst


@dataclass
class GradCheckResult:
    errors: dict          # loss name -> worst relative error seen
    passed: bool
    worst_case: dict      # loss name -> {seed, dim, inputs...} of the worst draw


def run_gradcheck(dims=(2, 5, 16), seeds=range(100)) -> GradCheckResult:
    """FD-check coral, logcoral, mean and cross-entropy on fresh random inputs
    at every dim for every seed, DIRECTIONS directions each with step STEP.
    Each analytic bundle comes from one call of the public loss; the FD probes
    evaluate the value alone, so Log-CORAL's gradient half runs once per draw.
    Raises InvalidInput if seeds or dims is empty, as such a sweep checks
    nothing, or if a dim is below 1."""
    if not seeds or not dims or min(dims) < 1:
        raise InvalidInput(f"gradcheck needs at least one seed and dims >= 1, got dims {dims}")
    errors = {k: 0.0 for k in THRESHOLDS}
    worst_case = {k: None for k in THRESHOLDS}

    def check(name, value, bundle, **inputs):
        # draws from the loop's rng; inputs are kept by reference, never copied
        err = _worst_rel_error(value, bundle, rng, *inputs.values())
        if err > errors[name]:
            errors[name] = err
            worst_case[name] = {"seed": seed, "dim": dim, **inputs}

    for seed in seeds:
        rng = np.random.default_rng(seed)
        for dim in dims:
            c_s, c_t = spd_with_gaps(dim, rng), spd_with_gaps(dim, rng)
            check("coral", lambda a, b: L.coral_loss(SymmetricMatrix(a), SymmetricMatrix(b)).value,
                  L.coral_loss(c_s, c_t), cov_s=c_s.data, cov_t=c_t.data)
            check("logcoral", lambda a, b: L._logcoral_value(SymmetricMatrix(a), SymmetricMatrix(b), 0.0)[0],
                  L.logcoral_loss(c_s, c_t), cov_s=c_s.data, cov_t=c_t.data)
            m_s, m_t = rng.standard_normal(dim), rng.standard_normal(dim)
            check("mean", lambda a, b: L.mean_loss(a, b).value, L.mean_loss(m_s, m_t),
                  mean_s=m_s, mean_t=m_t)
            logits = rng.standard_normal((8, dim if dim > 1 else 2))
            labels = rng.integers(0, logits.shape[1], size=8)
            check("cross_entropy", lambda x, y: L.softmax_cross_entropy(x, y).value,
                  L.softmax_cross_entropy(logits, labels), logits=logits, labels=labels)

    passed = all(errors[k] <= THRESHOLDS[k] for k in THRESHOLDS)
    return GradCheckResult(errors=errors, passed=passed, worst_case=worst_case)
