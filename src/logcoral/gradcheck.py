"""Central finite-difference validation of every analytic gradient in the
losses module. Directional derivatives along random unit directions
(symmetric ones for covariance inputs) are compared against <grad, direction>,
all directions and inputs of a check at once, as arrays.
Each check evaluates the loss's value only, in one call per draw that takes
the stacks of all perturbations of every input, each perturbed with the other
inputs held fixed: the stack-aware value computations of `losses`
(`_coral_value`, `log_euclidean`, `_mean_value`, `_cross_entropy`) take them
whole, Log-CORAL's through the call the training step and the command line
make. The analytic gradients come from the public losses."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import losses as L
from .exceptions import InvalidInput
from .linalg import SymmetricMatrix, spectral_apply

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
    # the symmetrized finite product Q diag(vals) Q^T: exactly symmetric and finite
    return SymmetricMatrix._trusted(spectral_apply(q, vals))


def _rel_err(fd, an):
    """|fd - an| / max(|fd|, |an|, 1e-12), elementwise. A non-finite error, as a NaN
    gradient or value gives, is inf, so it fails every threshold."""
    err = np.abs(fd - an) / np.maximum(np.maximum(np.abs(fd), np.abs(an)), 1e-12)
    return np.where(err < np.inf, err, np.inf)


def _worst_rel_error(bundle, inputs, values, rng) -> float:
    """Worst relative FD error over DIRECTIONS unit directions v, drawn at once, and
    over the inputs with a gradient in bundle (source, then target), which lead
    inputs. values(stacks) takes one stack per such input, that input at x + STEP v
    then x - STEP v over the directions, and gives for each the loss at each item of
    its stack, every other input, labels included, held fixed. The inputs share
    the directions; a symmetric x gets symmetric ones, so each x +- STEP v stays one.
    A non-finite error counts as inf."""
    grads = [g for g in (bundle.grad_source, bundle.grad_target) if g is not None]
    xs = inputs[:len(grads)]
    x0 = xs[0]
    v = rng.standard_normal((DIRECTIONS, *x0.shape))
    if x0.ndim == 2 and np.array_equal(x0, x0.T):
        v = 0.5 * (v + v.mT)
    flat = v.reshape(DIRECTIONS, -1)
    v /= np.sqrt(np.vecdot(flat, flat)).reshape(DIRECTIONS, *(1,) * x0.ndim)
    steps = STEP * v
    vals = np.asarray(values([np.concatenate([x + steps, x - steps]) for x in xs]))
    fds = (vals[:, :DIRECTIONS] - vals[:, DIRECTIONS:]) / (2 * STEP)
    with np.errstate(invalid="ignore"):  # an inf gradient gives inf - inf, then inf / inf
        ans = np.sum(np.stack(grads)[:, None] * v, axis=tuple(range(2, v.ndim + 1)))
        return float(_rel_err(fds, ans).max())


@dataclass
class GradCheckResult:
    errors: dict          # loss name -> worst relative error seen
    failed: list          # names of the losses whose error is not within THRESHOLDS, in its order
    worst_case: dict      # loss name -> {seed, dim, inputs...} of the worst draw
    passed = property(lambda self: not self.failed)


def run_gradcheck(dims=(2, 5, 16), seeds=range(100)) -> GradCheckResult:
    """FD-check coral, logcoral, mean and cross-entropy on fresh random inputs
    at every dim for every seed, DIRECTIONS directions each with step STEP.
    Each analytic bundle comes from one call of the public loss. Each check evaluates
    the value alone, in one call on the stacks of all 2 x DIRECTIONS perturbations of
    each input, so Log-CORAL's gradient half runs once per draw. Its probes are two
    `log_euclidean` calls on stacks wrapped unchecked, as the checker made each matrix
    symmetric and finite itself: with the bundle's, 3 `spd_eig` calls per draw, on
    [C_s, C_t], [C_s +- STEP v, C_t] and [C_s, C_t +- STEP v]. A non-finite error, as
    from a NaN or inf gradient, fails the sweep and is its worst case.
    Raises InvalidInput if seeds or dims is empty, as such a sweep checks
    nothing, if a seed is negative, or if a dim is below 1."""
    if not seeds or not dims or min(dims) < 1:
        raise InvalidInput(f"gradcheck needs at least one seed and dims >= 1, got dims {dims}")
    if min(seeds) < 0:
        raise InvalidInput(f"seeds must be nonnegative, got {min(seeds)}")
    T = SymmetricMatrix._trusted  # spd_with_gaps's c and every c +- STEP v are symmetric and finite
    errors = {k: 0.0 for k in THRESHOLDS}
    worst_case = {k: None for k in THRESHOLDS}

    def check(name, bundle, values, **inputs):
        # draws from the loop's rng; inputs are kept by reference, never copied
        err = _worst_rel_error(bundle, list(inputs.values()), values, rng)
        if err > errors[name]:
            errors[name] = err
            worst_case[name] = {"seed": seed, "dim": dim, **inputs}

    for seed in seeds:
        rng = np.random.default_rng(seed)
        for dim in dims:
            c_s, c_t = spd_with_gaps(dim, rng), spd_with_gaps(dim, rng)
            s, t = c_s.data, c_t.data
            check("coral", L.coral_loss(c_s, c_t),
                  lambda ys: [L._coral_value(ys[0] - t), L._coral_value(s - ys[1])],
                  cov_s=s, cov_t=t)
            check("logcoral", L.logcoral_loss(c_s, c_t),
                  lambda ys: [L.log_euclidean(T(ys[0]), c_t, 0.0).value, L.log_euclidean(c_s, T(ys[1]), 0.0).value],
                  cov_s=s, cov_t=t)
            m_s, m_t = rng.standard_normal(dim), rng.standard_normal(dim)
            check("mean", L.mean_loss(m_s, m_t),
                  lambda ys: [L._mean_value(ys[0] - m_t), L._mean_value(m_s - ys[1])],
                  mean_s=m_s, mean_t=m_t)
            logits = rng.standard_normal((8, dim if dim > 1 else 2))
            labels = rng.integers(0, logits.shape[1], size=8)
            check("cross_entropy", L.softmax_cross_entropy(logits, labels),
                  lambda ys: [L._cross_entropy(ys[0], labels)[0]], logits=logits, labels=labels)

    failed = [k for k in THRESHOLDS if not errors[k] <= THRESHOLDS[k]]
    return GradCheckResult(errors=errors, failed=failed, worst_case=worst_case)
