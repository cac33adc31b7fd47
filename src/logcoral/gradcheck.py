"""Central finite-difference validation of every analytic gradient in the
losses module. Directional derivatives along random unit directions
(symmetric ones for covariance inputs) are compared against <grad, direction>.
Each probe perturbs one input and evaluates the loss's value only, once per
draw, on the stack of all of that input's perturbations: the stack-aware value
computations of `losses` (`_coral_value`, `LogEuclidean.from_eigenpairs`,
`_mean_value`, `_cross_entropy`) and `linalg.spd_eig` take it whole. The
analytic gradients come from the public losses."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import losses as L
from .exceptions import InvalidInput
from .linalg import SymmetricMatrix, spd_eig, sym_part

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


def _worst_rel_error(bundle, rng, probes) -> float:
    """Worst relative FD error over DIRECTIONS unit directions v, all drawn first.
    probes holds one (x, f) per gradient in bundle (source, then target): f(ys) is
    the loss at each y of the stack ys, with that input set to y and every other
    input, labels included, fixed. Each f is called once, on the stack of x + STEP v
    then x - STEP v over the directions, which the probes share; a symmetric x gets
    symmetric directions, so each x +- STEP v stays one."""
    grads = [g for g in (bundle.grad_source, bundle.grad_target) if g is not None]
    x0 = probes[0][0]
    symmetric = x0.ndim == 2 and np.array_equal(x0, x0.T)
    directions = []
    for _ in range(DIRECTIONS):
        v = sym_part(rng.standard_normal(x0.shape)) if symmetric else rng.standard_normal(x0.shape)
        v /= np.linalg.norm(v)
        directions.append(v)
    steps = STEP * np.stack(directions)
    worst = 0.0
    for (x, probe), grad in zip(probes, grads, strict=True):
        values = probe(np.concatenate([x + steps, x - steps]))
        fds = (values[:DIRECTIONS] - values[DIRECTIONS:]) / (2 * STEP)
        for fd, v in zip(fds, directions):
            worst = max(worst, _rel_err(float(fd), float(np.sum(grad * v))))
    return worst


@dataclass
class GradCheckResult:
    errors: dict          # loss name -> worst relative error seen
    passed: bool
    worst_case: dict      # loss name -> {seed, dim, inputs...} of the worst draw


def run_gradcheck(dims=(2, 5, 16), seeds=range(100)) -> GradCheckResult:
    """FD-check coral, logcoral, mean and cross-entropy on fresh random inputs
    at every dim for every seed, DIRECTIONS directions each with step STEP.
    Each analytic bundle comes from one call of the public loss. Each FD probe
    perturbs one input and evaluates the value alone, on the stack of all its
    2 x DIRECTIONS perturbations at once, so Log-CORAL's gradient half runs once
    per draw, each input's perturbations take one stacked eigendecomposition,
    and the input held fixed is decomposed once per draw. The stacks the
    Log-CORAL probes build are wrapped unchecked, as the checker made them
    symmetric and finite itself.
    Raises InvalidInput if seeds or dims is empty, as such a sweep checks
    nothing, or if a dim is below 1."""
    if not seeds or not dims or min(dims) < 1:
        raise InvalidInput(f"gradcheck needs at least one seed and dims >= 1, got dims {dims}")
    errors = {k: 0.0 for k in THRESHOLDS}
    worst_case = {k: None for k in THRESHOLDS}

    def check(name, bundle, probes, **inputs):
        # probes[i] perturbs the i-th input; draws from the loop's rng;
        # inputs are kept by reference, never copied
        err = _worst_rel_error(bundle, rng, list(zip(inputs.values(), probes)))
        if err > errors[name]:
            errors[name] = err
            worst_case[name] = {"seed": seed, "dim": dim, **inputs}

    def spd_eig_trusted(ys):
        # each probed matrix is c +- STEP v, with c (spd_with_gaps) and v (sym_part) exactly
        # symmetric and finite; so is the result, which therefore skips the constructor's checks
        return spd_eig(SymmetricMatrix._trusted(ys))

    for seed in seeds:
        rng = np.random.default_rng(seed)
        for dim in dims:
            c_s, c_t = spd_with_gaps(dim, rng), spd_with_gaps(dim, rng)
            s, t = c_s.data, c_t.data
            check("coral", L.coral_loss(c_s, c_t),
                  [lambda ys: L._coral_value(ys - t), lambda ys: L._coral_value(s - ys)],
                  cov_s=s, cov_t=t)
            bundle, eig_s, eig_t = L.logcoral_loss(c_s, c_t), spd_eig(c_s), spd_eig(c_t)
            check("logcoral", bundle,
                  [lambda ys: L.LogEuclidean.from_eigenpairs(spd_eig_trusted(ys), eig_t).value,
                   lambda ys: L.LogEuclidean.from_eigenpairs(eig_s, spd_eig_trusted(ys)).value],
                  cov_s=s, cov_t=t)
            m_s, m_t = rng.standard_normal(dim), rng.standard_normal(dim)
            check("mean", L.mean_loss(m_s, m_t),
                  [lambda ys: L._mean_value(ys - m_t), lambda ys: L._mean_value(m_s - ys)],
                  mean_s=m_s, mean_t=m_t)
            logits = rng.standard_normal((8, dim if dim > 1 else 2))
            labels = rng.integers(0, logits.shape[1], size=8)
            check("cross_entropy", L.softmax_cross_entropy(logits, labels),
                  [lambda ys: L._cross_entropy(ys, labels)[0]], logits=logits, labels=labels)

    passed = all(errors[k] <= THRESHOLDS[k] for k in THRESHOLDS)
    return GradCheckResult(errors=errors, passed=passed, worst_case=worst_case)
