"""Independent numpy references for the outputs the benchmark checks.

They share no code with the library: covariances come from `np.cov`, matrix
logarithms from `np.linalg.eigh`, and the Log-CORAL gradient from the
Daleckii-Krein formula (the Loewner matrix of divided differences of log).
"""
from __future__ import annotations

import numpy as np

RELATIVE_EPSILON = 1e-6  # the library's default_epsilon: 1e-6 * mean diagonal


def spectral_log(c: np.ndarray, eps: float):
    """Eigenvalues of c + eps*I (floored at eps, as the loss does), the
    eigenvectors, and the matrix logarithm."""
    w, v = np.linalg.eigh(c + eps * np.eye(len(c)))
    if eps > 0:
        w = np.maximum(w, eps)
    return w, v, (v * np.log(w)) @ v.T


def losses(xs: np.ndarray, xt: np.ndarray) -> dict:
    """CORAL, Log-CORAL and mean losses between two feature matrices, with
    epsilon chosen as `logcoral losses` chooses it."""
    cs, ct = np.cov(xs, rowvar=False), np.cov(xt, rowvar=False)
    d = cs.shape[0]
    eps = RELATIVE_EPSILON * max(np.mean(np.diag(cs)), np.mean(np.diag(ct)))
    log_diff = spectral_log(cs, eps)[2] - spectral_log(ct, eps)[2]
    mean_diff = xs.mean(axis=0) - xt.mean(axis=0)
    return {"epsilon": eps,
            "coral": float(np.sum((cs - ct) ** 2)) / (4.0 * d * d),
            "logcoral": float(np.sum(log_diff ** 2)) / (4.0 * d * d),
            "mean": float(mean_diff @ mean_diff) / (2.0 * d)}


def loewner_log(w: np.ndarray) -> np.ndarray:
    """(log w_i - log w_j) / (w_i - w_j), and 1/w_i where w_i == w_j.
    Written as log1p(x)/(x w_j) with x = w_i/w_j - 1, which stays accurate
    inside the near-degenerate clusters that dead units produce."""
    x = w[:, None] / w[None, :] - 1.0
    ratio = np.ones_like(x)
    nz = x != 0
    ratio[nz] = np.log1p(x[nz]) / x[nz]
    return ratio / w[None, :]


def logcoral_gradients(cs: np.ndarray, ct: np.ndarray, eps: float):
    """Gradients of ||log(C_s + eps I) - log(C_t + eps I)||^2 / (4 d^2) with
    respect to C_s and C_t, and how many eigenvalues of the two covariances
    sit below eps, i.e. within a factor 2 of the regularised floor."""
    d = cs.shape[0]
    ws, vs, ls = spectral_log(cs, eps)
    wt, vt, lt = spectral_log(ct, eps)
    upstream = (ls - lt) / (2.0 * d * d)

    def chain(w, v, g):
        return v @ (loewner_log(w) * (v.T @ g @ v)) @ v.T

    floor = int(np.sum(ws < 2 * eps) + np.sum(wt < 2 * eps)) if eps > 0 else 0
    return chain(ws, vs, upstream), chain(wt, vt, -upstream), floor


def grad_rel_err(bundle, cs: np.ndarray, ct: np.ndarray, eps: float):
    """Worst relative Frobenius error of a Log-CORAL LossBundle's two
    gradients against the Daleckii-Krein oracle, and the floor count."""
    gs, gt, floor = logcoral_gradients(cs, ct, eps)
    err = max(np.linalg.norm(bundle.grad_source - gs) / np.linalg.norm(gs),
              np.linalg.norm(bundle.grad_target - gt) / np.linalg.norm(gt))
    return float(err), floor


def symmetric_and_finite(g: np.ndarray) -> bool:
    g = np.asarray(g)
    if not np.all(np.isfinite(g)):
        return False
    return g.ndim < 2 or bool(np.max(np.abs(g - g.T)) <= 1e-10 * max(np.max(np.abs(g)), 1e-300))
