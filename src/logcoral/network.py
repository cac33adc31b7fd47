"""Minimal feed-forward classifier with named feature taps, hand-written
backprop, SGD-with-momentum, and the joint training step that couples the
classification loss with the covariance/mean alignment losses through
moving-average statistics."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .exceptions import InvalidInput, NumericalFailure
from . import losses as L
from .linalg import default_epsilon
from .stats import FeatureBatch, SmoothedStats, batch_covariance, batch_mean, update_smoothed


def _relu(x):
    return np.maximum(x, 0.0)


def _relu_grad(x):
    return (x > 0.0).astype(float)


@dataclass
class MlpModel:
    """Dense layers with a rectifier between them. Hidden layer i's
    post-activation output is addressable as tap "h{i+1}"; the final linear
    output as "logits"."""

    dims: list
    weights: list
    biases: list

    @classmethod
    def init(cls, dims, rng: np.random.Generator) -> "MlpModel":
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise InvalidInput(f"bad layer dims {dims}")
        weights, biases = [], []
        for d_in, d_out in zip(dims[:-1], dims[1:]):
            # He initialization, suited to the rectifier
            weights.append(rng.standard_normal((d_in, d_out)) * np.sqrt(2.0 / d_in))
            biases.append(np.zeros(d_out))
        return cls(dims=list(dims), weights=weights, biases=biases)

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    @property
    def tap_names(self) -> list:
        return [f"h{i + 1}" for i in range(self.num_layers - 1)] + ["logits"]

    def check_finite(self):
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise NumericalFailure(f"non-finite parameters in layer {i}", component=f"layer{i}")


@dataclass
class ForwardCache:
    """Per-layer pre-activations and activations kept for the backward pass."""

    inputs: np.ndarray
    pre: list
    post: list  # post[i] is the output of layer i (activation applied except last)

    def tap(self, name: str) -> np.ndarray:
        if name == "logits":
            return self.post[-1]
        if name.startswith("h"):
            i = int(name[1:]) - 1
            if 0 <= i < len(self.post) - 1:
                return self.post[i]
        raise InvalidInput(f"unknown tap {name!r}")


def forward(model: MlpModel, x: np.ndarray) -> ForwardCache:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != model.dims[0]:
        raise InvalidInput(f"input has shape {x.shape}, model expects (*, {model.dims[0]})")
    pre, post = [], []
    a = x
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w + b
        pre.append(z)
        a = z if i == model.num_layers - 1 else _relu(z)
        post.append(a)
    return ForwardCache(inputs=x, pre=pre, post=post)


def backward(model: MlpModel, cache: ForwardCache, tap_grads: dict):
    """Accumulate parameter gradients from upstream gradients injected at
    named taps (and/or "logits"). Returns (weight_grads, bias_grads)."""
    n_layers = model.num_layers
    gw = [np.zeros_like(w) for w in model.weights]
    gb = [np.zeros_like(b) for b in model.biases]
    # upstream gradient w.r.t. each layer's post-activation output
    upstream = [np.zeros_like(p) for p in cache.post]
    for name, g in tap_grads.items():
        idx = n_layers - 1 if name == "logits" else int(name[1:]) - 1
        if g.shape != upstream[idx].shape:
            raise InvalidInput(f"tap {name!r} gradient has shape {g.shape}, expected {upstream[idx].shape}")
        upstream[idx] = upstream[idx] + g
    delta = np.zeros_like(cache.post[-1])
    for i in range(n_layers - 1, -1, -1):
        delta = delta + upstream[i]
        if i < n_layers - 1:
            delta = delta * _relu_grad(cache.pre[i])
        a_in = cache.inputs if i == 0 else cache.post[i - 1]
        gw[i] = a_in.T @ delta
        gb[i] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ model.weights[i].T
    return gw, gb


@dataclass
class TrainState:
    """Everything a training run carries between steps."""

    model: MlpModel
    lr: float = 1e-3
    opt_momentum: float = 0.9
    velocity_w: list = field(default_factory=list)
    velocity_b: list = field(default_factory=list)
    stats_source: Optional[SmoothedStats] = None
    stats_target: Optional[SmoothedStats] = None
    mean_stats_source: Optional[SmoothedStats] = None
    mean_stats_target: Optional[SmoothedStats] = None
    step: int = 0
    rng: Optional[np.random.Generator] = None
    cov_tap: str = ""
    mean_tap: str = ""
    stats_momentum: float = 0.9
    epsilon: float = 0.0  # 0 -> scale-relative default per covariance


def _smoothed_pair(old_stats, tap_batch):
    """Update a SmoothedStats with this batch's tap statistics. Returns
    (new_stats, cov_used, mean_used, grad_scale). grad_scale is the weight of
    the current batch inside the smoothed value."""
    cov = batch_covariance(tap_batch)
    mean = batch_mean(tap_batch)
    new = update_smoothed(old_stats, cov, mean)
    scale = 1.0 if not old_stats.initialized else (1.0 - old_stats.momentum)
    return new, new.cov, new.mean, scale


def train_step(state: TrainState, source: FeatureBatch, target: FeatureBatch,
               weights: L.LossWeights) -> tuple:
    """One joint SGD step on the weighted sum of classification, CORAL,
    LogCORAL and mean losses. Alignment statistics are moving averages;
    gradients flow only through the current batch's share of them.

    Returns (state, report) where report maps loss names to floats; all four
    alignment metrics are reported even when their weight is zero.
    """
    if source.labels is None:
        raise InvalidInput("source batch must be labeled")
    if source.d != target.d:
        raise InvalidInput(f"source and target feature dims differ: {source.d} vs {target.d}")

    cache_s = forward(state.model, source.data)
    cache_t = forward(state.model, target.data)

    # second-order statistics at the covariance tap
    tap_s = FeatureBatch(cache_s.tap(state.cov_tap))
    tap_t = FeatureBatch(cache_t.tap(state.cov_tap))
    stats_s, cov_s, _, scale_s = _smoothed_pair(state.stats_source, tap_s)
    stats_t, cov_t, _, scale_t = _smoothed_pair(state.stats_target, tap_t)

    # first-order statistics at the mean tap
    mtap_s = FeatureBatch(cache_s.tap(state.mean_tap))
    mtap_t = FeatureBatch(cache_t.tap(state.mean_tap))
    mean_stats_s, _, mean_s, mscale_s = _smoothed_pair(state.mean_stats_source, mtap_s)
    mean_stats_t, _, mean_t, mscale_t = _smoothed_pair(state.mean_stats_target, mtap_t)

    cls = L.softmax_cross_entropy(cache_s.post[-1], source.labels)
    coral = L.coral_loss(cov_s, cov_t)
    eps = state.epsilon
    if eps <= 0:
        eps = max(default_epsilon(cov_s), default_epsilon(cov_t))
    logcoral = L.logcoral_loss(cov_s, cov_t, epsilon=eps)
    mean = L.mean_loss(mean_s, mean_t)

    report = {
        "loss_cls": cls.value,
        "loss_coral": coral.value,
        "loss_logcoral": logcoral.value,
        "loss_mean": mean.value,
    }
    total = (weights.classification * cls.value + weights.coral * coral.value
             + weights.logcoral * logcoral.value + weights.mean * mean.value)
    report["loss_total"] = total
    if not np.isfinite(total):
        bad = [k for k, v in report.items() if not np.isfinite(v)]
        raise NumericalFailure(f"non-finite loss: {', '.join(bad)}", component=bad[0])

    # assemble upstream gradients at the taps
    taps_s, taps_t = {}, {}

    def _add(taps, name, g):
        taps[name] = taps.get(name, 0.0) + g

    if weights.classification > 0:
        _add(taps_s, "logits", weights.classification * cls.grad_source)
    cov_grad_s = weights.coral * coral.grad_source + weights.logcoral * logcoral.grad_source
    cov_grad_t = weights.coral * coral.grad_target + weights.logcoral * logcoral.grad_target
    if weights.coral > 0 or weights.logcoral > 0:
        _add(taps_s, state.cov_tap, L.chain_to_features(cov_grad_s, tap_s, scale=scale_s))
        _add(taps_t, state.cov_tap, L.chain_to_features(cov_grad_t, tap_t, scale=scale_t))
    if weights.mean > 0:
        _add(taps_s, state.mean_tap,
             np.broadcast_to(weights.mean * mscale_s * mean.grad_source / mtap_s.n, mtap_s.data.shape))
        _add(taps_t, state.mean_tap,
             np.broadcast_to(weights.mean * mscale_t * mean.grad_target / mtap_t.n, mtap_t.data.shape))

    gw_s, gb_s = backward(state.model, cache_s, taps_s) if taps_s else (None, None)
    gw_t, gb_t = backward(state.model, cache_t, taps_t) if taps_t else (None, None)

    velocity_w, velocity_b, new_w, new_b = [], [], [], []
    for i in range(state.model.num_layers):
        gw = (gw_s[i] if gw_s is not None else 0.0) + (gw_t[i] if gw_t is not None else 0.0)
        gb = (gb_s[i] if gb_s is not None else 0.0) + (gb_t[i] if gb_t is not None else 0.0)
        velocity_w.append(state.opt_momentum * state.velocity_w[i] - state.lr * gw)
        velocity_b.append(state.opt_momentum * state.velocity_b[i] - state.lr * gb)
        new_w.append(state.model.weights[i] + velocity_w[i])
        new_b.append(state.model.biases[i] + velocity_b[i])
    model = MlpModel(dims=state.model.dims, weights=new_w, biases=new_b)
    model.check_finite()

    # commit only now, so a step that raises leaves the last good state
    state.model, state.velocity_w, state.velocity_b = model, velocity_w, velocity_b
    state.stats_source, state.stats_target = stats_s, stats_t
    state.mean_stats_source, state.mean_stats_target = mean_stats_s, mean_stats_t
    state.step += 1
    return state, report


def total_loss(model: MlpModel, source: FeatureBatch, target: FeatureBatch,
               weights: L.LossWeights, cov_tap: str, mean_tap: str, epsilon: float) -> float:
    """Joint objective on raw (unsmoothed) batch statistics, as a pure
    function of the model parameters. Used by gradient checks."""
    cache_s = forward(model, source.data)
    cache_t = forward(model, target.data)
    value = 0.0
    if weights.classification > 0:
        value += weights.classification * L.softmax_cross_entropy(cache_s.post[-1], source.labels).value
    if weights.coral > 0 or weights.logcoral > 0:
        cov_s = batch_covariance(FeatureBatch(cache_s.tap(cov_tap)))
        cov_t = batch_covariance(FeatureBatch(cache_t.tap(cov_tap)))
        if weights.coral > 0:
            value += weights.coral * L.coral_loss(cov_s, cov_t).value
        if weights.logcoral > 0:
            value += weights.logcoral * L.logcoral_loss(cov_s, cov_t, epsilon=epsilon).value
    if weights.mean > 0:
        mean_s = batch_mean(FeatureBatch(cache_s.tap(mean_tap)))
        mean_t = batch_mean(FeatureBatch(cache_t.tap(mean_tap)))
        value += weights.mean * L.mean_loss(mean_s, mean_t).value
    return value


def evaluate(model: MlpModel, data: FeatureBatch) -> float:
    """Fraction of argmax-correct predictions."""
    if data.labels is None:
        raise InvalidInput("evaluation batch must be labeled")
    cache = forward(model, data.data)
    pred = np.argmax(cache.post[-1], axis=1)
    return float(np.mean(pred == data.labels))
