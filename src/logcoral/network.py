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
from .stats import FeatureBatch, SmoothedStats, _centred_cov, batch_covariance, batch_mean, update_smoothed


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

    def tap_width(self, name: str) -> int:
        return self.dims[_tap_index(name, self.num_layers) + 1]

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
        return self.post[_tap_index(name, len(self.post))]


def _tap_index(name: str, num_layers: int) -> int:
    """Layer index of tap "h1" .. "h{num_layers - 1}" or "logits"."""
    names = [f"h{i}" for i in range(1, num_layers)] + ["logits"]
    if name not in names:
        raise InvalidInput(f"unknown tap {name!r}")
    return names.index(name)


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
    # upstream gradient w.r.t. the post-activation output of each tapped layer
    upstream = {}
    for name, g in tap_grads.items():
        idx = _tap_index(name, n_layers)
        if g.shape != cache.post[idx].shape:
            raise InvalidInput(f"tap {name!r} gradient has shape {g.shape}, expected {cache.post[idx].shape}")
        upstream[idx] = g
    gw, gb = [None] * n_layers, [None] * n_layers
    delta = None  # gradient w.r.t. the current layer's output; None while zero
    for i in range(n_layers - 1, -1, -1):
        if i in upstream:
            delta = upstream[i] if delta is None else delta + upstream[i]
        if delta is None:
            # no tap at or above this layer
            gw[i], gb[i] = np.zeros_like(model.weights[i]), np.zeros_like(model.biases[i])
            continue
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
    """Everything a training run carries between steps. Each domain's stats
    hold the smoothed covariance at cov_tap and the smoothed mean at mean_tap."""

    model: MlpModel
    lr: float = 1e-3
    opt_momentum: float = 0.9
    velocity_w: list = field(default_factory=list)
    velocity_b: list = field(default_factory=list)
    stats_source: Optional[SmoothedStats] = None
    stats_target: Optional[SmoothedStats] = None
    step: int = 0
    rng: Optional[np.random.Generator] = None
    cov_tap: str = ""
    mean_tap: str = ""
    epsilon: float = 0.0  # 0 -> scale-relative default, see losses.resolve_epsilon


def _forward_pair(model: MlpModel, source: FeatureBatch, target: FeatureBatch) -> ForwardCache:
    """One forward over the source rows stacked on the target rows. No layer
    couples rows, so each row's activations are those of its own pass."""
    if source.d != target.d:
        raise InvalidInput(f"source and target feature dims differ: {source.d} vs {target.d}")
    return forward(model, np.concatenate([source.data, target.data]))


def _split_tap(cache: ForwardCache, name: str, n_source: int) -> tuple:
    """The source and target rows of one tap, as feature batches. The
    stacked tap is checked for finiteness once; both halves are nonempty
    because the batches they came from are."""
    h = cache.tap(name)
    if not np.all(np.isfinite(h)):
        raise InvalidInput(f"tap {name!r} has non-finite activations")
    return FeatureBatch._trusted(h[:n_source]), FeatureBatch._trusted(h[n_source:])


def _batch_share(old_stats: SmoothedStats) -> float:
    """Weight of the current batch inside the smoothed value after an update."""
    return 1.0 - old_stats.momentum if old_stats.initialized else 1.0


def train_step(state: TrainState, source: FeatureBatch, target: FeatureBatch,
               weights: L.LossWeights) -> tuple:
    """One joint SGD step on the weighted sum of classification, CORAL,
    LogCORAL and mean losses, with one forward and one backward over the
    stacked source and target rows. Alignment statistics are moving averages;
    gradients flow only through the current batch's share of them.

    Returns (state, report) where report maps loss names to floats; all four
    alignment metrics are reported even when their weight is zero.
    """
    if source.labels is None:
        raise InvalidInput("source batch must be labeled")
    n = source.n
    cache = _forward_pair(state.model, source, target)

    # the covariance at the covariance tap, of rows centred once for it and the chain; mean at the mean tap
    (rows_s, batch_cov_s), (rows_t, batch_cov_t) = map(_centred_cov, _split_tap(cache, state.cov_tap, n))
    mtap_s, mtap_t = _split_tap(cache, state.mean_tap, n)
    stats_s = update_smoothed(state.stats_source, batch_cov_s, batch_mean(mtap_s))
    stats_t = update_smoothed(state.stats_target, batch_cov_t, batch_mean(mtap_t))
    share_s, share_t = _batch_share(state.stats_source), _batch_share(state.stats_target)
    cov_s, cov_t = stats_s.cov, stats_t.cov

    cls = L.softmax_cross_entropy(cache.post[-1][:n], source.labels)
    coral = L.coral_loss(cov_s, cov_t)
    logcoral = L.log_euclidean(cov_s, cov_t, L.resolve_epsilon(cov_s, cov_t, state.epsilon))
    mean = L.mean_loss(stats_s.mean, stats_t.mean)

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

    # upstream gradients at the taps, stacked like the rows of the forward
    taps = {}

    def _add(name, g):
        taps[name] = taps.get(name, 0.0) + g

    if weights.classification > 0:
        # the classification loss reads source rows only
        logits_grad = np.zeros_like(cache.post[-1])
        logits_grad[:n] = weights.classification * cls.grad_source
        _add("logits", logits_grad)
    if weights.coral > 0 or weights.logcoral > 0:
        # sums of exactly symmetric gradients, so exactly symmetric
        grads = [weights.coral * coral.grad_source, weights.coral * coral.grad_target]
        if weights.logcoral > 0:
            grads = [g + weights.logcoral * lg for g, lg in zip(grads, logcoral.grads())]
        _add(state.cov_tap, np.concatenate([L._chain_centred(grads[0], rows_s, share_s),
                                            L._chain_centred(grads[1], rows_t, share_t)]))
    if weights.mean > 0:
        row_s = weights.mean * share_s * mean.grad_source / mtap_s.n
        row_t = weights.mean * share_t * mean.grad_target / mtap_t.n
        _add(state.mean_tap, np.repeat([row_s, row_t], [mtap_s.n, mtap_t.n], axis=0))

    gw, gb = backward(state.model, cache, taps)
    velocity_w = [state.opt_momentum * v - state.lr * g for v, g in zip(state.velocity_w, gw)]
    velocity_b = [state.opt_momentum * v - state.lr * g for v, g in zip(state.velocity_b, gb)]
    model = MlpModel(dims=state.model.dims,
                     weights=[w + v for w, v in zip(state.model.weights, velocity_w)],
                     biases=[b + v for b, v in zip(state.model.biases, velocity_b)])
    model.check_finite()

    # commit only now, so a step that raises leaves the last good state
    state.model, state.velocity_w, state.velocity_b = model, velocity_w, velocity_b
    state.stats_source, state.stats_target = stats_s, stats_t
    state.step += 1
    return state, report


def total_loss(model: MlpModel, source: FeatureBatch, target: FeatureBatch,
               weights: L.LossWeights, cov_tap: str, mean_tap: str, epsilon: float) -> float:
    """Joint objective on raw (unsmoothed) batch statistics, as a pure
    function of the model parameters, through train_step's stacked forward
    and row split, with train_step's epsilon rule. Used by gradient checks."""
    n = source.n
    cache = _forward_pair(model, source, target)
    value = 0.0
    if weights.classification > 0:
        value += weights.classification * L.softmax_cross_entropy(cache.post[-1][:n], source.labels).value
    if weights.coral > 0 or weights.logcoral > 0:
        cov_s, cov_t = map(batch_covariance, _split_tap(cache, cov_tap, n))
        if weights.coral > 0:
            value += weights.coral * L.coral_loss(cov_s, cov_t).value
        if weights.logcoral > 0:
            eps = L.resolve_epsilon(cov_s, cov_t, epsilon)
            value += weights.logcoral * L.log_euclidean(cov_s, cov_t, eps).value
    if weights.mean > 0:
        mean_s, mean_t = map(batch_mean, _split_tap(cache, mean_tap, n))
        value += weights.mean * L.mean_loss(mean_s, mean_t).value
    return value


def evaluate(model: MlpModel, data: FeatureBatch) -> float:
    """Fraction of argmax-correct predictions."""
    if data.labels is None:
        raise InvalidInput("evaluation batch must be labeled")
    cache = forward(model, data.data)
    pred = np.argmax(cache.post[-1], axis=1)
    return float(np.mean(pred == data.labels))
