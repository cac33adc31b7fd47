"""Minimal feed-forward classifier whose last hidden layers are the alignment taps, hand-written backprop,
SGD-with-momentum, and the joint training step that couples the classification loss with the covariance/mean
alignment losses through moving-average statistics. `step_objective` is that objective, pure in the training
state; `train_step` applies its gradients. `forward` takes a FeatureBatch; the step hands it and
`chain_to_features` values it computed through the private `_trusted`, so it re-checks none of them."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInput, NumericalFailure
from . import losses as L
from .linalg import SymmetricMatrix, _all_finite, _checked, _data
from .stats import FeatureBatch, SmoothedStats, batch_covariance, batch_mean, update_smoothed

OPT_MOMENTUM = 0.9  # the SGD momentum of every run, as Deep CORAL trains


@dataclass
class MlpModel:
    """Dense layers with a rectifier between them. Layer i's output is acts[i + 1]
    of a forward pass: rectified for hidden layers, the logits for the last.
    The alignment losses read the hidden layers at `taps`; `dims` comes from the weights."""

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
        return cls(weights=weights, biases=biases)

    @property
    def dims(self) -> list:
        """Layer widths, input first, read from the weight shapes."""
        return [self.weights[0].shape[0], *(w.shape[1] for w in self.weights)]

    def layer_shapes(self) -> tuple:
        """The weights' and the biases' shapes; InvalidInput unless the layers chain: at least one 2-D
        weight, each bias and the next weight as wide as its weight's output."""
        w, b = [np.shape(a) for a in self.weights], [np.shape(a) for a in self.biases]
        if {len(s) for s in w} != {2} or b != [s[1:] for s in w] or any(s[1] != t[0] for s, t in zip(w, w[1:])):
            raise InvalidInput(f"model layers do not chain: weights {w}, biases {b}")
        return w, b

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    @property
    def taps(self) -> tuple:
        """(covariance, mean) tap layer indices: the last hidden layer and the one
        before it, or the last again. Raises InvalidInput without a hidden layer."""
        if self.num_layers < 2:
            raise InvalidInput(f"model dims {self.dims} have no hidden layer for the alignment taps")
        return self.num_layers - 2, max(self.num_layers - 3, 0)

    def check_finite(self):
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if not (_all_finite(w) and _all_finite(b)):
                raise NumericalFailure(f"non-finite parameters in layer {i}", component=f"layer{i}")


def forward(model: MlpModel, batch: FeatureBatch) -> list:
    """The activations acts, kept for the backward pass: acts[0] is the batch's data and acts[i + 1] the
    output of layer i, rectified except for the last. InvalidInput unless the model's layers chain
    (`MlpModel.layer_shapes`) and take the batch's width."""
    acts = [_data(batch, FeatureBatch)]
    weight_shapes, _ = _checked(model, MlpModel).layer_shapes()
    if batch.d != (width := weight_shapes[0][0]):
        raise InvalidInput(f"input has shape {batch.data.shape}, model expects (*, {width})")
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = acts[-1] @ w + b
        acts.append(z if i == model.num_layers - 1 else np.maximum(z, 0.0))
    return acts


def backward(model: MlpModel, acts: list, tap_grads: dict):
    """Accumulate parameter gradients from upstream gradients injected at layer
    outputs: tap_grads maps layer index i to the gradient w.r.t. acts[i + 1],
    the logits at num_layers - 1. Returns (weight_grads, bias_grads)."""
    n_layers = _checked(model, MlpModel).num_layers
    for i, g in tap_grads.items():
        if not 0 <= i < n_layers or g.shape != acts[i + 1].shape:
            raise InvalidInput(f"gradient of shape {g.shape} fits no output of layer {i}")
    gw, gb = [None] * n_layers, [None] * n_layers
    delta = None  # gradient w.r.t. the current layer's output; None while zero
    for i in range(n_layers - 1, -1, -1):
        if i in tap_grads:
            delta = tap_grads[i] if delta is None else delta + tap_grads[i]
        if delta is None:
            # no tap at or above this layer
            gw[i], gb[i] = np.zeros_like(model.weights[i]), np.zeros_like(model.biases[i])
            continue
        if i < n_layers - 1:
            delta = delta * (acts[i + 1] > 0.0)  # the rectifier passes where its output is positive
        gw[i] = acts[i].T @ delta
        gb[i] = np.add.reduce(delta, axis=0)
        if i > 0:
            delta = delta @ model.weights[i].T
    return gw, gb


@dataclass
class TrainState:
    """Everything a training run carries between steps; the SGD momentum is `OPT_MOMENTUM` in every run.
    Each domain's stats hold the smoothed covariance and mean at the model's taps, moving at `momentum` past step 0."""

    model: MlpModel
    lr: float
    momentum: float  # the statistics' moving-average momentum, in [0, 1)
    velocity_w: list
    velocity_b: list
    stats_source: SmoothedStats
    stats_target: SmoothedStats
    step: int
    rng: np.random.Generator
    epsilon: float  # each step's Log-CORAL shift; train requires it positive, step_objective takes 0 (no shift)


def _split_tap(acts: list, layer: int, n_source: int) -> tuple:
    """The source and target rows of one layer's output, as feature batches.
    The stacked output is checked for finiteness once; both halves are
    nonempty because the batches they came from are."""
    h = acts[layer + 1]
    if not _all_finite(h):
        raise NumericalFailure(f"layer {layer} has non-finite activations", component=f"layer{layer}")
    return FeatureBatch._trusted(h[:n_source]), FeatureBatch._trusted(h[n_source:])


@np.errstate(over="ignore", invalid="ignore")  # every value is checked where it is computed
def step_objective(state: TrainState, source: FeatureBatch, target: FeatureBatch,
                   weights: L.LossWeights) -> tuple:
    """The joint objective of one step, pure in state: the weighted classification, CORAL, LogCORAL and mean
    losses from one forward over the stacked source and target rows, at moving-average statistics whose
    gradients flow only through the batch's share, 1 - momentum, and at the constant shift state.epsilon.
    The momentum is state.momentum, or 0 at step 0: the first step's objective is the one at fresh batch
    statistics, whatever state's statistics hold. Returns (report, acts, tap_grads, stats_source, stats_target):
    report holds all five losses whatever their weights; acts the activations of `forward` on the stacked rows;
    tap_grads the upstream gradients by layer index, the covariance ones chained to the tap rows by
    `chain_to_features`. Each value is checked where it is computed, with no numpy warning first: the taps
    and logits here (`layer<i>`), statistics and losses by their own functions, the total here. One loss's
    gradients are a call with one-hot weights at the same state: `backward` is linear in tap_grads, so the
    four one-hot gradients sum to those at `from_multipliers(1, 1, 1, 1)`."""
    if _data(source, FeatureBatch).shape[1] != _data(target, FeatureBatch).shape[1]:
        raise InvalidInput(f"source and target feature dims differ: {source.d} vs {target.d}")
    if source.labels is None:
        raise InvalidInput("source batch must be labeled")
    n = source.n
    # one forward over the rows of two checked batches, source stacked on target: no layer couples rows
    acts = forward(_checked(state, TrainState).model, FeatureBatch._trusted(np.concatenate([source.data, target.data])))
    cov_layer, mean_layer = state.model.taps

    tap_s, tap_t = _split_tap(acts, cov_layer, n)
    batch_cov_s, batch_cov_t = batch_covariance(tap_s), batch_covariance(tap_t)
    mtap_s, mtap_t = _split_tap(acts, mean_layer, n)
    momentum = state.momentum if state.step else 0.0  # the first step takes the batch as it is
    share = 1.0 - momentum  # the batch's weight in both domains' averages
    stats_s = update_smoothed(state.stats_source, batch_cov_s, batch_mean(mtap_s), momentum)
    stats_t = update_smoothed(state.stats_target, batch_cov_t, batch_mean(mtap_t), momentum)
    cov_s, cov_t = stats_s.cov, stats_t.cov

    logits_s, _ = _split_tap(acts, state.model.num_layers - 1, n)
    cls = L.softmax_cross_entropy(logits_s.data, source.labels)
    coral = L.coral_loss(cov_s, cov_t)
    logcoral = L.log_euclidean(cov_s, cov_t, state.epsilon)
    mean = L.mean_loss(stats_s.mean, stats_t.mean)

    total = (weights.classification * cls.value + weights.coral * coral.value
             + weights.logcoral * logcoral.value + weights.mean * mean.value)
    if not np.isfinite(total):  # each loss checked itself; a large weight can still overflow the sum
        raise NumericalFailure("non-finite loss: loss_total", component="loss_total")
    report = {"loss_cls": cls.value, "loss_coral": coral.value, "loss_logcoral": logcoral.value,
              "loss_mean": mean.value, "loss_total": total}

    taps = {}

    def _add(layer, g):
        taps[layer] = taps.get(layer, 0.0) + g

    if weights.classification > 0:
        # the classification loss reads source rows only
        logits_grad = np.zeros_like(acts[-1])
        logits_grad[:n] = weights.classification * cls.grad_source
        _add(state.model.num_layers - 1, logits_grad)
    if weights.coral > 0 or weights.logcoral > 0:
        grads = [weights.coral * coral.grad_source, weights.coral * coral.grad_target] if weights.coral > 0 else None
        if weights.logcoral > 0:  # CORAL at weight 0 adds no term, not 0 times its gradient
            lgrads = [weights.logcoral * lg for lg in logcoral.grads()]
            grads = lgrads if grads is None else [g + lg for g, lg in zip(grads, lgrads)]
        # sums of exactly symmetric gradients, so exactly symmetric
        _add(cov_layer, np.concatenate([L.chain_to_features(SymmetricMatrix._trusted(grads[0]), tap_s, share),
                                        L.chain_to_features(SymmetricMatrix._trusted(grads[1]), tap_t, share)]))
    if weights.mean > 0:
        row_s = weights.mean * share * mean.grad_source / mtap_s.n
        row_t = weights.mean * share * mean.grad_target / mtap_t.n
        _add(mean_layer, np.repeat([row_s, row_t], [mtap_s.n, mtap_t.n], axis=0))
    return report, acts, taps, stats_s, stats_t


def train_step(state: TrainState, source: FeatureBatch, target: FeatureBatch,
               weights: L.LossWeights) -> tuple:
    """One SGD step at momentum `OPT_MOMENTUM` on `step_objective`, with one backward over
    the stacked rows. Returns (state, report); a step that raises commits
    nothing. The backward and the update run with numpy's overflow warnings off:
    a non-finite gradient or velocity makes the new parameters fail `check_finite`."""
    report, acts, taps, stats_s, stats_t = step_objective(state, source, target, weights)
    with np.errstate(over="ignore", invalid="ignore"):  # checked by model.check_finite
        gw, gb = backward(state.model, acts, taps)
        velocity_w = [OPT_MOMENTUM * v - state.lr * g for v, g in zip(state.velocity_w, gw)]
        velocity_b = [OPT_MOMENTUM * v - state.lr * g for v, g in zip(state.velocity_b, gb)]
        model = MlpModel(weights=[w + v for w, v in zip(state.model.weights, velocity_w)],
                         biases=[b + v for b, v in zip(state.model.biases, velocity_b)])
    model.check_finite()

    # commit only now, so a step that raises leaves the last good state
    state.model, state.velocity_w, state.velocity_b = model, velocity_w, velocity_b
    state.stats_source, state.stats_target = stats_s, stats_t
    state.step += 1
    return state, report


def evaluate(model: MlpModel, data: FeatureBatch) -> float:
    """Fraction of argmax-correct predictions; InvalidInput unless data is a labeled FeatureBatch."""
    logits = forward(model, data)[-1]
    if data.labels is None:
        raise InvalidInput("evaluation batch must be labeled")
    return float(np.mean(np.argmax(logits, axis=1) == data.labels))
