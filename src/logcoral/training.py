"""Training loop, checkpointing and the ablation sweep.

Metrics are JSON-lines ({step, loss_cls, loss_coral, loss_logcoral,
loss_mean, loss_total, target_acc?}); checkpoints are version-2 .npz
containers that carry everything needed for a bit-exact resume (parameters,
optimizer velocities, rng state, step counter, and each domain's smoothed
statistics: the covariance at the model's covariance tap and the mean at its
mean tap, sized from the layer dims through `MlpModel.taps`).
"""
from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import zipfile
from dataclasses import dataclass, field

import numpy as np

from . import data as D
from .exceptions import InvalidInput, LogCoralError, NumericalFailure
from .linalg import SymmetricMatrix
from .losses import LossWeights
from .network import MlpModel, TrainState, evaluate, train_step
from .stats import FeatureBatch, SmoothedStats

CHECKPOINT_VERSION = 2


@dataclass
class RunConfig:
    seed: int = 0
    steps: int = 2000
    batch: int = 64
    lr: float = 1e-3
    weights: LossWeights = field(default_factory=LossWeights)
    epsilon: float = 1e-2         # the run's one positive Log-CORAL shift; damps low-rank noise
    momentum: float = 0.9         # moving-average momentum of the statistics
    opt_momentum: float = 0.9
    hidden_dims: tuple = (128, 64)
    eval_every: int = 100
    num_classes: int = 5
    dim: int = 16
    samples_per_class: int = 200

    def __post_init__(self):
        if self.seed < 0:  # numpy's generators take nonnegative seeds only
            raise InvalidInput(f"seed must be nonnegative, got {self.seed}")
        if self.steps < 1 or self.batch < 2:
            raise InvalidInput("steps must be >= 1 and batch >= 2")
        if not 0 < self.lr < np.inf:
            raise InvalidInput(f"learning rate must be positive and finite, got {self.lr}")
        if not 0.0 < self.momentum < 1.0:
            raise InvalidInput(f"momentum must be in (0, 1), got {self.momentum}")
        if not 0.0 <= self.opt_momentum < 1.0:
            raise InvalidInput(f"optimizer momentum must be in [0, 1), got {self.opt_momentum}")
        if not 0 < self.epsilon < np.inf:
            raise InvalidInput(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.eval_every < 1:
            raise InvalidInput(f"eval_every must be >= 1, got {self.eval_every}")


def default_dataset(config: RunConfig) -> D.DatasetPair:
    spec = D.make_benchmark_spec(num_classes=config.num_classes, dim=config.dim,
                                 samples_per_class=config.samples_per_class, seed=config.seed)
    return D.generate(spec)


def _sample_batch(batch: FeatureBatch, size: int, rng: np.random.Generator,
                  with_labels: bool) -> FeatureBatch:
    idx = rng.integers(0, batch.n, size=size)
    labels = batch.labels[idx] if (with_labels and batch.labels is not None) else None
    # rows of a checked batch keep its invariant
    return FeatureBatch._trusted(batch.data[idx], labels=labels)


# Keys name the tap a value comes from. Older files that also hold cov_{s,t}_mean,
# mean_{s,t}_{momentum,initialized} or the tap names in meta load too; those are not read.
def _stats_to_npz(domain: str, s: SmoothedStats, out: dict):
    out[f"cov_{domain}_initialized"] = np.array(s.initialized)
    out[f"cov_{domain}_momentum"] = np.array(s.momentum)
    if s.initialized:
        out[f"cov_{domain}_cov"] = s.cov.data
        out[f"mean_{domain}_mean"] = s.mean


def _stats_from_npz(domain: str, z: dict, cov_dim: int, mean_dim: int) -> SmoothedStats:
    momentum = float(z[f"cov_{domain}_momentum"])
    if bool(z[f"cov_{domain}_initialized"]):
        return SmoothedStats(momentum=momentum,
                             cov=SymmetricMatrix(_fitted(z, f"cov_{domain}_cov", (cov_dim, cov_dim))),
                             mean=_fitted(z, f"mean_{domain}_mean", (mean_dim,)))
    return SmoothedStats(momentum=momentum)


def _fitted(z: dict, key: str, shape: tuple) -> np.ndarray:
    """z[key], which must be finite and have the shape the checkpoint's dims give it."""
    if z[key].shape != shape:
        raise InvalidInput(f"{key} has shape {z[key].shape}, but dims give {shape}")
    if not np.isfinite(z[key]).all():
        raise InvalidInput(f"{key} has non-finite entries")
    return z[key]


def save_checkpoint(path, state: TrainState):
    arrays = {"version": np.array(CHECKPOINT_VERSION), "dims": np.array(state.model.dims),
              "step": np.array(state.step)}
    for i, (w, b) in enumerate(zip(state.model.weights, state.model.biases)):
        arrays[f"w{i}"] = w
        arrays[f"b{i}"] = b
        arrays[f"vw{i}"] = state.velocity_w[i]
        arrays[f"vb{i}"] = state.velocity_b[i]
    _stats_to_npz("s", state.stats_source, arrays)
    _stats_to_npz("t", state.stats_target, arrays)
    meta = {"lr": state.lr, "opt_momentum": state.opt_momentum, "epsilon": state.epsilon,
            "rng_state": state.rng.bit_generator.state}
    arrays["meta_json"] = np.array(json.dumps(meta))
    np.savez(path, **arrays)


def load_checkpoint(path) -> TrainState:
    """The state saved at path. Raises InvalidInput naming path if the file is not an
    .npz, lacks a key, has no hidden layer, has arrays that are non-finite or do not fit
    its dims, or holds an lr, opt_momentum or epsilon (0 too) that RunConfig rejects."""
    try:
        with np.load(path, allow_pickle=False) as npz:  # TypeError: a .npy file is no context manager
            arrays = dict(npz)
    except (TypeError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise InvalidInput(f"{path}: not an .npz checkpoint ({exc})") from exc
    try:
        return _state_from_npz(arrays)
    except KeyError as exc:
        raise InvalidInput(f"{path}: checkpoint has no {exc.args[0]!r}") from exc
    except InvalidInput as exc:
        raise InvalidInput(f"{path}: {exc}") from exc


def _state_from_npz(z: dict) -> TrainState:
    version = int(z["version"])
    if version != CHECKPOINT_VERSION:
        raise InvalidInput(f"checkpoint version {version} is not supported, only version "
                           f"{CHECKPOINT_VERSION} (version 1 holds a mean-tap covariance that 2 drops)")
    dims = [int(v) for v in z["dims"]]
    meta = json.loads(str(z["meta_json"]))
    RunConfig(lr=meta["lr"], opt_momentum=meta["opt_momentum"], epsilon=meta["epsilon"])  # their range checks
    layers = range(len(dims) - 1)
    model = MlpModel(weights=[_fitted(z, f"w{i}", (dims[i], dims[i + 1])) for i in layers],
                     biases=[_fitted(z, f"b{i}", (dims[i + 1],)) for i in layers])
    cov_dim, mean_dim = (dims[i + 1] for i in model.taps)
    rng = np.random.default_rng()
    rng.bit_generator.state = meta["rng_state"]
    return TrainState(
        model=model, lr=meta["lr"], opt_momentum=meta["opt_momentum"],
        velocity_w=[_fitted(z, f"vw{i}", w.shape) for i, w in zip(layers, model.weights)],
        velocity_b=[_fitted(z, f"vb{i}", b.shape) for i, b in zip(layers, model.biases)],
        stats_source=_stats_from_npz("s", z, cov_dim, mean_dim),
        stats_target=_stats_from_npz("t", z, cov_dim, mean_dim),
        step=int(z["step"]), rng=rng, epsilon=meta["epsilon"],
    )


def init_state(config: RunConfig, feature_dim: int, num_classes: int) -> TrainState:
    """Fresh state for a run. The batch sampler continues the rng stream that
    initialised the weights. The alignment losses read the model's taps
    (`MlpModel.taps`), so config.hidden_dims must name at least one hidden
    layer; InvalidInput otherwise."""
    rng = np.random.default_rng(config.seed)
    model = MlpModel.init([feature_dim, *config.hidden_dims, num_classes], rng)
    model.taps  # raises here, not as a failed first step
    return TrainState(
        model=model, lr=config.lr, opt_momentum=config.opt_momentum,
        velocity_w=[np.zeros_like(w) for w in model.weights],
        velocity_b=[np.zeros_like(b) for b in model.biases],
        stats_source=SmoothedStats(momentum=config.momentum),
        stats_target=SmoothedStats(momentum=config.momentum),
        step=0, rng=rng, epsilon=config.epsilon,
    )


def source_classes(dataset: D.DatasetPair) -> int:
    """The class count of the source labels, the largest label + 1. Raises
    InvalidInput if the source is unlabeled, or if that count exceeds the
    number of source rows: such a label would size the output layer from one
    stray value."""
    labels = dataset.source.labels
    if labels is None:
        raise InvalidInput("source domain must be labeled")
    num_classes = int(labels.max()) + 1
    if num_classes > dataset.source.n:
        raise InvalidInput(f"source label {num_classes - 1} gives {num_classes} classes, "
                           f"more than the {dataset.source.n} source rows")
    return num_classes


def check_fit(model: MlpModel, dataset: D.DatasetPair) -> None:
    """Raise InvalidInput unless the model has taps (`MlpModel.taps`), takes
    the dataset's features and has an output for each of its source classes."""
    model.taps  # raises without a hidden layer
    num_classes = source_classes(dataset)
    if model.dims[0] != dataset.source.d or model.dims[-1] < num_classes:
        raise InvalidInput(f"model dims {model.dims} do not fit {dataset.source.d} "
                           f"features and {num_classes} classes")


def train(config: RunConfig, dataset: D.DatasetPair, state: TrainState = None,
          metrics_path=None, checkpoint_path=None):
    """Run (or continue) a training run. Returns (state, records) where records is
    the list of per-step metric dicts logged by this call. The state (fresh if none is
    given) must fit the dataset, `check_fit`, before the parent directories of
    metrics_path and checkpoint_path are made. A step that raises leaves the last
    completed state, in the checkpoint too, and re-raises with its class and step set."""
    if state is None:
        state = init_state(config, dataset.source.d, source_classes(dataset))
    check_fit(state.model, dataset)
    for path in filter(None, (metrics_path, checkpoint_path)):
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)

    records = []
    with open(metrics_path, "a", encoding="utf-8") if metrics_path else contextlib.nullcontext() as sink:
        while state.step < config.steps:
            rng_state = state.rng.bit_generator.state
            src = _sample_batch(dataset.source, config.batch, state.rng, with_labels=True)
            tgt = _sample_batch(dataset.target, config.batch, state.rng, with_labels=False)
            try:
                state, report = train_step(state, src, tgt, config.weights)
            except LogCoralError as exc:
                # train_step commits nothing when it raises; un-draw its
                # batches too, so the checkpoint is the last completed step
                state.rng.bit_generator.state = rng_state
                if checkpoint_path:
                    save_checkpoint(checkpoint_path, state)
                exc.step = state.step + 1
                raise
            record = {"step": state.step, **report}
            # purely step-periodic so an interrupted + resumed run logs the
            # exact same lines as an uninterrupted one
            if state.step % config.eval_every == 0:
                record["target_acc"] = evaluate(state.model, dataset.target)
            records.append(record)
            if sink:
                sink.write(json.dumps(record) + "\n")
    if checkpoint_path:
        save_checkpoint(checkpoint_path, state)
    return state, records


ABLATION_CONFIGS = {
    "baseline": LossWeights.from_multipliers(),
    "coral": LossWeights.from_multipliers(coral=1.0),
    "logcoral": LossWeights.from_multipliers(logcoral=1.0),
    "mean": LossWeights.from_multipliers(mean=1.0),
    "coral+mean": LossWeights.from_multipliers(coral=1.0, mean=1.0),
    "logcoral+mean": LossWeights.from_multipliers(logcoral=1.0, mean=1.0),
}


def ablate(config: RunConfig, seeds, configs=None):
    """Run the ablation grid. Returns {name: {"accs": [...], "mean": m,
    "std": s, "failed": [...]}} with one accuracy per seed that trained; m and
    s are None where every seed failed, so the table stays strict JSON.
    Raises InvalidInput if seeds is empty: such a table holds no accuracy."""
    if not seeds:
        raise InvalidInput("ablate needs at least one seed")
    configs = configs or ABLATION_CONFIGS
    table = {}
    for name, weights in configs.items():
        accs, failed = [], []
        for seed in seeds:
            cfg = dataclasses.replace(config, seed=seed, weights=weights)
            dataset = default_dataset(cfg)
            try:
                state, _ = train(cfg, dataset)
                accs.append(evaluate(state.model, dataset.target))
            except NumericalFailure as exc:
                failed.append({"seed": seed, "error": str(exc)})
        table[name] = {
            "accs": accs,
            "mean": float(np.mean(accs)) if accs else None,
            "std": float(np.std(accs)) if accs else None,
            "failed": failed,
        }
    return table
