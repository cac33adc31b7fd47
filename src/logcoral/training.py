"""Training loop, checkpointing and the ablation sweep.

Metrics are JSON-lines ({step, loss_cls, loss_coral, loss_logcoral, loss_mean, loss_total,
target_acc?}); checkpoints are version-3 .npz containers that carry everything needed for a
bit-exact resume, each fact once: parameters (their w<i> arrays give the layer count), optimizer
velocities, rng state, step counter, each domain's smoothed statistics (the covariance at the model's
covariance tap and the mean at its mean tap; zeros at step 0, which the first step overwrites), and
in meta_json the run's lr, statistics momentum and epsilon. `check_state` is the one check of a run's state.
"""
from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import zipfile
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from . import data as D
from .exceptions import InvalidInput, LogCoralError, NumericalFailure
from .linalg import SymmetricMatrix, _is_number
from .losses import LossWeights
from .network import MlpModel, TrainState, evaluate, train_step
from .stats import FeatureBatch, SmoothedStats, check_momentum

CHECKPOINT_VERSION = 3


@dataclass
class RunConfig:
    seed: int = 0
    steps: int = 2000
    batch: int = 64
    lr: float = 1e-3
    weights: LossWeights = field(default_factory=LossWeights)
    epsilon: float = 1e-2         # the run's one positive Log-CORAL shift; damps low-rank noise
    momentum: float = 0.9         # moving-average momentum of both domains' statistics
    hidden_dims: tuple = (128, 64)
    eval_every: int = 100
    num_classes: int = 5
    dim: int = 16
    samples_per_class: int = 200

    def __post_init__(self):
        whole = {k: [getattr(self, k)] for k in ("seed", "steps", "batch", "eval_every", "num_classes", "dim",
                                                   "samples_per_class")} | {"hidden_dims": self.hidden_dims}
        if bad := [k for k, values in whole.items() if not all(_is_number(v, Integral) for v in values)]:
            raise InvalidInput(f"{', '.join(bad)} must be whole numbers")
        if bad := [k for k in ("lr", "epsilon", "momentum") if not _is_number(getattr(self, k))]:
            raise InvalidInput(f"{', '.join(bad)} must be real numbers")
        if not isinstance(self.weights, LossWeights):
            raise InvalidInput(f"weights must be a LossWeights, got {type(self.weights).__name__}")
        if self.seed < 0:  # numpy's generators take nonnegative seeds only
            raise InvalidInput(f"seed must be nonnegative, got {self.seed}")
        if self.steps < 1 or self.batch < 2:
            raise InvalidInput("steps must be >= 1 and batch >= 2")
        if not 0 < self.lr < np.inf:
            raise InvalidInput(f"learning rate must be positive and finite, got {self.lr}")
        check_momentum(self.momentum)
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
    labels = batch.labels[idx] if with_labels else None
    # rows of a checked batch keep its invariant
    return FeatureBatch._trusted(batch.data[idx], labels=labels)


def _zero_stats(model: MlpModel) -> SmoothedStats:
    """A step-0 state's statistics: zeros of the taps' widths, which the first step, at momentum 0, overwrites."""
    cov_dim, mean_dim = (model.dims[i + 1] for i in model.taps)
    return SmoothedStats(cov=SymmetricMatrix._trusted(np.zeros((cov_dim, cov_dim))), mean=np.zeros(mean_dim))


# Keys name the tap a value comes from.
def _stats_from_npz(domain: str, z: dict) -> SmoothedStats:
    return SmoothedStats(cov=SymmetricMatrix(z[f"cov_{domain}_cov"]), mean=z[f"mean_{domain}_mean"])


def save_checkpoint(path, state: TrainState):
    """Write state to path, under that exact name. The file is written beside it, as path + ".tmp", and then
    renamed onto path, so a save that fails leaves whatever path held before."""
    arrays = {"version": np.array(CHECKPOINT_VERSION), "step": np.array(state.step)}
    for i, (w, b) in enumerate(zip(state.model.weights, state.model.biases)):
        arrays[f"w{i}"] = w
        arrays[f"b{i}"] = b
        arrays[f"vw{i}"] = state.velocity_w[i]
        arrays[f"vb{i}"] = state.velocity_b[i]
    for domain, s in (("s", state.stats_source), ("t", state.stats_target)):
        arrays[f"cov_{domain}_cov"], arrays[f"mean_{domain}_mean"] = s.cov.data, s.mean
    meta = {"lr": state.lr, "momentum": state.momentum, "epsilon": state.epsilon,
            "rng_state": state.rng.bit_generator.state}
    arrays["meta_json"] = np.array(json.dumps(meta))
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:  # a file object, so np.savez adds no .npz suffix
            np.savez(f, **arrays)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_checkpoint(path) -> TrainState:
    """The state saved at path; InvalidInput naming path unless it is a version-3 .npz checkpoint
    with every key, whose values parse and whose state passes `check_state`. The layer count is
    that of the w<i> arrays, so a gap in their numbering is a missing key."""
    try:
        with np.load(path, allow_pickle=False) as npz:  # TypeError: a .npy file is no context manager
            arrays = dict(npz)
    except OSError as exc:
        raise InvalidInput(f"{path}: cannot open: {exc.strerror or exc}") from exc
    except (TypeError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise InvalidInput(f"{path}: not an .npz checkpoint ({exc})") from exc
    try:
        state = _state_from_npz(arrays)
        check_state(state)
        return state
    except KeyError as exc:
        raise InvalidInput(f"{path}: checkpoint has no {exc.args[0]!r}") from exc
    except InvalidInput as exc:
        raise InvalidInput(f"{path}: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"{path}: malformed checkpoint ({exc})") from exc


def _state_from_npz(z: dict) -> TrainState:
    version = int(z["version"])
    if version != CHECKPOINT_VERSION:
        raise InvalidInput(f"checkpoint version {version} is not supported, only version {CHECKPOINT_VERSION}")
    layers = range(sum(k[:1] == "w" and k[1:].isdecimal() for k in z))  # the weights give the widths
    meta = json.loads(str(z["meta_json"]))
    rng = np.random.default_rng()
    rng.bit_generator.state = meta["rng_state"]
    model = MlpModel(weights=[z[f"w{i}"] for i in layers], biases=[z[f"b{i}"] for i in layers])
    return TrainState(
        model=model, lr=meta["lr"], momentum=meta["momentum"],
        velocity_w=[z[f"vw{i}"] for i in layers], velocity_b=[z[f"vb{i}"] for i in layers],
        stats_source=_stats_from_npz("s", z), stats_target=_stats_from_npz("t", z),
        step=int(z["step"]), rng=rng, epsilon=meta["epsilon"],
    )


def init_state(config: RunConfig, feature_dim: int, num_classes: int) -> TrainState:
    """Fresh state for a run, with `_zero_stats`. The batch sampler continues the rng
    stream that initialised the weights. The alignment losses read the model's taps
    (`MlpModel.taps`), so config.hidden_dims must name at least one hidden
    layer; InvalidInput otherwise, here and not as a failed first step."""
    rng = np.random.default_rng(config.seed)
    model = MlpModel.init([feature_dim, *config.hidden_dims, num_classes], rng)
    return TrainState(
        model=model, lr=config.lr, momentum=config.momentum,
        velocity_w=[np.zeros_like(w) for w in model.weights],
        velocity_b=[np.zeros_like(b) for b in model.biases],
        stats_source=_zero_stats(model), stats_target=_zero_stats(model),
        step=0, rng=rng, epsilon=config.epsilon,
    )


def check_state(state: TrainState) -> None:
    """Raise InvalidInput unless state is one consistent run: chained layers with taps (2-D weights, each
    bias and the next weight as wide as its weight's output), one velocity per weight and bias, of its shape,
    tap-wide statistics, finite arrays, step >= 0, and the lr, momentum and epsilon RunConfig allows."""
    model = state.model
    w, b = [np.shape(a) for a in model.weights], [np.shape(a) for a in model.biases]
    if {len(s) for s in w} != {2} or w + b != [*zip(model.dims, model.dims[1:]), *zip(model.dims[1:])]:
        raise InvalidInput(f"model layers do not chain: weights {w}, biases {b}")
    zero = _zero_stats(model)  # the taps' widths; taps raises without a hidden layer
    vw, vb = [np.shape(a) for a in state.velocity_w], [np.shape(a) for a in state.velocity_b]
    if (vw, vb) != (w, b):
        raise InvalidInput(f"velocities {vw}, {vb} do not match the weights {w} and biases {b}")
    for name, s in (("source", state.stats_source), ("target", state.stats_target)):
        if (s.cov.data.shape, s.mean.shape) != (zero.cov.data.shape, zero.mean.shape):
            raise InvalidInput(f"{name} statistics (cov {s.cov.data.shape}, mean {s.mean.shape}) do not fit "
                               f"the taps' widths, {zero.cov.dim} and {zero.mean.size}")
    arrays = {"w": model.weights, "b": model.biases, "vw": state.velocity_w, "vb": state.velocity_b}
    if bad := [f"{k}{i}" for k, group in arrays.items() for i, a in enumerate(group) if not np.isfinite(a).all()]:
        raise InvalidInput(f"non-finite entries in {', '.join(bad)}")
    if state.step < 0:
        raise InvalidInput(f"step must be nonnegative, got {state.step}")
    RunConfig(lr=state.lr, momentum=state.momentum, epsilon=state.epsilon)


def train(config: RunConfig, dataset: D.DatasetPair, state: TrainState = None,
          metrics_path=None, checkpoint_path=None):
    """Run (or continue) a training run. Returns (state, records) where records is the list of per-step metric
    dicts logged by this call. The state (fresh if none is given) must pass `check_state` and fit the dataset
    before the parent directories of metrics_path and checkpoint_path are made. A run from step 0 writes a new
    metrics file; a resumed run appends to it. A step that raises leaves the last completed state, in the
    checkpoint too, and re-raises with its class and step set."""
    num_classes = dataset.num_classes
    state = init_state(config, dataset.source.d, num_classes) if state is None else state
    check_state(state)
    dims = state.model.dims
    if dims[0] != dataset.source.d or dims[-1] < num_classes:
        raise InvalidInput(f"model dims {dims} do not fit {dataset.source.d} features and {num_classes} classes")
    for path in filter(None, (metrics_path, checkpoint_path)):
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)

    records = []
    with open(metrics_path, "a" if state.step else "w", encoding="utf-8") if metrics_path else contextlib.nullcontext() as sink:
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
