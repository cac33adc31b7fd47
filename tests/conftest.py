import copy
import dataclasses
import os

# One BLAS thread, set before numpy loads OpenBLAS: at the library's widths (d <= 256) a second
# thread doubles the CPU time of a training run and saves no wall time. An explicit setting wins.
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest

from logcoral import losses, training


@pytest.fixture
def flipped_target_gradients(monkeypatch):
    """coral_loss, logcoral_loss and mean_loss return their target gradient
    with the sign flipped, as a broken backward pass would. Values, inputs
    and the order of calls are unchanged."""
    for name in ("coral_loss", "logcoral_loss", "mean_loss"):
        def flipped(*args, real=getattr(losses, name), **kwargs):
            b = real(*args, **kwargs)
            return dataclasses.replace(b, grad_target=-b.grad_target)
        monkeypatch.setattr(losses, name, flipped)


def _is_default_run(config, dataset):
    """Whether config differs from RunConfig() in seed and weights only, and dataset
    equals default_dataset(config)."""
    if config != training.RunConfig(seed=config.seed, weights=config.weights):
        return False
    default = training.default_dataset(config)
    return all(np.array_equal(a.data, b.data) and np.array_equal(a.labels, b.labels)
               for a, b in ((dataset.source, default.source), (dataset.target, default.target)))


@pytest.fixture(scope="session")
def memo_train():
    """`training.train` with a session-wide memo of its default-dataset runs. A call
    with no state or paths, on a config and dataset `_is_default_run` accepts, trains
    once per session and returns its own copy of that run's (state, records). Every
    other call goes to the real `train`."""
    runs = {}

    def train(config, dataset, *args, **kwargs):
        if args or kwargs or not _is_default_run(config, dataset):
            return training.train(config, dataset, *args, **kwargs)
        key = (config.seed, config.weights)
        if key not in runs:
            runs[key] = training.train(config, dataset)
        return copy.deepcopy(runs[key])
    return train
