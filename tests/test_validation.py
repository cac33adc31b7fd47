"""The two rules for what a caller hands in. An array goes through `linalg._real_array` at every public
entry point that takes one: text, ragged and complex data, and non-finite data where the entry point did
not check finiteness itself, are InvalidInput naming the argument. An argument of a checked type,
`SymmetricMatrix` or `FeatureBatch`, goes through `linalg._data`: anything else, a plain array of any
content included, is InvalidInput naming the type. Neither gives a numpy warning first."""
import dataclasses
import warnings

import numpy as np
import pytest

from logcoral.data import DatasetPair, make_benchmark_spec, save_csv
from logcoral.exceptions import InvalidInput
from logcoral.linalg import SymmetricMatrix, sym_part
from logcoral.losses import (LossWeights, chain_to_features, coral_loss, log_euclidean, logcoral_loss, mean_loss,
                             softmax_cross_entropy)
from logcoral.network import MlpModel, evaluate, forward, step_objective
from logcoral.stats import FeatureBatch, SmoothedStats, batch_covariance, batch_mean, update_smoothed
from logcoral.training import RunConfig, init_state

MODEL = MlpModel.init([2, 3, 2], np.random.default_rng(0))
SPEC = make_benchmark_spec(num_classes=3, dim=4, samples_per_class=5)


def _stats():
    return SmoothedStats(cov=SymmetricMatrix(np.eye(2)), mean=np.zeros(2))


# (what the message names, a valid shape for the argument, the call with x in its place)
ENTRY_POINTS = {
    "SymmetricMatrix": ("matrix", (2, 2), SymmetricMatrix),
    "sym_part": ("matrix", (2, 2), sym_part),
    "FeatureBatch": ("feature data", (3, 2), FeatureBatch),
    "SmoothedStats": ("mean", (2,), lambda x: SmoothedStats(cov=SymmetricMatrix(np.eye(2)), mean=x)),
    "update_smoothed": ("mean", (2,), lambda x: update_smoothed(_stats(), SymmetricMatrix(np.eye(2)), x, 0.9)),
    "mean_loss": ("mean_t", (2,), lambda x: mean_loss(np.zeros(2), x)),
    "softmax_cross_entropy": ("logits", (2, 3), lambda x: softmax_cross_entropy(x, np.array([0, 1]))),
    "ShiftSpec": ("class_means", (3, 4), lambda x: dataclasses.replace(SPEC, class_means=x)),
}


def _bad(kind, shape):
    """Data of the given shape that no entry point takes: text, a ragged nesting, or complex numbers."""
    if kind == "text":
        return np.full(shape, "a")
    if kind == "ragged":  # the last row, or entry, nested one level deeper than the rest
        rows = np.ones(shape).tolist()
        return rows[:-1] + [[rows[-1]] * 2]
    return np.ones(shape) + 1j


@pytest.mark.parametrize("kind", ["text", "ragged", "complex"])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_data_that_is_not_real_numbers_is_invalid_input(entry, kind):
    what, shape, call = ENTRY_POINTS[entry]
    call(np.ones(shape))  # the shape is valid, so the data's kind is all that fails
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's ComplexWarning would come first
        with pytest.raises(InvalidInput, match=f"^{what} "):
            call(_bad(kind, shape))


@pytest.mark.parametrize("what, call", [
    pytest.param("scale", lambda: dataclasses.replace(SPEC, scale=np.array([np.nan, 1.0, 1.0, 1.0])),
                 id="ShiftSpec-scale"),
    pytest.param("translation", lambda: dataclasses.replace(SPEC, translation=np.array([np.nan, 0.0, 0.0, 0.0])),
                 id="ShiftSpec-translation"),
])
def test_non_finite_data_is_invalid_input(what, call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput, match=f"^{what} "):
            call()


BATCH = FeatureBatch(np.ones((3, 2)), labels=[0, 1, 0])
MATRIX = SymmetricMatrix(np.eye(2))
STATE = init_state(RunConfig(hidden_dims=(3,)), feature_dim=2, num_classes=2)

# the call with x in place of one argument of a checked type, and a valid value of that type
TYPED_ARGUMENTS = {
    "batch_covariance": (batch_covariance, BATCH),
    "batch_mean": (batch_mean, BATCH),
    "evaluate": (lambda x: evaluate(MODEL, x), BATCH),
    "forward": (lambda x: forward(MODEL, x), BATCH),
    "save_csv": (lambda x: save_csv("batch.csv", x), BATCH),
    "step_objective-source": (lambda x: step_objective(STATE, x, BATCH, LossWeights()), BATCH),
    "step_objective-target": (lambda x: step_objective(STATE, BATCH, x, LossWeights()), BATCH),
    "DatasetPair-source": (lambda x: DatasetPair(x, BATCH), BATCH),
    "DatasetPair-target": (lambda x: DatasetPair(BATCH, x), BATCH),
    "chain_to_features": (lambda x: chain_to_features(x, BATCH), MATRIX),
    "coral_loss": (lambda x: coral_loss(x, MATRIX), MATRIX),
    "log_euclidean": (lambda x: log_euclidean(MATRIX, x, 0.0), MATRIX),
    "logcoral_loss": (lambda x: logcoral_loss(MATRIX, x), MATRIX),
}


@pytest.mark.parametrize("entry, x", [pytest.param(entry, None, id=entry) for entry in TYPED_ARGUMENTS] + [
    pytest.param("forward", _bad(kind, (3, 2)), id=f"forward-{kind}") for kind in ("text", "ragged", "complex")
] + [pytest.param("forward", np.array([[np.nan, 0.0]]), id="forward-nan")])
def test_a_plain_array_is_not_a_typed_argument(entry, x, tmp_path, monkeypatch):
    """x, by default the valid value's data as a plain array, is InvalidInput naming the type the argument
    takes; a file that save_csv wrote before is left as it was."""
    call, valid = TYPED_ARGUMENTS[entry]
    monkeypatch.chdir(tmp_path)
    call(valid)  # the typed value passes, so the type is all that fails
    written = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput, match=f"^expected a {type(valid).__name__}, got (ndarray|list)$"):
            call(np.array(valid.data) if x is None else x)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == written
