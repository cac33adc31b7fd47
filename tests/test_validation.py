"""The one rule for an array a caller hands in, `linalg._real_array`, at every public entry point
that takes one: text, ragged and complex data, and non-finite data where the entry point did not
check finiteness itself, are InvalidInput naming the argument, with no numpy warning first."""
import dataclasses
import warnings

import numpy as np
import pytest

from logcoral.data import make_benchmark_spec
from logcoral.exceptions import InvalidInput
from logcoral.linalg import SymmetricMatrix, sym_part
from logcoral.losses import mean_loss, softmax_cross_entropy
from logcoral.network import MlpModel, forward
from logcoral.stats import FeatureBatch, SmoothedStats, update_smoothed

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
    "forward": ("input", (3, 2), lambda x: forward(MODEL, x)),
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
    pytest.param("input", lambda: forward(MODEL, np.array([[np.nan, 0.0]])), id="forward"),
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
