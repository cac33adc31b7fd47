import numpy as np
import pytest

from logcoral import losses
from logcoral.exceptions import InvalidInput
from logcoral.gradcheck import THRESHOLDS, run_gradcheck, spd_with_gaps


def test_spd_generator_respects_gaps():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = spd_with_gaps(6, rng)
        vals = np.linalg.eigvalsh(m.data)
        assert np.all(np.diff(vals) >= 1e-3 * 0.5)
        assert vals[0] > 0


def test_default_sweep_passes():
    result = run_gradcheck(dims=(2, 5), seeds=range(10))
    assert result.passed
    for name, err in result.errors.items():
        assert err <= THRESHOLDS[name]


def test_corrupted_sign_detected(flipped_target_gradients):
    result = run_gradcheck(dims=(3,), seeds=range(2))
    assert not result.passed
    # a flipped sign shows up as a relative error of about 2
    assert result.errors["coral"] > 1.0
    assert result.errors["logcoral"] > 1.0
    assert result.errors["mean"] > 1.0


def test_probes_evaluate_only_the_value(monkeypatch):
    # one gradient half per analytic bundle; the probes evaluate the value half alone
    calls = []

    def counted(le, real=losses.LogEuclidean.grads):
        calls.append(le.eig_s.values.size)
        return real(le)
    monkeypatch.setattr(losses.LogEuclidean, "grads", counted)
    dims, seeds = (2, 5), range(3)
    assert run_gradcheck(dims=dims, seeds=seeds).passed
    assert calls == list(dims) * len(seeds)


def test_scaled_logcoral_gradients_detected(monkeypatch):
    def scaled(le, real=losses.LogEuclidean.grads):
        return tuple((1 + 1e-3) * g for g in real(le))
    monkeypatch.setattr(losses.LogEuclidean, "grads", scaled)
    result = run_gradcheck(dims=(3,), seeds=range(2))
    assert not result.passed
    assert result.errors["logcoral"] > THRESHOLDS["logcoral"]


@pytest.mark.parametrize("dims, seeds", [((), range(3)), ((2,), range(0)), ((2,), []),
                                         ((2, -1), range(1))])
def test_empty_sweep_or_bad_dim_rejected(dims, seeds):
    with pytest.raises(InvalidInput):
        run_gradcheck(dims=dims, seeds=seeds)
