import numpy as np
import pytest

from logcoral import linalg, losses
from logcoral.exceptions import InvalidInput
from logcoral.gradcheck import DIRECTIONS, STEP, THRESHOLDS, _rel_err, run_gradcheck, spd_with_gaps


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
    assert result.failed == ["coral", "logcoral", "mean"]  # in THRESHOLDS order; cross-entropy is not flipped
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


def test_each_draw_decomposes_its_fixed_inputs_once(monkeypatch):
    # per draw, one call per log_euclidean: [C_s, C_t] for the analytic bundle, then each
    # input's 2 x DIRECTIONS perturbations with the other input, source then target;
    # one call per matrix makes 12
    calls = []

    def counted(m, real=linalg.sym_eig):
        calls.append(m.data.shape)
        return real(m)
    monkeypatch.setattr(linalg, "sym_eig", counted)
    assert run_gradcheck(dims=(5,), seeds=[0]).passed
    assert calls == [(2, 5, 5), (2 * DIRECTIONS + 1, 5, 5), (2 * DIRECTIONS + 1, 5, 5)]


def test_probes_trust_only_symmetric_finite_matrices(monkeypatch):
    # spd_with_gaps and the Log-CORAL probe skip SymmetricMatrix's checks; hold every
    # matrix they wrap, each item of the probe's stack included, to what those checks enforce
    seen = []

    def checked(cls, a, real=linalg.SymmetricMatrix._trusted):
        seen.append(a.copy())
        return real(a)
    monkeypatch.setattr(linalg.SymmetricMatrix, "_trusted", classmethod(checked))
    dims, seeds = (1, 2, 5, 16), range(5)
    assert run_gradcheck(dims=dims, seeds=seeds).passed
    # per draw: C_s and C_t; log_euclidean's [C_s, C_t] for the bundle; the probe's
    # C_s +- STEP v, then log_euclidean's [C_s +- STEP v, C_t]; the probe's C_t +- STEP v,
    # then log_euclidean's [C_s, C_t +- STEP v]
    n = 2 * DIRECTIONS
    assert [a.shape for a in seen] == [s for _ in seeds for d in dims for s in (
        (d, d), (d, d), (2, d, d), (n, d, d), (n + 1, d, d), (n, d, d), (n + 1, d, d))]
    for a in seen:
        assert a.dtype == float
        for m in a.reshape(-1, *a.shape[-2:]):
            assert np.array_equal(m, m.T) and np.all(np.isfinite(m))
    # each concatenation holds the draw's two covariances or one of them after the
    # other's perturbations, which are the probe's own stack
    for c_s, c_t, both, ys_s, with_t, ys_t, with_s in zip(*(seen[i::7] for i in range(7))):
        assert np.array_equal(both, np.stack([c_s, c_t]))
        assert np.array_equal(with_t, np.concatenate([ys_s, c_t[None]]))
        assert np.array_equal(with_s, np.concatenate([c_s[None], ys_t]))


def test_scaled_logcoral_gradients_detected(monkeypatch):
    def scaled(le, real=losses.LogEuclidean.grads):
        return tuple((1 + 1e-3) * g for g in real(le))
    monkeypatch.setattr(losses.LogEuclidean, "grads", scaled)
    result = run_gradcheck(dims=(3,), seeds=range(2))
    assert not result.passed
    assert result.errors["logcoral"] > THRESHOLDS["logcoral"]


def _sweep_with_logcoral_grads(monkeypatch, value):
    def filled(le, real=losses.LogEuclidean.grads):
        return tuple(np.full_like(g, value) for g in real(le))
    monkeypatch.setattr(losses.LogEuclidean, "grads", filled)
    return run_gradcheck(dims=(3,), seeds=range(2))


def test_nan_gradient_fails(monkeypatch):
    # a NaN gradient has no finite error: it counts as inf and is the worst case
    result = _sweep_with_logcoral_grads(monkeypatch, np.nan)
    assert not result.passed
    assert result.errors["logcoral"] == np.inf
    case = result.worst_case["logcoral"]
    assert case["seed"] == 0 and case["dim"] == 3 and case["cov_s"].shape == (3, 3)
    assert all(result.errors[k] <= THRESHOLDS[k] for k in ("coral", "mean", "cross_entropy"))


def test_inf_gradient_fails_without_a_warning(monkeypatch):
    # inf + -inf along a direction, then inf / inf: reported as an error of inf,
    # where a numpy warning would raise under the suite's warnings-as-errors
    result = _sweep_with_logcoral_grads(monkeypatch, np.inf)
    assert not result.passed
    assert result.errors["logcoral"] == np.inf
    case = result.worst_case["logcoral"]
    assert case["seed"] == 0 and case["dim"] == 3 and case["cov_s"].shape == (3, 3)


def test_rel_err_counts_non_finite_as_inf():
    fd = np.array([1.0, np.nan, 1.0, np.inf, 1e308])
    an = np.array([1.0, 1.0, np.nan, np.inf, -1e308])
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, 1e308 + 1e308
        assert _rel_err(fd, an).tolist() == [0.0, np.inf, np.inf, np.inf, np.inf]


@pytest.mark.parametrize("dims, seeds", [((), range(3)), ((2,), range(0)), ((2,), []),
                                         ((2, -1), range(1)), ((2,), range(-1, 2))])
def test_empty_sweep_or_bad_dim_rejected(dims, seeds):
    with pytest.raises(InvalidInput):
        run_gradcheck(dims=dims, seeds=seeds)


def _reference_errors(dims, seeds):
    """run_gradcheck's errors as one probe at a time computes them: for each
    direction, each input at x + STEP v and x - STEP v through the public losses."""
    errors = {k: 0.0 for k in THRESHOLDS}

    def check(name, bundle, values, inputs):
        grads = [g for g in (bundle.grad_source, bundle.grad_target) if g is not None]
        x0 = inputs[0]
        symmetric = x0.ndim == 2 and np.array_equal(x0, x0.T)
        for _ in range(DIRECTIONS):
            v = rng.standard_normal(x0.shape)
            v = linalg.sym_part(v) if symmetric else v
            v /= np.linalg.norm(v)
            for i, grad in enumerate(grads):
                def at(y):
                    return values(*[y if j == i else x for j, x in enumerate(inputs)])
                fd = (at(inputs[i] + STEP * v) - at(inputs[i] - STEP * v)) / (2 * STEP)
                errors[name] = max(errors[name], _rel_err(fd, float(np.sum(grad * v))))

    sym = linalg.SymmetricMatrix
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for dim in dims:
            c_s, c_t = spd_with_gaps(dim, rng), spd_with_gaps(dim, rng)
            check("coral", losses.coral_loss(c_s, c_t),
                  lambda a, b: losses.coral_loss(sym(a), sym(b)).value, [c_s.data, c_t.data])
            check("logcoral", losses.logcoral_loss(c_s, c_t),
                  lambda a, b: losses.logcoral_loss(sym(a), sym(b)).value, [c_s.data, c_t.data])
            m_s, m_t = rng.standard_normal(dim), rng.standard_normal(dim)
            check("mean", losses.mean_loss(m_s, m_t),
                  lambda a, b: losses.mean_loss(a, b).value, [m_s, m_t])
            logits = rng.standard_normal((8, dim if dim > 1 else 2))
            labels = rng.integers(0, logits.shape[1], size=8)
            check("cross_entropy", losses.softmax_cross_entropy(logits, labels),
                  lambda y: losses.softmax_cross_entropy(y, labels).value, [logits])
    return errors


@pytest.mark.parametrize("seeds", [[0], [1], [7], range(3)])
def test_stacked_probes_match_one_probe_at_a_time(seeds):
    # every error equals the one the public losses give one perturbation at a time
    dims = (1, 2, 5, 16)
    assert run_gradcheck(dims=dims, seeds=seeds).errors == _reference_errors(dims, seeds)
