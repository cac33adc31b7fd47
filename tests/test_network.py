import copy
import dataclasses

import numpy as np
import pytest

from logcoral import losses as L
from logcoral import network
from logcoral.exceptions import InvalidInput, NumericalFailure
from logcoral.linalg import SymmetricMatrix
from logcoral.losses import LossWeights
from logcoral.network import (
    MlpModel,
    backward,
    evaluate,
    forward,
    step_objective,
    train_step,
)
from logcoral.stats import FeatureBatch, SmoothedStats, batch_covariance, batch_mean, update_smoothed
from logcoral.training import RunConfig, default_dataset, init_state, load_checkpoint, train


def small_model(seed=0, dims=(4, 6, 5, 3)):
    return MlpModel.init(list(dims), np.random.default_rng(seed))


def small_state(seed=0, **config):
    """A fresh training state whose model is small_model(seed), at RunConfig's
    epsilon unless config gives another."""
    config = {"seed": seed, "hidden_dims": (6, 5), **config}
    return init_state(RunConfig(**config), feature_dim=4, num_classes=3)


def labeled_batch(rng, n, d, k):
    return FeatureBatch(rng.standard_normal((n, d)), labels=rng.integers(0, k, size=n))


class TestForward:
    def test_zero_parameters_zero_logits(self):
        model = small_model()
        for i in range(model.num_layers):
            model.weights[i] = np.zeros_like(model.weights[i])
            model.biases[i] = np.zeros_like(model.biases[i])
        cache = forward(model, np.random.default_rng(0).standard_normal((5, 4)))
        assert np.all(cache[-1] == 0.0)

    def test_identity_single_layer(self):
        model = MlpModel(weights=[np.eye(3)], biases=[np.zeros(3)])
        x = np.random.default_rng(1).standard_normal((4, 3))
        cache = forward(model, x)
        assert np.array_equal(cache[-1], x)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInput):
            forward(small_model(), np.zeros((2, 7)))


class TestHandBuiltModel:
    def test_weights_and_biases_are_the_whole_model(self):
        assert [f.name for f in dataclasses.fields(MlpModel)] == ["weights", "biases"]

    def test_dims_come_from_the_weights_and_survive_a_checkpoint(self, tmp_path):
        rng = np.random.default_rng(9)
        widths = (16, 40, 24, 5)  # not RunConfig's hidden widths
        model = MlpModel(weights=[rng.standard_normal((a, b)) * np.sqrt(2.0 / a)
                                  for a, b in zip(widths[:-1], widths[1:])],
                         biases=[np.zeros(b) for b in widths[1:]])
        assert model.dims == list(widths) and model.taps == (1, 0)
        cfg = RunConfig(steps=3, batch=16, samples_per_class=20)
        zero = SmoothedStats(cov=SymmetricMatrix(np.zeros((24, 24))), mean=np.zeros(40))  # the taps' widths
        state = dataclasses.replace(init_state(cfg, 16, 5), model=model,
                                    velocity_w=[np.zeros_like(w) for w in model.weights],
                                    velocity_b=[np.zeros_like(b) for b in model.biases],
                                    stats_source=zero, stats_target=zero)
        state, _ = train(cfg, default_dataset(cfg), state=state, checkpoint_path=tmp_path / "ck.npz")
        loaded = load_checkpoint(tmp_path / "ck.npz")
        assert loaded.model.dims == state.model.dims == list(widths) and loaded.step == 3
        for a, b in zip(loaded.model.weights + loaded.model.biases,
                        state.model.weights + state.model.biases, strict=True):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("dims", [[4], [4, 0, 3], [4, -2]])
def test_init_rejects_bad_dims(dims):
    with pytest.raises(InvalidInput, match=r"^bad layer dims \["):
        MlpModel.init(dims, np.random.default_rng(0))


class TestTaps:
    def test_last_hidden_layer_and_the_one_before(self):
        # (covariance, mean) layer indices; one hidden layer serves both, none has no taps
        assert small_model().taps == (1, 0)
        assert small_model(dims=(4, 6, 3)).taps == (0, 0)
        with pytest.raises(InvalidInput, match="no hidden layer"):
            small_model(dims=(3, 2)).taps


class TestBackward:
    # RunConfig's epsilon keeps the bare seed as id; 1e-6 is the scale default_epsilon gives these taps
    @pytest.mark.parametrize("seed, eps", [(0, 1e-2), (1, 1e-2), (2, 1e-2), (0, 1e-6), (1, 1e-6), (2, 1e-6)],
                             ids=["0", "1", "2", "0-eps1e-06", "1-eps1e-06", "2-eps1e-06"])
    def test_full_objective_parameter_gradients(self, seed, eps):
        # finite differences through classification + logcoral + mean path
        rng = np.random.default_rng(seed)
        dims = (4, 6, 5, 3)
        # analytic gradients via a single unsmoothed train step
        state = small_state(seed, lr=1.0, epsilon=eps)
        # keep pre-activations away from the rectifier kink, where central
        # differences straddle a non-differentiable point: without this
        # shift seed 0 fails at relative error 0.89, from the kink and not
        # from the spectral gradient
        for i in range(state.model.num_layers - 1):
            state.model.biases[i] = state.model.biases[i] + 0.8
        pre = copy.deepcopy(state)
        model = pre.model
        src = labeled_batch(rng, 24, 4, 3)
        tgt = FeatureBatch(rng.standard_normal((24, 4)) * 1.4 + 0.3)
        weights = LossWeights(classification=1.0, coral=0.7, logcoral=2.0, mean=1.5)

        before_w = [w.copy() for w in state.model.weights]
        before_b = [b.copy() for b in state.model.biases]
        train_step(state, src, tgt, weights)
        grads_w = [(b - a) / -1.0 for a, b in zip(before_w, state.model.weights)]
        grads_b = [(b - a) / -1.0 for a, b in zip(before_b, state.model.biases)]

        h = 1e-6
        def objective(m):
            # the pre-step state is at step 0: the objective at fresh batch statistics
            report = step_objective(dataclasses.replace(pre, model=m), src, tgt, weights)[0]
            return report["loss_total"]

        worst = 0.0
        for li in range(len(dims) - 1):
            for arr, grad in ((model.weights[li], grads_w[li]), (model.biases[li], grads_b[li])):
                v = np.random.default_rng(100 + li).standard_normal(arr.shape)
                v /= np.linalg.norm(v)
                m2 = copy.deepcopy(model)
                getattr(m2, "weights" if arr.ndim == 2 else "biases")[li] = arr + h * v
                fp = objective(m2)
                getattr(m2, "weights" if arr.ndim == 2 else "biases")[li] = arr - h * v
                fm = objective(m2)
                fd = (fp - fm) / (2 * h)
                an = float(np.sum(grad * v))
                worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-10))
        assert worst <= 1e-4

    def test_tap_grad_shape_checked(self):
        model = small_model()
        cache = forward(model, np.zeros((2, 4)))
        with pytest.raises(InvalidInput):
            backward(model, cache, {0: np.zeros((3, 6))})
        for layer in (-1, 3):   # no such layer, though (2, 3) is the logits' shape
            with pytest.raises(InvalidInput):
                backward(model, cache, {layer: np.zeros((2, 3))})


class TestStepObjective:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_train_step_at_default_epsilon(self, seed):
        # at step 1 the smoothed statistics are the batch statistics, so
        # the fresh-statistics objective is the one train_step reports
        rng = np.random.default_rng(seed)
        state = small_state(seed)
        fresh = copy.deepcopy(state)
        src = labeled_batch(rng, 24, 4, 3)
        tgt = FeatureBatch(rng.standard_normal((24, 4)) * 1.4 + 0.3)
        weights = LossWeights(classification=1.0, coral=0.7, logcoral=2.0, mean=1.5)
        _, report = train_step(state, src, tgt, weights)
        value = step_objective(fresh, src, tgt, weights)[0]["loss_total"]
        assert value == report["loss_total"]

    def test_feature_widths_must_match(self):
        rng = np.random.default_rng(2)
        with pytest.raises(InvalidInput, match="^source and target feature dims differ: 4 vs 3$"):
            step_objective(small_state(), labeled_batch(rng, 8, 4, 3), FeatureBatch(rng.standard_normal((8, 3))),
                           LossWeights())

    @staticmethod
    def smoothed_state(rng, weights):
        """A state a few steps in, so statistics are smoothed and velocities nonzero."""
        state = small_state(4, lr=0.05, epsilon=1e-2)
        for _ in range(3):
            train_step(state, labeled_batch(rng, 20, 4, 3),
                       FeatureBatch(rng.standard_normal((24, 4)) * 1.3 + 0.2), weights)
        return state

    def test_leaves_the_state_unchanged(self):
        rng = np.random.default_rng(21)
        weights = LossWeights(classification=1.0, coral=0.7, logcoral=2.0, mean=1.5)
        state = self.smoothed_state(rng, weights)
        before = copy.deepcopy(state)
        step_objective(state, labeled_batch(rng, 20, 4, 3),
                       FeatureBatch(rng.standard_normal((24, 4))), weights)

        def arrays(s):
            return (s.model.weights + s.model.biases + s.velocity_w + s.velocity_b
                    + [s.stats_source.cov.data, s.stats_source.mean, s.stats_target.cov.data, s.stats_target.mean])
        for a, b in zip(arrays(state), arrays(before), strict=True):
            assert np.array_equal(a, b)
        assert state.step == before.step == 3
        assert state.rng.bit_generator.state == before.rng.bit_generator.state

    def test_report_and_statistics_are_train_steps(self):
        rng = np.random.default_rng(22)
        weights = LossWeights(classification=1.0, coral=0.7, logcoral=2.0, mean=1.5)
        state = self.smoothed_state(rng, weights)
        src = labeled_batch(rng, 20, 4, 3)
        tgt = FeatureBatch(rng.standard_normal((24, 4)) * 1.3 + 0.2)
        report, _, _, stats_s, stats_t = step_objective(state, src, tgt, weights)
        _, want = train_step(state, src, tgt, weights)
        assert report == want
        for got, committed in ((stats_s, state.stats_source), (stats_t, state.stats_target)):
            assert np.array_equal(got.cov.data, committed.cov.data)
            assert np.array_equal(got.mean, committed.mean)

    @pytest.mark.parametrize("step", [1, 2, 5])
    def test_momentum_zero_is_the_fresh_statistics_objective(self, step):
        # the paper's per-batch statistics: at momentum 0 a default run's smoothed
        # statistics hold only the batch, so step_objective is the one at fresh statistics
        config = RunConfig(momentum=0.0, steps=max(step - 1, 1))
        dataset = default_dataset(config)
        state = init_state(config, 16, 5) if step == 1 else train(config, dataset)[0]
        assert state.step == step - 1
        fresh = dataclasses.replace(state, step=0)  # the first step's momentum is 0
        rng = np.random.default_rng(step)
        i, j = rng.integers(0, dataset.source.n, size=64), rng.integers(0, dataset.target.n, size=64)
        src = FeatureBatch(dataset.source.data[i], labels=dataset.source.labels[i])
        tgt = FeatureBatch(dataset.target.data[j])
        weights = LossWeights.from_multipliers(1, 1, 1, 1)
        report, _, taps, stats_s, stats_t = step_objective(state, src, tgt, weights)
        want_report, _, want_taps, want_s, want_t = step_objective(fresh, src, tgt, weights)
        assert report == want_report and taps.keys() == want_taps.keys()
        got = [*taps.values(), stats_s.cov.data, stats_s.mean, stats_t.cov.data, stats_t.mean]
        want = [*want_taps.values(), want_s.cov.data, want_s.mean, want_t.cov.data, want_t.mean]
        for a, b in zip(got, want, strict=True):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_first_step_ignores_the_statistics_it_starts_from(self, scale):
        # a step-0 state's statistics are overwritten by its momentum-0 first step: any finite
        # values give the objective, tap gradients and new statistics of init_state's zeros, bit for bit
        rng = np.random.default_rng(16)
        state = small_state(8)
        a, b = rng.standard_normal((2, 5, 5)) * scale
        held = dataclasses.replace(state, stats_source=SmoothedStats(SymmetricMatrix(a + a.T), rng.standard_normal(6)),
                                   stats_target=SmoothedStats(SymmetricMatrix(b @ b.T), rng.standard_normal(6) * scale))
        src = labeled_batch(rng, 20, 4, 3)
        tgt = FeatureBatch(rng.standard_normal((24, 4)) * 1.3 + 0.2)
        weights = LossWeights.from_multipliers(1, 1, 1, 1)
        report, _, taps, stats_s, stats_t = step_objective(held, src, tgt, weights)
        want_report, _, want_taps, want_s, want_t = step_objective(state, src, tgt, weights)
        assert report == want_report and taps.keys() == want_taps.keys()
        got = [*taps.values(), stats_s.cov.data, stats_s.mean, stats_t.cov.data, stats_t.mean]
        want = [*want_taps.values(), want_s.cov.data, want_s.mean, want_t.cov.data, want_t.mean]
        for x, y in zip(got, want, strict=True):
            assert x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("momentum", [0.5, 0.9, 0.99])
    def test_alignment_strength_is_the_batch_share(self, momentum):
        # a weight w pulls with strength w * (1 - momentum): past step 0, at statistics equal to the batch's own,
        # each loss is the same at every momentum and the share scales the tap gradients; the logits gradient,
        # classification's alone, does not move. Measured on seeds 0-5 after 1, 20 and 300 steps, at momenta
        # 0.5-0.999: relative errors up to 6.9e-13 at the covariance tap (Log-CORAL's eigendecomposition),
        # 2.0e-16 at the mean tap, and logits gradients equal
        config = RunConfig(steps=20)
        dataset = default_dataset(config)
        state = train(config, dataset)[0]
        rng = np.random.default_rng(20)
        i, j = rng.integers(0, dataset.source.n, size=64), rng.integers(0, dataset.target.n, size=64)
        src = FeatureBatch(dataset.source.data[i], labels=dataset.source.labels[i])
        tgt = FeatureBatch(dataset.target.data[j])
        weights = LossWeights.from_multipliers(1, 1, 1, 1)
        _, _, _, own_s, own_t = step_objective(dataclasses.replace(state, step=0), src, tgt, weights)
        own = dataclasses.replace(state, stats_source=own_s, stats_target=own_t)
        taps = step_objective(dataclasses.replace(own, momentum=momentum), src, tgt, weights)[2]
        want = step_objective(dataclasses.replace(own, momentum=0.0), src, tgt, weights)[2]
        cov_layer, mean_layer = state.model.taps
        for layer, tol in ((cov_layer, 1e-11), (mean_layer, 1e-14)):
            scaled = (1 - momentum) * want[layer]
            assert np.linalg.norm(taps[layer] - scaled) <= tol * np.linalg.norm(scaled), layer
        assert np.array_equal(taps[state.model.num_layers - 1], want[state.model.num_layers - 1])

    def test_overflowing_weighted_total_is_a_numerical_failure(self):
        # each loss is finite (loss_cls about 2); only the total the step weights itself overflows
        rng = np.random.default_rng(23)
        weights = LossWeights(classification=1e308)
        with pytest.raises(NumericalFailure, match="non-finite loss: loss_total") as exc:
            step_objective(small_state(5), labeled_batch(rng, 20, 4, 3),
                           FeatureBatch(rng.standard_normal((24, 4)) * 1.3 + 0.2), weights)
        assert exc.value.component == "loss_total"


class TestPerLossGradients:
    """step_objective is pure, so each loss's gradients come from a call with one-hot
    weights at the same state; backward is linear in the tap gradients, so they sum."""

    @pytest.mark.parametrize("seed, steps", [(0, 0), (0, 50), (1, 300)])
    def test_one_hot_gradients_sum_to_the_joint_ones(self, seed, steps):
        config = RunConfig(seed=seed, steps=max(steps, 1))
        dataset = default_dataset(config)
        state = init_state(config, 16, 5) if steps == 0 else train(config, dataset)[0]
        rng = np.random.default_rng(seed + 100)
        i, j = rng.integers(0, dataset.source.n, size=64), rng.integers(0, dataset.target.n, size=64)
        src = FeatureBatch(dataset.source.data[i], labels=dataset.source.labels[i])
        tgt = FeatureBatch(dataset.target.data[j])

        def grads(weights):
            _, cache, taps, _, _ = step_objective(state, src, tgt, weights)
            gw, gb = backward(state.model, cache, taps)
            return gw + gb
        joint = grads(LossWeights.from_multipliers(1, 1, 1, 1))
        parts = [grads(LossWeights.from_multipliers(*np.eye(4)[k])) for k in range(4)]
        for layer, g in enumerate(joint):
            err = np.linalg.norm(sum(p[layer] for p in parts) - g) / np.linalg.norm(g)
            assert err <= 1e-12, (layer, err)


class TestTrainStep:
    def test_requires_source_labels(self):
        state = small_state(0)
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidInput):
            train_step(state, FeatureBatch(rng.standard_normal((8, 4))),
                       FeatureBatch(rng.standard_normal((8, 4))), LossWeights())

    def test_zero_alignment_matches_plain_classifier(self):
        rng = np.random.default_rng(5)
        src = labeled_batch(rng, 16, 4, 3)
        tgt = FeatureBatch(rng.standard_normal((16, 4)))
        runs = []
        for _ in range(2):
            state = small_state(3)
            for _ in range(10):
                train_step(state, src, tgt, LossWeights(1.0, 0.0, 0.0, 0.0))
            runs.append([w.copy() for w in state.model.weights])
        for a, b in zip(*runs):
            assert np.array_equal(a, b)

    def test_identical_domains_near_zero_alignment(self):
        rng = np.random.default_rng(6)
        src = labeled_batch(rng, 32, 4, 3)
        tgt = FeatureBatch(src.data.copy())
        state = small_state(1)
        for _ in range(5):
            state, report = train_step(state, src, tgt, LossWeights())
        assert report["loss_coral"] <= 1e-12
        assert report["loss_logcoral"] <= 1e-10
        assert report["loss_mean"] <= 1e-12

    def test_reports_all_metrics(self):
        rng = np.random.default_rng(7)
        src = labeled_batch(rng, 8, 4, 3)
        tgt = FeatureBatch(rng.standard_normal((8, 4)))
        state = small_state(2)
        _, report = train_step(state, src, tgt, LossWeights(1.0, 0.0, 0.0, 0.0))
        # passive metrics present even when not optimized
        for key in ("loss_cls", "loss_coral", "loss_logcoral", "loss_mean", "loss_total"):
            assert key in report


def two_pass_step(state, src, tgt, weights):
    """train_step's update with one forward and one backward per domain and
    the parameter gradients summed. Needs epsilon > 0 and distinct taps.
    Returns (weights, biases, velocity_w, velocity_b, stats) with one
    statistics object per domain: the covariance from the covariance tap,
    the mean from the mean tap."""
    model = state.model
    caches = [forward(model, b.data) for b in (src, tgt)]
    olds = [state.stats_source, state.stats_target]
    cov_layer, mean_layer = model.taps
    taps = [FeatureBatch(c[cov_layer + 1]) for c in caches]
    mean_taps = [FeatureBatch(c[mean_layer + 1]) for c in caches]
    stats = [update_smoothed(o, batch_covariance(t), batch_mean(m), state.momentum)
             for o, t, m in zip(olds, taps, mean_taps)]

    cls = L.softmax_cross_entropy(caches[0][-1], src.labels)
    coral = L.coral_loss(stats[0].cov, stats[1].cov)
    logcoral = L.logcoral_loss(stats[0].cov, stats[1].cov, epsilon=state.epsilon)
    mean = L.mean_loss(stats[0].mean, stats[1].mean)
    coral_grads = (coral.grad_source, coral.grad_target)
    logcoral_grads = (logcoral.grad_source, logcoral.grad_target)
    mean_grads = (mean.grad_source, mean.grad_target)

    gw = [np.zeros_like(w) for w in model.weights]
    gb = [np.zeros_like(b) for b in model.biases]
    for k in range(2):
        cov_grad = weights.coral * coral_grads[k] + weights.logcoral * logcoral_grads[k]
        share = 1.0 - state.momentum
        n = mean_taps[k].n
        tap_grads = {
            cov_layer: L.chain_to_features(cov_grad, taps[k], scale=share),
            mean_layer: np.tile(weights.mean * share * mean_grads[k] / n, (n, 1)),
        }
        if k == 0:
            tap_grads[model.num_layers - 1] = weights.classification * cls.grad_source
        dw, db = backward(model, caches[k], tap_grads)
        gw = [a + b for a, b in zip(gw, dw)]
        gb = [a + b for a, b in zip(gb, db)]
    vw = [0.9 * v - state.lr * g for v, g in zip(state.velocity_w, gw)]  # the value OPT_MOMENTUM must keep
    vb = [0.9 * v - state.lr * g for v, g in zip(state.velocity_b, gb)]
    new_w = [w + v for w, v in zip(model.weights, vw)]
    new_b = [b + v for b, v in zip(model.biases, vb)]
    return new_w, new_b, vw, vb, stats


class TestStackedStep:
    def test_matches_two_pass_reference(self):
        rng = np.random.default_rng(11)
        weights = LossWeights(classification=1.0, coral=0.7, logcoral=2.0, mean=1.5)
        state = small_state(4, lr=0.05, epsilon=1e-2)
        # a few steps first, so statistics are smoothed and velocities nonzero
        for _ in range(3):
            train_step(state, labeled_batch(rng, 20, 4, 3),
                       FeatureBatch(rng.standard_normal((24, 4)) * 1.3 + 0.2), weights)
        src = labeled_batch(rng, 20, 4, 3)
        tgt = FeatureBatch(rng.standard_normal((24, 4)) * 1.3 + 0.2)

        want_w, want_b, want_vw, want_vb, want_stats = two_pass_step(
            copy.deepcopy(state), src, tgt, weights)
        train_step(state, src, tgt, weights)

        def close(got, want):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

        for got, want in ((state.model.weights, want_w), (state.model.biases, want_b),
                          (state.velocity_w, want_vw), (state.velocity_b, want_vb)):
            for a, b in zip(got, want):
                close(a, b)
        for got, want in zip((state.stats_source, state.stats_target), want_stats):
            assert got.cov.dim == 5 and len(got.mean) == 6   # h2 and h1
            close(got.cov.data, want.cov.data)
            close(got.mean, want.mean)

    def test_one_forward_one_backward_two_covariances(self, monkeypatch):
        calls = {"forward": 0, "backward": 0, "update_smoothed": 0, "batch_mean": 0}
        widths = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def covariance(batch):
            widths.append(batch.d)
            return batch_covariance(batch)

        monkeypatch.setattr(network, "forward", counted("forward", forward))
        monkeypatch.setattr(network, "backward", counted("backward", backward))
        monkeypatch.setattr(network, "batch_covariance", covariance)
        monkeypatch.setattr(network, "update_smoothed", counted("update_smoothed", update_smoothed))
        monkeypatch.setattr(network, "batch_mean", counted("batch_mean", batch_mean))
        rng = np.random.default_rng(12)
        state = small_state(5)
        for step in range(1, 3):
            train_step(state, labeled_batch(rng, 16, 4, 3),
                       FeatureBatch(rng.standard_normal((16, 4))), LossWeights())
            # one statistics update and one batch mean per domain
            assert calls == {"forward": step, "backward": step,
                             "update_smoothed": 2 * step, "batch_mean": 2 * step}
            assert widths == [5] * (2 * step)   # the covariance tap, h2

    def test_logcoral_backward_skipped_at_weight_zero(self, monkeypatch):
        calls = []
        real = L.LogEuclidean.grads
        monkeypatch.setattr(L.LogEuclidean, "grads", lambda le: calls.append(1) or real(le))
        rng = np.random.default_rng(14)
        state = small_state(6)
        for weights, backwards in ((LossWeights(logcoral=0.0), 0), (LossWeights(logcoral=0.0, coral=300.0), 0),
                                   (LossWeights(), 1)):
            calls.clear()
            _, report = train_step(state, labeled_batch(rng, 16, 4, 3),
                                   FeatureBatch(rng.standard_normal((16, 4))), weights)
            assert len(calls) == backwards
            cov_s, cov_t = state.stats_source.cov, state.stats_target.cov
            assert report["loss_logcoral"] == L.logcoral_loss(cov_s, cov_t, epsilon=state.epsilon).value

    def test_builds_no_checked_values(self, monkeypatch):
        # a step's matrices and batches are computed, so they skip the
        # constructor checks that caller input goes through
        rng = np.random.default_rng(13)
        batches = [(labeled_batch(rng, 16, 4, 3), FeatureBatch(rng.standard_normal((16, 4))))
                   for _ in range(3)]
        checks = {SymmetricMatrix: 0, FeatureBatch: 0}
        for cls in checks:
            def counted(self, real=cls.__post_init__, cls=cls):
                checks[cls] += 1
                real(self)
            monkeypatch.setattr(cls, "__post_init__", counted)
        state = small_state(6, epsilon=1e-2)
        for src, tgt in batches:
            train_step(state, src, tgt, LossWeights(coral=1.0))
        assert checks == {SymmetricMatrix: 0, FeatureBatch: 0}

    def test_smoothed_covariances_keep_the_invariant(self):
        rng = np.random.default_rng(14)
        state = small_state(7)
        for _ in range(4):
            train_step(state, labeled_batch(rng, 16, 4, 3),
                       FeatureBatch(rng.standard_normal((16, 4)) * 2.0), LossWeights())
        for cov in (state.stats_source.cov, state.stats_target.cov):
            assert np.array_equal(cov.data, cov.data.T)
            assert np.all(np.isfinite(cov.data))
            assert not cov.data.flags.writeable

    def test_one_hidden_layer_trains_and_resumes(self, tmp_path):
        # with one hidden layer the covariance and mean taps coincide
        config = RunConfig(seed=2, steps=30, batch=16, samples_per_class=20,
                           hidden_dims=(8,), eval_every=10)
        dataset = default_dataset(config)
        state = init_state(config, dataset.source.d, config.num_classes)
        assert state.model.taps == (0, 0)
        full, full_records = train(config, dataset, state=state)
        assert all(np.isfinite(r["loss_total"]) for r in full_records)

        _, first = train(dataclasses.replace(config, steps=12), dataset,
                         checkpoint_path=tmp_path / "ck.npz")
        resumed, second = train(config, dataset, state=load_checkpoint(tmp_path / "ck.npz"))
        assert first + second == full_records
        for a, b in zip(full.model.weights + full.model.biases,
                        resumed.model.weights + resumed.model.biases):
            assert np.array_equal(a, b)
        assert np.array_equal(full.stats_source.cov.data, resumed.stats_source.cov.data)
        assert np.array_equal(full.stats_source.mean, resumed.stats_source.mean)
        assert np.array_equal(full.stats_target.mean, resumed.stats_target.mean)


class TestEvaluate:
    def test_perfect_predictions(self):
        model = MlpModel(weights=[np.eye(2) * 10], biases=[np.zeros(2)])
        data = FeatureBatch(np.array([[1.0, 0.0], [0.0, 1.0]]), labels=[0, 1])
        assert evaluate(model, data) == 1.0

    def test_random_model_near_chance(self):
        k, n = 4, 4000
        rng = np.random.default_rng(8)
        model = MlpModel.init([6, 8, k], rng)
        data = FeatureBatch(rng.standard_normal((n, 6)) * 5,
                            labels=np.tile(np.arange(k), n // k))
        acc = evaluate(model, data)
        sigma = np.sqrt(0.25 * 0.75 / n)
        assert abs(acc - 1.0 / k) <= 6 * sigma + 0.05

    def test_missing_labels_rejected(self):
        model = small_model()
        with pytest.raises(InvalidInput):
            evaluate(model, FeatureBatch(np.zeros((2, 4))))

    def test_empty_batch_rejected(self):
        with pytest.raises(InvalidInput):
            FeatureBatch(np.zeros((0, 4)), labels=np.array([], dtype=int))
