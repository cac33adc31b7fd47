import dataclasses
import json

import numpy as np
import pytest

from logcoral.exceptions import InvalidInput, NumericalFailure
from logcoral.linalg import SymmetricMatrix
from logcoral.network import MlpModel, TrainState
from logcoral.stats import SmoothedStats
from logcoral.training import (
    ABLATION_CONFIGS,
    RunConfig,
    ablate,
    default_dataset,
    init_state,
    load_checkpoint,
    save_checkpoint,
    train,
)


def short_config(**kw):
    defaults = dict(steps=40, batch=32, samples_per_class=40, eval_every=20)
    defaults.update(kw)
    return RunConfig(**defaults)


class TestRunConfig:
    @pytest.mark.parametrize("eps", [0.0, -1e-3, np.nan, np.inf, -np.inf])
    def test_bad_epsilon_rejected(self, eps):
        with pytest.raises(InvalidInput, match="epsilon"):
            RunConfig(epsilon=eps)

    @pytest.mark.parametrize("lr", [np.nan, np.inf])
    def test_bad_learning_rate_rejected(self, lr):
        with pytest.raises(InvalidInput, match="learning rate"):
            RunConfig(lr=lr)


class TestTrain:
    def test_records_have_all_metrics(self):
        cfg = short_config()
        state, records = train(cfg, default_dataset(cfg))
        assert len(records) == cfg.steps
        for key in ("loss_cls", "loss_coral", "loss_logcoral", "loss_mean", "loss_total"):
            assert key in records[0]
        assert "target_acc" in records[-1]

    def test_deterministic_given_seed(self):
        cfg = short_config(seed=3)
        _, a = train(cfg, default_dataset(cfg))
        _, b = train(cfg, default_dataset(cfg))
        assert a == b

    def test_metrics_file_is_json_lines(self, tmp_path):
        cfg = short_config()
        path = tmp_path / "metrics.jsonl"
        _, records = train(cfg, default_dataset(cfg), metrics_path=path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == cfg.steps
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["step"] == 1
        assert parsed == records


    def test_output_directories_are_made(self, tmp_path):
        cfg = short_config(steps=3)
        metrics, checkpoint = tmp_path / "a" / "b" / "metrics.jsonl", tmp_path / "c" / "ck.npz"
        train(cfg, default_dataset(cfg), metrics_path=metrics, checkpoint_path=checkpoint)
        assert len(metrics.read_text().splitlines()) == 3
        assert load_checkpoint(checkpoint).step == 3

    def test_unfit_input_makes_no_directory(self, tmp_path):
        # the setup checks run before any output directory is made
        cfg = short_config(steps=3)
        out = tmp_path / "new"
        paths = dict(metrics_path=out / "metrics.jsonl", checkpoint_path=out / "ck.npz")
        small = init_state(RunConfig(hidden_dims=(8,)), feature_dim=3, num_classes=5)
        with pytest.raises(InvalidInput, match="do not fit 16 features and 5 classes"):
            train(cfg, default_dataset(cfg), state=small, **paths)
        pair = default_dataset(cfg)
        labels = pair.source.labels.copy()
        labels[3] = 2 ** 50
        unfit = dataclasses.replace(pair, source=dataclasses.replace(pair.source, labels=labels))
        with pytest.raises(InvalidInput, match="source label"):
            train(cfg, unfit, **paths)
        assert not out.exists()

    def test_more_classes_than_source_rows_rejected(self):
        cfg = short_config()
        pair = default_dataset(cfg)
        labels = pair.source.labels.copy()
        labels[3] = 2 ** 50
        source = dataclasses.replace(pair.source, labels=labels)
        with pytest.raises(InvalidInput, match=f"source label {2 ** 50} gives"):
            train(cfg, dataclasses.replace(pair, source=source))


class TestFailureClass:
    """A step's failure keeps the class its check gave it, and names the step."""

    def test_mismatched_statistics_are_bad_input(self):
        cfg = short_config()
        state = init_state(cfg, feature_dim=16, num_classes=5)
        state.stats_source = SmoothedStats(momentum=0.9, cov=SymmetricMatrix(np.eye(3)), mean=np.zeros(3))
        with pytest.raises(InvalidInput, match="does not match state") as exc:
            train(cfg, default_dataset(cfg), state=state)
        assert exc.value.step == 1 and state.step == 0

    def test_overflow_names_its_layer_and_step(self):
        cfg = short_config()
        state = init_state(cfg, feature_dim=16, num_classes=5)
        state.model.weights = [w * 1e200 for w in state.model.weights]
        with pytest.raises(NumericalFailure, match="layer 1 has non-finite activations") as exc:
            train(cfg, default_dataset(cfg), state=state)
        assert exc.value.component == "layer1"
        assert exc.value.step == 1

    @pytest.mark.parametrize("component", ["batch_mean", "layer2"])
    def test_computed_value_names_where_it_overflowed(self, component):
        # layer 0 is the mean tap of the 16-128-64-5 model, layer 2 its logits
        cfg = RunConfig(steps=3)
        state = init_state(cfg, feature_dim=16, num_classes=5)
        model = state.model
        if component == "batch_mean":  # finite rows of 1e307, whose column sums overflow
            model.weights[0], model.biases[0] = np.zeros_like(model.weights[0]), np.full_like(model.biases[0], 1e307)
            model.weights[1], model.biases[1] = np.zeros_like(model.weights[1]), np.ones_like(model.biases[1])
        else:  # logits past the float range; at 1e307 this step's are finite, and loss_cls fires
            model.weights[2] = model.weights[2] * 1e308
        with pytest.raises(NumericalFailure) as exc:
            train(cfg, default_dataset(cfg), state=state)
        assert exc.value.component == component
        assert exc.value.step == 1 and state.step == 0

    def test_state_without_hidden_layer_is_bad_input(self, tmp_path):
        # a state built by hand, not by init_state or load_checkpoint
        cfg = short_config()
        model = MlpModel.init([16, 5], np.random.default_rng(0))
        state = TrainState(model=model, lr=cfg.lr, opt_momentum=cfg.opt_momentum,
                           velocity_w=[np.zeros_like(w) for w in model.weights],
                           velocity_b=[np.zeros_like(b) for b in model.biases],
                           stats_source=SmoothedStats(), stats_target=SmoothedStats(),
                           step=0, rng=np.random.default_rng(0), epsilon=cfg.epsilon)
        with pytest.raises(InvalidInput, match="no hidden layer") as exc:
            train(cfg, default_dataset(cfg), state=state, checkpoint_path=tmp_path / "ck.npz")
        assert exc.value.step is None  # raised before any step
        assert not (tmp_path / "ck.npz").exists()


class TestCheckpoint:
    def test_roundtrip_preserves_state(self, tmp_path):
        cfg = short_config()
        state, _ = train(cfg, default_dataset(cfg))
        path = tmp_path / "ck.npz"
        save_checkpoint(path, state)
        back = load_checkpoint(path)
        assert back.step == state.step
        for a, b in zip(state.model.weights, back.model.weights):
            assert np.array_equal(a, b)
        assert np.array_equal(back.stats_source.cov.data, state.stats_source.cov.data)
        assert back.rng.bit_generator.state == state.rng.bit_generator.state

    def test_resume_is_bit_exact(self, tmp_path):
        full_cfg = short_config(seed=1, steps=60)
        dataset = default_dataset(full_cfg)
        _, full_records = train(full_cfg, dataset,
                                metrics_path=tmp_path / "full.jsonl")

        half_cfg = dataclasses.replace(full_cfg, steps=30)
        state, first = train(half_cfg, dataset, metrics_path=tmp_path / "part.jsonl",
                             checkpoint_path=tmp_path / "ck.npz")
        resumed = load_checkpoint(tmp_path / "ck.npz")
        _, second = train(full_cfg, dataset, state=resumed,
                          metrics_path=tmp_path / "part.jsonl")

        assert first + second == full_records
        assert (tmp_path / "part.jsonl").read_text() == (tmp_path / "full.jsonl").read_text()

    def test_stats_momentum_key_is_ignored(self, tmp_path):
        # version-2 files written before the key was dropped still carry it
        full_cfg = short_config(seed=2, steps=50)
        dataset = default_dataset(full_cfg)
        _, full_records = train(full_cfg, dataset)
        train(dataclasses.replace(full_cfg, steps=20), dataset, checkpoint_path=tmp_path / "ck.npz")
        with np.load(tmp_path / "ck.npz") as z:
            arrays = {k: z[k] for k in z.files}
        meta = json.loads(str(arrays["meta_json"]))
        assert "stats_momentum" not in meta
        meta["stats_momentum"] = 0.9
        arrays["meta_json"] = np.array(json.dumps(meta))
        np.savez(tmp_path / "old.npz", **arrays)

        resumed = load_checkpoint(tmp_path / "old.npz")
        assert resumed.step == 20
        _, second = train(full_cfg, dataset, state=resumed)
        assert full_records[20:] == second

    def test_second_statistics_keys_are_ignored(self, tmp_path):
        # version-2 files written before each domain had one statistics
        # object also carry a covariance-tap mean and mean-tap momentum and
        # initialized keys
        extra = ("cov_s_mean", "cov_t_mean", "mean_s_initialized", "mean_t_initialized",
                 "mean_s_momentum", "mean_t_momentum")
        full_cfg = short_config(seed=4, steps=50)
        dataset = default_dataset(full_cfg)
        _, full_records = train(full_cfg, dataset)
        train(dataclasses.replace(full_cfg, steps=20), dataset, checkpoint_path=tmp_path / "ck.npz")
        with np.load(tmp_path / "ck.npz") as z:
            arrays = {k: z[k] for k in z.files}
        assert not set(extra) & set(arrays)
        for d in ("s", "t"):
            arrays[f"cov_{d}_mean"] = np.zeros(len(arrays[f"cov_{d}_cov"]))
            arrays[f"mean_{d}_initialized"] = np.array(True)
            arrays[f"mean_{d}_momentum"] = np.array(full_cfg.momentum)
        np.savez(tmp_path / "old.npz", **arrays)

        resumed = load_checkpoint(tmp_path / "old.npz")
        assert resumed.step == 20
        assert np.array_equal(resumed.stats_source.mean, arrays["mean_s_mean"])
        _, second = train(full_cfg, dataset, state=resumed)
        assert full_records[20:] == second


class TestAblate:
    def test_grid_shape_and_determinism(self):
        cfg = short_config(steps=20)
        configs = {k: ABLATION_CONFIGS[k] for k in ("baseline", "logcoral+mean")}
        a = ablate(cfg, seeds=[0, 1], configs=configs)
        b = ablate(cfg, seeds=[0, 1], configs=configs)
        assert set(a) == {"baseline", "logcoral+mean"}
        assert a == b
        for row in a.values():
            assert len(row["accs"]) == 2
            assert not row["failed"]

    @pytest.mark.parametrize("seeds", [[], range(0)])
    def test_no_seeds_rejected(self, seeds):
        with pytest.raises(InvalidInput, match="seed"):
            ablate(short_config(), seeds=seeds)

    def test_diverging_seed_is_recorded_not_raised(self):
        # lr=1.0 drives the tap covariances indefinite within a few steps
        table = ablate(short_config(lr=1.0, steps=20), seeds=[1],
                       configs={"logcoral+mean": ABLATION_CONFIGS["logcoral+mean"]})
        row = table["logcoral+mean"]
        assert row["accs"] == []
        assert [f["seed"] for f in row["failed"]] == [1]
        assert "not positive definite" in row["failed"][0]["error"]
