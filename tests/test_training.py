import contextlib
import dataclasses
import errno
import json
import os
import warnings

import numpy as np
import pytest

from logcoral.exceptions import InvalidInput, NumericalFailure
from logcoral.linalg import SymmetricMatrix
from logcoral.network import OPT_MOMENTUM, MlpModel, TrainState
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

    @pytest.mark.parametrize("momentum", [1.0, -0.1, np.nan])
    def test_bad_statistics_momentum_rejected(self, momentum):
        with pytest.raises(InvalidInput, match=r"momentum must be in \[0, 1\), got"):
            RunConfig(momentum=momentum)
        assert RunConfig(momentum=0.0).momentum == 0.0  # the paper's per-batch statistics

    @pytest.mark.parametrize("field", ["seed", "steps", "batch", "eval_every", "num_classes", "dim",
                                       "samples_per_class", "hidden_dims"])
    def test_counts_that_are_not_whole_numbers_make_no_directory(self, tmp_path, field):
        dataset, out = default_dataset(short_config()), tmp_path / "new"
        value = (8.5,) if field == "hidden_dims" else 16.5
        with pytest.raises(InvalidInput, match=f"^{field} must be whole numbers$"):
            train(short_config(**{field: value}), dataset, metrics_path=out / "metrics.jsonl")
        assert not out.exists()
        assert RunConfig(steps=np.int64(3), hidden_dims=(np.int32(8),)).steps == 3  # numpy integers pass

    @pytest.mark.parametrize("field, value", [("weights", {}), ("lr", "x"), ("epsilon", None), ("momentum", "0.5"),
                                              ("lr", True), ("momentum", False)])  # a bool is no real number
    def test_values_of_the_wrong_kind_make_no_directory(self, tmp_path, field, value):
        dataset, out = default_dataset(short_config()), tmp_path / "new"
        with pytest.raises(InvalidInput, match=f"^{field} must be (a LossWeights|real numbers)"):
            train(short_config(**{field: value}), dataset, metrics_path=out / "metrics.jsonl")
        assert not out.exists()
        assert RunConfig(lr=np.float32(0.5), epsilon=1, momentum=np.float64(0.0)).lr == 0.5  # numpy reals pass

    @pytest.mark.parametrize("field, value", [("steps", True), ("hidden_dims", (True,))], ids=["steps", "hidden_dims"])
    def test_bools_are_not_whole_numbers(self, field, value):
        # Python counts a bool as an int: RunConfig(steps=True) would train one step
        with pytest.raises(InvalidInput, match=f"^{field} must be whole numbers$"):
            RunConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [("steps", 0), ("batch", 1)])
    def test_too_few_steps_or_rows_rejected(self, field, value):
        with pytest.raises(InvalidInput, match=r"^steps must be >= 1 and batch >= 2$"):
            RunConfig(**{field: value})

    def test_no_optimizer_momentum_option(self):
        # the SGD momentum is the library's constant, not a setting of the run or its state
        assert OPT_MOMENTUM == 0.9
        for cls in (RunConfig, TrainState):
            assert "opt_momentum" not in {f.name for f in dataclasses.fields(cls)}
        assert (len(dataclasses.fields(RunConfig)), len(dataclasses.fields(TrainState))) == (12, 10)


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
        with pytest.raises(InvalidInput, match="source label"):  # DatasetPair rejects it when it is built
            train(cfg, dataclasses.replace(pair, source=dataclasses.replace(pair.source, labels=labels)), **paths)
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
        # check_state compares them with the taps' widths before the first step
        cfg = short_config()
        state = init_state(cfg, feature_dim=16, num_classes=5)
        state.stats_source = SmoothedStats(cov=SymmetricMatrix(np.eye(3)), mean=np.zeros(3))
        with pytest.raises(InvalidInput, match=r"source statistics \(cov \(3, 3\), mean \(3,\)\) "
                                               r"do not fit the taps' widths, 64 and 128") as exc:
            train(cfg, default_dataset(cfg), state=state)
        assert exc.value.step is None and state.step == 0

    def test_non_finite_parameters_name_their_layer_and_step(self):
        # at lr 1e308 the first update takes layer 0's parameters past the float range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailure, match=r"^non-finite parameters in layer 0$") as exc:
                config = RunConfig(lr=1e308, steps=3)
                train(config, default_dataset(config))
        assert exc.value.component == "layer0" and exc.value.step == 1

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
        stats = SmoothedStats(cov=SymmetricMatrix(np.zeros((5, 5))), mean=np.zeros(5))
        state = TrainState(model=model, lr=cfg.lr, momentum=cfg.momentum,
                           velocity_w=[np.zeros_like(w) for w in model.weights],
                           velocity_b=[np.zeros_like(b) for b in model.biases],
                           stats_source=stats, stats_target=stats,
                           step=0, rng=np.random.default_rng(0), epsilon=cfg.epsilon)
        with pytest.raises(InvalidInput, match="no hidden layer") as exc:
            train(cfg, default_dataset(cfg), state=state, checkpoint_path=tmp_path / "ck.npz")
        assert exc.value.step is None  # raised before any step
        assert not (tmp_path / "ck.npz").exists()

    @pytest.mark.parametrize("layer, shape, name", [
        ("weights", (100, 64), "w1"),   # 128 outputs feed a layer that takes 100
        ("biases", (100,), "b0"),       # a bias wider than its weight's 128 outputs
        ("weights", (16 * 128,), "w0"),  # not 2-D
    ])
    def test_layers_that_do_not_chain_are_bad_input(self, tmp_path, layer, shape, name):
        # a hand-built model: check_state names the shapes before any step or directory
        cfg = RunConfig(steps=3, batch=16, samples_per_class=20)
        state = init_state(cfg, feature_dim=16, num_classes=5)
        arrays = list(getattr(state.model, layer))
        arrays[int(name[1])] = np.zeros(shape)
        state = dataclasses.replace(state, model=dataclasses.replace(state.model, **{layer: arrays}))
        out = tmp_path / "new"
        with pytest.raises(InvalidInput, match="model layers do not chain: weights") as exc:
            train(cfg, default_dataset(cfg), state=state, metrics_path=out / "metrics.jsonl",
                  checkpoint_path=out / "ck.npz")
        assert f"{shape}" in str(exc.value)
        assert exc.value.step is None and state.step == 0
        assert not out.exists()

    @pytest.mark.parametrize("change, message", [
        (lambda s: {"velocity_w": [np.zeros((3, 3)), *s.velocity_w[1:]]}, r"velocities \[\(3, 3\), "),
        (lambda s: {"velocity_b": s.velocity_b[:-1]}, r"velocities .*, \[\(128,\), \(64,\)\] do not match"),
        (lambda s: {"velocity_w": [*s.velocity_w, np.zeros((5, 5))]}, r"velocities .*\(5, 5\)\], "),
        (lambda s: {"lr": -1.0}, "learning rate must be positive and finite, got -1.0"),
        (lambda s: {"model": dataclasses.replace(s.model, weights=[s.model.weights[0], np.full((128, 64), np.nan),
                                                                    s.model.weights[2]])},
         "non-finite entries in w1$"),
        (lambda s: {"momentum": 1.0}, r"^momentum must be in \[0, 1\), got 1.0"),
        (lambda s: {"momentum": np.nan}, r"^momentum must be in \[0, 1\), got nan"),
        (lambda s: {"stats_target": SmoothedStats(cov=s.stats_target.cov, mean=s.stats_target.mean[:-1])},
         r"^target statistics \(cov \(64, 64\), mean \(127,\)\) do not fit the taps' widths, 64 and 128$"),
    ], ids=["velocity_w0_3x3", "velocity_b_short", "velocity_w_extra", "lr_negative", "w1_nan",
            "momentum_1", "momentum_nan", "step_0_stats_target_mean_127"])
    def test_inconsistent_state_is_bad_input(self, tmp_path, change, message):
        # a hand-built state: check_state names what is wrong before any step or directory
        cfg = RunConfig(steps=3, batch=16, samples_per_class=20)
        state = init_state(cfg, feature_dim=16, num_classes=5)
        state = dataclasses.replace(state, **change(state))
        out = tmp_path / "new"
        with pytest.raises(InvalidInput, match=message) as exc:
            train(cfg, default_dataset(cfg), state=state, metrics_path=out / "metrics.jsonl",
                  checkpoint_path=out / "ck.npz")
        assert exc.value.step is None and state.step == 0
        assert not out.exists()


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

    def test_momentum_zero_run_resumes_bit_exactly(self, tmp_path):
        full_cfg = short_config(seed=5, steps=50, momentum=0.0)
        dataset = default_dataset(full_cfg)
        _, full_records = train(full_cfg, dataset, checkpoint_path=tmp_path / "full.npz")
        train(dataclasses.replace(full_cfg, steps=20), dataset, checkpoint_path=tmp_path / "ck.npz")
        resumed = load_checkpoint(tmp_path / "ck.npz")
        assert resumed.step == 20 and resumed.momentum == 0.0
        _, second = train(full_cfg, dataset, state=resumed, checkpoint_path=tmp_path / "resumed.npz")
        assert full_records[20:] == second
        assert (tmp_path / "resumed.npz").read_bytes() == (tmp_path / "full.npz").read_bytes()

    @pytest.mark.parametrize("steps", [0, 3], ids=["step_0", "mid_run"])
    def test_saving_a_loaded_checkpoint_writes_its_bytes(self, tmp_path, steps):
        # so a saved file holds no key the loader ignores
        config = RunConfig(steps=max(steps, 1), batch=16, samples_per_class=20)
        state = init_state(config, 16, 5) if steps == 0 else train(config, default_dataset(config))[0]
        save_checkpoint(tmp_path / "ck.npz", state)
        save_checkpoint(tmp_path / "again.npz", load_checkpoint(tmp_path / "ck.npz"))
        assert (tmp_path / "again.npz").read_bytes() == (tmp_path / "ck.npz").read_bytes()
        with np.load(tmp_path / "ck.npz") as z:
            assert {"cov_s_cov", "mean_s_mean", "cov_t_cov", "mean_t_mean"} <= set(z.files)

    def test_step_0_statistics_are_zeros_of_the_taps_widths(self, tmp_path):
        # the first step's momentum is 0, so it overwrites them; a step-0 file holds them too
        state = init_state(RunConfig(hidden_dims=(40, 24)), feature_dim=16, num_classes=5)
        save_checkpoint(tmp_path / "ck.npz", state)
        with np.load(tmp_path / "ck.npz") as z:
            for domain, s in (("s", state.stats_source), ("t", state.stats_target)):
                for key, got, want in ((f"cov_{domain}_cov", s.cov.data, np.zeros((24, 24))),
                                       (f"mean_{domain}_mean", s.mean, np.zeros(40))):
                    assert got.dtype == z[key].dtype == float
                    assert got.tobytes() == z[key].tobytes() == want.tobytes(), key

    def test_step_0_file_without_statistics_is_bad_input(self, tmp_path):
        # every file holds the statistics, zeros at step 0; version-2 files written before that rule held none
        save_checkpoint(tmp_path / "ck.npz", init_state(RunConfig(), feature_dim=16, num_classes=5))
        with np.load(tmp_path / "ck.npz") as z:
            arrays = {k: z[k] for k in z.files if k not in ("cov_s_cov", "mean_s_mean", "cov_t_cov", "mean_t_mean")}
        for version, message in ((3, "checkpoint has no 'cov_s_cov'"),
                                 (2, "checkpoint version 2 is not supported, only version 3")):
            np.savez(tmp_path / "old.npz", **{**arrays, "version": np.array(version)})
            with pytest.raises(InvalidInput) as exc:
                load_checkpoint(tmp_path / "old.npz")
            assert str(exc.value) == f"{tmp_path / 'old.npz'}: {message}"

    def test_failed_save_keeps_the_last_checkpoint(self, tmp_path, monkeypatch):
        # a write that fails part way, as on a full disk, leaves the file it would have replaced, and no other
        state = init_state(RunConfig(), feature_dim=16, num_classes=5)
        save_checkpoint(tmp_path / "ck.npz", state)
        good = (tmp_path / "ck.npz").read_bytes()

        def full_disk(file, **arrays):
            with open(file, "wb") if isinstance(file, (str, os.PathLike)) else contextlib.nullcontext(file) as f:
                f.write(good[:100])
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        monkeypatch.setattr(np, "savez", full_disk)
        with pytest.raises(OSError, match="No space left on device"):
            save_checkpoint(tmp_path / "ck.npz", state)
        assert os.listdir(tmp_path) == ["ck.npz"]
        assert (tmp_path / "ck.npz").read_bytes() == good

    def test_checkpoint_is_written_at_the_path_given(self, tmp_path):
        # with no .npz suffix added to it
        config = RunConfig(steps=3, batch=16, samples_per_class=20)
        train(config, default_dataset(config), checkpoint_path=tmp_path / "ck")
        assert os.listdir(tmp_path) == ["ck"]
        assert load_checkpoint(tmp_path / "ck").step == 3

    def test_every_array_cut_short_is_bad_input(self, tmp_path):
        # one entry short on its last axis, each layer array and statistic fails the load, naming the file
        config = RunConfig(steps=3, batch=16, samples_per_class=20)
        train(config, default_dataset(config), checkpoint_path=tmp_path / "ck.npz")
        with np.load(tmp_path / "ck.npz") as z:
            arrays = {k: z[k] for k in z.files}
        keys = [k for k in arrays if k[-1].isdigit() or k in ("cov_s_cov", "cov_t_cov", "mean_s_mean", "mean_t_mean")]
        assert len(keys) == 16
        for key in keys:
            np.savez(tmp_path / "bad.npz", **{**arrays, key: arrays[key][..., :-1]})
            with pytest.raises(InvalidInput) as exc:
                load_checkpoint(tmp_path / "bad.npz")
            assert str(exc.value).startswith(f"{tmp_path / 'bad.npz'}: "), key

    def test_momentum_is_saved_once_in_meta(self, tmp_path):
        # beside lr and epsilon; no per-domain key, and no optimizer momentum, which is OPT_MOMENTUM in every run.
        # The keys are version 3's, so a change of layout has to change the version too
        config = RunConfig(steps=3, batch=16, samples_per_class=20, momentum=0.37)
        train(config, default_dataset(config), checkpoint_path=tmp_path / "ck.npz")
        with np.load(tmp_path / "ck.npz") as z:
            meta = json.loads(str(z["meta_json"]))
            assert int(z["version"]) == 3
            assert set(z.files) == {"version", "step", *(f"{k}{i}" for k in ("w", "b", "vw", "vb") for i in range(3)),
                                    "cov_s_cov", "cov_t_cov", "mean_s_mean", "mean_t_mean", "meta_json"}
        del meta["rng_state"]
        assert meta == {"lr": config.lr, "momentum": 0.37, "epsilon": config.epsilon}
        assert load_checkpoint(tmp_path / "ck.npz").momentum == 0.37

    def test_file_with_a_momentum_per_domain_is_bad_input(self, tmp_path):
        # the momentum is read from meta_json only: cov_{s,t}_momentum keys, as version-2 files held, do not stand in
        save_checkpoint(tmp_path / "ck.npz", init_state(RunConfig(), feature_dim=16, num_classes=5))
        with np.load(tmp_path / "ck.npz") as z:
            arrays = {k: z[k] for k in z.files}
        meta = json.loads(str(arrays["meta_json"]))
        del meta["momentum"]
        arrays.update(meta_json=np.array(json.dumps(meta)), cov_s_momentum=np.array(0.9), cov_t_momentum=np.array(0.9))
        np.savez(tmp_path / "old.npz", **arrays)
        with pytest.raises(InvalidInput) as exc:
            load_checkpoint(tmp_path / "old.npz")
        assert str(exc.value) == f"{tmp_path / 'old.npz'}: checkpoint has no 'momentum'"

    @pytest.mark.parametrize("momentum", [0.9, 0.0])
    def test_file_with_a_momentum_per_domain_resumes_bit_exactly(self, tmp_path, momentum):
        # beside the meta_json momentum, cov_{s,t}_momentum keys are ones the loader ignores, even at
        # another value: such a file resumes as an uninterrupted run continues, and the keys are not written back
        full_cfg = short_config(seed=6, steps=50, momentum=momentum)
        dataset = default_dataset(full_cfg)
        _, full_records = train(full_cfg, dataset, checkpoint_path=tmp_path / "full.npz")
        train(dataclasses.replace(full_cfg, steps=20), dataset, checkpoint_path=tmp_path / "ck.npz")
        with np.load(tmp_path / "ck.npz") as z:
            arrays = {k: z[k] for k in z.files}
        np.savez(tmp_path / "old.npz", **arrays, cov_s_momentum=np.array(0.5), cov_t_momentum=np.array(0.5))

        resumed = load_checkpoint(tmp_path / "old.npz")
        assert (resumed.step, resumed.momentum) == (20, momentum)
        _, second = train(full_cfg, dataset, state=resumed, checkpoint_path=tmp_path / "resumed.npz")
        assert full_records[20:] == second
        assert (tmp_path / "resumed.npz").read_bytes() == (tmp_path / "full.npz").read_bytes()

    def test_file_stating_the_optimizer_momentum_resumes_bit_exactly(self, tmp_path):
        # an opt_momentum in meta_json, as version-2 files held, is a key the loader ignores:
        # such a file resumes as an uninterrupted run continues, and the key is not written back
        full_cfg = short_config(seed=6, steps=50)
        dataset = default_dataset(full_cfg)
        _, full_records = train(full_cfg, dataset, checkpoint_path=tmp_path / "full.npz")
        train(dataclasses.replace(full_cfg, steps=20), dataset, checkpoint_path=tmp_path / "ck.npz")
        with np.load(tmp_path / "ck.npz") as z:
            arrays = {k: z[k] for k in z.files}
        meta = {**json.loads(str(arrays["meta_json"])), "opt_momentum": 0.9}
        np.savez(tmp_path / "old.npz", **{**arrays, "meta_json": np.array(json.dumps(meta))})

        _, second = train(full_cfg, dataset, state=load_checkpoint(tmp_path / "old.npz"),
                          checkpoint_path=tmp_path / "resumed.npz")
        assert full_records[20:] == second
        with np.load(tmp_path / "resumed.npz") as z:
            assert "opt_momentum" not in json.loads(str(z["meta_json"]))
        assert (tmp_path / "resumed.npz").read_bytes() == (tmp_path / "full.npz").read_bytes()

    def test_stats_momentum_key_is_ignored(self, tmp_path):
        # a key the loader ignores, as some version-2 files held
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
        # keys the loader ignores, as some version-2 files held: a covariance-tap
        # mean, mean-tap momentum and initialized keys, dims and cov-tap initialized keys
        extra = ("cov_s_mean", "cov_t_mean", "mean_s_initialized", "mean_t_initialized",
                 "mean_s_momentum", "mean_t_momentum", "dims", "cov_s_initialized", "cov_t_initialized")
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
            arrays[f"cov_{d}_initialized"] = np.array(True)
        arrays["dims"] = np.array([16, *full_cfg.hidden_dims, 5])
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
