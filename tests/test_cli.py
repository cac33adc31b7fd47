import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import logcoral
from logcoral import losses
from logcoral.cli import main, parse_weights, read_config_file
from logcoral.data import generate, load_csv, make_benchmark_spec, save_csv
from logcoral.exceptions import InvalidInput, ParseError
from logcoral.linalg import default_epsilon, regularize_psd
from logcoral.stats import FeatureBatch, batch_covariance
from logcoral.training import (
    RunConfig,
    default_dataset,
    init_state,
    load_checkpoint,
    save_checkpoint,
    train,
)


@pytest.fixture
def feature_files(tmp_path):
    rng = np.random.default_rng(0)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    save_csv(a, FeatureBatch(rng.standard_normal((60, 4))))
    save_csv(b, FeatureBatch(rng.standard_normal((60, 4)) * 2.0 + 1.0))
    return a, b


def with_first_entry(array, value):
    """A copy of array whose first entry is value."""
    out = array.copy()
    out.flat[0] = value
    return out


class TestParseWeights:
    def test_basic(self):
        w = parse_weights("cls=1,logcoral=1,mean=1")
        assert w.classification == 1.0
        assert w.logcoral > 0 and w.mean > 0 and w.coral == 0.0

    def test_unknown_key(self):
        with pytest.raises(InvalidInput):
            parse_weights("bogus=1")

    def test_bad_value(self):
        with pytest.raises(InvalidInput):
            parse_weights("cls=x")

    def test_entry_without_equals_sign(self):
        with pytest.raises(InvalidInput, match="^bad weight entry 'mean', expected key=value$"):
            parse_weights("cls=1, mean")

    @pytest.mark.parametrize("text, loss, second", [
        ("cls=1,cls=2", "classification", "cls"),
        ("cls=1,classification=2", "classification", "classification"),
        ("mean=1,logcoral=1,MEAN=0.5", "mean", "mean"),
    ], ids=["same_key", "alias", "any_case"])
    def test_loss_named_twice_is_bad_input(self, tmp_path, capsys, text, loss, second):
        # the last one won, silently
        message = f"the {loss} loss is weighted twice, the second time as {second!r}"
        with pytest.raises(InvalidInput, match=f"^{message}$"):
            parse_weights(text)
        out = tmp_path / "run"
        assert main(["train", "--weights", text, "--steps", "2", "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestConfigFile:
    def test_key_values_and_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nseed=7\nlr=0.01\n\nsteps=15\n")
        vals = read_config_file(path)
        assert vals == {"seed": "7", "lr": "0.01", "steps": "15"}

    def test_unparsable_value_is_bad_input(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps=abc\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert "steps" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["stpes=3", "hidden_dims=8"])
    def test_unknown_key_is_bad_input(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"samples_per_class=20\n{line}\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert repr(line.partition("=")[0]) in err and "steps" in err
        assert not out.exists()

    def test_bad_line_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("steps=5\nnonsense\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{cfg}, line 2: expected key=value, got 'nonsense'" in capsys.readouterr().err
        assert not out.exists()

    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path, capsys):
        # editors that save UTF-8 with a BOM put it before the first key
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfsteps=3\nbatch=16\nsamples_per_class=20\n")
        assert read_config_file(cfg) == {"steps": "3", "batch": "16", "samples_per_class": "20"}
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run"), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["steps"] == 3

    def test_byte_that_is_not_utf8_names_the_file_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"samples_per_class=20\nsteps=\xff3\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{cfg}, line 2: text is not UTF-8" in capsys.readouterr().err
        assert not out.exists()

    def test_key_given_twice_names_its_second_line(self, tmp_path, capsys):
        # the last one won, silently
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("steps=3\n# a comment\nsamples_per_class=20\n steps = 5\n")
        with pytest.raises(ParseError, match="key 'steps' is given twice") as exc:
            read_config_file(cfg)
        assert (exc.value.path, exc.value.line) == (cfg, 4)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{cfg}, line 4: key 'steps' is given twice" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "absent.cfg"
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert f"{cfg}: cannot open config" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps=5\nbatch=16\nsamples_per_class=20\n")
        rc = main(["train", "--config", str(cfg), "--steps", "3",
                   "--out", str(tmp_path / "run"), "--format", "json"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["steps"] == 3


class TestLossesCommand:
    def test_identical_files_zero(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        f = tmp_path / "x.csv"
        save_csv(f, FeatureBatch(rng.standard_normal((30, 3))))
        rc = main(["losses", str(f), str(f), "--format", "json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["coral"] == 0.0
        assert report["logcoral"] == 0.0
        assert report["mean"] == 0.0
        assert "cond_source" in report

    def test_translated_domains(self, tmp_path, capsys):
        spec = make_benchmark_spec(num_classes=3, dim=4, samples_per_class=600, seed=2,
                                   rotation_strength=0.0, scale_spread=1e-9,
                                   translation_size=2.0)
        pair = generate(spec)
        fa, fb = tmp_path / "s.csv", tmp_path / "t.csv"
        save_csv(fa, FeatureBatch(pair.source.data))
        save_csv(fb, FeatureBatch(pair.target.data))
        rc = main(["losses", str(fa), str(fb), "--format", "json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mean"] > 0.1
        assert report["logcoral"] < report["mean"] / 10  # only sampling noise

    def test_value_without_gradients(self, feature_files, monkeypatch, capsys):
        a, b = feature_files
        cov_s, cov_t = batch_covariance(load_csv(a)), batch_covariance(load_csv(b))
        calls = []

        def counted(le, real=losses.LogEuclidean.grads):
            calls.append(le)
            return real(le)
        monkeypatch.setattr(losses.LogEuclidean, "grads", counted)
        assert main(["losses", str(a), str(b), "--format", "json"]) == 0
        assert calls == []
        report = json.loads(capsys.readouterr().out)
        assert report["logcoral"] == losses.logcoral_loss(cov_s, cov_t, epsilon=report["epsilon"]).value

    def test_condition_numbers_from_the_value_half(self, feature_files, monkeypatch, capsys):
        a, b = feature_files
        covs = [batch_covariance(load_csv(f)) for f in (a, b)]
        eps = max(default_epsilon(c) for c in covs)
        want = [np.linalg.cond(regularize_psd(c, eps).data) for c in covs]

        def no_svd(*args, **kwargs):
            raise AssertionError("np.linalg.cond called")
        monkeypatch.setattr(np.linalg, "cond", no_svd)
        assert main(["losses", str(a), str(b), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        got = [report["cond_source"], report["cond_target"]]
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    def test_rejects_options_it_does_not_read(self, feature_files):
        a, b = feature_files
        for option in ("--config", "--seed", "--steps", "--batch", "--lr", "--weights",
                       "--momentum", "--out"):
            with pytest.raises(SystemExit) as exc:
                main(["losses", str(a), str(b), option, "1"])
            assert exc.value.code == 2, option

    @pytest.mark.parametrize("eps", ["-1", "nan"])
    def test_bad_epsilon_is_bad_input(self, feature_files, capsys, eps):
        a, b = feature_files
        assert main(["losses", str(a), str(b), "--epsilon", eps]) == 2
        captured = capsys.readouterr()
        assert "epsilon" in captured.err and captured.out == ""

    def test_overflowing_covariance_is_a_numerical_failure(self, tmp_path, capsys):
        # finite features, read without error, whose covariance overflows
        rng = np.random.default_rng(3)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_csv(a, FeatureBatch(rng.standard_normal((20, 3)) * 1e200))
        save_csv(b, FeatureBatch(rng.standard_normal((20, 3))))
        assert main(["losses", str(a), str(b)]) == 1
        captured = capsys.readouterr()
        assert "covariance has non-finite entries" in captured.err and captured.out == ""

    def test_missing_file_exit_2(self, tmp_path, capsys):
        rc = main(["losses", str(tmp_path / "absent.csv"), str(tmp_path / "absent.csv")])
        assert rc == 2
        assert "absent.csv" in capsys.readouterr().err

    def test_byte_that_is_not_utf8_is_bad_input(self, feature_files, capsys):
        a, b = feature_files
        a.write_bytes(a.read_bytes().replace(b"\n", b"\n\xff", 1))
        assert main(["losses", str(a), str(b)]) == 2
        captured = capsys.readouterr()
        assert f"{a}, line 2: text is not UTF-8" in captured.err and captured.out == ""

    @pytest.mark.parametrize("cell", ["nan", "1e999"])
    def test_nonfinite_cell_names_its_file_and_line(self, feature_files, capsys, cell):
        a, b = feature_files
        lines = b.read_text().splitlines()
        lines[7] = lines[7].rsplit(",", 1)[0] + "," + cell
        b.write_text("\n".join(lines) + "\n")
        assert main(["losses", str(a), str(b)]) == 2
        captured = capsys.readouterr()
        assert f"{b}, line 8: feature values must be finite" in captured.err and captured.out == ""

    def test_label_only_file_is_bad_input(self, tmp_path, capsys):
        path = tmp_path / "labels.csv"
        path.write_text("0\n1\n")
        assert main(["losses", str(path), str(path), "--labels"]) == 2
        err = capsys.readouterr().err
        assert "feature data must be non-empty" in err and "Traceback" not in err


class TestGradcheckCommand:
    def test_default_passes(self, capsys):
        rc = main(["gradcheck", "--dims", "2,5", "--trials", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pass" in out and "FAIL" not in out

    def test_rejects_options_it_does_not_read(self):
        for option in ("--config", "--steps", "--batch", "--lr", "--weights", "--epsilon",
                       "--momentum"):
            with pytest.raises(SystemExit) as exc:
                main(["gradcheck", "--dims", "2", "--trials", "1", option, "1"])
            assert exc.value.code == 2, option

    def test_unparsable_dims_is_bad_input(self):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--dims", "a"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("dims, trials", [("2", "0"), ("2", "-3"), ("-1", "1")])
    def test_empty_sweep_or_bad_dim_is_bad_input(self, capsys, dims, trials):
        assert main(["gradcheck", "--dims", dims, "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert "gradcheck needs" in captured.err and captured.out == ""

    def test_corrupted_sign_fails_and_dumps(self, tmp_path, capsys, flipped_target_gradients):
        rc = main(["gradcheck", "--dims", "3", "--trials", "2", "--out", str(tmp_path)])
        assert rc == 1
        assert (tmp_path / "gradcheck_failure.npz").exists()

    @staticmethod
    def _nonfinite_gradient_fails_and_dumps(bad, tmp_path, capsys, monkeypatch):
        def bad_grads(le, real=losses.LogEuclidean.grads):
            return tuple(np.full_like(g, bad) for g in real(le))
        monkeypatch.setattr(losses.LogEuclidean, "grads", bad_grads)
        rc = main(["gradcheck", "--dims", "3", "--trials", "2", "--out", str(tmp_path)])
        assert rc == 1
        assert "logcoral: max rel error inf" in capsys.readouterr().out
        with np.load(tmp_path / "gradcheck_failure.npz") as dump:
            assert sorted(dump.files) == ["logcoral_cov_s", "logcoral_cov_t", "logcoral_dim",
                                          "logcoral_seed"]
            assert dump["logcoral_cov_s"].shape == (3, 3)

    def test_nan_gradient_fails_and_dumps(self, tmp_path, capsys, monkeypatch):
        self._nonfinite_gradient_fails_and_dumps(np.nan, tmp_path, capsys, monkeypatch)

    def test_inf_gradient_fails_and_dumps(self, tmp_path, capsys, monkeypatch):
        # inf + -inf in the directional derivative: an error of inf, with no numpy warning
        self._nonfinite_gradient_fails_and_dumps(np.inf, tmp_path, capsys, monkeypatch)

    def test_negative_seed_is_bad_input(self, tmp_path, capsys):
        out = tmp_path / "gc"
        assert main(["gradcheck", "--dims", "2", "--seed", "-1", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "nonnegative" in captured.err and captured.out == ""
        assert not out.exists()

    def test_dump_holds_the_evaluated_worst_inputs(self, tmp_path, monkeypatch,
                                                   flipped_target_gradients):
        # with --dims 2,5 the worst coral and mean draws are at dim 5, whose
        # inputs come after the dim-2 draws in the seed's rng stream
        seen = []
        for name in ("coral_loss", "mean_loss"):
            def spy(a, b, real=getattr(losses, name), name=name):
                seen.append((name, np.array(getattr(a, "data", a)), np.array(getattr(b, "data", b))))
                return real(a, b)
            monkeypatch.setattr(losses, name, spy)
        rc = main(["gradcheck", "--dims", "2,5", "--trials", "1", "--out", str(tmp_path)])
        assert rc == 1
        with np.load(tmp_path / "gradcheck_failure.npz") as dump:
            for name, key_s, key_t in (("coral", "coral_cov_s", "coral_cov_t"),
                                       ("mean", "mean_mean_s", "mean_mean_t")):
                assert int(dump[f"{name}_dim"]) == 5
                assert any(n == f"{name}_loss" and np.array_equal(a, dump[key_s])
                           and np.array_equal(b, dump[key_t]) for n, a, b in seen), name


    def test_cross_entropy_failure_dumps_its_inputs(self, tmp_path, monkeypatch):
        def doubled(*args, real=losses.softmax_cross_entropy):
            b = real(*args)
            return dataclasses.replace(b, grad_source=2.0 * b.grad_source)
        monkeypatch.setattr(losses, "softmax_cross_entropy", doubled)
        rc = main(["gradcheck", "--dims", "2", "--trials", "1", "--out", str(tmp_path)])
        assert rc == 1
        with np.load(tmp_path / "gradcheck_failure.npz") as dump:
            assert sorted(dump.files) == ["cross_entropy_dim", "cross_entropy_labels",
                                          "cross_entropy_logits", "cross_entropy_seed"]
            assert dump["cross_entropy_logits"].shape == (8, 2)
            labels = dump["cross_entropy_labels"]
            assert labels.dtype.kind == "i" and labels.shape == (8,)


class TestTrainCommand:
    def test_short_run_writes_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples_per_class=20\n")
        out = tmp_path / "run"
        rc = main(["train", "--config", str(cfg), "--steps", "8", "--batch", "16",
                   "--out", str(out), "--format", "json"])
        assert rc == 0
        assert (out / "metrics.jsonl").exists()
        assert (out / "checkpoint.npz").exists()
        lines = (out / "metrics.jsonl").read_text().strip().split("\n")
        assert len(lines) == 8
        record = json.loads(lines[0])
        for key in ("step", "loss_cls", "loss_coral", "loss_logcoral", "loss_mean"):
            assert key in record

    def test_divergence_keeps_last_good_checkpoint(self, tmp_path):
        # lr=1.0 diverges within a few steps; the checkpoint left behind must
        # be the one an uninterrupted run to the last completed step writes
        out = tmp_path / "run"
        assert main(["train", "--lr", "1.0", "--steps", "300", "--out", str(out)]) == 1
        with np.load(out / "checkpoint.npz") as failed:
            last = int(failed["step"])
            assert 0 < last < 300
            config = RunConfig(lr=1.0, steps=last)
            state, _ = train(config, default_dataset(config))
            save_checkpoint(tmp_path / "good.npz", state)
            with np.load(tmp_path / "good.npz") as good:
                assert sorted(failed.files) == sorted(good.files)
                for key in good.files:
                    assert failed[key].dtype == good[key].dtype, key
                    assert failed[key].tobytes() == good[key].tobytes(), key
                    if failed[key].dtype.kind == "f":
                        assert np.all(np.isfinite(failed[key])), key

    def test_overflow_is_a_numerical_failure(self, tmp_path, capsys):
        # weights this large overflow the forward pass to inf, as a diverging
        # run's do; that is a failed run (exit 1), not bad input (exit 2)
        state = init_state(RunConfig(), feature_dim=16, num_classes=5)
        state.model.weights = [w * 1e200 for w in state.model.weights]
        save_checkpoint(tmp_path / "big.npz", state)
        out = tmp_path / "run"
        assert main(["train", "--steps", "5", "--resume", str(tmp_path / "big.npz"),
                     "--out", str(out)]) == 1
        assert "last good state saved" in capsys.readouterr().err
        assert (out / "checkpoint.npz").read_bytes() == (tmp_path / "big.npz").read_bytes()

    def test_numerical_failure_names_its_step(self, tmp_path, capsys):
        state = init_state(RunConfig(), feature_dim=16, num_classes=5)
        state.model.weights = [w * 1e200 for w in state.model.weights]
        save_checkpoint(tmp_path / "big.npz", state)
        assert main(["train", "--steps", "5", "--resume", str(tmp_path / "big.npz"),
                     "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("numerical failure at step 1: layer 1 has non-finite activations;")

    def test_resume_into_wrong_dims_is_bad_input(self, tmp_path, capsys):
        save_checkpoint(tmp_path / "small.npz",
                        init_state(RunConfig(hidden_dims=(8,)), feature_dim=3, num_classes=5))
        assert main(["train", "--steps", "5", "--resume", str(tmp_path / "small.npz"),
                     "--out", str(tmp_path / "run")]) == 2
        assert "do not fit 16 features and 5 classes" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_resume_refuses_what_the_checkpoint_fixes(self, tmp_path, capsys):
        config = RunConfig(steps=3, batch=16, samples_per_class=20)
        state, _ = train(config, default_dataset(config))
        save_checkpoint(tmp_path / "ck.npz", state)
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "run"
        resume = ["train", "--steps", "8", "--resume", str(tmp_path / "ck.npz"), "--out", str(out)]
        for key, value in (("lr", "0.5"), ("momentum", "0.5"), ("epsilon", "0.3")):
            assert main(resume + [f"--{key}", value]) == 2
            assert key in capsys.readouterr().err
            cfg.write_text(f"samples_per_class=20\n{key}={value}\n")
            assert main(resume + ["--config", str(cfg)]) == 2
            assert key in capsys.readouterr().err
        assert not out.exists()
        # what the checkpoint does not fix can still be set
        cfg.write_text("samples_per_class=20\n")
        assert main(resume + ["--config", str(cfg), "--batch", "16", "--seed", "3",
                              "--weights", "cls=1,mean=1"]) == 0
        with np.load(out / "checkpoint.npz") as z:
            assert int(z["step"]) == 8

    def test_resume_accepts_the_checkpoints_own_values(self, tmp_path, capsys):
        # train refuses only a value that differs; the checkpoint's own is the run it continues
        config = RunConfig(steps=3, batch=16, samples_per_class=20)
        state, _ = train(config, default_dataset(config))
        save_checkpoint(tmp_path / "ck.npz", state)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples_per_class=20\nbatch=16\nepsilon=0.01\n")
        resume = ["train", "--steps", "8", "--resume", str(tmp_path / "ck.npz"), "--config", str(cfg)]
        assert main(resume + ["--out", str(tmp_path / "plain")]) == 0
        assert main(resume + ["--out", str(tmp_path / "same"), "--lr", "0.001", "--momentum", "0.9"]) == 0
        for name in ("metrics.jsonl", "checkpoint.npz"):
            assert (tmp_path / "same" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()

    def test_version_1_checkpoint_rejected(self, tmp_path, capsys):
        # a version-1 file also held a covariance at the mean tap
        config = RunConfig(steps=3, batch=16, samples_per_class=20)
        state, _ = train(config, default_dataset(config))
        save_checkpoint(tmp_path / "ck.npz", state)
        with np.load(tmp_path / "ck.npz") as z:
            arrays = {k: z[k] for k in z.files}
        arrays["version"] = np.array(1)
        arrays["mean_s_cov"] = arrays["mean_t_cov"] = np.eye(128)
        np.savez(tmp_path / "v1.npz", **arrays)
        message = f"{tmp_path / 'v1.npz'}: checkpoint version 1 is not supported, only version 3"
        with pytest.raises(InvalidInput) as exc:
            load_checkpoint(tmp_path / "v1.npz")
        assert str(exc.value) == message
        assert main(["train", "--steps", "5", "--resume", str(tmp_path / "v1.npz"),
                     "--out", str(tmp_path / "run")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_checkpoint_naming_its_taps_resumes_bit_exactly(self, tmp_path):
        # tap names in meta, as version-2 files held, are keys the loader ignores:
        # such a file resumes as an uninterrupted run continues
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples_per_class=20\nbatch=16\n")
        run = ["train", "--config", str(cfg), "--out"]
        assert main(run + [str(tmp_path / "full"), "--steps", "10"]) == 0
        assert main(run + [str(tmp_path / "first"), "--steps", "4"]) == 0
        with np.load(tmp_path / "first" / "checkpoint.npz") as z:
            arrays = {k: z[k] for k in z.files}
        meta = json.loads(str(arrays["meta_json"]))
        assert "cov_tap" not in meta and "mean_tap" not in meta
        arrays["meta_json"] = np.array(json.dumps({**meta, "cov_tap": "h2", "mean_tap": "h1"}))
        np.savez(tmp_path / "named.npz", **arrays)
        assert main(run + [str(tmp_path / "resumed"), "--steps", "10",
                           "--resume", str(tmp_path / "named.npz")]) == 0
        full = (tmp_path / "full" / "metrics.jsonl").read_bytes().splitlines(keepends=True)
        assert (tmp_path / "resumed" / "metrics.jsonl").read_bytes() == b"".join(full[4:])
        assert ((tmp_path / "resumed" / "checkpoint.npz").read_bytes()
                == (tmp_path / "full" / "checkpoint.npz").read_bytes())

    def test_two_statistics_momenta_are_bad_input(self, tmp_path, capsys):
        # a version-2 file written before the momentum moved to meta_json holds one per domain;
        # only version 3 loads, so such a file exits 2 whatever its momenta
        save_checkpoint(tmp_path / "ck.npz", init_state(RunConfig(), feature_dim=16, num_classes=5))
        with np.load(tmp_path / "ck.npz") as z:
            arrays = {k: z[k] for k in z.files}
        meta = json.loads(str(arrays["meta_json"]))
        meta.pop("momentum", None)
        arrays.update(version=np.array(2), meta_json=np.array(json.dumps(meta)), cov_s_momentum=np.array(0.9),
                      cov_t_momentum=np.array(0.5))
        np.savez(tmp_path / "two.npz", **arrays)
        out = tmp_path / "run"
        assert main(["train", "--steps", "5", "--resume", str(tmp_path / "two.npz"), "--out", str(out)]) == 2
        assert (f"{tmp_path / 'two.npz'}: checkpoint version 2 is not supported, only version 3"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_layer_count_comes_from_the_weights(self, tmp_path):
        # a dims key, as version-2 files held, is not read: rewritten to two layers,
        # the step-0 default 16-128-64-5 model still resumes whole
        save_checkpoint(tmp_path / "ck.npz", init_state(RunConfig(), feature_dim=16, num_classes=5))
        with np.load(tmp_path / "ck.npz") as z:
            arrays = {k: z[k] for k in z.files}
        np.savez(tmp_path / "dims.npz", **{**arrays, "dims": np.array([16, 128, 64])})
        run = ["train", "--steps", "5", "--out"]
        assert main(run + [str(tmp_path / "plain"), "--resume", str(tmp_path / "ck.npz")]) == 0
        assert main(run + [str(tmp_path / "dims"), "--resume", str(tmp_path / "dims.npz")]) == 0
        with np.load(tmp_path / "dims" / "checkpoint.npz") as z:
            assert [z[f"w{i}"].shape for i in range(3)] == [(16, 128), (128, 64), (64, 5)]
        for name in ("metrics.jsonl", "checkpoint.npz"):
            assert (tmp_path / "dims" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()

    def test_gap_in_the_layer_keys_is_bad_input(self, tmp_path, capsys):
        # three w<i> arrays are three layers, so w0, w1, w3 lacks w2
        save_checkpoint(tmp_path / "ck.npz", init_state(RunConfig(), feature_dim=16, num_classes=5))
        with np.load(tmp_path / "ck.npz") as z:
            arrays = {k: z[k] for k in z.files}
        for key in ("w", "b", "vw", "vb"):
            arrays[f"{key}3"] = arrays.pop(f"{key}2")
        np.savez(tmp_path / "gap.npz", **arrays)
        out = tmp_path / "run"
        assert main(["train", "--steps", "5", "--resume", str(tmp_path / "gap.npz"), "--out", str(out)]) == 2
        assert f"{tmp_path / 'gap.npz'}: checkpoint has no 'w2'" in capsys.readouterr().err
        assert not out.exists()

    def test_checkpoint_without_hidden_layer_is_bad_input(self, tmp_path, capsys):
        # consistent arrays for dims [16, 5]: such a model has no taps to align
        save_checkpoint(tmp_path / "ck.npz", init_state(RunConfig(), feature_dim=16, num_classes=5))
        with np.load(tmp_path / "ck.npz") as z:
            arrays = {k: z[k] for k in z.files if not k[-1].isdigit()}  # no layer arrays
        arrays.update(dims=np.array([16, 5]), w0=np.zeros((16, 5)), b0=np.zeros(5),
                      vw0=np.zeros((16, 5)), vb0=np.zeros(5))
        np.savez(tmp_path / "flat.npz", **arrays)
        out = tmp_path / "run"
        assert main(["train", "--steps", "5", "--resume", str(tmp_path / "flat.npz"),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(tmp_path / "flat.npz") in err and "no hidden layer" in err
        assert not out.exists()

    def test_init_state_needs_a_hidden_layer(self):
        with pytest.raises(InvalidInput, match="no hidden layer"):
            init_state(RunConfig(hidden_dims=()), feature_dim=16, num_classes=5)

    @pytest.mark.parametrize("corrupt", [
        lambda a: a.pop("version"),
        lambda a: a.update(version=np.array(2)),
        lambda a: a.update(w1=np.zeros((128, 63))),
        lambda a: a.update(w1=a["w1"].ravel()),
        lambda a: a.update(vb0=np.zeros(127)),
        lambda a: a.update(cov_s_cov=np.eye(5)),
        *(lambda a, key=key, value=value: a.update(meta_json=np.array(json.dumps(
            {**json.loads(str(a["meta_json"])), key: value})))
          for key, value in (("lr", float("nan")), ("epsilon", -1.0), ("epsilon", 0.0), ("lr", "0.001"),
                             ("momentum", 1.0), ("momentum", float("nan")), ("momentum", "0.9"))),
        lambda a: a.update(w1=with_first_entry(a["w1"], np.nan)),
        lambda a: a.update(vb0=with_first_entry(a["vb0"], np.inf)),
        lambda a: a.update(mean_s_mean=with_first_entry(a["mean_s_mean"], np.nan)),
        lambda a: a.update(meta_json=np.array("{not json")),
        lambda a: a.update(meta_json=np.array(json.dumps([1e-3, 0.9]))),
        lambda a: a.update(step=np.array(-4)),
        lambda a: a.pop("cov_s_cov"),
    ], ids=["no_version", "version_2", "w1_shape", "w1_flat", "vb0_shape", "cov_5x5", "lr_nan", "epsilon_negative",
            "epsilon_zero", "lr_string", "momentum_1", "momentum_nan", "momentum_string", "w1_nan", "vb0_inf",
            "mean_s_mean_nan", "meta_not_json", "meta_list", "step_negative", "no_cov_s_cov"])
    def test_unfit_checkpoint_is_bad_input(self, tmp_path, capsys, corrupt):
        config = RunConfig(steps=3, batch=16, samples_per_class=20)
        save_checkpoint(tmp_path / "ck.npz", train(config, default_dataset(config))[0])
        with np.load(tmp_path / "ck.npz") as z:
            arrays = {k: z[k] for k in z.files}
        corrupt(arrays)
        np.savez(tmp_path / "bad.npz", **arrays)
        out = tmp_path / "run"
        assert main(["train", "--steps", "5", "--resume", str(tmp_path / "bad.npz"), "--out", str(out)]) == 2
        assert str(tmp_path / "bad.npz") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("domain", ["s", "t"])
    def test_statistics_missing_past_step_0_are_bad_input(self, tmp_path, capsys, domain):
        # every file holds the statistics, a step-0 file too, so a missing one is a missing key
        config = RunConfig(steps=3, batch=16, samples_per_class=20)
        train(config, default_dataset(config), checkpoint_path=tmp_path / "ck.npz")
        with np.load(tmp_path / "ck.npz") as z:
            arrays = {k: z[k] for k in z.files if k not in (f"cov_{domain}_cov", f"mean_{domain}_mean")}
        np.savez(tmp_path / "bad.npz", **arrays)
        out = tmp_path / "run"
        assert main(["train", "--steps", "5", "--resume", str(tmp_path / "bad.npz"), "--out", str(out)]) == 2
        assert f"{tmp_path / 'bad.npz'}: checkpoint has no 'cov_{domain}_cov'" in capsys.readouterr().err
        assert not out.exists()

    def test_resume_from_a_file_that_is_no_checkpoint(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.jsonl"
        metrics.write_text('{"step": 1, "loss_cls": 1.6}\n')
        out = tmp_path / "run"
        assert main(["train", "--steps", "5", "--resume", str(metrics), "--out", str(out)]) == 2
        assert f"{metrics}: not an .npz checkpoint" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_checkpoint_is_bad_input(self, tmp_path, capsys):
        out = tmp_path / "run"
        absent = tmp_path / "absent.npz"
        assert main(["train", "--steps", "5", "--resume", str(absent), "--out", str(out)]) == 2
        assert f"{absent}: cannot open: No such file or directory" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_source_csv_makes_no_output_directory(self, tmp_path, feature_files):
        out = tmp_path / "run"
        assert main(["train", "--source-csv", str(tmp_path / "absent.csv"), "--target-csv",
                     str(feature_files[1]), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("eps", ["0", "nan", "inf"])
    def test_bad_epsilon_is_bad_input(self, tmp_path, capsys, eps):
        out = tmp_path / "run"
        assert main(["train", "--steps", "5", "--epsilon", eps, "--out", str(out)]) == 2
        assert "epsilon" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("weights", ["logcoral=nan", "mean=inf", "cls=nan"])
    def test_nonfinite_weight_is_bad_input(self, tmp_path, capsys, weights):
        out = tmp_path / "run"
        assert main(["train", "--steps", "5", "--weights", weights, "--out", str(out)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_is_bad_input(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--steps", "5", "--seed", "-1", "--out", str(out)]) == 2
        assert "seed must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_eval_every_is_bad_input(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eval_every=0\n")
        assert main(["train", "--config", str(cfg), "--steps", "5",
                     "--out", str(tmp_path / "run")]) == 2
        assert not (tmp_path / "run").exists()

    def test_negative_csv_label_is_bad_input(self, tmp_path, capsys):
        pair = generate(make_benchmark_spec(num_classes=3, dim=4, samples_per_class=30, seed=3))
        fs, ft = tmp_path / "s.csv", tmp_path / "t.csv"
        save_csv(fs, pair.source)
        save_csv(ft, pair.target)
        lines = fs.read_text().splitlines()
        lines[0] = lines[0].rsplit(",", 1)[0] + ",-1"
        fs.write_text("\n".join(lines) + "\n")
        out = tmp_path / "run"
        assert main(["train", "--steps", "5", "--batch", "16", "--source-csv", str(fs),
                     "--target-csv", str(ft), "--out", str(out)]) == 2
        assert "nonnegative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("given", ["--source-csv", "--target-csv"])
    def test_one_feature_file_without_the_other_is_bad_input(self, feature_files, tmp_path, capsys, given):
        out = tmp_path / "run"
        assert main(["train", given, str(feature_files[0]), "--out", str(out)]) == 2
        assert "provide both --source-csv and --target-csv, or neither" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("label", [40, 2 ** 50])
    def test_more_classes_than_source_rows_is_bad_input(self, tmp_path, capsys, label):
        # 40 source rows; a label of 40 or more sets more classes than rows
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 3, size=40)
        labels[7] = label
        fs, ft = tmp_path / "s.csv", tmp_path / "t.csv"
        save_csv(fs, FeatureBatch(rng.standard_normal((40, 4)), labels=labels))
        save_csv(ft, FeatureBatch(rng.standard_normal((40, 4)), labels=labels % 3))
        out = tmp_path / "run"
        assert main(["train", "--steps", "5", "--batch", "16", "--source-csv", str(fs),
                     "--target-csv", str(ft), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"source label {label} gives {label + 1} classes, more than the 40 source rows" in err
        assert not out.exists()

    def test_deterministic_metric_logs(self, tmp_path):
        args = ["train", "--steps", "10", "--batch", "16", "--seed", "5"]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples_per_class=20\n")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(args + ["--config", str(cfg), "--out", str(out_b)]) == 0
        assert (out_a / "metrics.jsonl").read_bytes() == (out_b / "metrics.jsonl").read_bytes()

    def test_csv_input(self, tmp_path, capsys):
        spec = make_benchmark_spec(num_classes=3, dim=4, samples_per_class=30, seed=3)
        pair = generate(spec)
        fs, ft = tmp_path / "s.csv", tmp_path / "t.csv"
        save_csv(fs, pair.source)
        save_csv(ft, pair.target)
        rc = main(["train", "--steps", "5", "--batch", "16",
                   "--source-csv", str(fs), "--target-csv", str(ft),
                   "--out", str(tmp_path / "run")])
        assert rc == 0

    @pytest.mark.parametrize("keys", [["num_classes=9", "dim=32", "samples_per_class=3"], ["samples_per_class=3"]])
    def test_csv_input_rejects_the_synthetic_data_keys(self, tmp_path, capsys, keys):
        # num_classes, dim and samples_per_class shape only the synthetic dataset, which CSVs replace
        pair = generate(make_benchmark_spec(num_classes=5, dim=16, samples_per_class=30, seed=3))
        fs, ft = tmp_path / "s.csv", tmp_path / "t.csv"
        save_csv(fs, pair.source)
        save_csv(ft, pair.target)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps=5\nbatch=16\n" + "".join(f"{key}\n" for key in keys))
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--source-csv", str(fs), "--target-csv", str(ft),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        names = [key.split("=")[0] for key in keys]
        assert f"remove the config keys {', '.join(names)}" in err
        assert not out.exists()
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0  # they shape the synthetic data

    def test_run_from_step_0_replaces_the_metrics_file(self, tmp_path):
        # a fresh run into an --out that holds an earlier run's log writes a new log;
        # a resumed run appends (criterion 7)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples_per_class=20\nbatch=16\n")
        run = ["train", "--config", str(cfg), "--out"]
        for steps in ("20", "20"):
            assert main(run + [str(tmp_path / "o"), "--steps", steps]) == 0
        assert len((tmp_path / "o" / "metrics.jsonl").read_text().splitlines()) == 20
        assert main(run + [str(tmp_path / "o"), "--seed", "3", "--steps", "10"]) == 0
        assert main(run + [str(tmp_path / "fresh"), "--seed", "3", "--steps", "10"]) == 0
        for name in ("metrics.jsonl", "checkpoint.npz"):
            assert (tmp_path / "o" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


class TestAblateCommand:
    def test_csv_format_parses(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples_per_class=20\nsteps=5\nbatch=16\n")
        rc = main(["ablate", "--config", str(cfg), "--seeds", "2", "--format", "csv"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "config,mean_acc,std_acc,n_seeds,n_failed"
        assert len(lines) == 7  # header + six configurations
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == 5
            float(cells[1]), float(cells[2])

    def test_json_format(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples_per_class=20\nsteps=5\nbatch=16\n")
        rc = main(["ablate", "--config", str(cfg), "--seeds", "1", "--format", "json",
                   "--out", str(tmp_path / "ab")])
        assert rc == 0
        table = json.loads(capsys.readouterr().out)
        assert set(table) == {"baseline", "coral", "logcoral", "mean",
                              "coral+mean", "logcoral+mean"}
        assert (tmp_path / "ab" / "ablation.json").exists()

    def test_all_failed_rows_stay_strict_json(self, tmp_path, capsys):
        # lr=1.0 makes every seed of most configurations diverge
        def no_constant(name):
            raise ValueError(f"{name} is not JSON")
        out = tmp_path / "ab"
        args = ["ablate", "--lr", "1.0", "--seeds", "1", "--steps", "20"]
        assert main(args + ["--format", "json", "--out", str(out)]) == 0
        table = json.loads(capsys.readouterr().out, parse_constant=no_constant)
        assert json.loads((out / "ablation.json").read_text(), parse_constant=no_constant) == table
        failed = [name for name, row in table.items() if not row["accs"]]
        assert failed and all(table[name]["mean"] is table[name]["std"] is None for name in failed)
        for fmt in ("text", "csv"):
            assert main(args + ["--format", fmt]) == 0
            lines = capsys.readouterr().out.splitlines()
            for name in failed:
                row = next(line for line in lines if line.startswith(f"{name} ") or line.startswith(f"{name},"))
                assert "nan" in row and ("(1 failed)" in row if fmt == "text" else row.endswith(",0,1"))

    def test_rejects_options_it_does_not_read(self, tmp_path, capsys):
        # each grid configuration sets its own weights
        for option in ("--weights", "--resume", "--source-csv", "--target-csv", "--labels"):
            with pytest.raises(SystemExit) as exc:
                main(["ablate", "--seeds", "1", "--steps", "3", option, "mean=5"])
            assert exc.value.code == 2, option
        capsys.readouterr()
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps=3\nweights=mean=5\n")
        assert main(["ablate", "--config", str(cfg), "--seeds", "1", "--out", str(tmp_path / "ab")]) == 2
        captured = capsys.readouterr()
        assert "'weights'" in captured.err and captured.out == ""
        assert not (tmp_path / "ab").exists()

    def test_negative_seed_is_bad_input(self, tmp_path, capsys):
        out = tmp_path / "ab"
        assert main(["ablate", "--seeds", "1", "--steps", "3", "--seed", "-1", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "seed must be nonnegative" in captured.err and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("eps", ["0", "nan"])
    def test_bad_epsilon_is_bad_input(self, tmp_path, capsys, eps):
        out = tmp_path / "ab"
        assert main(["ablate", "--seeds", "1", "--steps", "3", "--epsilon", eps, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "epsilon must be positive" in captured.err and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_no_seeds_is_bad_input(self, capsys, seeds):
        assert main(["ablate", "--seeds", seeds]) == 2
        captured = capsys.readouterr()
        assert "seed" in captured.err and captured.out == ""


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_momentum_flag_says_which_momentum(command, capsys):
    # not the optimizer's: the statistics' moving average
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert ("moving-average momentum of both domains' statistics, in [0, 1); 0 is the paper's per-batch "
            "statistics") in " ".join(capsys.readouterr().out.split())


class TestOutputContract:
    @pytest.fixture
    def commands(self, feature_files, tmp_path):
        a, b = feature_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples_per_class=20\nsteps=3\nbatch=16\n")
        return {
            "losses": ["losses", str(a), str(b)],
            "gradcheck": ["gradcheck", "--dims", "2", "--trials", "1"],
            "train": ["train", "--config", str(cfg), "--out", str(tmp_path / "run")],
            "ablate": ["ablate", "--config", str(cfg), "--seeds", "1"],
        }

    @pytest.mark.parametrize("command", ["losses", "gradcheck", "train", "ablate"])
    def test_json_format_prints_only_json(self, commands, command, capsys):
        assert main(commands[command] + ["--format", "json"]) == 0
        assert isinstance(json.loads(capsys.readouterr().out), dict)

    @pytest.mark.parametrize("command", ["losses", "gradcheck", "train"])
    def test_csv_format_only_on_ablate(self, commands, command):
        with pytest.raises(SystemExit) as exc:
            main(commands[command] + ["--format", "csv"])
        assert exc.value.code == 2

    def test_losses_json_flag_removed(self, commands):
        with pytest.raises(SystemExit) as exc:
            main(commands["losses"] + ["--json"])
        assert exc.value.code == 2


def test_python_dash_m_runs_the_cli(feature_files, capsys):
    env = dict(os.environ, PYTHONPATH=str(Path(logcoral.__file__).parents[1]))
    run = [sys.executable, "-m", "logcoral"]
    helped = subprocess.run(run + ["--help"], env=env, capture_output=True, text=True, timeout=60)
    assert helped.returncode == 0 and "losses" in helped.stdout
    args = ["losses", *map(str, feature_files), "--format", "json"]
    ran = subprocess.run(run + args, env=env, capture_output=True, text=True, timeout=60)
    assert main(args) == 0
    assert ran.returncode == 0 and ran.stdout == capsys.readouterr().out


def test_failure_line_comes_before_any_numpy_warning(tmp_path):
    # under -W error a numpy warning would raise in place of the library's own check
    env = dict(os.environ, PYTHONPATH=str(Path(logcoral.__file__).parents[1]))
    run = [sys.executable, "-W", "error", "-m", "logcoral"]
    rng = np.random.default_rng(3)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    save_csv(a, FeatureBatch(rng.standard_normal((20, 3)) * 1e200))
    save_csv(b, FeatureBatch(rng.standard_normal((20, 3))))
    losses = subprocess.run(run + ["losses", str(a), str(b)], env=env, capture_output=True, text=True,
                            timeout=60)
    assert losses.returncode == 1 and losses.stdout == ""
    assert losses.stderr == "error: covariance has non-finite entries: the feature values overflow it\n"
    # finite covariances whose CORAL value overflows; with the large mean the mean value overflows too
    for source in (rng.standard_normal((20, 3)) * 1e100, 3e160 + 1e149 * rng.standard_normal((20, 3))):
        save_csv(a, FeatureBatch(source))
        losses = subprocess.run(run + ["losses", str(a), str(b)], env=env, capture_output=True, text=True,
                                timeout=60)
        assert losses.returncode == 1 and losses.stdout == ""
        assert losses.stderr == "error: non-finite loss: loss_coral\n"

    state = init_state(RunConfig(), feature_dim=16, num_classes=5)
    state.model.weights = [w * 1e200 for w in state.model.weights]
    save_checkpoint(tmp_path / "big.npz", state)
    out = tmp_path / "run"
    trained = subprocess.run(run + ["train", "--steps", "5", "--resume", str(tmp_path / "big.npz"),
                                    "--out", str(out)], env=env, capture_output=True, text=True, timeout=60)
    assert trained.returncode == 1 and trained.stdout == ""
    assert trained.stderr.startswith("numerical failure at step 1: layer 1 has non-finite activations;")
    assert trained.stderr.count("\n") == 1 and trained.stderr.endswith("\n")
    assert (out / "checkpoint.npz").read_bytes() == (tmp_path / "big.npz").read_bytes()

    # a mean tap of finite rows of 1e307, whose column sums overflow: a computed value, not bad input
    state = init_state(RunConfig(), feature_dim=16, num_classes=5)
    model = state.model
    model.weights[0], model.biases[0] = np.zeros_like(model.weights[0]), np.full_like(model.biases[0], 1e307)
    model.weights[1], model.biases[1] = np.zeros_like(model.weights[1]), np.ones_like(model.biases[1])
    save_checkpoint(tmp_path / "mean.npz", state)
    out = tmp_path / "mean_run"
    trained = subprocess.run(run + ["train", "--steps", "3", "--resume", str(tmp_path / "mean.npz"),
                                    "--out", str(out)], env=env, capture_output=True, text=True, timeout=60)
    assert trained.returncode == 1 and trained.stdout == ""
    assert trained.stderr == (f"numerical failure at step 1: mean has non-finite entries: the feature values "
                              f"overflow it; last good state saved to {out / 'checkpoint.npz'}\n")
    assert (out / "checkpoint.npz").read_bytes() == (tmp_path / "mean.npz").read_bytes()
