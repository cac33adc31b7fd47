import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from logcoral.data import (
    DatasetPair,
    ShiftSpec,
    generate,
    load_csv,
    make_benchmark_spec,
    random_rotation,
    save_csv,
)
from logcoral.exceptions import InvalidInput, ParseError
from logcoral.stats import FeatureBatch, batch_covariance, batch_mean


def spec_with(**overrides):
    base = make_benchmark_spec(num_classes=3, dim=4, samples_per_class=50, seed=1)
    fields = dict(num_classes=base.num_classes, dim=base.dim, class_means=base.class_means,
                  class_cov=base.class_cov, rotation=base.rotation, scale=base.scale,
                  translation=base.translation, samples_per_class=base.samples_per_class,
                  seed=base.seed)
    fields.update(overrides)
    return ShiftSpec(**fields)


class TestShiftSpec:
    def test_rejects_non_orthogonal_rotation(self):
        with pytest.raises(InvalidInput):
            spec_with(rotation=np.eye(4) * 2.0)

    def test_rejects_negative_scale(self):
        with pytest.raises(InvalidInput):
            spec_with(scale=np.array([1.0, -1.0, 1.0, 1.0]))

    @pytest.mark.parametrize("field, value, message", [
        ("num_classes", 1, "^need num_classes >= 2 and dim >= 2$"),
        ("class_means", np.zeros((2, 4)), "^class_means must be 3 x 4$"),
        ("class_cov", np.eye(3), "^class_cov shape mismatch$"),
        ("translation", np.zeros(3), "^translation must be a length-d vector$"),
        ("samples_per_class", 0, "^samples_per_class must be >= 1$"),
    ], ids=["num_classes", "class_means", "class_cov", "translation", "samples_per_class"])
    def test_rejects_fields_of_the_wrong_size(self, field, value, message):
        with pytest.raises(InvalidInput, match=message):
            spec_with(**{field: value})

    @pytest.mark.parametrize("field, values", [
        ("num_classes", [3.0, True]),
        ("dim", [4.0, True]),
        ("samples_per_class", [2.5, True]),
        ("seed", [1.5, "x", -1]),
    ], ids=["num_classes", "dim", "samples_per_class", "seed"])
    def test_counts_are_whole_numbers(self, field, values):
        # make_benchmark_spec draws its arrays before it builds the ShiftSpec, so it checks the counts first too
        spec = make_benchmark_spec(num_classes=3, dim=4, samples_per_class=5)
        for v in values:
            message = "^seed must be nonnegative, got -1$" if v == -1 else f"^{field} must be whole numbers$"
            for call in (lambda: dataclasses.replace(spec, **{field: v}), lambda: make_benchmark_spec(**{field: v})):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(InvalidInput, match=message):
                        call()

    def test_random_rotation_is_orthogonal(self):
        rng = np.random.default_rng(0)
        for strength in (0.0, 0.5, 2.0):
            q = random_rotation(8, rng, strength=strength)
            assert np.linalg.norm(q.T @ q - np.eye(8)) <= 1e-8


class TestGenerate:
    def test_deterministic_per_seed(self):
        spec = make_benchmark_spec(seed=42, samples_per_class=20)
        a, b = generate(spec), generate(spec)
        assert np.array_equal(a.source.data, b.source.data)
        assert np.array_equal(a.target.data, b.target.data)
        assert np.array_equal(a.source.labels, b.source.labels)

    def test_identity_transform_matches_statistics(self):
        d = 6
        spec = spec_with(dim=d, num_classes=3, samples_per_class=4000,
                         class_means=np.zeros((3, d)), class_cov=np.eye(d),
                         rotation=np.eye(d), scale=np.ones(d), translation=np.zeros(d))
        pair = generate(spec)
        gap = np.linalg.norm(batch_covariance(pair.source).data - batch_covariance(pair.target).data)
        assert gap <= 4.0 / np.sqrt(pair.source.n) * d

    def test_pure_translation_shifts_mean(self):
        d = 4
        t = np.array([3.0, -1.0, 0.5, 2.0])
        spec = spec_with(rotation=np.eye(d), scale=np.ones(d), translation=t,
                         samples_per_class=4000)
        pair = generate(spec)
        observed = batch_mean(pair.target) - batch_mean(pair.source)
        # 3 sigma of a mean over n samples with unit-ish variance
        n = pair.source.n
        assert np.max(np.abs(observed - t)) <= 3.0 * 3.0 / np.sqrt(n)

    def test_pure_scaling_scales_covariance(self):
        d = 4
        s = np.array([0.5, 1.0, 2.0, 3.0])
        spec = spec_with(rotation=np.eye(d), scale=s, translation=np.zeros(d),
                         class_means=np.zeros((3, d)), class_cov=np.diag([1.0, 2.0, 0.5, 1.5]),
                         samples_per_class=10000)
        pair = generate(spec)
        expected = np.diag(s) @ batch_covariance(pair.source).data @ np.diag(s)
        got = batch_covariance(pair.target).data
        assert np.linalg.norm(got - expected) / np.linalg.norm(expected) <= 0.05

    def test_target_statistics_converge_to_transformed(self):
        spec = make_benchmark_spec(num_classes=3, dim=5, samples_per_class=3400, seed=7)
        pair = generate(spec)
        a = np.diag(spec.scale) @ spec.rotation
        src_cov = batch_covariance(pair.source).data
        expected = a @ src_cov @ a.T
        got = batch_covariance(pair.target).data
        assert np.linalg.norm(got - expected) / np.linalg.norm(expected) <= 0.05


class TestCsv:
    def test_basic_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        batch = FeatureBatch(rng.standard_normal((17, 5)), labels=rng.integers(0, 4, size=17))
        path = tmp_path / "feat.csv"
        save_csv(path, batch, header="features")
        back = load_csv(path, has_labels=True)
        assert np.array_equal(back.data, batch.data)
        assert np.array_equal(back.labels, batch.labels)

    def test_unlabeled_load(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n")
        batch = load_csv(path)
        assert batch.n == 2 and batch.d == 3
        assert batch.labels is None

    def test_label_column(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("1.0,2.0,0\n3.0,4.0,1\n")
        batch = load_csv(path, has_labels=True)
        assert np.array_equal(batch.labels, [0, 1])
        assert batch.d == 2

    def test_crlf_and_comments(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_bytes(b"# header\r\n1.0,2.0\r\n3.0,4.0\r\n")
        batch = load_csv(path)
        assert batch.n == 2

    def test_ragged_rows_report_line(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ParseError) as exc:
            load_csv(path)
        assert exc.value.line == 2
        assert isinstance(exc.value, InvalidInput)

    def test_non_numeric_cell_reports_line(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("1.0,2.0\n3.0,abc\n")
        with pytest.raises(ParseError) as exc:
            load_csv(path)
        assert exc.value.line == 2

    @pytest.mark.parametrize("last", ["5,x,1", "5,6"], ids=["bad_cell", "ragged_row"])
    @pytest.mark.parametrize("has_labels", [True, False], ids=["labelled", "unlabelled"])
    def test_bad_row_after_comment_and_blank_names_its_line(self, tmp_path, last, has_labels):
        # numpy numbers a bad cell's data row from 0 and a ragged row from 1
        path = tmp_path / "f.csv"
        path.write_text(f"# h\n1,2,0\n\n3,4,1\n{last}\n")
        with pytest.raises(ParseError) as exc:
            load_csv(path, has_labels=has_labels)
        assert exc.value.line == 5 and exc.value.path == path
        assert " at row " not in str(exc.value) and "usecols" not in str(exc.value)

    @pytest.mark.parametrize("text, words", [
        ("1,2,3\n1,,3\n", "''"),
        ("1,2\n  \n3,4\n", "columns"),
        ("1,2\n1_0,2\n", "'1_0'"),
        ("1,2\n1;2 at row 7,3\n", "'1;2 at row 7'"),
    ], ids=["empty_cell", "line_of_spaces", "underscore", "cell_text_like_numpy_message"])
    def test_unparsed_line_is_named(self, tmp_path, text, words):
        path = tmp_path / "f.csv"
        path.write_text(text)
        with pytest.raises(ParseError) as exc:
            load_csv(path)
        assert exc.value.line == 2 and words in str(exc.value)

    def test_comment_after_data(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("1.0,2.0,0 # first row\n3.0,4.0,1#second\n")
        batch = load_csv(path, has_labels=True)
        assert np.array_equal(batch.data, [[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(batch.labels, [0, 1])

    @pytest.mark.parametrize("text, has_labels, data", [
        ("1.0,2.0,3\n", True, [[1.0, 2.0]]),
        ("1.0,2.0,3.0\n", False, [[1.0, 2.0, 3.0]]),
        ("1.0\n2.0\n3.0\n", False, [[1.0], [2.0], [3.0]]),
    ], ids=["one_labelled_row", "one_unlabelled_row", "one_unlabelled_column"])
    def test_one_row_or_column_stays_2d(self, tmp_path, text, has_labels, data):
        path = tmp_path / "f.csv"
        path.write_text(text)
        batch = load_csv(path, has_labels=has_labels)
        assert batch.data.shape == np.shape(data) and np.array_equal(batch.data, data)
        assert batch.labels is None if not has_labels else np.array_equal(batch.labels, [3])

    def test_labelled_features_are_the_leading_columns(self, tmp_path):
        rng = np.random.default_rng(8)
        x = np.maximum(rng.standard_normal((64, 9)), 0.0)
        path = tmp_path / "f.csv"
        np.savetxt(path, np.column_stack([x, rng.integers(0, 3, 64)]), delimiter=",",
                   fmt=["%.17g"] * 9 + ["%d"])
        labelled, whole = load_csv(path, has_labels=True), load_csv(path)
        assert not labelled.data.flags.c_contiguous  # a strided view of the parsed table
        assert np.ascontiguousarray(labelled.data).tobytes() == np.ascontiguousarray(whole.data[:, :-1]).tobytes()
        assert np.array_equal(labelled.labels, whole.data[:, -1])
        copy = FeatureBatch(np.ascontiguousarray(labelled.data), labels=labelled.labels)
        assert np.array_equal(batch_covariance(labelled).data, batch_covariance(copy).data)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_csv(tmp_path / "nope.csv")

    @pytest.mark.parametrize("text, line, words", [
        ("1.0,2.0,0\n3.0,nan,1\n", 2, "finite, got nan"),
        ("# h\n1.0,2.0,0\n\n1e999,4.0,1\n", 4, "finite, got inf"),
        ("1.0,2.0,0\n3.0,4.0,-1\n", 2, "nonnegative"),
        ("1.0,2.0,0\n3.0,4.0,1.5\n", 2, "'1.5'"),
        ("1.0,2.0,0\n3.0,4.0,9223372036854775808\n", 2, "'9223372036854775808'"),
        ("0\n1\n", 1, "feature data must be non-empty"),
        ("# only a comment\n", None, "no data rows"),
    ], ids=["nan", "inf", "negative_label", "fractional_label", "huge_label", "label_only", "no_rows"])
    def test_rejected_cell_names_file_and_line(self, tmp_path, text, line, words):
        path = tmp_path / "f.csv"
        path.write_text(text)
        with pytest.raises(ParseError) as exc:
            load_csv(path, has_labels=True)
        assert exc.value.line == line and exc.value.path == path
        assert str(path) in str(exc.value) and words in str(exc.value)

    def test_every_error_names_the_file(self, tmp_path):
        for text in ("1.0,2.0\n3.0\n", "1.0,abc\n"):
            path = tmp_path / "f.csv"
            path.write_text(text)
            with pytest.raises(ParseError, match="f.csv, line"):
                load_csv(path)
        with pytest.raises(ParseError, match="nope.csv: cannot open"):
            load_csv(tmp_path / "nope.csv")

    @pytest.mark.parametrize("text", ["1.0,2.0,0\n3.0,4.0,1\n", "# header\n1.0,2.0,0\n3.0,4.0,1\n"],
                             ids=["before_data", "before_comment"])
    def test_byte_order_mark_skipped(self, tmp_path, text):
        path = tmp_path / "f.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        batch = load_csv(path, has_labels=True)
        assert np.array_equal(batch.data, [[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(batch.labels, [0, 1])

    def test_extreme_values_bit_exact(self, tmp_path):
        tiny, big = 5e-324, 1.7976931348623157e308
        x = np.array([[0.0, -0.0, tiny, -tiny, big, -big],
                      [0.1, 1 / 3, 2 / 3 * 1e-300, np.nextafter(1.0, 2.0), 2.2250738585072014e-308,
                       123456789.01234567]])
        labels = np.array([0, 4])
        via_repr, via_17g = tmp_path / "repr.csv", tmp_path / "g.csv"
        save_csv(via_repr, FeatureBatch(x, labels=labels))
        np.savetxt(via_17g, np.column_stack([x, labels]), delimiter=",", fmt=["%.17g"] * 6 + ["%d"])
        for path in (via_repr, via_17g):
            back = load_csv(path, has_labels=True)
            assert np.array_equal(back.data.view(np.int64), x.view(np.int64))
            assert np.array_equal(back.labels, labels)

    def test_peak_memory_near_the_array(self, tmp_path):
        rng = np.random.default_rng(5)
        x = np.maximum(rng.standard_normal((1024, 256)), 0.0)
        path = tmp_path / "wide.csv"
        np.savetxt(path, np.column_stack([x, rng.integers(0, 5, 1024)]), delimiter=",",
                   fmt=["%.17g"] * 256 + ["%d"])
        tracemalloc.start()
        try:
            batch = load_csv(path, has_labels=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(batch.data, x)
        assert peak <= 1.5 * batch.data.nbytes


class TestDatasetPair:
    def test_requires_labels_on_both(self):
        x = np.zeros((4, 2))
        with pytest.raises(InvalidInput):
            DatasetPair(source=FeatureBatch(x, labels=[0, 0, 1, 1]), target=FeatureBatch(x))

    def test_num_classes_comes_from_the_source_labels(self):
        x = np.zeros((4, 2))
        pair = DatasetPair(source=FeatureBatch(x, labels=[0, 3, 1, 1]), target=FeatureBatch(x, labels=[5, 0, 0, 0]))
        assert pair.num_classes == 4
        with pytest.raises(InvalidInput, match="^source label 4 gives 5 classes, more than the 4 source rows$"):
            DatasetPair(source=FeatureBatch(x, labels=[0, 4, 1, 1]), target=pair.target)

    def test_requires_matching_dims(self):
        with pytest.raises(InvalidInput):
            DatasetPair(source=FeatureBatch(np.zeros((2, 2)), labels=[0, 1]),
                        target=FeatureBatch(np.zeros((2, 3)), labels=[0, 1]))
