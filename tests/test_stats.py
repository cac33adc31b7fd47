import dataclasses

import numpy as np
import pytest

from logcoral.exceptions import InvalidInput, NumericalFailure
from logcoral.linalg import SymmetricMatrix
from logcoral.stats import (
    FeatureBatch,
    SmoothedStats,
    batch_covariance,
    batch_mean,
    check_momentum,
    update_smoothed,
)


def naive_covariance(x):
    """Two-pass mean-centered oracle: sum_i (x_i - mu)(x_i - mu)^T / (n-1)."""
    mu = x.mean(axis=0)
    acc = np.zeros((x.shape[1], x.shape[1]))
    for row in x:
        acc += np.outer(row - mu, row - mu)
    return acc / (x.shape[0] - 1)


class TestFeatureBatch:
    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInput):
            FeatureBatch(np.array([[1.0, np.inf]]))

    def test_rejects_bad_label_length(self):
        with pytest.raises(InvalidInput):
            FeatureBatch(np.zeros((3, 2)), labels=[0, 1])

    def test_rejects_empty(self):
        with pytest.raises(InvalidInput):
            FeatureBatch(np.zeros((0, 2)))

    @pytest.mark.parametrize("labels", [[0.7, 1.9], [0, -1], [0, np.nan]])
    def test_rejects_labels_that_are_not_class_indices(self, labels):
        with pytest.raises(InvalidInput):
            FeatureBatch(np.zeros((2, 2)), labels=labels)

    @pytest.mark.parametrize("label", [2.0 ** 63, 1e300])
    def test_rejects_float_labels_int64_cannot_hold(self, label):
        # the int cast would turn them into -2**63
        with pytest.raises(InvalidInput, match="below 2"):
            FeatureBatch(np.zeros((2, 1)), labels=np.array([label, 0.0]))

    def test_largest_float_label_int64_holds_is_kept(self):
        label = np.nextafter(2.0 ** 63, 0)
        assert FeatureBatch(np.zeros((1, 1)), labels=[label]).labels.tolist() == [int(label)]

    def test_rejects_uint64_labels_int64_cannot_hold(self):
        # the cast to int64 would wrap 2**63 to -2**63
        with pytest.raises(InvalidInput):
            FeatureBatch(np.zeros((2, 1)), labels=np.array([2**63, 0], dtype=np.uint64))

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint64])
    def test_unsigned_labels_int64_holds_are_kept(self, dtype):
        top = np.iinfo(dtype).max if dtype is np.uint8 else 2**63 - 1
        b = FeatureBatch(np.zeros((2, 1)), labels=np.array([top, 0], dtype=dtype))
        assert b.labels.dtype == np.int64 and b.labels.tolist() == [top, 0]

    @pytest.mark.parametrize("labels", [["a", "b"], [None, None], [1j, 2j]])
    def test_rejects_labels_that_are_not_real_numbers(self, labels):
        with pytest.raises(InvalidInput, match="labels must be real numbers, got dtype"):
            FeatureBatch(np.zeros((2, 2)), labels=labels)
        assert FeatureBatch(np.zeros((2, 2)), labels=[True, False]).labels.tolist() == [1, 0]

    @pytest.mark.parametrize("labels", [[[1], [1, 2]], [0, [1]]], ids=["rows", "scalar_and_row"])
    def test_ragged_labels_are_bad_input(self, labels):
        # np.asarray raised numpy's "inhomogeneous shape" ValueError
        with pytest.raises(InvalidInput, match="^labels must be a rectangular array, got a ragged sequence$"):
            FeatureBatch(np.ones((2, 2)), labels=labels)

    def test_whole_float_labels_become_integers(self):
        b = FeatureBatch(np.zeros((2, 2)), labels=[2.0, 0.0])
        assert b.labels.dtype.kind == "i" and b.labels.tolist() == [2, 0]


class TestBatchCovariance:
    def test_identical_rows_zero_variance(self):
        b = FeatureBatch(np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]))
        assert np.allclose(batch_covariance(b).data, 0.0)

    def test_two_point_1d(self):
        b = FeatureBatch(np.array([[0.0], [2.0]]))
        assert batch_covariance(b).data[0, 0] == pytest.approx(2.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_naive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n, d = rng.integers(2, 40), rng.integers(1, 12)
        x = rng.standard_normal((n, d)) * rng.uniform(0.1, 5.0)
        got = batch_covariance(FeatureBatch(x)).data
        assert np.max(np.abs(got - naive_covariance(x))) <= 1e-10

    def test_translation_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((30, 6))
        shift = rng.standard_normal(6) * 100
        a = batch_covariance(FeatureBatch(x)).data
        b = batch_covariance(FeatureBatch(x + shift)).data
        assert np.max(np.abs(a - b)) <= 1e-9

    def test_large_mean_offset_matches_np_cov(self):
        # a one-pass D^T D - n mu mu^T form cancels catastrophically here
        rng = np.random.default_rng(0)
        x = rng.standard_normal((64, 16)) + 1e6
        got = batch_covariance(FeatureBatch(x)).data
        want = np.cov(x, rowvar=False)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_psd_up_to_rounding(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((10, 20))  # rank-deficient on purpose
        cov = batch_covariance(FeatureBatch(x))
        vals = np.linalg.eigvalsh(cov.data)
        assert vals.min() >= -1e-10 * np.trace(cov.data)

    def test_output_keeps_the_invariant(self):
        rng = np.random.default_rng(9)
        c = batch_covariance(FeatureBatch(rng.standard_normal((30, 6)) * 3.0 + 2.0))
        assert np.array_equal(c.data, c.data.T)
        assert np.all(np.isfinite(c.data))
        assert not c.data.flags.writeable

    @pytest.mark.parametrize("n, d", [(2, 1), (3, 7), (10, 20), (64, 64), (64, 128), (200, 33), (2048, 256)])
    @pytest.mark.parametrize("offset", [0.0, 1e8, -3e4])
    def test_exactly_symmetric_as_computed(self, n, d, offset):
        # numpy forms c.T @ c with syrk and mirrors its triangle, so batch_covariance needs no
        # symmetrization; checked on plain rows and on the post-ReLU halves of a stacked tap
        rng = np.random.default_rng(n * d)
        x = rng.standard_normal((n, d)) * rng.uniform(0.1, 5.0, size=d) + offset
        tap = np.maximum(np.concatenate([x, x[::-1] * 0.7]) @ rng.standard_normal((d, d)) + 0.1, 0.0)
        for rows in (x, tap[:n], tap[n:]):
            cov = batch_covariance(FeatureBatch(rows)).data
            assert np.array_equal(cov, cov.T)

    def test_overflowing_product_rejected(self):
        # finite features whose outer products overflow to inf
        x = np.random.default_rng(10).standard_normal((5, 3)) * 1e200
        with pytest.raises(NumericalFailure) as exc:
            batch_covariance(FeatureBatch(x))
        assert exc.value.component == "batch_covariance"

    def test_single_row_rejected(self):
        with pytest.raises(InvalidInput):
            batch_covariance(FeatureBatch(np.ones((1, 3))))


class TestBatchMean:
    def test_single_row(self):
        b = FeatureBatch(np.array([[3.0, -1.0]]))
        assert np.allclose(batch_mean(b), [3.0, -1.0])

    def test_simple_average(self):
        b = FeatureBatch(np.array([[1.0, 0.0], [3.0, 2.0]]))
        assert np.allclose(batch_mean(b), [2.0, 1.0])

    def test_linearity_over_concatenation(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((7, 4))
        b = rng.standard_normal((13, 4))
        whole = batch_mean(FeatureBatch(np.concatenate([a, b])))
        weighted = (7 * batch_mean(FeatureBatch(a)) + 13 * batch_mean(FeatureBatch(b))) / 20
        assert np.allclose(whole, weighted)

    def test_overflowing_sum_rejected(self):
        # finite features whose column sum overflows to inf; no numpy warning comes first
        with pytest.raises(NumericalFailure, match="mean has non-finite entries") as exc:
            batch_mean(FeatureBatch(np.full((64, 2), 1e307)))
        assert exc.value.component == "batch_mean"


def eye_stats(d, mean_dim=None):
    """Statistics holding the identity covariance and a zero mean, of mean_dim entries (default d)."""
    return SmoothedStats(cov=SymmetricMatrix(np.eye(d)), mean=np.zeros(mean_dim or d))


class TestSmoothedStats:
    def test_momentum_range_enforced(self):
        # 0 <= momentum < 1; 0 is the paper's per-batch statistics
        stats = eye_stats(2)
        for momentum in (0.0, 0.37):
            check_momentum(momentum)
            update_smoothed(stats, SymmetricMatrix(np.eye(2)), np.zeros(2), momentum)
        for momentum in (1.0, -0.1):
            for call in (lambda: check_momentum(momentum),
                         lambda: update_smoothed(stats, SymmetricMatrix(np.eye(2)), np.zeros(2), momentum)):
                with pytest.raises(InvalidInput, match=r"momentum must be in \[0, 1\), got"):
                    call()

    def test_no_momentum_field(self):
        # the momentum is the run's, passed to each update, not held per domain
        assert [f.name for f in dataclasses.fields(SmoothedStats)] == ["cov", "mean"]

    def test_momentum_zero_update_returns_the_batch(self):
        # a run's first update, whatever the statistics held before
        rng = np.random.default_rng(2)
        a = rng.standard_normal((2, 2)) * 1e3
        old = SmoothedStats(cov=SymmetricMatrix(a + a.T), mean=rng.standard_normal(2) * 1e3)
        cov = SymmetricMatrix(np.array([[2.0, 0.5], [0.5, 1.0]]))
        mean = np.array([1.0, -1.0])
        s = update_smoothed(old, cov, mean, 0.0)
        assert s.cov.data.tobytes() == cov.data.tobytes()
        assert s.mean.tobytes() == mean.tobytes()

    def test_blend_coefficients(self):
        s = SmoothedStats(cov=SymmetricMatrix([[1.0]]), mean=np.array([0.0]))
        s = update_smoothed(s, SymmetricMatrix([[2.0]]), np.array([1.0]), 0.9)
        assert s.cov.data[0, 0] == pytest.approx(1.1)   # 0.9*1 + 0.1*2
        assert s.mean[0] == pytest.approx(0.1)

    def test_geometric_convergence_to_constant_batch(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4))
        target_cov = SymmetricMatrix(a @ a.T)
        target_mean = rng.standard_normal(4)
        s = eye_stats(4)
        gap0 = np.linalg.norm(s.cov.data - target_cov.data)
        for k in range(1, 30):
            s = update_smoothed(s, target_cov, target_mean, 0.9)
            gap = np.linalg.norm(s.cov.data - target_cov.data)
            assert gap <= 0.9 ** k * gap0 * (1 + 1e-9)

    def test_symmetry_preserved(self):
        rng = np.random.default_rng(1)
        s = SmoothedStats(cov=SymmetricMatrix(np.zeros((5, 5))), mean=np.zeros(5))
        for _ in range(5):
            a = rng.standard_normal((5, 5))
            s = update_smoothed(s, SymmetricMatrix(a + a.T), rng.standard_normal(5), 0.9)
            assert np.array_equal(s.cov.data, s.cov.data.T)

    def test_dimension_mismatch_rejected(self):
        s = eye_stats(3)
        with pytest.raises(InvalidInput):
            update_smoothed(s, SymmetricMatrix(np.eye(2)), np.zeros(2), 0.9)

    @pytest.mark.parametrize("mean, message", [
        ([np.nan, 0.0], "^mean must be finite, got nan$"),
        ([np.inf, 0.0], "^mean must be finite, got inf$"),
        ([[0.0, 0.0]], r"^mean must be a non-empty 1-D array, got shape \(1, 2\)$"),
    ], ids=["nan", "inf", "2-D"])
    def test_mean_must_be_finite_and_1d(self, mean, message):
        with pytest.raises(InvalidInput, match=message):
            SmoothedStats(cov=SymmetricMatrix(np.eye(2)), mean=np.array(mean))
        if np.ndim(mean) == 1:  # through the moving average too, at the first step's momentum and later ones
            for momentum in (0.0, 0.9):
                with pytest.raises(InvalidInput, match=message):
                    update_smoothed(eye_stats(2), SymmetricMatrix(np.eye(2)), mean, momentum)

    def test_cov_must_be_a_symmetric_matrix(self):
        with pytest.raises(InvalidInput, match="expected a SymmetricMatrix, got ndarray"):
            SmoothedStats(cov=np.eye(2), mean=np.zeros(2))
        with pytest.raises(InvalidInput, match="expected a SymmetricMatrix, got ndarray"):
            update_smoothed(eye_stats(2), np.eye(2), np.zeros(2), 0.9)

    def test_cov_and_mean_set_together(self):
        # both are required: statistics always hold their averages, zeros before a run's first step
        for kwargs in ({}, {"mean": np.zeros(2)}, {"cov": SymmetricMatrix(np.eye(2))}):
            with pytest.raises(TypeError):
                SmoothedStats(**kwargs)
        assert not hasattr(SmoothedStats, "initialized") and not hasattr(SmoothedStats, "batch_share")

    def test_cov_and_mean_may_differ_in_dimension(self):
        # training smooths the covariance and the mean at different taps
        s = eye_stats(2, mean_dim=3)
        s = update_smoothed(s, SymmetricMatrix(np.eye(2) * 2.0), np.ones(3), 0.9)
        assert s.cov.dim == 2 and len(s.mean) == 3
        with pytest.raises(InvalidInput):
            update_smoothed(s, SymmetricMatrix(np.eye(2)), np.zeros(2), 0.9)
