import numpy as np
import pytest

from logcoral import linalg
from logcoral.exceptions import InvalidInput, NotPositiveDefinite, NumericalFailure
from logcoral.linalg import (
    SymmetricMatrix,
    default_epsilon,
    matrix_log,
    matrix_log_backward,
    regularize_psd,
    spd_eig,
    sym_eig,
    sym_part,
)
from logcoral.losses import (
    LogEuclidean,
    LossWeights,
    _coral_value,
    _cross_entropy,
    _mean_value,
    chain_to_features,
    coral_loss,
    log_euclidean,
    logcoral_loss,
    mean_loss,
    softmax_cross_entropy,
)
from logcoral.stats import FeatureBatch, batch_covariance


def rand_spd(rng, d, gap=0.0):
    a = rng.standard_normal((d, d))
    m = sym_part(a @ a.T + d * np.eye(d))
    if gap:
        # push the spectrum apart for stable eigendecomposition gradients
        pair = sym_eig(SymmetricMatrix(m))
        vals = pair.values + np.arange(d) * gap
        m = sym_part((pair.vectors * vals) @ pair.vectors.T)
    return SymmetricMatrix(m)


# Degenerate spectra of the kind dead rectifier units put into tap
# covariances: (eigenvalues of C_s, epsilon). One has an exactly repeated
# eigenvalue; the other a cluster just above the epsilon floor. The cluster
# is not at zero eigenvalues of C, where the floor makes the loss
# non-differentiable.
DEGENERATE = {
    "repeated": ([0.5, 1.0, 1.0, 2.0, 3.0], 0.0),
    "floor_cluster": ([1e-4] * 4 + [1.0, 1.0, 2.0, 3.0], 1e-2),
}


def loss_inputs(case, rng, d, gap):
    """(C_s, C_t, epsilon): a random well-separated d x d pair for an integer
    case; for a DEGENERATE case, C_s with that spectrum in a random basis."""
    if case not in DEGENERATE:
        return rand_spd(rng, d, gap=gap), rand_spd(rng, d, gap=gap), 0.0
    vals, eps = DEGENERATE[case]
    q, _ = np.linalg.qr(rng.standard_normal((len(vals), len(vals))))
    cs = SymmetricMatrix(sym_part((q * np.array(vals)) @ q.T))
    return cs, rand_spd(rng, len(vals), gap=gap), eps


def tap_covariances(rng, d):
    """Source and target covariances of post-ReLU rows, as a training tap
    gives them: fewer rows than width (2 at d = 2) and a dead column or more,
    so each has exactly repeated zero eigenvalues before the epsilon shift."""
    n, dead = max(2, d // 2), max(1, d // 8)
    covs = []
    for shift in (0.0, 0.3):
        x = np.maximum(rng.standard_normal((n, d)) + shift, 0.0)
        x[:, rng.choice(d, size=dead, replace=False)] = 0.0
        covs.append(batch_covariance(FeatureBatch(x)))
    return covs


def two_log_logcoral(cs, ct, eps):
    """Log-CORAL value and gradients through both matrix logarithms, formed
    in their own bases: ||log C_s - log C_t||_F^2 / (4 d^2) and the
    Daleckii-Krein backward of (log C_s - log C_t) / (2 d^2)."""
    d = cs.dim
    pairs = [sym_eig(regularize_psd(c, eps)) for c in (cs, ct)]
    vals = [np.maximum(p.values, eps) for p in pairs]
    logs = [(p.vectors * np.log(v)) @ p.vectors.T for p, v in zip(pairs, vals)]
    diff = logs[0] - logs[1]
    grads = [matrix_log_backward(p.vectors, v, p.vectors.T @ (sign * diff / (2 * d * d)) @ p.vectors)
             for p, v, sign in zip(pairs, vals, (1.0, -1.0))]
    return float(np.sum(diff * diff)) / (4 * d * d), grads


def fd_directional(fn, x, v, h=1e-5):
    return (fn(x + h * v) - fn(x - h * v)) / (2 * h)


def daleckii_krein_log_grad(cov: SymmetricMatrix, upstream: np.ndarray) -> np.ndarray:
    """Independent oracle for d<log C>/dC: the divided-difference (Loewner)
    matrix of log contracted against the upstream gradient in the eigenbasis."""
    pair = sym_eig(cov)
    vals, u = pair.values, pair.vectors
    f = np.log(vals)
    loewner = np.empty((len(vals), len(vals)))
    for i in range(len(vals)):
        for j in range(len(vals)):
            if abs(vals[i] - vals[j]) > 1e-12 * max(1.0, abs(vals[i])):
                loewner[i, j] = (f[i] - f[j]) / (vals[i] - vals[j])
            else:
                loewner[i, j] = 1.0 / vals[i]
    b = u.T @ sym_part(upstream) @ u
    return u @ (loewner * b) @ u.T


class TestLossWeights:
    def test_negative_rejected(self):
        with pytest.raises(InvalidInput):
            LossWeights(classification=-1.0)

    @pytest.mark.parametrize("w", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rejected(self, w):
        with pytest.raises(InvalidInput, match="nonnegative and finite"):
            LossWeights(mean=w)

    def test_all_zero_rejected(self):
        with pytest.raises(InvalidInput):
            LossWeights(classification=0.0, coral=0.0, logcoral=0.0, mean=0.0)

    @pytest.mark.parametrize("w", ["x", None, True])
    def test_weights_that_are_not_real_numbers_rejected(self, w):
        with pytest.raises(InvalidInput, match=f"got coral={w}$"):
            LossWeights(coral=w)
        assert LossWeights(coral=np.float64(2.0), mean=np.int64(1)).mean == 1  # numpy numbers pass

    def test_multipliers_scale_base(self):
        w = LossWeights.from_multipliers(classification=1.0, coral=2.0)
        assert w.coral == pytest.approx(600.0)
        assert w.logcoral == 0.0


class TestCoralLoss:
    def test_identical_inputs_exact_zero(self):
        rng = np.random.default_rng(0)
        c = rand_spd(rng, 4)
        b = coral_loss(c, c)
        assert b.value == 0.0
        assert np.all(b.grad_source == 0.0) and np.all(b.grad_target == 0.0)

    def test_scalar_case(self):
        b = coral_loss(SymmetricMatrix([[3.0]]), SymmetricMatrix([[1.0]]))
        assert b.value == pytest.approx(1.0)  # (3-1)^2 / 4
        assert b.grad_source[0, 0] == pytest.approx(1.0)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(1)
        cs, ct = rand_spd(rng, 5), rand_spd(rng, 5)
        a, b = coral_loss(cs, ct), coral_loss(ct, cs)
        assert abs(a.value - b.value) <= 1e-12
        assert np.max(np.abs(a.grad_source + b.grad_source)) <= 1e-12
        assert np.max(np.abs(a.grad_target + b.grad_target)) <= 1e-12

    def test_finite_differences(self):
        rng = np.random.default_rng(2)
        cs, ct = rand_spd(rng, 5), rand_spd(rng, 5)
        bundle = coral_loss(cs, ct)
        for _ in range(5):
            v = sym_part(rng.standard_normal((5, 5)))
            fd = fd_directional(lambda a: coral_loss(SymmetricMatrix(sym_part(a)), ct).value,
                                cs.data, v)
            an = float(np.sum(bundle.grad_source * v))
            assert abs(fd - an) <= 1e-6 * max(abs(fd), 1e-8)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInput):
            coral_loss(SymmetricMatrix(np.eye(2)), SymmetricMatrix(np.eye(3)))

    @pytest.mark.parametrize("scale", [1e160, 1e308])  # the squared difference overflows; at 1e308 the difference too
    def test_overflowing_value_is_a_numerical_failure(self, scale):
        with pytest.raises(NumericalFailure, match="non-finite loss: loss_coral") as exc:
            coral_loss(SymmetricMatrix(scale * np.eye(2)), SymmetricMatrix(-scale * np.eye(2)))
        assert exc.value.component == "loss_coral"


class TestLogCoralLoss:
    def test_identical_inputs_exact_zero(self):
        rng = np.random.default_rng(3)
        c = rand_spd(rng, 4)
        b = logcoral_loss(c, c)
        assert b.value == 0.0
        assert np.all(b.grad_source == 0.0) and np.all(b.grad_target == 0.0)

    def test_scalar_log_case(self):
        b = logcoral_loss(SymmetricMatrix([[np.e ** 2]]), SymmetricMatrix([[1.0]]), epsilon=0.0)
        assert b.value == pytest.approx(1.0)  # (2 - 0)^2 / 4

    def test_scalar_closed_form_gradient(self):
        cs, ct = 2.7, 0.8
        b = logcoral_loss(SymmetricMatrix([[cs]]), SymmetricMatrix([[ct]]), epsilon=0.0)
        expected = 0.5 * (np.log(cs) - np.log(ct)) / cs
        assert abs(b.grad_source[0, 0] - expected) <= 1e-10

    def test_swap_symmetry(self):
        rng = np.random.default_rng(4)
        cs, ct = rand_spd(rng, 5), rand_spd(rng, 5)
        a, b = logcoral_loss(cs, ct), logcoral_loss(ct, cs)
        assert abs(a.value - b.value) <= 1e-12
        # swapping the domains exchanges the two gradients (each carries the
        # upstream sign of its role)
        assert np.max(np.abs(a.grad_source - b.grad_target)) <= 1e-12
        assert np.max(np.abs(a.grad_target - b.grad_source)) <= 1e-12

    @pytest.mark.parametrize("seed", [*range(8), *DEGENERATE])
    def test_finite_differences_5x5(self, seed):
        # the floor_cluster case is 8 x 8
        rng = np.random.default_rng(seed if isinstance(seed, int) else 0)
        cs, ct, eps = loss_inputs(seed, rng, 5, 0.3)
        bundle = logcoral_loss(cs, ct, epsilon=eps)
        for grad, which in ((bundle.grad_source, 0), (bundle.grad_target, 1)):
            v = sym_part(rng.standard_normal((cs.dim, cs.dim)))
            def f(a):
                m = SymmetricMatrix(sym_part(a))
                return (logcoral_loss(m, ct, epsilon=eps).value if which == 0
                        else logcoral_loss(cs, m, epsilon=eps).value)
            fd = fd_directional(f, (cs if which == 0 else ct).data, v)
            an = float(np.sum(grad * v))
            assert abs(fd - an) <= 1e-4 * max(abs(fd), abs(an), 1e-8)

    @pytest.mark.parametrize("seed", [*range(5), *DEGENERATE])
    def test_matches_divided_difference_oracle(self, seed):
        # the same Daleckii-Krein gradient, with the divided differences
        # taken entry by entry rather than in the vectorised log1p form
        rng = np.random.default_rng(100 + seed if isinstance(seed, int) else 100)
        cs, ct, eps = loss_inputs(seed, rng, 6, 0.2)
        bundle = logcoral_loss(cs, ct, epsilon=eps)
        if eps:
            cs, ct = regularize_psd(cs, eps), regularize_psd(ct, eps)
        upstream = (matrix_log(cs).data - matrix_log(ct).data) / (2 * cs.dim ** 2)
        oracle = daleckii_krein_log_grad(cs, upstream)
        assert np.max(np.abs(bundle.grad_source - oracle)) <= 1e-8 * max(1.0, np.max(np.abs(oracle)))

    @pytest.mark.parametrize("d", [2, 16, 64, 256])
    def test_eigenbasis_form_matches_two_log_reference(self, d):
        # the loss never forms log C; on degenerate tap spectra it must still
        # agree with the form that does, to rounding
        cs, ct = tap_covariances(np.random.default_rng(d), d)
        eps = max(default_epsilon(cs), default_epsilon(ct))
        bundle = logcoral_loss(cs, ct, epsilon=eps)
        value, (grad_s, grad_t) = two_log_logcoral(cs, ct, eps)
        assert abs(bundle.value - value) <= 1e-12 * value
        for got, want in ((bundle.grad_source, grad_s), (bundle.grad_target, grad_t)):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_swap_symmetry_at_tap_width(self):
        cs, ct = tap_covariances(np.random.default_rng(64), 64)
        eps = max(default_epsilon(cs), default_epsilon(ct))
        a, b = logcoral_loss(cs, ct, epsilon=eps), logcoral_loss(ct, cs, epsilon=eps)
        assert abs(a.value - b.value) <= 1e-12 * a.value
        scale = np.linalg.norm(a.grad_source)
        assert np.linalg.norm(a.grad_source - b.grad_target) <= 1e-12 * scale
        assert np.linalg.norm(a.grad_target - b.grad_source) <= 1e-12 * scale

    def test_covariance_widths_must_match(self):
        rng = np.random.default_rng(6)
        with pytest.raises(InvalidInput, match="^dimension mismatch: 3 vs 4$"):
            log_euclidean(rand_spd(rng, 3), rand_spd(rng, 4), 0.1)

    @pytest.mark.parametrize("eps", ["x", None])
    @pytest.mark.parametrize("call", [log_euclidean, logcoral_loss])
    def test_epsilon_that_is_not_a_real_number_rejected(self, call, eps):
        c = rand_spd(np.random.default_rng(8), 3)
        for other in (c, rand_spd(np.random.default_rng(9), 3)):  # the equal-input path and the stacked one
            with pytest.raises(InvalidInput, match=f"^epsilon must be nonnegative and finite, got {eps}$"):
                call(c, other, eps)

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_identical_inputs_decomposed_once_exact_zero(self, eps):
        c = rand_spd(np.random.default_rng(5), 6)
        le = log_euclidean(c, SymmetricMatrix(c.data.copy()), eps)
        assert le.eig_t is le.eig_s
        assert le.value == 0.0
        assert all(np.all(g == 0.0) for g in le.grads())

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_distinct_inputs_decomposed_in_one_call(self, monkeypatch, eps):
        # one sym_eig call on [C_s, C_t], bit for bit the pairs of one call per input
        rng = np.random.default_rng(6)
        cs, ct = rand_spd(rng, 6), rand_spd(rng, 6)
        two_calls = LogEuclidean.from_eigenpairs(spd_eig(cs, eps), spd_eig(ct, eps))
        calls = []

        def counted(m, real=linalg.sym_eig):
            calls.append(m.data.shape)
            return real(m)
        monkeypatch.setattr(linalg, "sym_eig", counted)
        le = log_euclidean(cs, ct, eps)
        assert calls == [(2, 6, 6)]
        assert le.value == two_calls.value and le.diff_s.tobytes() == two_calls.diff_s.tobytes()
        for pair, want in ((le.eig_s, two_calls.eig_s), (le.eig_t, two_calls.eig_t)):
            assert pair.values.tobytes() == want.values.tobytes()
            assert pair.vectors.tobytes() == want.vectors.tobytes()
        for got, want in zip(le.grads(), two_calls.grads()):
            assert got.tobytes() == want.tobytes()

    def test_named_value_gives_the_loss_gradients(self):
        cs, ct = tap_covariances(np.random.default_rng(16), 16)
        eps = max(default_epsilon(cs), default_epsilon(ct))
        le, bundle = log_euclidean(cs, ct, eps), logcoral_loss(cs, ct, epsilon=eps)
        assert le.value == bundle.value
        grad_s, grad_t = le.grads()
        assert np.array_equal(grad_s, bundle.grad_source) and np.array_equal(grad_t, bundle.grad_target)

    def test_identical_singular_inputs_still_raise(self):
        # the shortcut for C_s == C_t reuses C_s's decomposition, which
        # still checks it, so it does not hide a non-SPD input
        c = batch_covariance(FeatureBatch(np.array([[1.0, 0.0], [3.0, 0.0]])))
        with pytest.raises(NotPositiveDefinite):
            logcoral_loss(c, c, epsilon=0.0)

    def test_orthogonal_conjugation_invariance(self):
        rng = np.random.default_rng(9)
        cs, ct = rand_spd(rng, 6), rand_spd(rng, 6)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        rotate = lambda c: SymmetricMatrix(sym_part(q @ c.data @ q.T))
        a = logcoral_loss(cs, ct).value
        b = logcoral_loss(rotate(cs), rotate(ct)).value
        assert abs(a - b) <= 1e-8 * max(a, 1e-8)

    def test_agrees_with_coral_near_identity(self):
        # both distances are quadratic in t near the identity with the same
        # leading coefficient
        rng = np.random.default_rng(10)
        a = sym_part(rng.standard_normal((4, 4)))
        t = 1e-3
        cs = SymmetricMatrix(np.eye(4) + t * a)
        ct = SymmetricMatrix(np.eye(4))
        c_val = coral_loss(cs, ct).value
        l_val = logcoral_loss(cs, ct, epsilon=0.0).value
        assert abs(c_val - l_val) <= 0.10 * c_val

    def test_negative_epsilon_rejected(self):
        with pytest.raises(InvalidInput):
            logcoral_loss(SymmetricMatrix(np.eye(2)), SymmetricMatrix(np.eye(2)), epsilon=-1.0)

    @pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf])
    def test_nonfinite_epsilon_rejected(self, eps):
        with pytest.raises(InvalidInput):
            logcoral_loss(SymmetricMatrix(np.eye(2)), SymmetricMatrix(np.eye(2)), epsilon=eps)


class TestMeanLoss:
    def test_identical_zero(self):
        m = np.array([1.0, 2.0])
        b = mean_loss(m, m)
        assert b.value == 0.0 and np.all(b.grad_source == 0.0)

    def test_hand_computed(self):
        b = mean_loss(np.array([1.0, 1.0]), np.array([0.0, 0.0]))
        assert b.value == pytest.approx(0.5)
        assert np.allclose(b.grad_source, [0.5, 0.5])

    def test_swap_symmetry(self):
        rng = np.random.default_rng(11)
        a, b = rng.standard_normal(7), rng.standard_normal(7)
        x, y = mean_loss(a, b), mean_loss(b, a)
        assert abs(x.value - y.value) <= 1e-12
        assert np.max(np.abs(x.grad_source + y.grad_source)) <= 1e-12
        assert np.max(np.abs(x.grad_target + y.grad_target)) <= 1e-12

    def test_finite_differences(self):
        rng = np.random.default_rng(12)
        a, b = rng.standard_normal(6), rng.standard_normal(6)
        bundle = mean_loss(a, b)
        v = rng.standard_normal(6)
        fd = fd_directional(lambda x: mean_loss(x, b).value, a, v)
        an = float(bundle.grad_source @ v)
        assert abs(fd - an) <= 1e-8 * max(abs(fd), 1e-8)

    def test_length_mismatch(self):
        with pytest.raises(InvalidInput):
            mean_loss(np.zeros(2), np.zeros(3))

    @pytest.mark.parametrize("means", [([np.nan, 0.0], [0.0, 0.0]), ([0.0, 0.0], [0.0, np.inf])],
                             ids=["source_nan", "target_inf"])
    def test_nonfinite_input_is_bad_input(self, means):
        # a caller's value, so not the NumericalFailure of a computed one
        with pytest.raises(InvalidInput, match="finite"):
            mean_loss(np.array(means[0]), np.array(means[1]))

    @pytest.mark.parametrize("scale", [3e160, 1e308])  # the squared difference overflows; at 1e308 the difference too
    def test_overflowing_value_is_a_numerical_failure(self, scale):
        with pytest.raises(NumericalFailure, match="non-finite loss: loss_mean") as exc:
            mean_loss(np.full(3, scale), np.full(3, -scale))
        assert exc.value.component == "loss_mean"


@pytest.mark.parametrize("call", [
    lambda: softmax_cross_entropy(np.zeros((0, 3)), np.zeros(0, dtype=int)),
    lambda: mean_loss(np.array([]), np.array([])),
], ids=["cross_entropy_no_rows", "mean_no_entries"])
def test_empty_input_rejected(call):
    with pytest.raises(InvalidInput):
        call()


class TestChainToFeatures:
    def test_zero_grad_gives_zero(self):
        rng = np.random.default_rng(13)
        batch = FeatureBatch(rng.standard_normal((10, 4)))
        out = chain_to_features(SymmetricMatrix(np.zeros((4, 4))), batch)
        assert np.all(out == 0.0)

    def test_constant_batch_gives_zero(self):
        batch = FeatureBatch(np.tile([1.0, 2.0, 3.0], (5, 1)))
        out = chain_to_features(SymmetricMatrix(np.eye(3)), batch)
        assert np.allclose(out, 0.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_full_chain_finite_differences(self, seed):
        # features -> covariance -> logcoral value, perturbed at the features
        rng = np.random.default_rng(seed)
        n, d = 12, 4
        x = rng.standard_normal((n, d))
        ct = rand_spd(rng, d, gap=0.3)
        eps = 1e-3

        def value(xa):
            cov = batch_covariance(FeatureBatch(xa))
            return logcoral_loss(cov, ct, epsilon=eps).value

        batch = FeatureBatch(x)
        bundle = logcoral_loss(batch_covariance(batch), ct, epsilon=eps)
        grad = chain_to_features(SymmetricMatrix(bundle.grad_source), batch)
        v = rng.standard_normal((n, d))
        fd = fd_directional(value, x, v)
        an = float(np.sum(grad * v))
        assert abs(fd - an) <= 1e-4 * max(abs(fd), abs(an), 1e-8)

    def test_smoothing_scale_factor(self):
        rng = np.random.default_rng(14)
        batch = FeatureBatch(rng.standard_normal((8, 3)))
        g = SymmetricMatrix(sym_part(rng.standard_normal((3, 3))))
        full = chain_to_features(g, batch, scale=1.0)
        tenth = chain_to_features(g, batch, scale=0.1)
        assert np.allclose(tenth, 0.1 * full)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInput, match="^covariance gradient is 3-dim but features are 2-dim$"):
            chain_to_features(SymmetricMatrix(np.eye(3)), FeatureBatch(np.zeros((4, 2))))

    def test_plain_array_batch_rejected(self):
        with pytest.raises(InvalidInput, match="^expected a FeatureBatch, got ndarray$"):
            chain_to_features(SymmetricMatrix(np.eye(2)), np.ones((3, 2)))

    def test_one_row_rejected(self):
        # a covariance of one row is undefined, so there is nothing to chain through
        with pytest.raises(InvalidInput, match="^need at least 2 rows to chain through a covariance$"):
            chain_to_features(SymmetricMatrix(np.eye(2)), FeatureBatch(np.zeros((1, 2))))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        b = softmax_cross_entropy(np.zeros((6, 4)), np.array([0, 1, 2, 3, 0, 1]))
        assert b.value == pytest.approx(np.log(4))

    def test_confident_correct_goes_to_zero(self):
        logits = np.full((3, 2), -50.0)
        labels = np.array([0, 1, 0])
        logits[np.arange(3), labels] = 50.0
        assert softmax_cross_entropy(logits, labels).value <= 1e-12

    def test_finite_differences(self):
        rng = np.random.default_rng(15)
        logits = rng.standard_normal((9, 5))
        labels = rng.integers(0, 5, size=9)
        bundle = softmax_cross_entropy(logits, labels)
        v = rng.standard_normal((9, 5))
        fd = fd_directional(lambda x: softmax_cross_entropy(x, labels).value, logits, v)
        an = float(np.sum(bundle.grad_source * v))
        assert abs(fd - an) <= 1e-6 * max(abs(fd), 1e-8)

    def test_label_out_of_range(self):
        with pytest.raises(InvalidInput):
            softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 3]))

    def test_labels_of_the_wrong_length(self):
        with pytest.raises(InvalidInput, match=r"^labels must have length 2, got shape \(3,\)$"):
            softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 1, 2]))

    @pytest.mark.parametrize("labels", [["a", "b"], [None, None], [1j, 2j]])
    def test_labels_that_are_not_real_numbers_rejected(self, labels):
        # the label rule runs before the range check, which would compare them with the class count
        with pytest.raises(InvalidInput, match="^labels must be real numbers, got dtype"):
            softmax_cross_entropy(np.zeros((2, 3)), labels)

    @pytest.mark.parametrize("labels", [[-1, 2], [-0.5, 2.0], [0.0, 1e30]])
    def test_negative_or_huge_label_rejected(self, labels):
        with pytest.raises(InvalidInput):
            softmax_cross_entropy(np.zeros((2, 3)), np.array(labels))

    @pytest.mark.parametrize("labels", [[0.7, 2.9], [0.0, 1.5], [0.0, np.nan]])
    def test_fractional_labels_rejected(self, labels):
        with pytest.raises(InvalidInput, match="whole numbers"):
            softmax_cross_entropy(np.zeros((2, 3)), np.array(labels))

    def test_whole_float_labels_accepted(self):
        logits = np.random.default_rng(2).standard_normal((3, 4))
        as_float = softmax_cross_entropy(logits, np.array([0.0, 3.0, 1.0]))
        as_int = softmax_cross_entropy(logits, np.array([0, 3, 1]))
        assert as_float.value == as_int.value
        assert np.array_equal(as_float.grad_source, as_int.grad_source)

    def test_nonfinite_logits_are_bad_input(self):
        # a caller's value, so not the NumericalFailure of a computed one
        with pytest.raises(InvalidInput, match="^logits must be finite, got nan$"):
            softmax_cross_entropy(np.array([[np.nan, 0.0]]), np.array([1]))

    def test_overflowing_value_is_a_numerical_failure(self):
        # finite logits whose max shift overflows; no numpy warning comes first
        with pytest.raises(NumericalFailure, match="non-finite loss: loss_cls") as exc:
            softmax_cross_entropy(np.array([[1e308, -1e308]]), np.array([1]))
        assert exc.value.component == "loss_cls"


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("d", [1, 2, 5, 16])
class TestStackedValues:
    """Each value computation the losses run takes leading stack axes and gives,
    bit for bit, the loss of each item alone."""

    ITEMS = 4

    def covariances(self, d):
        rng = np.random.default_rng(100 + d)
        return [rand_spd(rng, d, gap=1e-2) for _ in range(self.ITEMS + 1)]

    def test_coral(self, d):
        *items, fixed = self.covariances(d)
        stack = np.stack([m.data for m in items])
        assert bits(_coral_value(stack - fixed.data)) == bits([coral_loss(m, fixed).value for m in items])
        assert bits(_coral_value(fixed.data - stack)) == bits([coral_loss(fixed, m).value for m in items])

    def test_logcoral(self, d):
        # a stack in either place, through from_eigenpairs or through log_euclidean
        *items, fixed = self.covariances(d)
        stack = SymmetricMatrix._trusted(np.stack([m.data for m in items]))
        for eps in (0.0, 0.1):
            eig_stack = spd_eig(stack, eps)
            for as_source, as_target in (
                    (LogEuclidean.from_eigenpairs(eig_stack, spd_eig(fixed, eps)),
                     LogEuclidean.from_eigenpairs(spd_eig(fixed, eps), eig_stack)),
                    (log_euclidean(stack, fixed, eps), log_euclidean(fixed, stack, eps))):
                assert bits(as_source.value) == bits([logcoral_loss(m, fixed, eps).value for m in items])
                assert bits(as_target.value) == bits([logcoral_loss(fixed, m, eps).value for m in items])
                for i, m in enumerate(items):
                    assert as_source.diff_s[i].tobytes() == log_euclidean(m, fixed, eps).diff_s.tobytes()
                    assert as_target.diff_s[i].tobytes() == log_euclidean(fixed, m, eps).diff_s.tobytes()
                for stacked in (as_source, as_target):
                    with pytest.raises(InvalidInput, match="not a stack"):
                        stacked.grads()
            # equal inputs, a stack or one matrix, keep one decomposition and exact zeros
            same = log_euclidean(stack, SymmetricMatrix._trusted(stack.data.copy()), eps)
            assert same.eig_t is same.eig_s
            assert np.all(same.value == 0.0) and np.all(same.diff_s == 0.0)
            le = log_euclidean(fixed, SymmetricMatrix(fixed.data.copy()), eps)
            assert le.value == 0.0 and all(np.all(g == 0.0) for g in le.grads())

    def test_mean(self, d):
        rng = np.random.default_rng(200 + d)
        stack, fixed = rng.standard_normal((self.ITEMS, d)), rng.standard_normal(d)
        assert bits(_mean_value(stack - fixed)) == bits([mean_loss(m, fixed).value for m in stack])
        assert bits(_mean_value(fixed - stack)) == bits([mean_loss(fixed, m).value for m in stack])

    def test_cross_entropy(self, d):
        rng = np.random.default_rng(300 + d)
        stack = rng.standard_normal((self.ITEMS, 9, d))
        labels = rng.integers(0, d, size=9)
        assert bits(_cross_entropy(stack, labels)[0]) == bits(
            [softmax_cross_entropy(y, labels).value for y in stack])
