import numpy as np
import pytest

from logcoral.exceptions import InvalidInput, NotPositiveDefinite, NumericalFailure
from logcoral.linalg import (
    SymmetricMatrix,
    default_epsilon,
    matrix_exp,
    matrix_log,
    regularize_psd,
    spd_eig,
    sym_eig,
    sym_part,
)


def rand_sym(rng, d, scale=1.0):
    a = rng.standard_normal((d, d)) * scale
    return SymmetricMatrix(sym_part(a))


def rand_spd(rng, d):
    a = rng.standard_normal((d, d))
    return SymmetricMatrix(sym_part(a @ a.T + d * np.eye(d)))


class TestSymmetricMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidInput):
            SymmetricMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInput):
            SymmetricMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidInput):
            SymmetricMatrix(np.zeros((2, 3)))

    def test_immutable(self):
        m = SymmetricMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.data[0, 0] = 5.0


class TestSymEig:
    def test_identity(self):
        pair = sym_eig(SymmetricMatrix(np.eye(3)))
        assert np.allclose(pair.values, [1, 1, 1])
        assert np.allclose(pair.vectors.T @ pair.vectors, np.eye(3), atol=1e-8)

    def test_diagonal(self):
        pair = sym_eig(SymmetricMatrix(np.diag([2.0, 5.0])))
        assert np.allclose(pair.values, [2.0, 5.0])
        assert np.allclose(np.abs(pair.vectors), np.eye(2), atol=1e-12)

    def test_two_by_two_hand_computed(self):
        # eigenvalues of [[2,1],[1,2]] are 1 and 3 (char. poly (2-l)^2 - 1)
        pair = sym_eig(SymmetricMatrix(np.array([[2.0, 1.0], [1.0, 2.0]])))
        assert np.allclose(pair.values, [1.0, 3.0])
        expected = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2)
        for col in range(2):
            assert (np.allclose(pair.vectors[:, col], expected[:, col])
                    or np.allclose(pair.vectors[:, col], -expected[:, col]))

    @pytest.mark.parametrize("d", [2, 5, 16, 64])
    def test_reconstruction(self, d):
        rng = np.random.default_rng(d)
        m = rand_sym(rng, d)
        pair = sym_eig(m)
        err = np.linalg.norm(pair.reconstruct() - m.data) / np.linalg.norm(m.data)
        assert err <= 1e-8
        assert np.all(np.diff(pair.values) >= 0)
        assert np.allclose(pair.vectors.T @ pair.vectors, np.eye(d), atol=1e-8)

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(7)
        m = rand_sym(rng, 6)
        a = sym_eig(m)
        b = sym_eig(SymmetricMatrix(m.data.copy()))
        assert np.array_equal(a.vectors, b.vectors)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInput):
            sym_eig(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_nonfinite_computed_matrix_rejected(self):
        # a computed matrix skips the constructor's checks, and can overflow
        with pytest.raises(NumericalFailure) as exc:
            sym_eig(SymmetricMatrix._trusted(np.array([[np.inf, 0.0], [0.0, 1.0]])))
        assert exc.value.component == "sym_eig"


@pytest.mark.parametrize("call", [sym_eig, spd_eig, lambda a: regularize_psd(a, 0.1), default_epsilon,
                                  matrix_log],
                         ids=["sym_eig", "spd_eig", "regularize_psd", "default_epsilon", "matrix_log"])
def test_plain_array_rejected(call):
    # an asymmetric array would otherwise be read by its lower triangle
    with pytest.raises(InvalidInput, match="expected a SymmetricMatrix, got ndarray"):
        call(np.array([[2.0, 1.0], [0.0, 2.0]]))


class TestSpdEig:
    def test_singular_rejected_without_epsilon(self):
        with pytest.raises(NotPositiveDefinite) as exc:
            spd_eig(SymmetricMatrix(np.diag([2.0, 0.0])))
        assert exc.value.eigenvalue == 0.0

    def test_shifted_spectrum_floored_at_epsilon(self):
        # rank one: the shifted zero eigenvalues land within rounding of eps, some below it
        v = np.random.default_rng(0).standard_normal((6, 1)) * 100
        m, eps = SymmetricMatrix(sym_part(v @ v.T)), 1e-9
        shifted = sym_eig(regularize_psd(m, eps))
        assert shifted.values[0] < eps
        pair = spd_eig(m, eps)
        assert np.array_equal(pair.values, np.maximum(shifted.values, eps))
        assert pair.values[0] == eps and not pair.values.flags.writeable
        assert np.array_equal(pair.vectors, shifted.vectors)

    @pytest.mark.parametrize("eps", [-1.0, np.nan, np.inf])
    def test_bad_epsilon_rejected(self, eps):
        with pytest.raises(InvalidInput, match="epsilon"):
            spd_eig(SymmetricMatrix(np.eye(2)), eps)

    @pytest.mark.parametrize("eps", [0.0, 1e-3])
    @pytest.mark.parametrize("d", [1, 2, 5, 16])
    def test_stack_matches_each_matrix(self, d, eps):
        rng = np.random.default_rng(d)
        items = [rand_spd(rng, d) for _ in range(5)]
        stacked = spd_eig(SymmetricMatrix._trusted(np.stack([m.data for m in items])), eps)
        assert stacked.values.shape == (5, d) and stacked.vectors.shape == (5, d, d)
        for i, m in enumerate(items):
            pair = spd_eig(m, eps)
            assert stacked.values[i].tobytes() == pair.values.tobytes()
            assert stacked.vectors[i].tobytes() == pair.vectors.tobytes()

    @pytest.mark.parametrize("bad", [0, 2, 4])
    def test_stack_with_one_indefinite_item_rejected(self, bad):
        rng = np.random.default_rng(bad)
        stack = np.stack([rand_spd(rng, 3).data for _ in range(5)])
        stack[bad] = np.diag([1.0, -0.5, 2.0])
        with pytest.raises(NotPositiveDefinite) as exc:
            spd_eig(SymmetricMatrix._trusted(stack))
        assert exc.value.eigenvalue == -0.5


class TestRegularize:
    def test_zero_matrix(self):
        out = regularize_psd(SymmetricMatrix(np.zeros((2, 2))), 1e-6)
        assert np.allclose(out.data, 1e-6 * np.eye(2))

    def test_diagonal_shift(self):
        out = regularize_psd(SymmetricMatrix(np.diag([1.0, 0.0])), 0.5)
        assert np.allclose(out.data, np.diag([1.5, 0.5]))

    def test_exact_eigenvalue_shift(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = rand_sym(rng, 6)
            eps = 0.37
            before = sym_eig(m).values
            after = sym_eig(regularize_psd(m, eps)).values
            assert np.max(np.abs(after - before - eps)) <= 1e-10

    def test_nonpositive_epsilon_rejected(self):
        with pytest.raises(InvalidInput):
            regularize_psd(SymmetricMatrix(np.eye(2)), 0.0)

    @pytest.mark.parametrize("eps", [np.inf, np.nan])
    def test_nonfinite_epsilon_rejected(self, eps):
        with pytest.raises(InvalidInput):
            regularize_psd(SymmetricMatrix(np.eye(2)), eps)

    def test_output_keeps_the_invariant(self):
        out = regularize_psd(rand_sym(np.random.default_rng(4), 7), 0.37)
        assert np.array_equal(out.data, out.data.T)
        assert np.all(np.isfinite(out.data))
        assert not out.data.flags.writeable

    def test_plain_array_input_is_checked(self):
        with pytest.raises(InvalidInput):
            regularize_psd(np.array([[1.0, 2.0], [0.0, 1.0]]), 0.1)

    def test_default_epsilon_tracks_scale(self):
        m = SymmetricMatrix(np.diag([2.0, 4.0]))
        assert default_epsilon(m) == pytest.approx(3e-6)
        assert default_epsilon(SymmetricMatrix(np.zeros((2, 2)))) == pytest.approx(1e-6)


class TestMatrixLogExp:
    def test_log_identity_is_zero(self):
        assert np.allclose(matrix_log(SymmetricMatrix(np.eye(4))).data, 0.0)

    def test_log_diagonal(self):
        m = SymmetricMatrix(np.diag([np.e, np.e ** 2]))
        assert np.allclose(matrix_log(m).data, np.diag([1.0, 2.0]))

    def test_exp_zero_is_identity(self):
        assert np.allclose(matrix_exp(SymmetricMatrix(np.zeros((3, 3)))).data, np.eye(3))

    def test_exp_diagonal(self):
        out = matrix_exp(SymmetricMatrix(np.diag([1.0, 2.0])))
        assert np.allclose(out.data, np.diag([np.e, np.e ** 2]))

    @pytest.mark.parametrize("d", [2, 5, 16, 64])
    def test_log_exp_roundtrip(self, d):
        rng = np.random.default_rng(100 + d)
        # spectrum kept in [-2, 2] so exp stays well conditioned
        a = rand_sym(rng, d)
        a = SymmetricMatrix(a.data * (2.0 / max(np.abs(np.linalg.eigvalsh(a.data)))))
        back = matrix_log(matrix_exp(a))
        assert np.linalg.norm(back.data - a.data) <= 1e-8 * max(np.linalg.norm(a.data), 1.0)

    @pytest.mark.parametrize("d", [2, 5, 16])
    def test_exp_log_roundtrip_spd(self, d):
        rng = np.random.default_rng(200 + d)
        m = rand_spd(rng, d)
        back = matrix_exp(matrix_log(m))
        assert np.linalg.norm(back.data - m.data) <= 1e-8 * np.linalg.norm(m.data)

    def test_log_rejects_non_spd(self):
        with pytest.raises(NotPositiveDefinite) as exc:
            matrix_log(SymmetricMatrix(np.diag([1.0, -2.0])))
        assert exc.value.eigenvalue == pytest.approx(-2.0)

    def test_log_output_exactly_symmetric(self):
        rng = np.random.default_rng(11)
        m = rand_spd(rng, 8)
        out = matrix_log(m).data
        assert np.array_equal(out, out.T)


class TestSymDiagParts:
    def test_sym_part(self):
        assert np.allclose(sym_part(np.array([[0.0, 2.0], [0.0, 0.0]])), [[0.0, 1.0], [1.0, 0.0]])

    def test_sym_part_fixed_point(self):
        m = np.array([[1.0, 2.0], [2.0, 3.0]])
        assert np.array_equal(sym_part(m), m)

    def test_sym_antisym_decomposition(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((5, 5))
        antisym = 0.5 * (m - m.T)
        assert np.allclose(sym_part(m) + antisym, m)

    def test_nonsquare_rejected(self):
        with pytest.raises(InvalidInput):
            sym_part(np.zeros((2, 3)))
