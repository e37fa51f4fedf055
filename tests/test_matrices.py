import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hirota_ist.errors import SingularMatrix
from hirota_ist.matrices import SIGMA2, SIGMA3, I4, dagger, det2, from_blocks, inv2

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)
cnum = st.builds(complex, finite, finite)


def cmat2_strategy():
    return st.builds(lambda *v: np.reshape(v, (2, 2)), cnum, cnum, cnum, cnum)


def test_det2_identity():
    assert det2(np.eye(2, dtype=complex)) == 1


def test_det2_rank1():
    assert det2(np.array([[1, 1], [1, 1]], dtype=complex)) == 0


def test_det2_hand_value():
    assert det2(np.array([[2j, 0], [0, 3]], dtype=complex)) == 6j


def test_inv2_identity():
    np.testing.assert_array_equal(inv2(np.eye(2, dtype=complex)), np.eye(2))


def test_inv2_diagonal():
    np.testing.assert_allclose(inv2(np.array([[2, 0], [0, 4]], dtype=complex)), np.array([[0.5, 0], [0, 0.25]], dtype=complex), atol=0)


def test_inv2_singular_raises():
    with pytest.raises(SingularMatrix):
        inv2(np.array([[1, 1], [1, 1]], dtype=complex))


def test_det2_and_inv2_on_a_stack_equal_per_matrix_calls():
    rng = np.random.default_rng(5)
    M = rng.normal(size=(4, 3, 2, 2)) + 1j * rng.normal(size=(4, 3, 2, 2))
    M[0, 0] *= 1e-100  # the threshold is per matrix: 1e100 I elsewhere would flag this one under a shared one
    M[0, 1] = 1e100 * np.eye(2)
    d, inv = det2(M), inv2(M)
    assert d.shape == (4, 3) and inv.shape == M.shape
    for i in np.ndindex(4, 3):
        assert d[i] == det2(M[i])
        np.testing.assert_array_equal(inv[i], inv2(M[i]))


def test_inv2_stack_with_one_singular_matrix_raises():
    M = np.stack([np.eye(2), [[1, 1], [1, 1]], 2 * np.eye(2)]).astype(complex)
    np.testing.assert_array_equal(det2(M), [1, 0, 4])
    with pytest.raises(SingularMatrix):
        inv2(M)


def test_dagger_real_symmetric_fixed():
    M = np.array([[1, 2], [2, 3]], dtype=complex)
    np.testing.assert_array_equal(dagger(M), M)


def test_dagger_conjugates():
    np.testing.assert_array_equal(dagger(np.array([[1j, 0], [0, 0]], dtype=complex)), np.array([[-1j, 0], [0, 0]], dtype=complex))


@given(cmat2_strategy(), cmat2_strategy())
def test_dagger_reverses_products(A, B):
    direct = np.array([[np.conj((A @ B)[j, i]) for j in range(2)] for i in range(2)])
    np.testing.assert_allclose(dagger(A @ B), direct, atol=1e-12)
    np.testing.assert_allclose(dagger(A @ B), dagger(B) @ dagger(A), atol=1e-10)


@given(cmat2_strategy())
def test_dagger_involution(M):
    np.testing.assert_array_equal(dagger(dagger(M)), M)


@pytest.mark.parametrize("sigma", [-1, 1])
def test_pauli_identities(sigma):
    j_sigma = np.diag([1.0, 1.0, -sigma, -sigma])
    np.testing.assert_array_equal(SIGMA3 @ SIGMA3, I4)
    np.testing.assert_array_equal(SIGMA2 @ SIGMA2, I4)
    np.testing.assert_array_equal(j_sigma @ j_sigma, I4)
    np.testing.assert_array_equal(SIGMA3 @ SIGMA2, -(SIGMA2 @ SIGMA3))


def test_blocks_roundtrip():
    M = np.arange(16, dtype=complex).reshape(4, 4)
    np.testing.assert_array_equal(from_blocks(M[:2, :2], M[:2, 2:], M[2:, :2], M[2:, 2:]), M)
