import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hirota_ist as h
from hirota_ist.errors import BranchPointSingular
from hirota_ist.matrices import SIGMA3, I4, dagger, embed
from hirota_ist.spectral import Background, asymptotic_eigenvectors, uniformize
from zero_curvature import assemble_U, assemble_V, zero_curvature_residual

EYE = np.eye(2, dtype=complex)
FOC = Background(sigma=-1, k0=1.0, alpha=1.0, beta=0.1, Qplus=EYE, Qminus=EYE)

finite = st.floats(min_value=-3, max_value=3, allow_nan=False)
cnum = st.builds(complex, finite, finite)
cm2 = st.builds(lambda *v: np.reshape(v, (2, 2)), cnum, cnum, cnum, cnum)


def test_embed_zero():
    np.testing.assert_array_equal(embed(np.zeros((2, 2)), -1), np.zeros((4, 4)))


def test_embed_identity_focusing():
    M = embed(EYE, -1)
    ul, ur, dl, dr = M[:2, :2], M[:2, 2:], M[2:, :2], M[2:, 2:]
    np.testing.assert_array_equal(ur, EYE)
    np.testing.assert_array_equal(dl, -EYE)
    assert np.all(ul == 0) and np.all(dr == 0)


@given(cm2, st.sampled_from([-1, 1]))
def test_embed_square_block_structure(Q, sigma):
    E = embed(Q, sigma)
    sq = E @ E
    ul, ur, dl, dr = sq[:2, :2], sq[:2, 2:], sq[2:, :2], sq[2:, 2:]
    np.testing.assert_allclose(ul, sigma * Q @ dagger(Q), atol=1e-12)
    np.testing.assert_allclose(dr, sigma * dagger(Q) @ Q, atol=1e-12)
    assert np.max(np.abs(ur)) < 1e-12 and np.max(np.abs(dl)) < 1e-12


def test_U_nilpotent_at_branch_point():
    sp = uniformize(1j, FOC)  # branch point: lam = 0
    U = assemble_U(FOC.Qplus, sp, FOC)
    assert abs(np.linalg.det(U)) < 1e-12
    assert np.max(np.abs(U @ U)) < 1e-12  # eigenvalues +-i*lam collapse to 0


def test_U_eigenrelation_on_background():
    rng = np.random.default_rng(3)
    count = 0
    while count < 100:
        z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if abs(z) < 0.2 or abs(abs(z) - 1.0) < 0.05 or abs(z.imag) < 0.05:
            continue
        sp = uniformize(z, FOC)
        U = assemble_U(FOC.Qplus, sp, FOC)
        X = asymptotic_eigenvectors(sp, FOC.Qplus, FOC)
        assert np.max(np.abs(U @ X - (-1j * sp.lam) * X @ SIGMA3)) < 1e-12 * max(1.0, abs(z))
        assert abs(np.linalg.det(X) - sp.gamma**2) < 1e-12 * max(1.0, abs(sp.gamma) ** 2)
        count += 1


def test_U_traceless():
    sp = uniformize(1.7 + 0.8j, FOC)
    U = assemble_U(np.array([[1, 2j], [2j, -1]], dtype=complex), sp, FOC)
    assert abs(np.trace(U)) == 0


def test_V_background_reduces_to_2kU():
    # At the constant background with beta = 0, V = alpha * 2k U.
    bg = Background(sigma=-1, k0=1.0, alpha=1.0, beta=0.0, Qplus=EYE, Qminus=EYE)
    sp = uniformize(1.3 + 0.9j, bg)
    U = assemble_U(EYE, sp, bg)
    V = assemble_V(EYE, np.zeros((2, 2)), np.zeros((2, 2)), sp, bg)
    np.testing.assert_allclose(V, 2.0 * sp.k * U, atol=1e-13)


def test_V_beta_zero_drops_third_order():
    bg0 = Background(sigma=-1, k0=1.0, alpha=0.7, beta=0.0, Qplus=EYE, Qminus=EYE)
    sp = uniformize(0.4 + 1.6j, bg0)
    Q, Qx, Qxx = (np.array(m, dtype=complex) for m in ([[0.3, 0.1], [0.1, -0.2]], [[1, 0], [0, 1]], [[0, 1], [1, 0]]))
    V = assemble_V(Q, Qx, Qxx, sp, bg0)
    Qe = embed(Q, -1)
    T2 = 2 * sp.k * assemble_U(Q, sp, bg0) + 1j * SIGMA3 @ (embed(Qx, -1) - Qe @ Qe + (-1) * I4)
    np.testing.assert_allclose(V, 0.7 * T2, atol=1e-13)


@given(cm2, cm2, cm2)
@settings(max_examples=40)
def test_V_traceless(Q, Qx, Qxx):
    sp = uniformize(0.8 + 1.1j, FOC)
    V = assemble_V(Q, Qx, Qxx, sp, FOC)
    assert abs(np.trace(V)) <= 1e-12 * max(1.0, np.max(np.abs(V)))


@given(st.lists(st.tuples(cm2, cm2, cm2), min_size=1, max_size=4))
@settings(max_examples=20)
def test_generators_act_on_stacks(mats):
    # a (n, 2, 2) stack gives the n generators of its matrices one by one
    sp = uniformize(0.8 + 1.1j, FOC)
    Q, Qx, Qxx = (np.array(m) for m in zip(*mats))
    U, V = assemble_U(Q, sp, FOC), assemble_V(Q, Qx, Qxx, sp, FOC)
    assert U.shape == V.shape == (len(mats), 4, 4)
    for i, (q, qx, qxx) in enumerate(mats):
        np.testing.assert_allclose(U[i], assemble_U(q, sp, FOC), rtol=0, atol=1e-13)
        np.testing.assert_allclose(V[i], assemble_V(q, qx, qxx, sp, FOC), rtol=0, atol=1e-12)


def test_X_at_infinity():
    sp = uniformize(1e9, FOC)
    X = asymptotic_eigenvectors(sp, FOC.Qplus, FOC)
    assert np.max(np.abs(X - I4)) < 1e-8


def test_X_branch_point_raises():
    sp = uniformize(1j * (1 + 1e-12), FOC)
    with pytest.raises(BranchPointSingular):
        asymptotic_eigenvectors(sp, FOC.Qplus, FOC)


def test_zero_curvature_constant_background(background_bg, background_field):
    r = zero_curvature_residual(background_field, 1.2 + 0.7j, (0.3, -0.4), 1e-3, background_bg)
    assert r <= 1e-10


def test_zero_curvature_on_soliton(fig3a_spec):
    field = functools.partial(h.reconstruct_Q, spec=fig3a_spec)

    r = zero_curvature_residual(field, 3 + 3j, (0.4, 0.2), 1e-3, fig3a_spec.bg)
    assert r <= 1e-5


def test_zero_curvature_flags_non_solution(background_bg):
    def bad_field(x, t):
        bump = 0.35 * np.exp(-(np.asarray(x) ** 2) - np.asarray(t) ** 2)
        return background_bg.Qplus + bump[..., None, None] * np.array([[1, 0.5], [0.5, -1.0]])

    r = zero_curvature_residual(bad_field, 1.1 + 0.6j, (0.2, 0.1), 1e-3, background_bg)
    assert r > 1e-2
