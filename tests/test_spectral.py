import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hirota_ist.errors import ZeroArgument
from hirota_ist.spectral import Background, Region, classify_region, theta, uniformize

EYE = np.eye(2, dtype=complex)


def bg_for(sigma, k0=1.0, alpha=1.0, beta=0.1):
    Q = k0 * EYE
    return Background(sigma=sigma, k0=k0, alpha=alpha, beta=beta, Qplus=Q, Qminus=Q)


FOC = bg_for(-1)
DEF = bg_for(1)


def test_uniformize_branch_point_defocusing():
    sp = uniformize(1.0, DEF)
    assert sp.k == 1.0 and sp.lam == 0.0
    assert classify_region(1.0, DEF) is Region.BRANCH_POINT


def test_uniformize_hand_value():
    sp = uniformize(2j, FOC)
    assert abs(sp.k - 1.25j) < 1e-15
    assert abs(sp.lam - 0.75j) < 1e-15
    assert abs(sp.gamma - 0.75) < 1e-15


def test_uniformize_gamma_to_one_at_infinity():
    sp = uniformize(1e8, FOC)
    assert abs(sp.gamma - 1.0) < 1e-15


def test_uniformize_gamma_at_a_k0_near_the_top_of_the_range():
    # fig3a's hand value mapped to k0 = 1e154: gamma = 1 - w / z keeps 0.75 where z^2 = -4e308 would overflow
    sp = uniformize(2e154j, bg_for(-1, k0=1e154))
    assert abs(sp.gamma - 0.75) < 1e-15
    assert abs(sp.k - 1.25e154j) < 1e139 and abs(sp.lam - 0.75e154j) < 1e139


def test_uniformize_zero_raises():
    with pytest.raises(ZeroArgument):
        uniformize(0.0, FOC)


def test_classify_examples():
    assert classify_region(2j, FOC) is Region.D_PLUS
    assert classify_region(0.5j, FOC) is Region.D_MINUS
    assert classify_region(1j, FOC) is Region.BRANCH_POINT
    assert classify_region(0.37, FOC) is Region.SIGMA
    assert classify_region(1.0 * np.exp(0.3j), FOC) is Region.SIGMA


def test_theta_zero_arguments():
    for z in (2j, 0.3 + 0.1j, -1.7):
        assert theta(0.0, 0.0, z, FOC) == 0


def test_theta_t0_reduction():
    z = 1.3 + 0.4j
    sp = uniformize(z, FOC)
    assert abs(theta(2.2, 0.0, z, FOC) - (-sp.lam * 2.2)) < 1e-14


def test_theta_hand_value():
    # k = 1.25i, lam = 0.75i at z = 2i; w = 0.1*(4k^2 - 2) + 2k
    val = theta(1.0, 1.0, 2j, FOC)
    expected = 0.75j * (-1.0 - (0.1 * (-8.25) + 2.5j))
    assert abs(val - expected) < 1e-14
    assert abs(expected - (1.875 - 0.13125j)) < 1e-15


annulus = st.builds(
    complex,
    st.floats(min_value=-10, max_value=10),
    st.floats(min_value=-10, max_value=10),
).filter(lambda z: 0.1 <= abs(z) <= 10.0)


@given(annulus, st.sampled_from([-1, 1]))
def test_uniformize_roundtrip(z, sigma):
    bg = FOC if sigma == -1 else DEF
    sp = uniformize(z, bg)
    assert abs(sp.k + sp.lam - z) <= 2e-15 * max(1.0, abs(z))
    resid = sp.lam**2 - sp.k**2 + sigma * bg.k0**2
    assert abs(resid) <= 1e-12 * max(1.0, abs(z) ** 2)
    # two gamma representations agree away from branch points
    if abs(sp.gamma) > 1e-3:
        alt = 2.0 * sp.lam / (sp.lam + sp.k)
        assert abs(sp.gamma - alt) <= 1e-12 * max(1.0, abs(alt))


@given(annulus, st.floats(min_value=-3, max_value=3), st.floats(min_value=-3, max_value=3))
@settings(max_examples=80)
def test_theta_conjugation_symmetry(z, x, t):
    assert abs(theta(x, t, np.conj(z), FOC) - np.conj(theta(x, t, z, FOC))) <= 1e-12 * max(
        1.0, abs(theta(x, t, z, FOC))
    )


def test_im_lambda_positive_in_dplus():
    rng = np.random.default_rng(11)
    count = 0
    while count < 1000:
        z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if abs(z) < 0.05:
            continue
        if classify_region(z, FOC) is Region.D_PLUS:
            assert uniformize(z, FOC).lam.imag > 0
            count += 1


def test_uniformize_gives_a_scalar_the_bits_of_an_array(fig3a_spec):
    # one arithmetic for every z: a scalar is a 0-d array, so it takes numpy's loops, not Python's complex ones
    rng = np.random.default_rng(24)
    zs = rng.normal(scale=2.0, size=2000) + 1j * rng.normal(scale=2.0, size=2000)
    for b in (FOC, DEF, bg_for(1, k0=1.7, alpha=0.3, beta=-0.4), fig3a_spec.bg):
        sp, one = uniformize(zs, b), [uniformize(complex(z), b) for z in zs]
        for name in ("k", "lam", "gamma"):
            np.testing.assert_array_equal([getattr(o, name) for o in one], getattr(sp, name), err_msg=name)
    assert uniformize(2j, FOC).z.shape == ()


def test_region_parity_defocusing():
    rng = np.random.default_rng(5)
    for _ in range(300):
        z = complex(rng.uniform(-4, 4), rng.uniform(0.05, 4))
        if classify_region(z, DEF) is Region.D_PLUS:
            assert classify_region(np.conj(z), DEF) is Region.D_MINUS


def test_background_validation():
    with pytest.raises(ValueError):
        Background(sigma=-1, k0=0.0, alpha=1, beta=0, Qplus=EYE, Qminus=EYE)
    with pytest.raises(ValueError):
        Background(sigma=-1, k0=1.0, alpha=1, beta=0, Qplus=2 * EYE, Qminus=EYE)
    with pytest.raises(ValueError):
        Background(sigma=2, k0=1.0, alpha=1, beta=0, Qplus=EYE, Qminus=EYE)
    asym = np.array([[0, 1], [-1, 0]], dtype=complex)  # unitary but antisymmetric
    with pytest.raises(ValueError):
        Background(sigma=-1, k0=1.0, alpha=1, beta=0, Qplus=asym, Qminus=asym)
    # symmetric matrices that break |q1| = |q-1|, q1 q0* + q0 q-1* = 0 or
    # |q1|^2 + |q0|^2 = k0^2 are caught by the Q Q^dag check
    for bad in ([[1, 0], [0, 1.1]], [[1, 0.1], [0.1, 1]], [[1, 0.1], [0.1, -1]]):
        bad = np.array(bad, dtype=complex)
        with pytest.raises(ValueError, match="Q Q\\^dag"):
            Background(sigma=-1, k0=1.0, alpha=1, beta=0, Qplus=EYE, Qminus=bad)
    # off-diagonal symmetric background is legitimate
    offdiag = np.array([[0, 1], [1, 0]], dtype=complex)
    Background(sigma=-1, k0=1.0, alpha=1, beta=0, Qplus=offdiag, Qminus=offdiag)
    # phase-rotated diagonal background, as produced by left-limit measurement
    ph = np.exp(1.854590436j)
    Background(sigma=-1, k0=1.0, alpha=1, beta=0, Qplus=EYE, Qminus=ph * EYE)


@pytest.mark.parametrize("k0", [1e155, 1e308, 1e-155, 1e-170])
def test_background_rejects_a_k0_whose_square_is_not_a_normal_float(k0):
    # every bound scales with k0^2; 1e308 once raised an untyped OverflowError in the Q Q^dag check
    with pytest.raises(ValueError, match=f"k0 must be .*its square a normal float, not {re.escape(str(k0))}$"):
        Background(sigma=-1, k0=k0, alpha=1.0, beta=0.1, Qplus=k0 * EYE, Qminus=k0 * EYE)
    for edge in (1e154, 2e-154):  # k0^2 normal at both ends of the range, where z of order k0 is no zero
        bg = Background(sigma=-1, k0=edge, alpha=1.0, beta=0.1, Qplus=edge * EYE, Qminus=edge * EYE)
        assert classify_region(1.25j * edge, bg) is Region.D_PLUS
        assert abs(uniformize(1.25j * edge, bg).lam - 0.225j * edge) <= 1e-15 * edge


@pytest.mark.parametrize("name, value", [("k0", np.inf), ("k0", np.nan), ("alpha", np.nan), ("alpha", -np.inf),
                                         ("beta", np.inf), ("beta", np.nan)])
def test_background_rejects_non_finite_constants(name, value):
    # a NaN alpha or beta once masked every grid point, and k0 = inf failed as a seed too close to the real axis
    args = dict(sigma=-1, k0=1.0, alpha=1.0, beta=0.1, Qplus=EYE, Qminus=EYE)
    with pytest.raises(ValueError, match=f"{name} must be .*finite"):
        Background(**{**args, name: value})
