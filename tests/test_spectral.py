import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hirota_ist
from hirota_ist.errors import ZeroArgument
from hirota_ist.spectral import Background, Region, antipode, classify_region, theta, uniformize

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
    with pytest.raises(ZeroArgument):
        antipode(np.array([1.0, 0.0]), DEF)


@pytest.mark.parametrize("bg", [FOC, DEF, bg_for(-1, k0=1.7), bg_for(1, k0=0.3)])
def test_uniformize_attaches_the_region_of_each_z(bg):
    # one classify_region pass inside uniformize: the region a SpectralPoint carries is the one classify_region
    # gives, a Region for a scalar and an object array for an array, also within DELTA of a branch point
    rng = np.random.default_rng(5)
    zs = bg.k0 * np.concatenate([rng.normal(size=40) + 1j * rng.normal(size=40), np.exp(1j * rng.uniform(0, 6, 8)),
                                 rng.normal(size=4), np.array(bg.branch_points()) / bg.k0 * (1 + 7e-10)])
    sp = uniformize(zs, bg)
    assert sp.region.shape == zs.shape and list(sp.region) == list(classify_region(zs, bg))
    assert {r.name for r in sp.region} == {"D_PLUS", "D_MINUS", "SIGMA", "BRANCH_POINT"}
    for z in zs:
        assert uniformize(z, bg).region is classify_region(z, bg)


def test_classify_examples():
    assert classify_region(2j, FOC) is Region.D_PLUS
    assert classify_region(0.5j, FOC) is Region.D_MINUS
    assert classify_region(1j, FOC) is Region.BRANCH_POINT
    assert classify_region(0.37, FOC) is Region.SIGMA
    assert classify_region(1.0 * np.exp(0.3j), FOC) is Region.SIGMA


def test_theta_zero_arguments():
    for z in (2j, 0.3 + 0.1j, -1.7):
        assert theta(0.0, 0.0, uniformize(z, FOC), FOC) == 0


def test_theta_t0_reduction():
    z = 1.3 + 0.4j
    sp = uniformize(z, FOC)
    assert abs(theta(2.2, 0.0, sp, FOC) - (-sp.lam * 2.2)) < 1e-14


def test_theta_hand_value():
    # k = 1.25i, lam = 0.75i at z = 2i; w = 0.1*(4k^2 - 2) + 2k
    val = theta(1.0, 1.0, uniformize(2j, FOC), FOC)
    expected = 0.75j * (-1.0 - (0.1 * (-8.25) + 2.5j))
    assert abs(val - expected) < 1e-14
    assert abs(expected - (1.875 - 0.13125j)) < 1e-15


def test_only_spectral_calls_dispersion():
    # the phase theta = lambda (-x - w t) is written once, in spectral: a module that calls dispersion writes it again
    callers = {path.stem for path in Path(hirota_ist.__file__).parent.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "dispersion"}
    assert callers == {"spectral"}


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


@given(annulus, st.sampled_from([FOC, DEF, bg_for(-1, k0=1.7), bg_for(1, k0=0.3)]))
def test_antipode_is_an_involution_that_keeps_k_and_negates_lambda(u, bg):
    # sigma k0^2/z: twice gives z back, and z and its antipode share k and have opposite lambda, each to a few
    # ulps of the larger of |z| and |sigma k0^2/z|, over which k and lambda may cancel
    z = bg.k0 * u
    w = antipode(z, bg)
    ulps = 4 * np.spacing(max(abs(z), abs(w)))
    assert w.shape == () and abs(antipode(w, bg) - z) <= 4 * np.spacing(abs(z))
    sp, sw = uniformize(z, bg), uniformize(w, bg)
    assert abs(sw.k - sp.k) <= ulps and abs(sw.lam + sp.lam) <= ulps


@given(annulus, st.floats(min_value=-3, max_value=3), st.floats(min_value=-3, max_value=3))
@settings(max_examples=80)
def test_theta_conjugation_symmetry(z, x, t):
    th = theta(x, t, uniformize(z, FOC), FOC)
    assert abs(theta(x, t, uniformize(np.conj(z), FOC), FOC) - np.conj(th)) <= 1e-12 * max(1.0, abs(th))


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
