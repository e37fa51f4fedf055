import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hirota_ist.errors import ZeroArgument
from hirota_ist.spectral import Background, Region, classify_region, theta, uniformize
from hirota_ist.traceform import TraceInput, _quadrature

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


def test_region_parity_defocusing():
    rng = np.random.default_rng(5)
    for _ in range(300):
        z = complex(rng.uniform(-4, 4), rng.uniform(0.05, 4))
        if classify_region(z, DEF) is Region.D_PLUS:
            assert classify_region(np.conj(z), DEF) is Region.D_MINUS


def _real_midpoints(n, L):
    """Cell midpoints of [-L, L]; never 0 or +-k0 = +-1 for the sizes used."""
    return -L + (np.arange(n) + 0.5) * (2.0 * L / n)


def test_contour_circle_weights_cancel():
    # constant rho: each circle term is weight * logdet, and the closed
    # trapezoid loop weights i z dphi sum to zero
    rho = np.array([[0.3 + 0.1j, 0.2], [0.2, -0.4j]])
    phis = (np.arange(512) + 0.5) * (2.0 * math.pi / 512)
    nodes = [complex(x) for x in _real_midpoints(32, 5.0)] + [complex(np.exp(1j * p)) for p in phis]
    terms = _quadrature(TraceInput(bg=FOC, rho_samples=tuple((z, rho) for z in nodes)))
    logdet = np.log(np.linalg.det(EYE + rho.conj().T @ rho))
    circle = [wl for z, wl in terms if z.imag != 0]
    assert len(circle) == 512
    assert abs(sum(circle) / logdet) < 1e-8


def test_contour_quadrature_integrates_moments():
    # rho = diag(sqrt(exp(x^2) - 1), 0) makes log det(I + rho^dag rho) = x^2,
    # so the real terms are the oriented trapezoid rule for the moment z^2:
    # outer segments rightward, inner segments (-1, 0) and (0, 1) reversed.
    # On a uniform grid the trapezoid rule for x^2 over [a, b] is exactly
    # (b^3 - a^3)/3 + (b - a) h^2 / 6.
    n, L = 400, 3.0
    hstep = 2.0 * L / n
    xs = _real_midpoints(n, L)
    samples = tuple((complex(x), np.diag([math.sqrt(math.expm1(x * x)), 0.0]).astype(complex)) for x in xs)
    val = sum(wl for _, wl in _quadrature(TraceInput(bg=FOC, rho_samples=samples)))
    expected = 0.0
    for pred, orient in [
        (lambda x: x <= -1, 1.0),
        (lambda x: -1 < x < 0, -1.0),
        (lambda x: 0 < x < 1, -1.0),
        (lambda x: x >= 1, 1.0),
    ]:
        seg = [x for x in xs if pred(x)]
        a, b = min(seg), max(seg)
        expected += orient * ((b**3 - a**3) / 3.0 + (b - a) * hstep**2 / 6.0)
    assert abs(val - expected) < 1e-8
    # int z^2 over [-3,-1]+[1,3] minus over [-1,1]; the node spans stop short
    # of each of the 8 segment ends by at most one cell where z^2 <= L^2
    outer = 2.0 * (27 - 1) / 3.0
    inner = 2.0 / 3.0
    assert abs(val - (outer - inner)) <= 8 * hstep * L**2


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
