import dataclasses
import functools
import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hirota_ist as h
import hirota_ist.scattering as scattering
from hirota_ist.cli import sigma_sample_points
from hirota_ist.errors import IntegrationFailure, MissingPartner, NoConvergenceWarning
from hirota_ist.matrices import dagger
from hirota_ist.scattering import (
    _BLOCK,
    _GAUSS,
    _RANK,
    L0,
    H,
    R,
    _cells,
    _contour,
    _mesh,
    _moment_zeros,
    _moments,
    _panels,
    _squarings,
    _transfer,
    _z_per_block,
    audit_symmetries,
    det_a,
    find_discrete_spectrum,
    integrate_jost,
    scattering_matrix,
)
from hirota_ist.solitons import DiscreteEigenpair, RankFlag, expand_quartets, min_decay_rate
from hirota_ist.spectral import classify_region, uniformize
from hirota_ist.traceform import TraceInput, trace_det_a
import reference_transfer
from test_solitons import random_seeds, rank1_or_2, scaled_backgrounds

TOL = 1e-10


def test_background_jost_equals_X(background_bg, background_field):
    zs = np.array([0.5, 2.0, 0.4 + 1.3j])
    mus_l = integrate_jost(background_field, zs, "left", TOL, background_bg)
    mus_r = integrate_jost(background_field, zs, "right", TOL, background_bg)
    for z, mu_l, mu_r in zip(zs, mus_l, mus_r):
        sp = uniformize(complex(z), background_bg)
        X = h.asymptotic_eigenvectors(sp, background_bg.Qplus, background_bg)
        cols = slice(None) if abs(np.imag(z)) < 1e-12 else slice(0, 2)
        assert np.max(np.abs(mu_l[:, cols] - X[:, cols])) < 1e-8
        cols = slice(None) if abs(np.imag(z)) < 1e-12 else slice(2, 4)
        assert np.max(np.abs(mu_r[:, cols] - X[:, cols])) < 1e-8


def test_background_scattering_is_identity(background_bg, background_field):
    s = scattering_matrix(background_field, 0.7, TOL, background_bg)
    assert np.max(np.abs(s.S - np.eye(4))) < 1e-8
    assert abs(det_a(background_field, 2.5j, TOL, background_bg) - 1.0) < 1e-8


def test_integrate_jost_rejects_branch_point(background_bg, background_field):
    from hirota_ist.errors import BranchPointSingular

    with pytest.raises(BranchPointSingular):
        integrate_jost(background_field, 1j, "left", TOL, background_bg)


def test_jost_det_conservation(fig3a_field, fig3a_spec):
    z = 0.5
    sp = uniformize(z, fig3a_spec.bg)
    mu = integrate_jost(fig3a_field, z, "left", TOL, fig3a_spec.bg)
    assert abs(np.linalg.det(mu) - sp.gamma**2) <= 1e-9 * abs(sp.gamma**2)
    assert np.linalg.cond(mu) < 1e6


def test_soliton_scattering_reflectionless(fig3a_field, fig3a_spec):
    s = scattering_matrix(fig3a_field, 0.5, TOL, fig3a_spec.bg)
    assert np.max(np.abs(s.rho)) <= 1e-4
    assert abs(np.linalg.det(s.S) - 1.0) <= 1e-8


def test_scattering_time_invariance(fig3a_spec, fig3a_field):
    field_t = functools.partial(h.reconstruct_Q, spec=fig3a_spec)
    zs = [0.5, -1.7]
    at0 = scattering_matrix(fig3a_field, zs, TOL, fig3a_spec.bg, t0=0.0)
    at1 = scattering_matrix(field_t, zs, TOL, fig3a_spec.bg, t0=0.5)
    for s0, s1 in zip(at0, at1):
        assert np.max(np.abs(s0.S - s1.S)) <= 1e-6


def test_det_a_trace_value(fig3a_field, fig3a_spec):
    da = det_a(fig3a_field, 3j, TOL, fig3a_spec.bg)
    assert abs(da - 0.28) <= 1e-3


def test_det_a_large_z_normalization(fig3a_field, fig3a_spec):
    # det a -> 1 like O(1/z); the 1/z coefficient for this spectrum is
    # |z1* - z1 + k0^2(1/z1 - 1/z1*)| = 5, so expect |det a - 1| ~ 5/|z|
    da50, da20 = det_a(fig3a_field, np.array([50j, 20j]), TOL, fig3a_spec.bg)
    assert abs(da50 - 1.0) <= 6.0 / 50.0
    assert abs(da50 - 1.0) < abs(da20 - 1.0)
    # and the value itself agrees with the product form to 1e-3
    z1 = 2j
    tr = ((50j - z1) * (50j + 1 / np.conj(z1))) / ((50j - np.conj(z1)) * (50j + 1 / z1))
    assert abs(da50 - tr) <= 1e-3


def test_det_a_requires_dplus(fig3a_field, fig3a_spec):
    with pytest.raises(ValueError):
        det_a(fig3a_field, 0.5, TOL, fig3a_spec.bg)

    def unreachable(x, t):
        raise AssertionError("the mesh was built before the region check")

    with pytest.raises(ValueError):
        det_a(unreachable, np.array([2.5j, 0.5]), TOL, fig3a_spec.bg)


def test_det_a_ignores_the_backgrounds_Qminus(fig3a_field, fig3a_spec):
    # the left limit is the field's own sample at -2L, whatever Qminus holds
    zs = np.array([3j, 1.2 + 1.9j])
    other = dataclasses.replace(fig3a_spec.bg, Qminus=1j * np.eye(2))
    np.testing.assert_array_equal(
        det_a(fig3a_field, zs, 1e-8, other), det_a(fig3a_field, zs, 1e-8, fig3a_spec.bg)
    )


def test_fig6_reflectionless_on_its_own_background(fig6_spec):
    # fig6's left limit is not Qplus; read from bg.Qminus = Qplus it gave max |rho| = 0.83
    field = functools.partial(h.reconstruct_Q, spec=fig6_spec)
    s = scattering_matrix(field, 0.5, 1e-8, fig6_spec.bg)
    assert np.max(np.abs(s.rho)) <= 1e-4


def test_det_a_analytic(fig3a_field, fig3a_spec):
    # Cauchy-Riemann: the d/dzbar stencil (d_x + i d_y)/2 vanishes for an
    # analytic function
    z0, hs = 1.2 + 1.9j, 1e-3
    f = det_a(fig3a_field, z0 + np.array([hs, -hs, 1j * hs, -1j * hs]), TOL, fig3a_spec.bg)
    dre = (f[0] - f[1]) / (2 * hs)
    dim = (f[2] - f[3]) / (2 * hs)
    assert abs(dre + 1j * dim) / 2 <= 1e-5


def test_wkb_tail_of_modified_eigenfunction(fig3a_field, fig3a_spec):
    z = 8j
    mu = integrate_jost(fig3a_field, z, "left", TOL, fig3a_spec.bg)
    Q0 = fig3a_field(0.0, 0.0)
    expected_dn = (1j * fig3a_spec.bg.sigma / z) * dagger(Q0)
    assert np.max(np.abs(mu[2:, :2] - expected_dn)) <= 2.0 / abs(z) ** 2


def test_audit_background_zero(background_bg, background_field):
    samples = scattering_matrix(background_field, [0.5, -2.0, -0.5, 2.0], TOL, background_bg)
    rep = audit_symmetries(samples, background_bg)
    assert rep.max_deviation() < 1e-8


def test_audit_soliton_small(fig3a_field, fig3a_spec):
    zs = [0.45, -1 / 0.45, -0.45, 1 / 0.45]
    for phi in (math.pi / 4, -math.pi / 4, 3 * math.pi / 4, -3 * math.pi / 4):
        zs.append(np.exp(1j * phi))
    samples = scattering_matrix(fig3a_field, zs, TOL, fig3a_spec.bg)
    rep = audit_symmetries(samples, fig3a_spec.bg)
    assert rep.max_deviation() <= 1e-6


def test_audit_flags_corruption(background_bg, background_field):
    samples = scattering_matrix(background_field, [0.5, -2.0, -0.5, 2.0], TOL, background_bg)
    s = samples[0]
    bad_b = s.b + 0.1
    samples[0] = dataclasses.replace(s, b=bad_b, rho=bad_b @ np.linalg.inv(s.a))
    rep = audit_symmetries(samples, background_bg)
    assert rep.max_deviation() > 1e-2
    assert rep.antipode_identity > 1e-2  # samples[0] is the antipode partner of z = -2


def test_audit_missing_partner(background_bg, background_field):
    samples = [scattering_matrix(background_field, 0.5, TOL, background_bg)]
    with pytest.raises(MissingPartner):
        audit_symmetries(samples, background_bg)


def test_first_symmetry_scales_with_tolerance(fig3a_field, fig3a_spec):
    # Each cell exponential is exp of an element of the Lie algebra that
    # S^dag J S = J expresses, so the identity holds to rounding at every
    # tolerance; what tol sets is the distance to the exact det a.
    J = np.eye(4)  # diag(1, 1, -sigma, -sigma) in the focusing case
    for tol in (1e-6, 1e-10):
        s = scattering_matrix(fig3a_field, 0.5, tol, fig3a_spec.bg)
        assert np.max(np.abs(dagger(s.S) @ J @ s.S - J)) <= 1e-12

    inp = TraceInput(bg=fig3a_spec.bg, simple_zeros=(2j,))
    zs = np.array([3j, 1.2 + 1.9j, -0.8 + 2.6j])

    def err(tol):
        return np.max(np.abs(det_a(fig3a_field, zs, tol, fig3a_spec.bg) - [trace_det_a(z, inp) for z in zs]))

    assert 10.0 <= err(1e-6) / err(1e-8) <= 1000.0


def test_find_spectrum_background_empty(background_bg, background_field):
    found = find_discrete_spectrum(background_field, (-0.8, 0.8, 1.4, 2.6), 1e-8, background_bg)
    assert found == []


def test_find_spectrum_roundtrip_fig3a(fig3a_field, fig3a_spec):
    found = find_discrete_spectrum(fig3a_field, (-1.0, 1.0, 1.3, 2.8), 1e-8, fig3a_spec.bg)
    assert len(found) == 1
    assert abs(found[0] - 2j) <= 1e-4


@pytest.mark.parametrize("box", [(-1.0, 1.0, 2.0, 2.8), (0.0, 1.0, 1.3, 2.8)])
def test_zero_on_contour_moves_and_warns(fig3a_field, fig3a_spec, box, caplog):
    # an edge of each box passes through the zero 2i
    with pytest.warns(NoConvergenceWarning), caplog.at_level(logging.DEBUG, logger="hirota_ist.scattering"):
        found = find_discrete_spectrum(fig3a_field, box, 1e-4, fig3a_spec.bg)
    assert len(found) == 1
    assert abs(found[0] - 2j) <= 1e-6
    assert sum("Jost mesh" in r.getMessage() for r in caplog.records) == 1  # moved contours share one mesh


def test_zero_on_contour_warns_where_the_box_cannot_grow(fig3a_field, fig3a_spec):
    # 2i is on the bottom edge, and growing the box by two panels (1.06) would cross |z| = 1
    with pytest.warns(NoConvergenceWarning, match="cannot move on"):
        find_discrete_spectrum(fig3a_field, (-4.0, 4.0, 2.0, 3.5), 1e-4, fig3a_spec.bg)


def test_winding_counts_double_zero(fig3a_spec):
    # rank-2 norming constant at the same eigenvalue: det a has a double zero
    seed = DiscreteEigenpair(2j, np.array([[1, 1], [1, 2]], dtype=complex))
    spec = expand_quartets([seed], fig3a_spec.bg)
    field = functools.partial(h.reconstruct_Q, spec=spec)
    bg = spec.bg
    corners = [1.7j - 0.3, 1.7j + 0.3, 2.3j + 0.3, 2.3j - 0.3, 1.7j - 0.3]
    zs = np.concatenate([a + (b - a) * np.arange(16) / 16 for a, b in zip(corners, corners[1:])])
    phase = np.unwrap(np.angle(h.det_a(field, np.append(zs, zs[0]), 1e-8, bg)))
    w = (phase[-1] - phase[0]) / (2.0 * math.pi)
    assert abs(w - 2.0) < 0.2
    found = find_discrete_spectrum(field, (-0.3, 0.3, 1.7, 2.3), 1e-8, bg)
    assert len(found) == 1 and abs(found[0] - 2j) <= 1e-3


def test_find_spectrum_double_zero_fig6(fig6_spec):
    # fig6's 1 + 2i is a double zero of det a; the search box is the CLI roundtrip's
    field = functools.partial(h.reconstruct_Q, spec=fig6_spec)
    found = find_discrete_spectrum(field, (-3.07, 3.05, 1.085, 3.21), 1e-8, fig6_spec.bg)
    assert len(found) == 1
    assert abs(found[0] - (1 + 2j)) <= 1e-6


def test_two_eigenvalue_recovery(fig3a_spec):
    seeds = [
        DiscreteEigenpair(2j, np.ones((2, 2), dtype=complex)),
        DiscreteEigenpair(1 + 2j, np.array([[1, 0.5], [0.5, 1]], dtype=complex)),
    ]
    spec = expand_quartets(seeds, fig3a_spec.bg)
    field = functools.partial(h.reconstruct_Q, spec=spec)
    bg = spec.bg
    found = find_discrete_spectrum(field, (-3.07, 3.05, 1.085, 3.21), 1e-8, bg)
    assert len(found) == 2
    for z in (2j, 1 + 2j):
        assert min(abs(f - z) for f in found) <= 1e-3


# max |det_a - trace_det_a| at tol 1e-8 over the points of _dplus_points
# with the RK45 integrator on a cubic-spline field that this propagator
# replaced (field sampled at t = 0, L = 20, Q- measured at x = -40)
RK45_DET_A_ERROR = {
    "fig3a": 2.275e-09, "fig3d": 2.275e-09, "fig4": 4.107e-09, "fig6": 4.610e-09, "fig7": 6.881e-09,
    "fig8": 1.287e-08, "fig9": 2.730e-09, "fig10a": 2.946e-09, "fig10d": 2.946e-09,
}


def _dplus_points(zeta, n=6):
    rng = np.random.default_rng(0)
    out = []
    while len(out) < n:
        z = complex(rng.uniform(-2.5, 2.5), rng.uniform(0.4, 3.0))
        if abs(z) >= 1.2 and abs(z - zeta) >= 0.25 and abs(z + np.conj(zeta)) >= 0.25:
            out.append(z)
    return out


def _det_a_error(seed, bg, zs=None):
    """max |det_a - trace_det_a| at tol 1e-8 over zs, by default _dplus_points (field at t = 0)."""
    spec = expand_quartets([seed], bg)
    rank2 = seed.rank_flag is RankFlag.RANK2
    inp = TraceInput(bg=bg, simple_zeros=() if rank2 else (seed.zn,), double_zeros=(seed.zn,) if rank2 else ())
    zs = _dplus_points(seed.zn) if zs is None else zs
    got = det_a(functools.partial(h.reconstruct_Q, spec=spec), np.array(zs), 1e-8, bg)
    return max(abs(g - trace_det_a(z, inp)) for g, z in zip(got, zs))


@pytest.mark.parametrize("name", sorted(RK45_DET_A_ERROR))
def test_det_a_no_worse_than_rk45(name):
    p = h.preset(name)
    assert min_decay_rate(p.spec()) >= 0.75
    assert _det_a_error(p.seeds[0], p.bg) <= RK45_DET_A_ERROR[name]


# _det_a_error on the graded mesh of the 2-node, 4th-order Magnus step that the
# 6th-order step replaced (h0 = 0.005 (tol/1e-8)^(1/4), L = 20)
MAGNUS4_DET_A_ERROR = {
    "fig3a": 2.010e-11, "fig3d": 2.010e-11, "fig4": 3.445e-11, "fig6": 2.105e-10, "fig7": 1.694e-10,
    "fig8": 1.506e-09, "fig9": 4.894e-11, "fig10a": 2.024e-11, "fig10d": 2.024e-11,
}


@pytest.mark.parametrize("name", sorted(MAGNUS4_DET_A_ERROR))
def test_det_a_no_worse_than_the_4th_order_step(name):
    p = h.preset(name)
    assert _det_a_error(p.seeds[0], p.bg) <= MAGNUS4_DET_A_ERROR[name]


def test_magnus_step_is_6th_order(fig3a_field, fig3a_spec):
    # one side's transfer over uniform cells on [-3, 3] against 2048 cells; 4th order would cut 16x a halving
    bg = fig3a_spec.bg

    def transfer(n):
        h = 6.0 / n
        Q = fig3a_field((-3.0 + h * (np.arange(n)[:, None] + _GAUSS)).ravel(), 0.0).reshape(n, 3, 2, 2)
        return _transfer(_cells(Q, bg.sigma, np.full(n, h), bg.Qplus), np.array([0.7 + 0.3j]), np.array([0.2j]))[0]

    ref = transfer(2048)
    err = [np.abs(transfer(n) - ref).max() for n in (32, 64, 128)]
    assert err[0] / err[1] >= 2**5.5 and err[1] / err[2] >= 2**5.5, err


# seeds off the presets on fig3a's background: zeta, C, and twice the error of
# _det_a_error on the uniform mesh of 4th-order cells of 0.005 that the graded
# mesh replaced (2.038e-9, 9.560e-10, 1.573e-10 and 1.213e-6 at a fixed
# truncation L = 20).  The first, second and last are truncation errors; the
# 6th-order step with a truncation read from the field (edges within tol/10
# of the limits) brings them to about 2e-13, 8e-12 and 6e-13, so they are
# bounded by 1e-10.
_U = np.array([1.0, 0.5j])
OFF_PRESET_DET_A_ERROR = {
    "rank2_near_circle": (1.3j, [[1, 0.3], [0.3, 1]], 1e-10),
    "rank1": (0.5 + 1.6j, np.outer(_U, _U), 1e-10),
    "rank2_off_axis": (0.8 + 1.7j, [[1, 0.5], [0.5, 2]], 3.146e-10),
    "near_rank_deficient": (1.5j, [[1, 1], [1, 1.0001]], 1e-10),
}


@pytest.mark.parametrize("name", sorted(OFF_PRESET_DET_A_ERROR))
def test_det_a_matches_trace_formula_off_the_presets(name, fig3a):
    zeta, C, bound = OFF_PRESET_DET_A_ERROR[name]
    seed = DiscreteEigenpair(zeta, np.array(C, dtype=complex))
    assert (seed.rank_flag is RankFlag.RANK1) == (name == "rank1")
    assert _det_a_error(seed, fig3a.bg) <= bound


@pytest.mark.parametrize("k0", [1.0, 1.5, 2.0])
def test_det_a_error_does_not_grow_with_k0(k0):
    # the mesh scales its cells by 1/k0, as the field and k(z) vary on that
    # scale; with cells sized in x alone this read 2.0e-12, 2.2e-11 and 1.2e-10
    Qp = k0 * np.eye(2, dtype=complex)
    bg = h.Background(sigma=-1, k0=k0, alpha=1.0, beta=0.1, Qplus=Qp, Qminus=Qp)
    seed = DiscreteEigenpair(2j * k0, np.ones((2, 2), dtype=complex))
    assert _det_a_error(seed, bg, [k0 * z for z in _dplus_points(2j)]) <= 4e-12


# Hypothesis legs: random seeds off the presets -------------------------------

def _decays(quartet):
    # slower seeds, such as 1.1 + 0.3i, raise NoBackground at L_MAX by design;
    # L_MAX is a length, so the rate has a floor: at k0 = 0.5 a rate of 0.4 k0
    # left the field 1.2e-9 off its limit at x = -80, above tol/10
    seed, bg = quartet
    return min_decay_rate(expand_quartets([seed], bg)) >= 0.4 * max(1.0, bg.k0)


@st.composite
def seeds_and_dplus_points(draw):
    """(seed, bg, zs): four points k0 (u + iv), u in [-2.5, 2.5], v in [0.4, 3],
    kept off the circle and the seed as in _dplus_points, scaled by k0."""
    seed, bg = draw(random_seeds(scaled_backgrounds, st.floats(min_value=1.05, max_value=3.0), rank1_or_2)
                    .filter(_decays))
    k0, zeta = bg.k0, seed.zn
    point = st.builds(complex, st.floats(min_value=-2.5, max_value=2.5), st.floats(min_value=0.4, max_value=3.0))
    point = point.map(lambda w: k0 * w).filter(
        lambda z: abs(z) >= 1.2 * k0 and abs(z - zeta) >= 0.25 * k0 and abs(z + np.conj(zeta)) >= 0.25 * k0)
    return seed, bg, [draw(point) for _ in range(4)]


@given(seeds_and_dplus_points())
@settings(deadline=None, max_examples=30)
@pytest.mark.filterwarnings("error::hirota_ist.errors.NoConvergenceWarning")
def test_det_a_matches_trace_formula_on_random_seeds(case):
    seed, bg, zs = case
    assert _det_a_error(seed, bg, zs) <= 5e-8


@given(random_seeds(scaled_backgrounds, st.floats(min_value=1.05, max_value=3.0), rank1_or_2).filter(_decays))
@settings(deadline=None, max_examples=10)
@pytest.mark.filterwarnings("error::hirota_ist.errors.NoConvergenceWarning")
def test_symmetry_audit_holds_on_random_seeds(quartet):
    # over 300 examples at t0 = 0 the audit read at most 1.2e-13 (median 1.9e-14); the bound leaves 8x
    seed, bg = quartet
    field = functools.partial(h.reconstruct_Q, spec=expand_quartets([seed], bg))
    samples = scattering_matrix(field, sigma_sample_points(bg.k0, 2, 1), 1e-10, bg)
    assert audit_symmetries(samples, bg).max_deviation() <= 1e-12


CLI_BOX = (-3.07, 3.05, 1.085, 3.21)  # the search box of `hirota-ist roundtrip`, in units of k0


def _inside_cli_box(quartet):
    # at least 0.25 k0 inside every edge, farther than half a panel (0.23 k0), so the contour never moves
    seed, bg = quartet
    x0, x1, y0, y1 = (bg.k0 * e for e in CLI_BOX)
    m = 0.25 * bg.k0
    return x0 + m <= seed.zn.real <= x1 - m and y0 + m <= seed.zn.imag <= y1 - m


@given(random_seeds(scaled_backgrounds, st.floats(min_value=1.3, max_value=3.0), rank1_or_2)
       .filter(_inside_cli_box).filter(_decays))
@settings(deadline=None, max_examples=6)
@pytest.mark.filterwarnings("error::hirota_ist.errors.NoConvergenceWarning")
def test_find_spectrum_recovers_random_seeds(quartet):
    seed, bg = quartet
    field = functools.partial(h.reconstruct_Q, spec=expand_quartets([seed], bg))
    found = find_discrete_spectrum(field, tuple(bg.k0 * e for e in CLI_BOX), 1e-8, bg)
    assert len(found) == 1
    assert abs(found[0] - seed.zn) <= 1e-6 * bg.k0



@pytest.mark.filterwarnings("error::hirota_ist.errors.NoConvergenceWarning")
def test_zero_beside_resolved_panels_is_not_near_the_contour(fig3a_spec):
    # 0.046 above the CLI box's bottom edge, which cannot move down without leaving D+; the panels beside
    # the zero meet their target, so the zero is resolved where it is, with no warning
    seed = DiscreteEigenpair(0.3 + 1.131j, np.ones((2, 2), dtype=complex))
    field = functools.partial(h.reconstruct_Q, spec=expand_quartets([seed], fig3a_spec.bg))
    found = find_discrete_spectrum(field, CLI_BOX, 1e-4, fig3a_spec.bg)
    assert len(found) == 1 and abs(found[0] - seed.zn) <= 1e-9

def test_background_field_gets_only_the_longest_cells(background_bg, caplog):
    Qp = background_bg.Qplus

    def field(x, t):
        return np.broadcast_to(Qp, np.broadcast_shapes(np.shape(x), np.shape(t)) + (2, 2))

    with caplog.at_level(logging.DEBUG, logger="hirota_ist.scattering"):
        assert abs(det_a(field, 2.5j, 1e-8, background_bg) - 1.0) < 1e-8
        for cells in _mesh(field, 1e-8, 0.0, background_bg):
            assert len(cells.h) <= math.ceil(L0 / (R * H))
            assert np.all(cells.h == cells.h.max())
    assert sum("Jost mesh" in r.getMessage() for r in caplog.records) == 2  # one line per mesh built


def test_truncation_stops_at_its_cap_and_warns(background_bg, caplog):
    # Q = e^{i 1e-3/(1 + x^2)} Q+ sits on the background everywhere but is 1.6e-7 off Q+ at x = 80
    Qp = background_bg.Qplus

    def field(x, t):
        return np.exp(1j * 1e-3 / (1.0 + np.asarray(x) ** 2))[..., None, None] * Qp

    with pytest.warns(NoConvergenceWarning, match="L = 80"), caplog.at_level(logging.DEBUG, "hirota_ist.scattering"):
        da = det_a(field, 2.5j, 1e-8, background_bg)
    assert np.isfinite(da)
    assert [r.getMessage().startswith("Jost mesh L=80 ") for r in caplog.records] == [True]


def test_batched_z_gives_the_same_bits(fig3a_field, fig3a_spec):
    bg = fig3a_spec.bg
    zs = np.array([3j, 1.2 + 1.9j, -0.8 + 2.6j, 3j])
    batch = det_a(fig3a_field, zs, 1e-8, bg)
    assert batch.shape == (4,)
    np.testing.assert_array_equal(batch, [det_a(fig3a_field, z, 1e-8, bg) for z in zs])
    zs = np.array([0.5, -1.7, np.exp(0.25j * math.pi)])
    samples = scattering_matrix(fig3a_field, zs, 1e-8, bg)
    assert [s.z for s in samples] == list(zs)
    for s, z in zip(samples, zs):
        one = scattering_matrix(fig3a_field, z, 1e-8, bg)
        for name in ("S", "a", "b", "abar", "bbar", "rho", "rhobar"):
            np.testing.assert_array_equal(getattr(s, name), getattr(one, name), err_msg=name)
    np.testing.assert_array_equal(
        integrate_jost(fig3a_field, zs, "right", 1e-8, bg)[1],
        integrate_jost(fig3a_field, zs[1], "right", 1e-8, bg),
    )


def test_mixed_region_batch_gives_the_same_bits(fig3a_field, fig3a_spec):
    # each z picks its own analytic pair and shift sign, so one array may mix the regions
    bg = fig3a_spec.bg
    zs = np.array([1.5 + 1j, 1.5 - 1j, 0.5, -0.3 + 0.6j, 2.5j])
    assert [classify_region(z, bg).value for z in zs] == ["D+", "D-", "Sigma", "D-", "D+"]
    for side in ("left", "right"):
        np.testing.assert_array_equal(integrate_jost(fig3a_field, zs, side, 1e-8, bg),
                                      [integrate_jost(fig3a_field, z, side, 1e-8, bg) for z in zs], err_msg=side)



@pytest.mark.parametrize("name, tol, t0", [("fig3a", 1e-4, 0.0), ("fig6", 1e-10, 0.0), ("fig6", 1e-10, 12.0)])
def test_transfer_matches_the_reference_bit_for_bit(name, tol, t0):
    # fig3a: the CLI box's nodes over 59-75 cells a side (up to 7 squarings, a partial last block of z);
    # fig6: the 48 samples of `scatter --n-real-orbits 8 --n-circle-orbits 4`, and at t0 = 12 a left side
    # of more than _BLOCK cells, which goes _BLOCK cells of one z at a time
    spec = h.preset(name).spec()
    bg = spec.bg
    if name == "fig3a":
        start, extent, n = _panels(CLI_BOX)
        nodes = _contour(start, extent, 3 * n)
        zs = np.append(nodes, nodes[0])
    else:
        zs = np.array(sigma_sample_points(bg.k0, 8, 4))
    sp = uniformize(zs, bg)
    w = 1j * sp.lam * np.where(sp.lam.imag >= 0, 1.0, -1.0)
    mesh = _mesh(functools.partial(h.reconstruct_Q, spec=spec), tol, t0, bg)
    for cells in mesh:
        P = _transfer(cells, sp.k, w)
        assert np.array_equal(P.view(np.uint64), reference_transfer.transfer(cells, sp.k, w).view(np.uint64))
    squarings = np.concatenate([_squarings(c, sp.k).ravel() for c in mesh])
    if name == "fig3a":
        assert squarings.max() == 7 and all(len(zs) % _z_per_block(len(c.h)) for c in mesh)
    else:
        assert (max(len(c.h) for c in mesh) > _BLOCK) == (t0 > 0) and squarings.max() >= 3

def _search(field, box, tol, bg, monkeypatch, caplog):
    """The zeros found, every z passed to _det_a in the search, and the search's DEBUG record."""
    evaluated, det_a_of_mesh = [], scattering._det_a

    def recording(mesh, sp, bg):
        evaluated.append(sp.z)
        return det_a_of_mesh(mesh, sp, bg)

    monkeypatch.setattr(scattering, "_det_a", recording)
    with caplog.at_level(logging.DEBUG, logger="hirota_ist.scattering"):
        found = find_discrete_spectrum(field, box, tol, bg)
    monkeypatch.setattr(scattering, "_det_a", det_a_of_mesh)
    record = [r.getMessage() for r in caplog.records if r.getMessage().startswith("find_discrete_spectrum: ")]
    caplog.clear()
    return found, np.concatenate(evaluated), record[-1]


def test_z_sharing_blocks_get_the_same_bits(fig3a_field, fig3a_spec, caplog, monkeypatch):
    # at tol 1e-4 each side has 59-75 cells, so several z share a block; 12 panels of 24 intervals give
    # 288 nodes, and the first again (289 z) span many blocks and end in a partial one
    bg, tol = fig3a_spec.bg, 1e-4
    start, extent, n = _panels(CLI_BOX)
    nodes = _contour(start, extent, 3 * n)
    zs = np.append(nodes, nodes[0])
    mesh = _mesh(fig3a_field, tol, 0.0, bg)
    cells = [len(c.h) for c in mesh]
    per = [_z_per_block(n) for n in cells]
    assert len(zs) >= 289 and min(per) > 1 and all(len(zs) % p for p in per)
    some = np.r_[0:len(zs):7, len(zs) - 1]  # every position in a block of 6 or 8, and the partial block
    batch = det_a(fig3a_field, zs, tol, bg)
    np.testing.assert_array_equal(batch[some], [det_a(fig3a_field, z, tol, bg) for z in zs[some]])
    assert batch[-1] == batch[0]
    few = np.r_[0:len(zs):29, len(zs) - 1]
    mu = integrate_jost(fig3a_field, zs, "left", tol, bg)
    np.testing.assert_array_equal(mu[few], [integrate_jost(fig3a_field, z, "left", tol, bg) for z in zs[few]])
    samples = scattering_matrix(fig3a_field, zs, tol, bg)
    for i in few:
        np.testing.assert_array_equal(samples[i].S, scattering_matrix(fig3a_field, zs[i], tol, bg).S)
    # the search's rounds share blocks too, and its zeros have the same bits with every z propagated alone
    found, evaluated, record = _search(fig3a_field, CLI_BOX, tol, bg, monkeypatch, caplog)
    new = [int(k) for k in re.findall(r"\((\d+) new z\)", record)]
    blocks = sum(math.ceil(k / p) for k in new for p in per)
    squarings = [_squarings(c, uniformize(evaluated, bg).k) for c in mesh]
    assert (f"cells {cells[0]} left {cells[1]} right x {sum(new)} z propagated in {blocks} blocks with "
            f"{sum(map(np.sum, squarings))} squarings, at most {max(map(np.max, squarings))} a cell") in record
    monkeypatch.setattr(scattering, "_z_per_block", lambda n: 1)
    alone, _, record = _search(fig3a_field, CLI_BOX, tol, bg, monkeypatch, caplog)
    assert f"x {sum(new)} z propagated in {2 * sum(new)} blocks" in record and max(cells) <= _BLOCK
    assert len(found) == 1 and found == alone


# located-zero error on the CLI box at find-tol 1e-4 and 1e-8 with the composite Gauss-Legendre
# contour of 288 nodes that the refined Clenshaw-Curtis contour replaced; det a's own error limits both
GAUSS_LEGENDRE_ZERO_ERROR = {
    "fig3a": (5.4e-9, 5.6e-13), "fig6": (2.1e-6, 1.0e-10), "fig8": (7.2e-6, 7.0e-10), "fig10d": (5.4e-9, 5.4e-13),
}


@pytest.mark.parametrize("name", sorted(GAUSS_LEGENDRE_ZERO_ERROR))
def test_refined_contour_is_as_accurate_and_evaluates_each_node_once(name, monkeypatch, caplog):
    p = h.preset(name)
    spec = p.spec()
    field = functools.partial(h.reconstruct_Q, spec=spec)
    box = tuple(spec.bg.k0 * e for e in CLI_BOX)
    for tol, bound, most in zip((1e-4, 1e-8), GAUSS_LEGENDRE_ZERO_ERROR[name], (160 if name == "fig3a" else 288, 288)):
        found, zs, record = _search(field, box, tol, spec.bg, monkeypatch, caplog)
        assert len(found) == 1
        assert abs(found[0] - p.seeds[0].zn) <= 2.0 * bound, tol
        nodes = int(re.match(r"find_discrete_spectrum: (\d+) nodes, rounds \[", record).group(1))
        assert len(np.unique(zs)) == len(zs) == nodes <= most, tol  # every final node, each once


def test_noise_eigenvalues_of_the_pencil_are_dropped():
    # a double zero at 2i with 1e-7 relative noise: the Hankel matrix's second singular value passes the
    # rank cut, and the pencil's second eigenvalue is noise outside the box, of multiplicity 0
    start, extent, n = _panels(CLI_BOX)
    z = _contour(start, extent, n)
    rng = np.random.default_rng(0)
    a = (z - 2j) ** 2 * (1.0 + 1e-7 * (rng.standard_normal(len(z)) + 1j * rng.standard_normal(len(z))))
    s, _ = _moments(z, a, np.angle(np.roll(a, -1) / a), CLI_BOX, 2, extent, n)
    with pytest.warns(NoConvergenceWarning, match="dropped as noise"):
        roots, mult, sv = _moment_zeros(s, CLI_BOX)
    assert sv[1] > _RANK * sv[0]
    assert len(roots) == 1 and abs(roots[0] - 2j) <= 1e-6 and round(mult[0].real) == 2


def test_non_finite_field_or_propagator_raises(background_bg, background_field):
    def nan_field(x, t):
        Q = np.array(background_field(x, t))
        Q[np.argmin(np.abs(x - 3.3))] = np.nan
        return Q

    with pytest.raises(IntegrationFailure):
        det_a(nan_field, 2.5j, 1e-8, background_bg)
    with pytest.raises(IntegrationFailure):
        scattering_matrix(nan_field, 0.7, 1e-8, background_bg)
    # at z = 50i the non-analytic columns grow like e^{2 |Im lambda| L} = e^{1000}
    assert abs(det_a(background_field, 50j, 1e-8, background_bg) - 1.0) < 1e-8
    with pytest.raises(IntegrationFailure), np.errstate(over="ignore", invalid="ignore"):
        integrate_jost(background_field, 50j, "left", 1e-8, background_bg)
