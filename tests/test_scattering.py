import ast
import dataclasses
import functools
import logging
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import hirota_ist as h
import hirota_ist.scattering as scattering
from hirota_ist.cli import sigma_sample_points
from hirota_ist.errors import (BranchPointSingular, IntegrationFailure, MissingPartner, NoConvergenceWarning,
                               SingularWronskian)
from hirota_ist.matrices import SIGMA2, SIGMA3, dagger
from hirota_ist.scattering import (
    _BLOCK,
    _GAUSS,
    _RANK,
    L0,
    H,
    R,
    _cells,
    _contour,
    _expm1,
    _mesh,
    _mm,
    _moment_zeros,
    _moments,
    _panels,
    _stack,
    _transfer,
    SymmetryAuditReport,
    audit_symmetries,
    det_a,
    find_discrete_spectrum,
    integrate_jost,
    scattering_matrix,
)
from hirota_ist.solitons import DiscreteEigenpair, RankFlag, expand_quartets, min_decay_rate
from hirota_ist.spectral import DELTA, Region, classify_region, shift_sign, uniformize
from hirota_ist.traceform import TraceInput, trace_det_a
import reference_transfer
from test_solitons import _symmetric_unitary, angle, backgrounds, random_seeds, rank1_or_2, scaled_backgrounds
from test_spectral import bg_for

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
    assert np.max(np.abs(at0.S - at1.S)) <= 1e-6


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


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-8])
def test_mesh_rejects_a_tolerance_that_is_not_positive_and_finite(fig3a_field, fig3a_spec, tol):
    # tol = inf once made no probe cells and divided by their count
    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        det_a(fig3a_field, 2.5j, tol, fig3a_spec.bg)


@pytest.mark.parametrize("t0", [math.nan, math.inf, -math.inf])
def test_mesh_rejects_a_t0_that_is_not_finite(fig3a_field, fig3a_spec, t0):
    # t0 = nan once failed as an ill-conditioned system at (x, t) = (-40, nan)
    with pytest.raises(ValueError, match="t0 must be finite"):
        det_a(fig3a_field, 2.5j, 1e-8, fig3a_spec.bg, t0=t0)


@pytest.mark.parametrize("tol, k0", [(1e-40, 1.0), (1e-8, 1e4)], ids=["tol-1e-40", "k0-1e4"])
def test_mesh_refuses_more_probe_cells_than_its_bound(background_bg, tol, k0):
    # tol 1e-40 once died in numpy's allocator (1.07 GiB for 17953625 probes); the bound is checked before the
    # field is sampled at all.  Cells and L are in units of 1/k0, so k0 = 1e4, once refused, gets k0 = 1's cells
    bg = dataclasses.replace(background_bg, k0=k0, Qplus=k0 * np.eye(2), Qminus=k0 * np.eye(2))

    def unreachable(x, t):
        raise AssertionError("the field was sampled before the bound was checked")

    if k0 == 1.0:
        with pytest.raises(ValueError, match=rf"tol {tol:g} and k0 1 ask for .* probe cells a side at L = 20, "
                                             rf"above {scattering._MAX_PROBES}"):
            integrate_jost(unreachable, 0.7, "left", tol, bg)
        return

    def field(x, t):
        return np.broadcast_to(bg.Qplus, np.broadcast_shapes(np.shape(x), np.shape(t)) + (2, 2))

    one = _mesh(lambda x, t: field(x, t) / k0, tol, 0.0, background_bg)
    for cells, ref in zip(_mesh(field, tol, 0.0, bg), one):
        assert len(cells.h) == len(ref.h)
        np.testing.assert_allclose(cells.h * k0, ref.h, rtol=1e-15)


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


def _find_partner(zs, w, k0):
    """The index of the first of zs within 1e-9 max(k0, |w|) of w; MissingPartner if none."""
    tol = 1e-9 * max(k0, abs(w))
    for i, u in enumerate(zs):
        if abs(u - w) <= tol:
            return i
    raise MissingPartner(f"no sample at the partner point {w}")


def _reference_audit(sample, bg):
    """The symmetry audit one sample at a time, with a linear search for each partner: the array audit's reference."""
    zs = [complex(z) for z in np.ravel(sample.z)]
    S, a, abar, rho, rhobar = (np.reshape(m, (len(zs),) + np.shape(m)[-2:])
                               for m in (sample.S, sample.a, sample.abar, sample.rho, sample.rhobar))
    J = np.diag([1.0, 1.0, -bg.sigma, -bg.sigma])
    Qpd = dagger(bg.Qplus)
    devs = [[0.0] * 5]
    for i, z in enumerate(zs):
        c = _find_partner(zs, complex(np.conj(z)), bg.k0)
        w = _find_partner(zs, bg.sigma * bg.k0**2 / z, bg.k0)
        devs.append([np.abs(D).max() for D in (
            dagger(S[c]) @ J @ S[i] - J,
            S[i].T @ SIGMA2 @ S[i] - SIGMA2,
            rho[i] - rho[i].T,
            rho[w] + (bg.sigma / bg.k0**2) * Qpd @ rhobar[i] @ Qpd,
            abar[c] - np.conj(a[i]),
        )])
    return SymmetryAuditReport(*(float(d) for d in np.max(devs, axis=0)), n_samples=len(zs))


def test_audit_background_zero(background_bg, background_field):
    sample = scattering_matrix(background_field, [0.5, -2.0, -0.5, 2.0], TOL, background_bg)
    rep = audit_symmetries(sample, background_bg)
    assert rep.max_deviation() < 1e-8


def test_audit_soliton_small(fig3a_field, fig3a_spec):
    zs = [0.45, -1 / 0.45, -0.45, 1 / 0.45]
    for phi in (math.pi / 4, -math.pi / 4, 3 * math.pi / 4, -3 * math.pi / 4):
        zs.append(np.exp(1j * phi))
    sample = scattering_matrix(fig3a_field, zs, TOL, fig3a_spec.bg)
    rep = audit_symmetries(sample, fig3a_spec.bg)
    assert rep.max_deviation() <= 1e-6


@pytest.mark.parametrize("name, n_real, n_circle", [("fig6", 8, 4), ("fig3a", 3, 1)],
                         ids=["fig6-scatter-48", "fig3a-roundtrip-16"])
def test_array_audit_gives_the_per_sample_report_bit_for_bit(name, n_real, n_circle):
    # the samples of `scatter --n-real-orbits 8 --n-circle-orbits 4` (the bench's 48) and of `roundtrip`'s det S check
    spec = h.preset(name).spec
    zs = sigma_sample_points(spec.bg.k0, n_real, n_circle)
    sample = scattering_matrix(functools.partial(h.reconstruct_Q, spec=spec), zs, 1e-10, spec.bg)
    rep = audit_symmetries(sample, spec.bg)
    assert rep == _reference_audit(sample, spec.bg) and rep.n_samples == len(zs)


def test_audit_flags_corruption(background_bg, background_field):
    sample = scattering_matrix(background_field, [0.5, -2.0, -0.5, 2.0], TOL, background_bg)
    b, rho = sample.b.copy(), sample.rho.copy()
    b[0] += 0.1
    rho[0] = b[0] @ np.linalg.inv(sample.a[0])
    bad = dataclasses.replace(sample, b=b, rho=rho)
    rep = audit_symmetries(bad, background_bg)
    assert rep == _reference_audit(bad, background_bg)
    assert rep.max_deviation() > 1e-2
    assert rep.antipode_identity > 1e-2  # row 0 is the antipode partner of z = -2


def test_audit_missing_partner(background_bg, background_field):
    for zs, missing in (
        (0.5, "(-2+0j)"),  # a scalar z's sample: 0.5 is its own conjugate, and its antipode is absent
        ([0.5, -2.0, -0.5], "(2-0j)"),  # only -0.5 lacks a partner, its antipode
        ([0.5, 1j ** 0.5, -2.0], f"{(1j ** 0.5).conjugate()}"),  # e^{i pi/4} lacks both: its conjugate is named first
    ):
        sample = scattering_matrix(background_field, zs, TOL, background_bg)
        with pytest.raises(MissingPartner) as ref:
            _reference_audit(sample, background_bg)
        with pytest.raises(MissingPartner) as got:
            audit_symmetries(sample, background_bg)
        assert str(got.value) == str(ref.value) == f"no sample at the partner point {missing}", zs


def test_first_symmetry_scales_with_tolerance(fig3a_field, fig3a_spec):
    # Each cell exponential is exp of an element of the Lie algebra that
    # S^dag J S = J expresses, so the identity holds to rounding at every
    # tolerance; what tol sets is the distance to the exact det a.
    J = np.eye(4)  # diag(1, 1, -sigma, -sigma) in the focusing case
    for tol in (1e-6, 1e-10):
        s = scattering_matrix(fig3a_field, 0.5, tol, fig3a_spec.bg)
        assert np.max(np.abs(dagger(s.S) @ J @ s.S - J)) <= 1e-12

    inp = TraceInput(fig3a_spec.bg, (2j,), (1,))
    zs = np.array([3j, 1.2 + 1.9j, -0.8 + 2.6j])

    def err(tol):
        return np.max(np.abs(det_a(fig3a_field, zs, tol, fig3a_spec.bg) - trace_det_a(zs, inp)))

    assert 10.0 <= err(1e-6) / err(1e-8) <= 1000.0


def test_find_spectrum_background_empty(background_bg, background_field):
    found = find_discrete_spectrum(background_field, (-0.8, 0.8, 1.4, 2.6), 1e-8, background_bg)
    assert found == []


def test_find_spectrum_roundtrip_fig3a(fig3a_field, fig3a_spec):
    found = find_discrete_spectrum(fig3a_field, (-1.0, 1.0, 1.3, 2.8), 1e-8, fig3a_spec.bg)
    assert len(found) == 1
    assert abs(found[0] - 2j) <= 1e-4


@pytest.mark.parametrize("box", [(-1.0, 1.0, 2.0, 2.8), (0.0, 1.0, 1.3, 2.8)])
def test_zero_on_contour_moves_and_warns(fig3a_field, fig3a_spec, box, caplog, monkeypatch):
    # an edge of each box passes through the zero 2i
    calls = []
    det_a_ = scattering._det_a
    monkeypatch.setattr(scattering, "_det_a", lambda mesh, sp, bg: calls.append(sp.z) or det_a_(mesh, sp, bg))
    with pytest.warns(NoConvergenceWarning), caplog.at_level(logging.DEBUG, logger="hirota_ist.scattering"):
        found = find_discrete_spectrum(fig3a_field, box, 1e-4, fig3a_spec.bg)
    assert len(found) == 1
    assert abs(found[0] - 2j) <= 1e-6
    assert sum("Jost mesh" in r.getMessage() for r in caplog.records) == 1  # moved contours share one mesh
    # one det a call a round, at exactly the round's new z: all nodes of a new or moved box, then only nodes that
    # no earlier round of that box evaluated
    (record,) = [m for r in caplog.records if (m := r.getMessage()).startswith("find_discrete_spectrum: ")]
    parts = re.search(r"rounds \[(.*?)\]", record).group(1).split("; contour moved; ")
    moves = ast.literal_eval(re.search(r"contour moves (\[.*\])$", record).group(1))
    assert len(parts) == len(moves) + 1 == 2
    left = iter(calls)
    for b, part in zip((box, *moves), parts):
        nodes, new = zip(*(map(int, re.match(r"(\d+) nodes \((\d+) new z\)", r).groups()) for r in part.split("; ")))
        zs = [next(left) for _ in new]
        assert [len(z) for z in zs] == list(new) and list(nodes) == np.cumsum(new).tolist()
        np.testing.assert_array_equal(zs[0], _contour(*_panels(b)))
        z = np.concatenate(zs)
        assert len(np.unique(z)) == len(z)
    assert next(left, None) is None


def test_zero_on_contour_warns_where_the_box_cannot_grow(fig3a_field, fig3a_spec):
    # 2i is on the bottom edge, and growing the box by two panels (1.06) would cross |z| = 1
    with pytest.warns(NoConvergenceWarning, match="cannot move on"):
        find_discrete_spectrum(fig3a_field, (-4.0, 4.0, 2.0, 3.5), 1e-4, fig3a_spec.bg)


@pytest.mark.parametrize("tol", [1e-4, 1e-8])
def test_box_dipping_inside_the_circle_between_nodes_is_refused(fig3a_field, fig3a_spec, tol, monkeypatch):
    # the bottom edge passes 0.999i, inside |z| = 1, between contour nodes; D+ is decided at the point nearest 0
    calls = []
    monkeypatch.setattr(scattering, "_det_a", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=re.escape("complement of D+ at 0.999j")):
        find_discrete_spectrum(fig3a_field, (-1.5, 0.8, 0.999, 2.5), tol, fig3a_spec.bg)
    assert calls == []


def test_box_near_the_real_axis_does_not_grow_across_it(fig3a_field, fig3a_spec, monkeypatch):
    # a zero 1e-4 above the bottom edge (Im z = 0.05); growing the box by 0.76 would take it below the real
    # axis, where the grown box's point nearest 0 (0.34 - 0.71i, inside |z| = 1) has s > 0
    calls = []
    monkeypatch.setattr(scattering, "_det_a", lambda mesh, sp, bg: calls.append(sp.z) or sp.z - (3.0 + 0.0501j))
    with pytest.warns(NoConvergenceWarning) as record:
        find_discrete_spectrum(fig3a_field, (1.1, 5.0, 0.05, 3.0), 1e-4, fig3a_spec.bg)
    messages = [str(w.message) for w in record]
    assert not any("box moved" in m for m in messages)
    # besides refusing to move, the search reports the contour and Hankel steps that the stub's zero defeats
    expected = ("cannot move on", "at 128 intervals", "dropped as noise", "multiplicities [] in")
    assert len(messages) == len(expected) and all(any(e in m for m in messages) for e in expected), messages
    assert min(np.concatenate(calls).imag) == 0.05


@pytest.mark.parametrize("sigma", [-1, 1])
def test_off_dplus_agrees_with_classify_region(sigma):
    # det_a's entry check classifies all z in one array call; it must read as the scalar calls do, also
    # within a few DELTA k0 of the branch points, of the circle |z| = k0 and of the real axis
    bg = bg_for(sigma, k0=1.7)
    rng = np.random.default_rng(7)
    jitter = 3.0 * DELTA * bg.k0 * (rng.uniform(-1, 1, 600) + 1j * rng.uniform(-1, 1, 600))
    phi = rng.uniform(0.0, math.pi, 600)
    zs = np.concatenate([np.repeat(bg.branch_points(), 300) + jitter, (bg.k0 + jitter.real) * np.exp(1j * phi),
                         rng.uniform(-3, 3, 600) + jitter.imag, rng.normal(size=600) + 1j * rng.normal(size=600)])
    regions = classify_region(zs, bg)
    assert regions.shape == zs.shape and list(regions) == [classify_region(z, bg) for z in zs]
    inside = regions == Region.D_PLUS
    assert 0 < inside.sum() < len(zs)
    calls = []
    with pytest.raises(ValueError, match=re.escape(f"at z = {complex(zs[~inside][0])})")):
        det_a(lambda x, t: calls.append(x), zs, 1e-4, bg)
    assert calls == []
    # the shift's sign reads the same D+ test: just above DELTA a z of Re lambda < 0 keeps eps = +1, so det_a
    # keeps its analytic columns; just below it, on Sigma, eps is the sign of Re lambda
    sp = uniformize(bg.k0 * (-2.0 + 1j * np.array([2.0, 0.5]) * DELTA / (4.0 + bg.sigma)), bg)
    assert list(classify_region(sp.z, bg)) == [Region.D_PLUS, Region.SIGMA] and (sp.lam.real < 0).all()
    assert list(shift_sign(sp, bg)) == [1.0, -1.0]


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


def _det_a_error(seeds, bg, zs=None, tol=1e-8):
    """max |det_a - trace_det_a| at tol over zs, by default _dplus_points of the first seed (field at t = 0)."""
    field = functools.partial(h.reconstruct_Q, spec=expand_quartets(seeds, bg))
    inp = TraceInput(bg, [s.zn for s in seeds], [s.rank_flag.value for s in seeds])
    zs = np.array(_dplus_points(seeds[0].zn) if zs is None else zs)
    return np.max(np.abs(det_a(field, zs, tol, bg) - trace_det_a(zs, inp)))


@pytest.mark.parametrize("name", sorted(RK45_DET_A_ERROR))
def test_det_a_no_worse_than_rk45(name):
    p = h.preset(name)
    assert min_decay_rate(p.spec) >= 0.75
    assert _det_a_error(p.seeds, p.bg) <= RK45_DET_A_ERROR[name]


# _det_a_error on the graded mesh of the 2-node, 4th-order Magnus step that the
# 6th-order step replaced (h0 = 0.005 (tol/1e-8)^(1/4), L = 20)
MAGNUS4_DET_A_ERROR = {
    "fig3a": 2.010e-11, "fig3d": 2.010e-11, "fig4": 3.445e-11, "fig6": 2.105e-10, "fig7": 1.694e-10,
    "fig8": 1.506e-09, "fig9": 4.894e-11, "fig10a": 2.024e-11, "fig10d": 2.024e-11,
}


@pytest.mark.parametrize("name", sorted(MAGNUS4_DET_A_ERROR))
def test_det_a_no_worse_than_the_4th_order_step(name):
    p = h.preset(name)
    assert _det_a_error(p.seeds, p.bg) <= MAGNUS4_DET_A_ERROR[name]


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
    assert _det_a_error([seed], fig3a.bg) <= bound


@pytest.mark.parametrize("tol, bound", [(1e-8, 1e-10), (1e-10, 1e-11)])
def test_det_a_matches_trace_formula_with_a_simple_and_a_double_zero(fig3a, tol, bound):
    # the seeds of test_two_eigenvalue_recovery, 2i of rank 1 and 1 + 2i of rank 2: a product of one simple factor
    # and one squared factor (1.5e-11 at tol 1e-8 and 4.0e-13 at tol 1e-10)
    seeds = [DiscreteEigenpair(2j, np.ones((2, 2), dtype=complex)),
             DiscreteEigenpair(1 + 2j, np.array([[1, 0.5], [0.5, 1]], dtype=complex))]
    assert [s.rank_flag for s in seeds] == [RankFlag.RANK1, RankFlag.RANK2]
    assert _det_a_error(seeds, fig3a.bg, _dplus_points(1 + 2j, 8), tol) <= bound  # the points are 0.6 or more from 2i


@pytest.mark.parametrize("k0", [1.0, 1.5, 2.0])
def test_det_a_error_does_not_grow_with_k0(k0):
    # the mesh scales its cells by 1/k0, as the field and k(z) vary on that
    # scale; with cells sized in x alone this read 2.0e-12, 2.2e-11 and 1.2e-10
    Qp = k0 * np.eye(2, dtype=complex)
    bg = h.Background(sigma=-1, k0=k0, alpha=1.0, beta=0.1, Qplus=Qp, Qminus=Qp)
    seed = DiscreteEigenpair(2j * k0, np.ones((2, 2), dtype=complex))
    assert _det_a_error([seed], bg, [k0 * z for z in _dplus_points(2j)]) <= 4e-12


# Hypothesis legs: random seeds off the presets -------------------------------

def _decays(quartet):
    # slower seeds, such as 1.1 + 0.3i, raise NoBackground at L_MAX / k0 by design; a rate and a length in
    # units of k0 and 1/k0, so the floor on the rate is 0.4 k0 at every k0
    seed, bg = quartet
    return min_decay_rate(expand_quartets([seed], bg)) >= 0.4 * bg.k0


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
    assert _det_a_error([seed], bg, zs) <= 5e-8


@given(random_seeds(scaled_backgrounds, st.floats(min_value=1.05, max_value=3.0), rank1_or_2).filter(_decays))
@settings(deadline=None, max_examples=10)
@pytest.mark.filterwarnings("error::hirota_ist.errors.NoConvergenceWarning")
def test_symmetry_audit_holds_on_random_seeds(quartet):
    # over 300 examples at t0 = 0 the audit read at most 1.2e-13 (median 1.9e-14); the bound leaves 8x
    seed, bg = quartet
    field = functools.partial(h.reconstruct_Q, spec=expand_quartets([seed], bg))
    sample = scattering_matrix(field, sigma_sample_points(bg.k0, 2, 1), 1e-10, bg)
    assert audit_symmetries(sample, bg).max_deviation() <= 1e-12


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


def _mapped(seed, bg, k0):
    """A problem at k0 = 1 mapped to k0: background (k0, alpha k0, beta) with Q+- times k0, seed (k0 zeta, k0 C)."""
    return (DiscreteEigenpair(k0 * seed.zn, k0 * seed.Cn),
            h.Background(bg.sigma, k0, bg.alpha * k0, bg.beta, k0 * bg.Qplus, k0 * bg.Qminus))


def _direct_problem(seed, bg):
    """Cells a side, det a at 4 points of D+, rho at 8 points of Sigma and the zeros in the CLI box, each z times k0."""
    field, k0 = functools.partial(h.reconstruct_Q, spec=expand_quartets([seed], bg)), bg.k0
    cells = [len(c.h) for c in _mesh(field, 1e-8, 0.0, bg)]
    a = det_a(field, k0 * np.array([3j, 1.2 + 1.9j, -0.8 + 2.6j, -2.0 + 1.5j]), 1e-8, bg)
    rho = scattering_matrix(field, sigma_sample_points(k0, 1, 1), 1e-8, bg).rho
    return cells, a, rho, find_discrete_spectrum(field, tuple(k0 * e for e in CLI_BOX), 1e-4, bg)


_FIG6 = h.preset("fig6")
unit_problems = st.just((_FIG6.seeds[0], _FIG6.bg)) | random_seeds(
    backgrounds(st.just(1.0), st.builds(_symmetric_unitary, angle, angle, angle)), st.floats(1.3, 3.0), rank1_or_2,
).filter(_inside_cli_box).filter(_decays)
log_uniform_k0 = st.integers(-3, 3).map(lambda n: 4.0**n) | st.floats(-2.0, 2.0).map(lambda e: 10.0**e)


@given(unit_problems, log_uniform_k0)
@example((_FIG6.seeds[0], _FIG6.bg), 0.01)
@example((_FIG6.seeds[0], _FIG6.bg), 64.0)
@settings(deadline=None, max_examples=12)
@pytest.mark.filterwarnings("error")
def test_direct_problem_is_covariant_in_k0(problem, k0):
    # k0 is the only scale: mapped to k0, a problem gets the mesh of k0 = 1 in units of 1/k0, the same det a and
    # rho and its zeros times k0; at a power of 4 every scaling is exact, and so are the bits.  Over 150 examples
    # det a moved by at most 1.2e-13, rho by 4.5e-13 and the zeros by 1.3e-13 k0.  With lengths in absolute
    # units, fig6 raised NoBackground at k0 = 0.1 and its mesh overflowed at 30 and was refused at 100
    seed, bg = problem
    (cells, a, rho, zeros), (cells_k, a_k, rho_k, zeros_k) = _direct_problem(seed, bg), _direct_problem(
        *_mapped(seed, bg, k0))
    assert cells_k == cells and len(zeros_k) == len(zeros) == 1
    assert np.abs(a_k - a).max() <= 1e-12 and np.abs(rho_k - rho).max() <= 1e-12
    assert abs(zeros_k[0] - k0 * zeros[0]) <= 1e-12 * k0
    if math.log(k0, 4).is_integer():
        np.testing.assert_array_equal(a_k, a)
        np.testing.assert_array_equal(rho_k, rho)
        assert zeros_k == [k0 * z for z in zeros]


def test_scattering_matrix_refuses_z_off_sigma(fig3a_field, fig3a_spec, monkeypatch):
    # b and rho exist on Sigma only; off it the non-analytic pair grew like e^{2 |Im lambda| L} and fig6's
    # 1.5i read rho 4.2e-7 where rho = 0.  The refusal names z and its region before any mesh is built
    bg = fig3a_spec.bg
    monkeypatch.setattr(scattering, "_mesh", lambda *args: pytest.fail("mesh built"))
    for zs, region, z in (([0.7, 1.5j], "D_PLUS", "1.5j"), (0.5j, "D_MINUS", "0.5j"),
                          ([0.7, 1.5 - 0.3j], "D_MINUS", "(1.5-0.3j)")):
        with pytest.raises(ValueError, match=re.escape(f"requires z on Sigma (got Region.{region} at z = {z})")):
            scattering_matrix(fig3a_field, zs, TOL, bg)
    monkeypatch.undo()
    with pytest.raises(BranchPointSingular):
        scattering_matrix(fig3a_field, 1j, TOL, bg)


@pytest.mark.parametrize("delta, singular", [(1e-7, True), (1e-6, False)])
def test_singular_wronskian_near_a_branch_point(fig3a_field, fig3a_spec, delta, singular):
    # on the circle, delta from the branch point i: det Psi(0) = gamma^2 = -4 delta^2, against the bound 1e-12
    z = np.exp(1j * (math.pi / 2 + delta))
    assert classify_region(z, fig3a_spec.bg) is Region.SIGMA
    if singular:
        with pytest.raises(SingularWronskian, match=r"det Psi\(0\) = \(-3\.99999\d*e-14"):
            scattering_matrix(fig3a_field, z, TOL, fig3a_spec.bg)
    else:
        assert abs(np.linalg.det(scattering_matrix(fig3a_field, z, TOL, fig3a_spec.bg).S) - 1.0) <= 1e-8



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
    sample = scattering_matrix(fig3a_field, zs, 1e-8, bg)
    np.testing.assert_array_equal(sample.z, zs)
    for i, z in enumerate(zs):
        one = scattering_matrix(fig3a_field, z, 1e-8, bg)
        for name in ("S", "a", "b", "abar", "bbar", "rho", "rhobar"):
            np.testing.assert_array_equal(getattr(sample, name)[i], getattr(one, name), err_msg=name)
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



@pytest.mark.parametrize("name, tol, t0, block", [("fig3a", 1e-4, 0.0, _BLOCK), ("fig6", 1e-10, 0.0, _BLOCK),
                                                  ("fig6", 1e-10, 12.0, 512), ("fig3a", 1e-4, 0.0, 16)],
                         ids=["fig3a-0.0001-0.0", "fig6-1e-10-0.0", "fig6-1e-10-12.0", "fig3a-0.0001-0.0-block16"])
def test_transfer_matches_the_taylor_reference(name, tol, t0, block, monkeypatch):
    # reference_transfer exponentiates each cell by a Taylor sum with scaling and squaring, over the same
    # product tree, and runs every z, where _transfer runs one z of each antipode pair; the closed form read at
    # most 6.4e-14 from it relative to each z's largest entry (fig6's right side at t0 = 12).  Neither side
    # drifts alone: against a 40-digit mpmath product of the same double Omega and shifts, at the two worst z
    # the closed form reads 6.3e-14 and the reference 6.0e-14 there, and on that side at tol 1e-12 (774 cells)
    # 6.3e-14 and 8.5e-14, at 1e-13 (1136 cells) 9.0e-14 and 6.1e-14, so that their distance, up to the sum,
    # reaches 1.45e-13 at 1e-13.
    # fig3a: the CLI box's nodes over 59-75 cells a side (up to 7 squarings in the reference, a partial last
    # block of z); fig6: the 48 samples of `scatter --n-real-orbits 8 --n-circle-orbits 4`, and at t0 = 12 a
    # left side of 984 cells against a block cut to 512 cells, so that each z takes a block of its own.
    # With the block cut to 16 cells, fig3a's 75-cell side is longer than 3 blocks, where one tree over a
    # side's cells groups them otherwise than a product of 16-cell pieces would.
    # No side outgrows the full block where this bound has room: at tol 1e-12 the left side has 2074 cells,
    # but the right side already reads 9.3e-14 and the reference needs only 2 squarings
    monkeypatch.setattr(scattering, "_BLOCK", block)
    spec = h.preset(name).spec
    bg = spec.bg
    if name == "fig3a":
        start, extent, n = _panels(CLI_BOX)
        nodes = _contour(start, extent, 3 * n)
        zs = np.append(nodes, nodes[0])
    else:
        zs = np.array(sigma_sample_points(bg.k0, 8, 4))
    sp = uniformize(zs, bg)
    w = 1j * sp.lam * shift_sign(sp, bg)
    mesh = _mesh(functools.partial(h.reconstruct_Q, spec=spec), tol, t0, bg)
    squarings, transfers = [], []
    for cells in mesh:
        taylor = SimpleNamespace(A=cells.A, h=cells.h, norm=np.abs(cells.A).sum(axis=1).max(axis=1))  # |A[j]|_1
        P, ref = _transfer(cells, sp.k, w), reference_transfer.transfer(taylor, sp.k, w)
        assert np.max(np.abs(P - ref).max(axis=(1, 2)) / np.abs(ref).max(axis=(1, 2))) <= 1e-13
        squarings.append(reference_transfer._squarings(taylor, sp.k).ravel())
        transfers.append(P)
    squarings = np.concatenate(squarings)
    # fig6's samples are 24 antipode pairs; fig3a's contour, in D+, repeats only its first node
    assert [c.tally["z"] for c in mesh] == [len(zs) // 2 if name == "fig6" else len(zs) - 1] * 2
    if block < _BLOCK and name == "fig3a":
        assert min(len(c.h) for c in mesh) > 3 * block and max(1, block // len(mesh[0].h)) == 1
        monkeypatch.setattr(scattering, "_BLOCK", _BLOCK)  # z share blocks again; each z keeps its bits
        for cells, P in zip(mesh, transfers):
            np.testing.assert_array_equal(_transfer(cells, sp.k, w), P)
    elif name == "fig3a":
        assert squarings.max() == 7 and all(len(zs) % max(1, _BLOCK // len(c.h)) for c in mesh)
    else:
        assert (max(len(c.h) for c in mesh) > scattering._BLOCK) == (t0 > 0) and squarings.max() >= 3


def _assert_cells_match_the_reference(Q, sigma, steps):
    # the (4, 4, n) layout of _mm's broadcast products against the (n, 4, 4) matmul oracle; on the meshes below
    # A[2] differs most, by up to 3.7e-16 of its largest entry, and the other stacks by under 1e-17
    A, ref = _cells(Q, sigma, steps, None).A, reference_transfer.cells(Q, sigma, steps)
    off = np.abs(A - ref).max(axis=(1, 2, 3)) > 1e-14 * np.abs(ref).max(axis=(1, 2, 3))
    assert not off.any(), f"stacks {np.flatnonzero(off)} off"


@pytest.mark.parametrize("name, tol, t0", [(name, tol, 0.0) for name in ("fig3a", "fig6", "fig8")
                                           for tol in (1e-4, 1e-10)] + [("fig6", 1e-10, 12.0)])
def test_cells_match_the_matmul_reference(name, tol, t0, monkeypatch):
    # each side's samples and steps as _mesh passes them; fig6 at t0 = 12 has a left side of 984 cells,
    # more than one block of _cells
    spec, sides = h.preset(name).spec, []

    def recording(Q, sigma, steps, limit):
        sides.append((Q, sigma, steps))
        return _cells(Q, sigma, steps, limit)

    monkeypatch.setattr(scattering, "_cells", recording)
    _mesh(functools.partial(h.reconstruct_Q, spec=spec), tol, t0, spec.bg)
    assert len(sides) == 2 and (max(len(s[2]) for s in sides) > scattering._CELL_BLOCK) == (t0 > 0)
    for side in sides:
        _assert_cells_match_the_reference(*side)


@given(st.integers(1, 12), st.sampled_from([1, -1]), st.floats(0.1, 4.0), st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=60)
def test_cells_of_random_samples_match_the_matmul_reference(n, sigma, scale, seed):
    # |Q| up to 4 and steps of either sign up to 0.5 cover both sides' travel directions and k0 > 1; the samples
    # come from a seed: with 12 n drawn entries and the arrays in the message, a failure took minutes in
    # hypothesis' explain phase, against 17 s now
    rng = np.random.default_rng(seed)
    Q = scale * (rng.uniform(-1.0, 1.0, (n, 3, 2, 2)) + 1j * rng.uniform(-1.0, 1.0, (n, 3, 2, 2)))
    steps = rng.choice([-1.0, 1.0], n) * rng.uniform(1e-3, 0.5, n)
    _assert_cells_match_the_reference(Q, sigma, steps)


def _random_stack(rng, *shape):
    return rng.standard_normal((4, 4, *shape)) + 1j * rng.standard_normal((4, 4, *shape))


def test_cellwise_product_matches_matmul_and_keeps_each_cells_bits():
    rng = np.random.default_rng(7)
    A, B = _random_stack(rng, 3, 301), _random_stack(rng, 3, 301)
    P = _mm(A, B)
    # against matmul on the (n, 4, 4) layout: each side's 4-term complex dot product carries under
    # (sqrt(5) / 2 + 3 / 2) eps of sum_k |A_ik| |B_kj|, so the two differ by under 6 eps of it (at most 2.3
    # eps over 3.3M random entries)
    An, Bn = (np.moveaxis(M, (0, 1), (-2, -1)) for M in (A, B))
    bound = 6.0 * np.finfo(float).eps * (np.abs(An) @ np.abs(Bn))
    assert np.all(np.abs(np.moveaxis(P, (0, 1), (-2, -1)) - An @ Bn) <= bound)
    # position-independent bits, which the batch bit tests rest on: a cell alone, inside a (4, 4, z, cells)
    # stack, and from the stride-2 views of _transfer's product tree against their contiguous copies
    for z, c in [(0, 0), (1, 150), (2, 300)]:
        np.testing.assert_array_equal(_mm(A[..., z, c : c + 1], B[..., z, c : c + 1])[..., 0], P[..., z, c])
        np.testing.assert_array_equal(_mm(A[..., z, c], B[..., z, c]), P[..., z, c])
    odd, even = A[..., 1::2], A[..., 0:-1:2]
    np.testing.assert_array_equal(_mm(odd, even), _mm(odd.copy(), even.copy()))
    out, tmp = np.empty_like(P), np.empty_like(P)
    assert _mm(A, B, out, tmp) is out
    np.testing.assert_array_equal(out, P)


def test_jost_products_keep_out_and_tmp_apart_from_their_factors(fig3a_field, fig3a_spec, monkeypatch):
    # _mm writes out before it has read A and B for the last time and does not check for overlap, so every
    # caller must keep them apart: _cells' commutators, _expm1's two products and the pairwise tree, here with
    # a block cut to 64 cells below fig3a's 75 a side, so that each z takes a block of its own
    overlaps = []

    def checked(A, B, out=None, tmp=None):
        given = [x for x in (out, tmp) if x is not None]
        overlaps.extend(np.may_share_memory(x, y) for x in given for y in (A, B, *given) if x is not y)
        return _mm(A, B, out, tmp)

    monkeypatch.setattr(scattering, "_mm", checked)
    monkeypatch.setattr(scattering, "_BLOCK", 64)
    zs = np.array([3j, 1.2 + 1.9j, 0.5])
    mu = integrate_jost(fig3a_field, zs, "left", 1e-4, fig3a_spec.bg)
    np.testing.assert_array_equal(mu[1], integrate_jost(fig3a_field, zs[1], "left", 1e-4, fig3a_spec.bg))
    assert len(overlaps) > 100 and not any(overlaps)


def _cell_expm1(om):
    """_expm1 of a (m, 4, 4) stack, as (m, 4, 4)."""
    ws = np.empty((6, 16 * len(om)), dtype=complex)
    np.copyto(_stack(ws[0], len(om)), np.moveaxis(om, 0, -1))
    return np.moveaxis(_expm1(ws, len(om), np.zeros(len(om), dtype=complex))[0], -1, 0).copy()


def _phi1_expm1(om):
    """exp(Omega) - I = Omega phi1(Omega) by scipy's expm, phi1 from the 8x8 [[Omega, I], [0, 0]]; no I to cancel."""
    aug = np.zeros((8, 8), dtype=complex)
    aug[:4, :4], aug[:4, 4:] = om, np.eye(4)
    return om @ scipy.linalg.expm(aug)[:4, 4:]


_ENTRY = st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))


@st.composite
def hamiltonian_cells(draw):
    """Omega with Omega^T sigma2 + sigma2 Omega = 0, of |Omega|_1 up to 32, which takes _expm1 up to 10 squarings
    (the CLI box's meshes reach 7.2 at find-tol 1e-4): sigma2 M for M complex symmetric; M of rank 3 (b = 0); a
    background cell h (Qe - i k sigma3), where a = b; and one at k = k_b (1 + delta) next to a branch point
    k_b^2 = sigma k0^2, the nilpotent limit.  A norm below the normal range is left out: dividing by it overflows
    in numpy's complex division."""
    kind = draw(st.sampled_from(["symmetric", "b = 0", "background", "branch point"]))
    if kind in ("symmetric", "b = 0"):
        L = np.array(draw(st.lists(_ENTRY, min_size=16, max_size=16))).reshape(4, 4)
        if kind == "b = 0":
            L[:, 3] = 0.0  # M = L L^T of rank 3, so det Omega = a^2 b^2 = 0
        om = SIGMA2 @ (L @ L.T if kind == "b = 0" else L + L.T)
    else:
        bg = draw(scaled_backgrounds)
        kb = bg.k0 * (1.0 if bg.sigma > 0 else 1j)
        if kind == "branch point":
            k = kb * (1.0 + draw(st.sampled_from([1e-12, 1e-8, 1e-4, -1e-6j])))
        else:
            k = 4.0 * bg.k0 * draw(_ENTRY)
        om = h.embed(bg.Qplus, bg.sigma) - 1j * k * SIGMA3
    norm = np.abs(om).sum(axis=0).max()
    assume(norm >= np.finfo(float).tiny)
    om = om * draw(st.floats(1e-3, 32.0)) / norm
    assert np.abs(om.T @ SIGMA2 + SIGMA2 @ om).max() <= 1e-14 * np.abs(om).max()
    return om


@given(st.lists(hamiltonian_cells(), min_size=1, max_size=8))
@settings(deadline=None, max_examples=100)
def test_cell_exponential_matches_scipy_expm(oms):
    # errors are relative to the larger of |exp(Omega) - I| and |Omega|: where exp(Omega) is close to I at large
    # |Omega| (a = b near 2 pi i), both sides carry rounding of order eps |Omega|.  Over 2000 random cells of
    # each kind the largest read 6.9e-15 at |Omega|_1 up to 8 and 3.8e-14 at 16-32 (background cells, 4-10
    # squarings); the bound leaves 2.6x
    F = _cell_expm1(np.array(oms))
    for om, f in zip(oms, F):
        ref = _phi1_expm1(om)
        assert np.abs(f - ref).max() <= 1e-13 * max(np.abs(ref).max(), np.abs(om).max()), om
    np.testing.assert_array_equal(F[-1], _cell_expm1(np.array(oms[-1:]))[0])  # elementwise: the same bits alone


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
    # 288 nodes, and the first again (289 z) span many blocks and end in a partial one.  scattering_matrix
    # takes z on Sigma only: as many real z, which share no k
    bg, tol = fig3a_spec.bg, 1e-4
    start, extent, n = _panels(CLI_BOX)
    nodes = _contour(start, extent, 3 * n)
    zs = np.append(nodes, nodes[0])
    mesh = _mesh(fig3a_field, tol, 0.0, bg)
    cells = [len(c.h) for c in mesh]
    per = [max(1, _BLOCK // n) for n in cells]
    assert len(zs) >= 289 and min(per) > 1 and all(len(zs) % p for p in per)
    some = np.r_[0:len(zs):7, len(zs) - 1]  # every position in a block of 6 or 8, and the partial block
    batch = det_a(fig3a_field, zs, tol, bg)
    np.testing.assert_array_equal(batch[some], [det_a(fig3a_field, z, tol, bg) for z in zs[some]])
    assert batch[-1] == batch[0]
    few = np.r_[0:len(zs):29, len(zs) - 1]
    mu = integrate_jost(fig3a_field, zs, "left", tol, bg)
    np.testing.assert_array_equal(mu[few], [integrate_jost(fig3a_field, z, "left", tol, bg) for z in zs[few]])
    reals = np.linspace(0.3, 3.0, len(zs))
    sample = scattering_matrix(fig3a_field, reals, tol, bg)
    assert sample.z.shape == (len(zs),) and sample.S.shape == (len(zs), 4, 4)
    blocks = ("a", "b", "abar", "bbar", "rho", "rhobar")
    assert all(getattr(sample, name).shape == (len(zs), 2, 2) for name in blocks)
    for i in few:
        one = scattering_matrix(fig3a_field, reals[i], tol, bg)
        assert type(one.z) is complex and one.S.shape == (4, 4)
        assert all(getattr(one, name).shape == (2, 2) for name in blocks)
        assert one.z == sample.z[i] and one.t0 == sample.t0
        for name in ("S",) + blocks:
            np.testing.assert_array_equal(getattr(sample, name)[i], getattr(one, name), err_msg=name)
    # the search's rounds share blocks too, and its zeros have the same bits with every z propagated alone
    found, evaluated, record = _search(fig3a_field, CLI_BOX, tol, bg, monkeypatch, caplog)
    new = [int(k) for k in re.findall(r"\((\d+) new z\)", record)]
    blocks = sum(math.ceil(k / p) for k in new for p in per)
    assert f"cells {cells[0]} left {cells[1]} right x {sum(new)} z propagated in {blocks} blocks, " in record
    # the scaled cells x z and the most squarings again from numpy's eigenvalues of each cell's Omega:
    # p = a^2 + b^2 = sum lambda^2 / 2, r = a^2 b^2 = det Omega, and s the least with (|p| + |r|) 4^-s <= 1
    k = uniformize(evaluated, bg).k
    lam = np.concatenate([np.linalg.eigvals(np.einsum("zj,jabn->znab", k[:, None] ** np.arange(4), c.A))
                          for c in mesh], axis=1)
    p, r = 0.5 * (lam**2).sum(axis=-1), lam.prod(axis=-1)
    s = np.maximum(np.ceil(0.5 * np.log2(np.abs(p) + np.abs(r))), 0.0)
    got = re.search(r"(\d+) of (\d+) cells x z scaled, at most (\d+) squarings,", record).groups()
    assert [int(g) for g in got] == [np.count_nonzero(s), s.size, s.max()] and s.max() > 0
    monkeypatch.setattr(scattering, "_BLOCK", 1)
    alone, _, record = _search(fig3a_field, CLI_BOX, tol, bg, monkeypatch, caplog)
    assert f"x {sum(new)} z propagated in {2 * sum(new)} blocks" in record and max(cells) <= _BLOCK
    assert len(found) == 1 and found == alone


def test_debug_record_changes_nothing_the_search_runs(fig3a_field, fig3a_spec, caplog, monkeypatch):
    # the record reads the counts that the transfer kept while it ran, so DEBUG evaluates nothing more
    det_a_of_mesh, invariants = scattering._det_a, scattering._invariants
    runs = []
    for level in (logging.INFO, logging.DEBUG):
        zs, calls = [], []
        monkeypatch.setattr(scattering, "_det_a", lambda mesh, sp, bg: zs.append(sp.z) or det_a_of_mesh(mesh, sp, bg))
        monkeypatch.setattr(scattering, "_invariants", lambda *args: calls.append(1) or invariants(*args))
        with caplog.at_level(level, logger="hirota_ist.scattering"):
            found = find_discrete_spectrum(fig3a_field, CLI_BOX, 1e-4, fig3a_spec.bg)
        records = [r.getMessage() for r in caplog.records if r.getMessage().startswith("find_discrete_spectrum: ")]
        caplog.clear()
        runs.append((found, np.concatenate(zs), len(calls), len(records)))
    (found, zs, calls, records), (found_debug, zs_debug, calls_debug, records_debug) = runs
    assert (records, records_debug) == (0, 1) and len(found) == 1
    assert found_debug == found and calls_debug == calls
    np.testing.assert_array_equal(zs_debug, zs)


# located-zero error on the CLI box at find-tol 1e-4 and 1e-8 with the composite Gauss-Legendre
# contour of 288 nodes that the refined Clenshaw-Curtis contour replaced; det a's own error limits both
GAUSS_LEGENDRE_ZERO_ERROR = {
    "fig3a": (5.4e-9, 5.6e-13), "fig6": (2.1e-6, 1.0e-10), "fig8": (7.2e-6, 7.0e-10), "fig10d": (5.4e-9, 5.4e-13),
}


@pytest.mark.parametrize("name", sorted(GAUSS_LEGENDRE_ZERO_ERROR))
def test_refined_contour_is_as_accurate_and_evaluates_each_node_once(name, monkeypatch, caplog):
    p = h.preset(name)
    spec = p.spec
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


@pytest.mark.parametrize("case", ["fig6 samples", "background", "off-Sigma pair", "unpaired and k = 0"])
def test_z_sharing_k_read_as_if_propagated_alone(case, background_bg, background_field, monkeypatch, caplog):
    # z and sigma k0^2/z share k and, through shift_sign, the shift w, so _transfer runs the first of them and
    # gives the other that product times e^{(w - w_first) sum h}.  Each z must read within 1e-13 of itself
    # propagated alone, the z run keep their bits, and each side's tally count only the z run.  fig6: the 48
    # samples of `scatter --n-real-orbits 8 --n-circle-orbits 4`; off Sigma z lies in D+ and sigma k0^2/z in D-;
    # last, 0.5 k0 and -2 k0 pair, so do +-k0, where k = 0, and 0.7 k0 has no partner; nor has (0.5 + 1e-9 i) k0,
    # inside Sigma's DELTA band, whose antipode in D+ shares its k but takes the opposite shift.  The largest
    # deviations read 1.3e-14 (fig6), 8.0e-15, 1.2e-14 and 0 (the pairs share w to the last bit).  The last two
    # sets leave Sigma, which scattering_matrix refuses, so only integrate_jost reads them
    if case == "background":
        bg, field, tol = background_bg, background_field, 1e-8
        zs = np.array(sigma_sample_points(bg.k0, 2, 1))
    else:
        spec = h.preset("fig6" if case == "fig6 samples" else "fig3a").spec
        bg, field, tol = spec.bg, functools.partial(h.reconstruct_Q, spec=spec), 1e-8
        if case == "fig6 samples":
            zs, tol = np.array(sigma_sample_points(bg.k0, 8, 4)), 1e-10
        elif case == "off-Sigma pair":
            zs = np.array([1.5 + 0.3j, bg.sigma * bg.k0**2 / (1.5 + 0.3j)])
            assert [classify_region(z, bg) for z in zs] == [Region.D_PLUS, Region.D_MINUS]
        else:
            zs = bg.k0 * np.array([0.5, -2.0, 1.0, -1.0, 0.7, 0.5 + 1e-9j])
            zs = np.append(zs, bg.sigma * bg.k0**2 / zs[-1])
            assert [classify_region(z, bg) for z in zs[-2:]] == [Region.SIGMA, Region.D_PLUS]
    assert bg.sigma == -1
    sp = uniformize(zs, bg)
    first = scattering._first_of_equal_k(sp.k, 1j * sp.lam * shift_sign(sp, bg))
    run = np.flatnonzero(first == np.arange(len(zs)))
    assert len(run) == (5 if case == "unpaired and k = 0" else len(zs) // 2)
    mesh = _mesh(field, tol, 0.0, bg)
    monkeypatch.setattr(scattering, "_mesh", lambda *args: mesh)  # the calls below share one mesh and its tallies
    on_sigma = case in ("fig6 samples", "background")
    if on_sigma:
        with caplog.at_level(logging.DEBUG, logger="hirota_ist.scattering"):
            sample = scattering_matrix(field, zs, tol, bg)
        assert [c.tally["z"] for c in mesh] == [len(run)] * 2
        assert (f"scattering_matrix: {len(zs)} samples, z propagated {len(run)} left {len(run)} right, cells "
                f"{len(mesh[0].h)} left {len(mesh[1].h)} right, blocks {mesh[0].tally['blocks']} left "
                f"{mesh[1].tally['blocks']} right") in caplog.messages
    mus = [integrate_jost(field, zs, side, tol, bg) for side in ("left", "right")]
    assert [c.tally["z"] for c in mesh] == [(1 + on_sigma) * len(run)] * 2
    for i, z in enumerate(zs):
        pairs = [(sample.S[i], scattering_matrix(field, z, tol, bg).S)] if on_sigma else []
        pairs += [(mu[i], integrate_jost(field, z, side, tol, bg)) for mu, side in zip(mus, ("left", "right"))]
        for got, alone in pairs:
            assert np.abs(got - alone).max() <= 1e-13 * np.abs(alone).max(), z
            if i in run:
                np.testing.assert_array_equal(got, alone)


def test_jost_on_sigma_does_not_depend_on_the_shift_sign(fig6_spec, monkeypatch):
    # on Sigma both column pairs are unimodular and eps only labels them: in exact arithmetic each column c of mu
    # is e^{+-i lambda SGN_c sum h} P_0 X_c (+ left, - right) for either sign.  Flipped, eps still gives antipodes
    # one shift, so each side runs 24 of fig6's 48 samples again; mu moved by at most 1.3e-14 of each z's
    # largest entry
    bg = fig6_spec.bg
    zs = np.array(sigma_sample_points(bg.k0, 8, 4))
    sp = uniformize(zs, bg)
    assert (classify_region(zs, bg) == Region.SIGMA).all()
    mesh = _mesh(functools.partial(h.reconstruct_Q, spec=fig6_spec), 1e-10, 0.0, bg)
    default = [scattering._jost(mesh, sp, side, bg) for side in ("left", "right")]
    monkeypatch.setattr(scattering, "shift_sign", lambda sp, bg: -shift_sign(sp, bg))  # every z here is on Sigma
    flipped = [scattering._jost(mesh, sp, side, bg) for side in ("left", "right")]
    assert [c.tally["z"] for c in mesh] == [len(zs)] * 2  # half of them in each of the two calls a side
    for mu, other in zip(default, flipped):
        assert (np.abs(other - mu).max(axis=(1, 2)) <= 1e-13 * np.abs(mu).max(axis=(1, 2))).all()


@pytest.mark.parametrize("z", [np.nan, complex(0.5, np.inf), [0.5, complex(np.nan, 1.0)]])
def test_non_finite_z_is_refused_before_the_mesh(fig3a_field, fig3a_spec, z, monkeypatch):
    monkeypatch.setattr(scattering, "_mesh", lambda *args: pytest.fail("mesh built"))
    bg = fig3a_spec.bg
    for call in (lambda: scattering_matrix(fig3a_field, z, 1e-8, bg), lambda: det_a(fig3a_field, z, 1e-8, bg),
                 lambda: integrate_jost(fig3a_field, z, "left", 1e-8, bg)):
        with pytest.raises(ValueError, match="z must be finite"):
            call()


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


@pytest.mark.parametrize("z", [1e-120, 1e-60, 1e60, 1e120])
def test_overflowing_cells_raise_the_typed_failure(fig3a_field, fig3a_spec, z):
    # k = (z + sigma k0^2 / z) / 2 makes Omega^2 overflow, so |p| + |r| is not finite: such a cell takes no
    # squarings and stays non-finite, and _jost reports it (a count from log2 would raise on the nan or the inf)
    with pytest.raises(IntegrationFailure, match="non-finite Jost solution"), np.errstate(all="ignore"):
        integrate_jost(fig3a_field, z, "left", 1e-4, fig3a_spec.bg)
