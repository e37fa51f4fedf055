import functools
import math

import numpy as np
import pytest

import hirota_ist as h
from hirota_ist.grids import FieldGrid, GridSpec
from hirota_ist.solitons import min_decay_rate
from hirota_ist.spectral import uniformize
from hirota_ist.verification import (HALTON_SKIP, boundary_decay, halton_points, pde_residual, periodicity_probe,
                                     symmetry_residual)


def test_residual_constant_background(background_bg, background_field):
    rep = pde_residual(background_field, (-3, 3, -2, 2), 24, 1e-2, background_bg)
    assert rep.max_residual <= 1e-12
    assert rep.stencil_order == 6 and rep.points == 24


def test_residual_soliton(fig3a_spec):
    field = functools.partial(h.reconstruct_Q, spec=fig3a_spec)

    # the breather core's 7th t-derivative is ~1e9, so the genuine h^6
    # truncation at h = 1e-2 peaks at 1.2e-5; it passes 1e-5 at h = 5e-3
    rep = pde_residual(field, (-5, 5, -3, 3), 40, 1e-2, fig3a_spec.bg)
    assert rep.max_residual <= 2e-5
    xm, tm = rep.argmax
    assert -5.5 <= xm <= 5.5 and -3.5 <= tm <= 3.5
    rep2 = pde_residual(field, (xm - 0.01, xm + 0.01, tm - 0.01, tm + 0.01), 4, 5e-3, fig3a_spec.bg)
    assert rep2.max_residual <= 1e-5


def test_residual_flags_fault_injection(background_bg):
    def bad_field(x, t):
        bump = 1e-3 * np.exp(-(np.asarray(x) ** 2) - np.asarray(t) ** 2)
        return background_bg.Qplus + bump[..., None, None] * np.eye(2)

    rep = pde_residual(bad_field, (-2, 2, -2, 2), 40, 1e-2, background_bg)
    assert rep.max_residual >= 1e-4


def test_decay_background(background_bg, background_field):
    rep = boundary_decay(background_field, 0.0, background_bg)
    assert rep.right_deviation == 0.0
    assert rep.left_deviation == 0.0


def test_decay_reads_the_left_limit_past_a_drifted_front(background_bg):
    # a front at x = -45, left of the first left reading at -40, where it is still 4.5e-5 off
    Qp = background_bg.Qplus
    Qm = np.diag([1j, -1.0]).astype(complex)

    def field(x, t):
        s = (1.0 + np.tanh(np.asarray(x) + 45.0)) / 2.0
        return Qm + s[..., None, None] * (Qp - Qm)

    rep = boundary_decay(field, 0.0, background_bg)
    assert np.max(np.abs(rep.Qminus_measured - Qm)) <= 1e-15
    assert rep.right_deviation == 0.0


def test_decay_fig3a(fig3a_spec):
    field = functools.partial(h.reconstruct_Q, spec=fig3a_spec)

    rep = boundary_decay(field, 0.3, fig3a_spec.bg)
    assert rep.right_deviation <= 1e-8
    assert abs(rep.rate - 1.5) <= 0.1


def test_decay_fig6_rate(fig6_spec):
    field = functools.partial(h.reconstruct_Q, spec=fig6_spec)

    rep = boundary_decay(field, 0.0, fig6_spec.bg)
    expected = min_decay_rate(fig6_spec)
    assert abs(rep.rate - expected) <= 0.1 * expected


@pytest.mark.parametrize(
    "name", [n for n in h.preset_names() if n not in ("fig5", "fig11")]
)
def test_decay_rate_all_decaying_presets(name):
    p = h.preset(name)
    spec = p.spec
    expected = min_decay_rate(spec)
    assert expected >= 0.75

    field = functools.partial(h.reconstruct_Q, spec=spec)

    rep = boundary_decay(field, 0.15, p.bg)
    assert abs(rep.rate - expected) <= 0.1 * expected
    assert rep.right_deviation <= 1e-8
    assert rep.left_deviation <= 1e-8  # Q(-20) vs the measured left limit


def test_symmetry_residual_variants(background_bg):
    xs, ts = np.array([0.0, 1.0]), np.array([0.0, 1.0])
    vals = np.zeros((2, 2, 2, 2), dtype=complex)
    vals[:, :] = background_bg.Qplus
    grid = FieldGrid(xs=xs, ts=ts, values=vals, mask=np.zeros((2, 2), bool))
    assert symmetry_residual(grid.values[~grid.mask]) == 0.0
    vals2 = vals.copy()
    vals2[0, 0, 0, 1] += 0.25  # break symmetry by a known amount
    grid2 = FieldGrid(xs=xs, ts=ts, values=vals2, mask=np.zeros((2, 2), bool))
    assert abs(symmetry_residual(grid2.values[~grid2.mask]) - 0.25) < 1e-15
    # any (..., 2, 2) stack; an empty one, such as a grid with every point masked, reads 0
    assert symmetry_residual(vals2[0, 0]) == symmetry_residual(vals2) == symmetry_residual(vals2[None])
    assert symmetry_residual(vals2[:0]) == 0.0


def test_symmetry_residual_generated(fig3a_spec):
    fg = h.eval_field(GridSpec(-3, 3, 13, -2, 2, 9), fig3a_spec)
    assert fg.masked_count == 0
    assert symmetry_residual(fg.values[~fg.mask]) <= 1e-10


def test_residual_reads_the_asymmetry_of_its_stencil_samples(background_bg, background_field):
    # a planted asymmetry of 0.25 at one x: only the stencil sample that lands on it sees it
    rep = pde_residual(background_field, (-3, 3, -2, 2), 24, 1e-2, background_bg)
    assert rep.max_asymmetry == 0.0
    x0 = (-3 + 6 * halton_points(24)[5, 0]) + 1e-2 * 3  # the x offset +3h of probe 5, as pde_residual forms it

    def planted(x, t):
        Q = background_field(x, t).copy()
        Q[..., 0, 1] += np.where(np.asarray(x) == x0, 0.25, 0.0)
        return Q

    assert pde_residual(planted, (-3, 3, -2, 2), 24, 1e-2, background_bg).max_asymmetry == 0.25


def test_periodicity_background(background_bg, background_field):
    assert periodicity_probe(background_field, "t", 1.234, 16) == 0.0


def test_periodicity_ab_along_x_on_circle():
    # eigenvalue exactly on the circle: Im lambda = 0, so the field is
    # exactly x-periodic with period 2 pi / (2 Re lambda)
    p = h.preset("fig11")
    spec = p.spec
    lam = uniformize(p.seeds[0].zn, p.bg).lam
    assert abs(lam.imag) < 1e-12
    period = 2 * math.pi / abs(2 * lam.real)

    field = functools.partial(h.reconstruct_Q, spec=spec)

    dev = periodicity_probe(field, "x", period, 20, region=(-3, 3, -1, 1))
    assert dev <= 1e-3


def test_periodicity_near_circle_quasi_period():
    # eigenvalue near (not on) the circle: |Q| drifts between periods at the
    # residual decay rate, but the derived period still beats any other shift
    p = h.preset("fig5")
    spec = p.spec
    lam = uniformize(p.seeds[0].zn, p.bg).lam
    period = 2 * math.pi / abs(2 * lam.real)

    field = functools.partial(h.reconstruct_Q, spec=spec)

    dev = periodicity_probe(field, "x", period, 12, region=(-3, 3, -0.5, 0.5))
    dev_off = periodicity_probe(field, "x", 0.71 * period, 12, region=(-3, 3, -0.5, 0.5))
    assert dev < dev_off


@pytest.mark.parametrize("h", [math.inf, math.nan, 0.0])
def test_pde_residual_rejects_a_step_that_is_not_positive_and_finite(background_field, background_bg, h):
    # h = inf once passed `not h > 0` and failed later as a singular system at x = -inf
    with pytest.raises(ValueError, match="step h must be positive and finite"):
        pde_residual(background_field, (-3, 3, -2, 2), 4, h, background_bg)


def test_periodicity_rejects_bad_args(background_field):
    with pytest.raises(ValueError):
        periodicity_probe(background_field, "x", -1.0, 4)
    with pytest.raises(ValueError, match="period must be positive and finite"):
        periodicity_probe(background_field, "x", math.inf, 4)
    with pytest.raises(ValueError):
        periodicity_probe(background_field, "y", 1.0, 4)
    with pytest.raises(ValueError):
        periodicity_probe(background_field, "x", 1.0, 0)


def test_halton_points_match_the_scalar_recurrence():
    def radical_inverse(i, base):
        f, r = 1.0, 0.0
        while i > 0:
            f /= base
            r += f * (i % base)
            i //= base
        return r

    ref = np.array([[radical_inverse(i, 2), radical_inverse(i, 3)] for i in range(HALTON_SKIP, HALTON_SKIP + 4096)])
    for n in (1, 2, 7, 200, 4096):
        pts = halton_points(n)
        assert pts.shape == (n, 2)
        assert np.array_equal(pts.view(np.uint64), ref[:n].view(np.uint64))
