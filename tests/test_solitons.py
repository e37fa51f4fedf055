import functools
import json
import logging
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hirota_ist as h
from hirota_ist.errors import (
    DefocusingUnsupported,
    DuplicateEigenvalue,
    EigenvalueRegionError,
    EigenvalueTooCloseToSigma,
    NoSeeds,
)
from hirota_ist.grids import GridSpec
from hirota_ist.matrices import dagger, det2
from hirota_ist.solitons import (
    DiscreteEigenpair,
    RankFlag,
    _dps_for,
    expand_quartets,
    rank_of,
    log_scale,
    min_decay_rate,
)
from hirota_ist.spectral import Background, antipode
from mp_oracle import _reconstruct_mp

EYE = np.eye(2, dtype=complex)
ONES = np.ones((2, 2), dtype=complex)
FOC = Background(sigma=-1, k0=1.0, alpha=1.0, beta=0.1, Qplus=EYE, Qminus=EYE)
DEF = Background(sigma=1, k0=1.0, alpha=1.0, beta=0.1, Qplus=EYE, Qminus=EYE)


def test_expand_quartet_hand_values():
    spec = expand_quartets([DiscreteEigenpair(2j, ONES)], FOC)
    assert spec.zetas[0] == 2j
    assert abs(spec.zetas[1] - (-0.5j)) < 1e-16
    np.testing.assert_allclose(spec.Cs[1], 0.25 * ONES, atol=1e-16)
    np.testing.assert_allclose(spec.Cbars[0], -ONES, atol=0)


def test_expand_rejects_defocusing():
    with pytest.raises(DefocusingUnsupported):
        expand_quartets([DiscreteEigenpair(2j, ONES)], DEF)


def test_expand_rejects_deep_interior_seed():
    with pytest.raises(EigenvalueRegionError):
        expand_quartets([DiscreteEigenpair(0.5j, ONES)], FOC)


def test_expand_rejects_near_real_axis():
    with pytest.raises(EigenvalueTooCloseToSigma):
        expand_quartets([DiscreteEigenpair(2.0 + 1e-12j, ONES)], FOC)


def test_expand_rejects_duplicates():
    with pytest.raises(DuplicateEigenvalue):
        expand_quartets([DiscreteEigenpair(2j, ONES), DiscreteEigenpair(2j, 2 * ONES)], FOC)


def test_spec_rejects_an_empty_seed_list():
    # once built, and failed at its first field call with numpy's "need at least one array to concatenate"
    with pytest.raises(NoSeeds, match="seed list is empty"):
        expand_quartets([], FOC)
    with pytest.raises(NoSeeds):
        h.SolitonSpec(bg=FOC, zetas=(), Cs=())


def test_expand_zero_norming_constant():
    spec = expand_quartets([DiscreteEigenpair(2j, np.zeros((2, 2)))], FOC)
    assert np.all(spec.Cs[1] == 0)
    np.testing.assert_array_equal(h.reconstruct_Q(0.7, -0.3, spec), FOC.Qplus)


def test_near_circle_seed_admitted():
    # space-periodic breather limit: |zeta| slightly inside the circle
    expand_quartets([DiscreteEigenpair(0.5 + 0.8j, np.array([[0, 1], [1, 0]]))], FOC)


def test_asymmetric_norming_constant_rejected():
    with pytest.raises(ValueError):
        DiscreteEigenpair(2j, np.array([[1, 2], [0, 1]]))


@pytest.mark.parametrize("zn, Cn, name", [(complex(np.nan, 2), ONES, "zn"), (complex(0, np.inf), ONES, "zn"),
                                         (2j, [[np.nan, 1], [1, 1]], "Cn"), (2j, [[np.inf, 0], [0, 1]], "Cn")])
def test_eigenpair_rejects_non_finite_values(zn, Cn, name):
    # a NaN once failed as "SVD did not converge" in the rank test
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        DiscreteEigenpair(zn, Cn)


@pytest.mark.parametrize("Cn", [np.ones((3, 3)), np.ones(2), 1.0], ids=["3x3", "1-D", "scalar"])
def test_eigenpair_rejects_a_norming_constant_that_is_not_2x2(Cn):
    # a 3x3 Cn was once accepted and failed inside reconstruct_Q with a matmul error, and a 1-D or scalar Cn
    # raised an untyped LinAlgError from rank_of's SVD
    with pytest.raises(ValueError, match=r"Cn must be 2x2, not of shape"):
        DiscreteEigenpair(2j, Cn)


@pytest.mark.parametrize("nx, nt, name", [(2.5, 3, "nx"), (3, 3.0, "nt")])
def test_grid_spec_rejects_a_sample_count_that_is_not_an_integer(nx, nt, name):
    # nx = 2.5 was once accepted and failed in np.linspace
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        GridSpec(-1, 1, nx, -1, 1, nt)
    assert GridSpec(-1, 1, np.int64(3), -1, 1, 3).x_axis().tolist() == [-1.0, 0.0, 1.0]  # numpy integers pass


def test_rank_flags():
    assert DiscreteEigenpair(2j, ONES).rank_flag is RankFlag.RANK1
    assert DiscreteEigenpair(2j, np.array([[1, 1], [1, 2]])).rank_flag is RankFlag.RANK2
    # the rank does not depend on the scale of C, and it is not an input
    assert DiscreteEigenpair(2j, 1e-7 * EYE).rank_flag is RankFlag.RANK2
    with pytest.raises(TypeError):
        DiscreteEigenpair(2j, ONES, RankFlag.RANK2)


def test_seed_and_partner_share_a_rank():
    # det C = 1e-11 against a threshold of 1e-12 max|C|^2 made the seed rank 2
    # and its partner, whose det is |z|^-4 = 1/25 of it, rank 1: the mixed
    # system put the field 0.89 off at x = -40, with a boundary phase (0.360)
    # that did not match the phase condition
    seed = DiscreteEigenpair(1 + 2j, np.array([[1, 1], [1, 1 + 1e-11]]))
    spec = expand_quartets([seed], FOC)
    assert [rank_of(C) for C in spec.Cs] == [RankFlag.RANK2, RankFlag.RANK2]
    Q = h.reconstruct_Q(-40.0, 0.0, spec)
    Qmp = _reconstruct_mp(-40.0, 0.0, spec, _dps_for(log_scale(-40.0, 0.0, spec)))
    assert np.max(np.abs(Q - Qmp)) <= 1e-14
    measured = np.angle(np.linalg.det(FOC.Qplus @ dagger(Q))) % (2 * np.pi)
    assert abs(measured - h.theta_condition(h.TraceInput(FOC, (seed.zn,), (2,)))) <= 1e-12


upper = st.builds(
    complex, st.floats(min_value=-3, max_value=3), st.floats(min_value=0.3, max_value=3)
).filter(lambda z: abs(z) > 1.1)
cnum = st.builds(complex, st.floats(min_value=-2, max_value=2), st.floats(min_value=-2, max_value=2))


@given(upper, cnum, cnum)
@settings(max_examples=60)
def test_quartet_invariants(zeta, u1, u2):
    # rank-1 symmetric C = u u^T
    u = np.array([u1, u2])
    C = np.outer(u, u)
    spec = expand_quartets([DiscreteEigenpair(zeta, C)], FOC)
    assert len(spec.zetas) == 2
    # partner relation
    assert abs(spec.zetas[1] - antipode(np.conj(zeta), FOC)) == 0
    # Cbar = -C^dag throughout
    for Cn, Cbn in zip(spec.Cs, spec.Cbars):
        np.testing.assert_array_equal(Cbn, -dagger(Cn))
    # partner norming constant formula
    expected = dagger(FOC.Qplus) @ (-dagger(C)) @ dagger(FOC.Qplus) / np.conj(zeta) ** 2
    np.testing.assert_allclose(spec.Cs[1], expected, atol=1e-14)
    # rank is preserved under the congruence-like map
    assert abs(det2(spec.Cs[1])) <= 1e-10 * max(1.0, float(np.max(np.abs(spec.Cs[1]))) ** 2)


@given(upper)
def test_quartet_closure(zeta):
    w = antipode(np.conj(antipode(np.conj(zeta), FOC)), FOC)
    # float complex division is not exactly invertible; demand <= 2 ulp
    assert abs(w - zeta) <= 4 * np.spacing(abs(zeta))


def test_assemble_detects_pole_collision():
    from hirota_ist.errors import PoleCollision
    from hirota_ist.solitons import SolitonSpec

    # handcrafted (invalid) data with zeta_1^* colliding with zeta_2;
    # bypasses expand_quartets on purpose, and is refused where it is built
    with pytest.raises(PoleCollision):
        SolitonSpec(bg=FOC, zetas=(2j, -2j + 1e-12), Cs=(ONES, ONES))


def test_spec_checks_duplicates_before_poles():
    from hirota_ist.solitons import SolitonSpec

    # zeta_0 = zeta_1, and zeta_0* = zeta_2 as well: the duplicate is named
    with pytest.raises(DuplicateEigenvalue):
        SolitonSpec(bg=FOC, zetas=(2j, 2j, -2j), Cs=(ONES, ONES, ONES))


def test_spec_derives_cbars_and_takes_none():
    # Cbar_j = -C_j^dag is read from Cs (test_quartet_invariants checks it), never passed in to disagree with them
    spec = expand_quartets([DiscreteEigenpair(2j, ONES)], FOC)
    with pytest.raises(TypeError):
        type(spec)(bg=FOC, zetas=spec.zetas, Cs=spec.Cs, Cbars=spec.Cbars)


def test_reconstruction_symmetric_and_matches_closed_form(fig3a, fig3a_spec):
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.uniform(-5, 5)
        t = rng.uniform(-3, 3)
        Q = h.reconstruct_Q(x, t, fig3a_spec)
        assert np.max(np.abs(Q - Q.T)) <= 1e-10
        Qc = h.one_soliton_closed_form(x, t, fig3a.seeds[0], fig3a.bg)
        assert np.max(np.abs(Q - Qc)) <= 1e-14


def test_boundary_limits(fig3a_spec):
    for x in (20.0, 25.0):
        assert np.max(np.abs(h.reconstruct_Q(x, 0.9, fig3a_spec) - FOC.Qplus)) <= 1e-8
    # left constant limit: measured at two far points, mutually consistent
    Qa = h.reconstruct_Q(-40.0, 0.9, fig3a_spec)
    Qb = h.reconstruct_Q(-45.0, -1.3, fig3a_spec)
    assert np.max(np.abs(Qa - Qb)) <= 1e-10
    assert np.max(np.abs(Qa @ dagger(Qa) - FOC.k0**2 * EYE)) <= 1e-12


def _check_against_mpmath(spec, pts):
    """Assert reconstruct_Q within 1e-14 of the mpmath oracle; return the log-scales."""
    scales = []
    for x, t in pts:
        s = log_scale(x, t, spec)
        d = np.max(np.abs(h.reconstruct_Q(x, t, spec) - _reconstruct_mp(x, t, spec, _dps_for(s))))
        assert d <= 1e-14, f"({x}, {t}), s = {s:.1f}: {d:.2e}"
        scales.append(s)
    return scales


# far-field points on both sides, out to |x| = 40, where s exceeds 60
_FAR_FIELD = [(x, t) for x in (-40.0, -25.0, -12.0, 12.0, 25.0, 40.0) for t in (-6.0, 0.0, 6.0)]


def _points_from_band(spec, xmin, xmax, tmin, tmax):
    """Points of a fixed 41 x 13 grid whose log-scale lies in [4, 6)."""
    pts = [
        (float(x), float(t))
        for x in np.linspace(xmin, xmax, 41)
        for t in np.linspace(tmin, tmax, 13)
        if 4.0 <= log_scale(float(x), float(t), spec) < 6.0
    ]
    assert len(pts) >= 10
    return pts


@pytest.mark.parametrize("name", h.preset_names())
def test_double_path_matches_mpmath_below_switch(name):
    # s in [4, 6) is where an eliminated solve loses most digits (up to
    # 3.6e-13, on fig11); the far field takes s to 60 and beyond
    spec = h.preset(name).spec
    pts = _points_from_band(spec, -5.0, 5.0, -3.0, 3.0) + _FAR_FIELD
    assert max(_check_against_mpmath(spec, pts)) >= 6.0


def test_reconstruct_Q_matches_mpmath_on_exact_rank1_seed():
    # dyadic u, zeta = 2i and Q+ = I make both norming constants exactly
    # rank 1, so the oracle and the rank-factored solve see the same data
    u = np.array([0.75 + 0.5j, -1.25 + 0.25j])
    seed = DiscreteEigenpair(2j, np.outer(u, u))
    assert seed.rank_flag is RankFlag.RANK1
    spec = expand_quartets([seed], FOC)
    assert det2(spec.Cs[1]) == 0
    pts = [(float(x), t) for x in np.linspace(-40.0, 40.0, 17) for t in (-3.0, 0.5, 3.0)]
    scales = _check_against_mpmath(spec, pts)
    assert min(scales) < 6.0 <= max(scales)


def test_reconstruct_Q_matches_oracles_on_benchmark_range_seed():
    # seeds from the range the benchmark's seeded config draws:
    # alpha = 0.5, beta = 0.02, |zeta| in [1.7, 1.85], arg zeta in [82, 98] deg
    bg = Background(sigma=-1, k0=1.0, alpha=0.5, beta=0.02, Qplus=EYE, Qminus=EYE)
    g1, g0, gm1 = 1.2 * np.exp(0.4j), 0.7 * np.exp(2.1j), 1.5 * np.exp(-1.3j)
    seed = DiscreteEigenpair(1.8 * np.exp(1j * np.radians(94.0)), np.array([[g1, g0], [g0, gm1]]))
    assert seed.rank_flag is RankFlag.RANK2
    spec = expand_quartets([seed], bg)
    for x, t in _points_from_band(spec, -4.0, 4.0, -2.0, 2.0):
        Q = h.reconstruct_Q(x, t, spec)
        assert np.max(np.abs(Q - _reconstruct_mp(x, t, spec, 45))) <= 1e-14, (x, t)
        assert np.max(np.abs(Q - h.one_soliton_closed_form(x, t, seed, bg))) <= 1e-14, (x, t)
    # the float rank-1 seed of test_cli_verify_rank1_config_theta_condition:
    # C = u u^T carries a rounding-level rank-2 part, which the closed form
    # must drop as the solver does, out to the left far field
    rng = np.random.default_rng(1)
    zeta = rng.uniform(1.7, 1.85) * np.exp(1j * np.radians(rng.uniform(82.0, 98.0)))
    u = rng.normal(size=2) + 1j * rng.normal(size=2)
    C = np.outer(u, u)
    C[1, 0] = C[0, 1]
    seed = DiscreteEigenpair(zeta, C)
    assert seed.rank_flag is RankFlag.RANK1
    spec = expand_quartets([seed], bg)
    for x in (-10.0, -20.0, -30.0, -40.0):
        d = np.max(np.abs(h.reconstruct_Q(x, 0.0, spec) - h.one_soliton_closed_form(x, 0.0, seed, bg)))
        assert d <= 1e-14, (x, d)


# Oracle net: random seeds, wider than the presets ----------------------------

angle = st.floats(min_value=0.0, max_value=2 * np.pi)


def _unitary(a, b, c, d):
    return np.exp(1j * d) * np.array(
        [[np.exp(1j * b) * np.cos(a), np.exp(1j * c) * np.sin(a)],
         [-np.exp(-1j * c) * np.sin(a), np.exp(-1j * b) * np.cos(a)]]
    )


def _symmetric_unitary(v, a, b):
    rot = np.array([[np.cos(v), -np.sin(v)], [np.sin(v), np.cos(v)]])
    return rot @ np.diag(np.exp(1j * np.array([a, b]))) @ rot.T


signed_alpha = st.floats(min_value=0.1, max_value=1.0).flatmap(lambda a: st.sampled_from([a, -a]))


def backgrounds(k0, U):
    """Focusing backgrounds with Q+- = k0 U and random flow coefficients."""
    return st.builds(lambda k0, U, a, b: Background(-1, k0, a, b, k0 * U, k0 * U),
                     k0, U, signed_alpha, st.floats(min_value=0.0, max_value=1.0))


# k0 in [0.5, 2] and Q+ a random symmetric unitary times k0
scaled_backgrounds = backgrounds(st.floats(min_value=0.5, max_value=2.0),
                                 st.builds(_symmetric_unitary, angle, angle, angle))


@st.composite
def random_seeds(draw, backgrounds, radius, ratio):
    """(seed, bg) with |z| / k0 from `radius`, arg z in [0.15, pi - 0.15] and
    C = V diag(s, s r) V^T, V unitary, s in [0.1, 10] and r from `ratio`;
    r = 0 stands for a float rank-1 C = s u u^T."""
    bg = draw(backgrounds)
    z = bg.k0 * draw(radius) * np.exp(1j * draw(st.floats(min_value=0.15, max_value=np.pi - 0.15)))
    V = _unitary(*(draw(angle) for _ in range(4)))
    s, r = draw(st.floats(min_value=0.1, max_value=10.0)), draw(ratio)
    C = np.outer(V[:, 0], V[:, 0]) * s if r == 0 else V @ np.diag([s, s * r]) @ V.T
    C[1, 0] = C[0, 1]
    return DiscreteEigenpair(z, C), bg


near_or_far = st.floats(min_value=0.76, max_value=3.0)  # covers _CIRCLE_BAND
rank2_ratio = st.floats(min_value=1e-3, max_value=1.0)
rank1_or_2 = st.just(0.0) | rank2_ratio
points = st.lists(st.tuples(st.floats(min_value=-40.0, max_value=40.0),
                            st.floats(min_value=-3.0, max_value=3.0)), min_size=5, max_size=5)


def _rank1_quartet(Qp, k0, z, alpha, beta):
    u = np.array([1.0, 0.5j])
    return DiscreteEigenpair(z, np.outer(u, u)), Background(-1, k0, alpha, beta, Qp, Qp)


@given(random_seeds(scaled_backgrounds, near_or_far, rank1_or_2), points)
@settings(deadline=None, max_examples=40)
# float rank-1 seeds whose Q+ mixes phases that are not a multiple of pi/2
# apart: before the closed form projected Q+ onto k0 times a unitary, its
# rounding-level defect grew like e^s (2e-11, 3.9e-6 and 19 off at x = -5,
# -10 and -23 in the first; 3.8e-10 and 0.52 at x = -10 and -23.1 in the second)
@example(_rank1_quartet(1.66 * np.diag(np.exp([0.7j, -1.1j])), 1.66, 1.66 * (-1.593 + 1.781j), 0.33, 0.71),
         [(-5.0, 0.0), (-10.0, 0.0), (-23.0, 0.0)])
@example(_rank1_quartet(np.diag([1.0, np.exp(0.3j)]), 1.0, 1 + 2j, 1.0, 0.1), [(-10.0, 0.0), (-23.1, 0.0)])
def test_reconstruct_Q_matches_closed_form_on_random_seeds(quartet, pts):
    seed, bg = quartet
    spec = expand_quartets([seed], bg)
    for x, t in pts:
        d = np.max(np.abs(h.reconstruct_Q(x, t, spec) - h.one_soliton_closed_form(x, t, seed, bg)))
        assert d <= 1e-12, (x, t, d)


@given(random_seeds(scaled_backgrounds, near_or_far, rank2_ratio), points)
@settings(deadline=None, max_examples=20)
def test_reconstruct_Q_matches_mpmath_on_random_rank2_seeds(quartet, pts):
    # float rank-1 seeds are left out: the oracle keeps the rounding-level
    # rank-2 part of their partner constant (see `_reconstruct_mp`)
    seed, bg = quartet
    spec = expand_quartets([seed], bg)
    for x, t in pts:
        Qmp = _reconstruct_mp(x, t, spec, _dps_for(log_scale(x, t, spec)))
        d = np.max(np.abs(h.reconstruct_Q(x, t, spec) - Qmp))
        assert d <= 1e-12, (x, t, d)


@given(random_seeds(scaled_backgrounds, st.floats(min_value=1.05, max_value=3.0),
                    st.floats(min_value=-14.0, max_value=-9.0).map(lambda e: 10.0**e)))
@settings(deadline=None, max_examples=100)
def test_quartet_shares_one_rank_near_the_threshold(quartet):
    # the solver gives the seed and its partner Q+^dag Cbar Q+^dag / (z*)^2
    # the same number of columns, and the seed's the rank its flag reports
    seed, bg = quartet
    cols = np.bincount(expand_quartets([seed], bg)._residues.col)
    assert list(cols) == [seed.rank_flag.value] * 2


def test_closed_form_zero_constant_reduces_to_background():
    seed = DiscreteEigenpair(2j, np.zeros((2, 2)))
    np.testing.assert_array_equal(h.one_soliton_closed_form(0.4, 0.1, seed, FOC), FOC.Qplus)


def test_eval_field_background_and_mask():
    spec = expand_quartets([DiscreteEigenpair(2j, np.zeros((2, 2)))], FOC)
    fg = h.eval_field(GridSpec(-1, 1, 2, -1, 1, 2), spec)
    assert fg.masked_count == 0
    for it in range(2):
        for ix in range(2):
            np.testing.assert_array_equal(fg.values[it, ix], FOC.Qplus)


def test_eval_field_fig3a_excites_coupling_channel(fig3a_spec):
    # the breather lifts |q0| well above its zero background level
    fg = h.eval_field(GridSpec(-3, 3, 25, -1.5, 1.5, 13), fig3a_spec)
    assert fg.masked_count == 0
    assert float(np.max(np.abs(fg.component("q0")))) > 0.5


def test_eval_field_fig6_robust(fig6_spec):
    # covers the far corners, where the plane-wave factors reach e^{6} and more
    fg = h.eval_field(GridSpec(-5, 5, 41, -3, 3, 25), fig6_spec, preset_name="fig6")
    assert fg.masked_count == 0
    from hirota_ist.verification import symmetry_residual

    assert symmetry_residual(fg.values[~fg.mask]) <= 1e-10


def _seed_spec(rank):
    # off-preset seeds from the benchmark's seeded range (see
    # test_reconstruct_Q_matches_oracles_on_benchmark_range_seed)
    bg = Background(sigma=-1, k0=1.0, alpha=0.5, beta=0.02, Qplus=EYE, Qminus=EYE)
    rng = np.random.default_rng(7)
    zeta = rng.uniform(1.7, 1.85) * np.exp(1j * np.radians(rng.uniform(82.0, 98.0)))
    u, v = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    C = np.outer(u, u) + (np.outer(v, v) if rank == 2 else 0)
    C[1, 0] = C[0, 1]
    seed = DiscreteEigenpair(zeta, C)
    assert seed.rank_flag is (RankFlag.RANK1 if rank == 1 else RankFlag.RANK2)
    return expand_quartets([seed], bg), GridSpec(-40.0, 40.0, 41, -3.0, 3.0, 25)


@pytest.mark.parametrize("name", h.preset_names() + ["rank1-seed", "rank2-seed"])
def test_eval_field_matches_point_calls_bit_for_bit(name):
    if name.endswith("-seed"):
        spec, grid = _seed_spec(int(name[4]))
    else:
        p = h.preset(name)
        spec, g = p.spec, p.grid
        grid = GridSpec(g.xmin, g.xmax, 41, g.tmin, g.tmax, 25)
    fg = h.eval_field(grid, spec)  # 1025 points: three solve blocks
    assert fg.masked_count == 0
    points = np.array([[h.reconstruct_Q(float(x), float(t), spec) for x in fg.xs] for t in fg.ts])
    assert np.array_equal(points.view(np.uint64), fg.values.view(np.uint64))


def test_reconstruct_Q_broadcasts(fig3a_spec):
    xs, ts = np.linspace(-3.0, 3.0, 7), np.linspace(-1.0, 1.0, 4)
    assert h.reconstruct_Q(0.3, -0.2, fig3a_spec).shape == (2, 2)
    assert h.reconstruct_Q(xs, 0.5, fig3a_spec).shape == (7, 2, 2)
    Q = h.reconstruct_Q(xs[None, :], ts[:, None], fig3a_spec)
    assert Q.shape == (4, 7, 2, 2)
    np.testing.assert_array_equal(Q[2, 5], h.reconstruct_Q(xs[5], ts[2], fig3a_spec))


def test_eval_field_masks_exactly_the_singular_points(monkeypatch, fig3a_spec):
    from hirota_ist import solitons
    from hirota_ist.errors import SingularSystem

    # kappa_inf on this grid lies between 1.00003 and 4.97 (kappa_2 between 1 and 2.78),
    # so a limit of 1.5 masks 143 of the 231 points
    monkeypatch.setattr(solitons, "COND_LIMIT", 1.5)
    fg = h.eval_field(GridSpec(-5, 5, 21, -3, 3, 11), fig3a_spec)
    assert 0 < fg.masked_count < fg.mask.size
    for it, t in enumerate(fg.ts):
        for ix, x in enumerate(fg.xs):
            try:
                Q = h.reconstruct_Q(float(x), float(t), fig3a_spec)
            except SingularSystem:
                assert fg.mask[it, ix]
                assert np.all(fg.values[it, ix] == 0)
            else:
                assert not fg.mask[it, ix]
                np.testing.assert_array_equal(fg.values[it, ix], Q)
    with pytest.raises(SingularSystem):
        h.reconstruct_Q(fg.xs[None, :], fg.ts[:, None], fig3a_spec)


def _takagi(s1, s2, rng):
    """A complex symmetric norming constant with singular values s1 >= s2."""
    U, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return U @ np.diag([s1, s2]) @ U.T


def _off_preset(name):
    rng = np.random.default_rng(3)
    bg = Background(sigma=-1, k0=2.0, alpha=0.5, beta=0.02, Qplus=2.0 * EYE, Qminus=2.0 * EYE)
    near_circle = 2.1 * np.exp(1j * np.radians(70))  # |z| = 1.05 k0
    seeds = {
        "near-rank-deficient": [DiscreteEigenpair(3.6j, _takagi(1.0, 1e-9, rng))],
        "rank1-near-circle": [DiscreteEigenpair(near_circle, _takagi(1.0, 0.0, rng))],
        "rank2-near-circle": [DiscreteEigenpair(near_circle, _takagi(1.0, 0.5, rng))],
        "two-seeds": [DiscreteEigenpair(near_circle, _takagi(1.0, 1e-9, rng)),
                      DiscreteEigenpair(3.2j, _takagi(1.0, 0.0, rng))],
    }[name]
    return expand_quartets(seeds, bg), GridSpec(-40.0, 40.0, 81, -3.0, 3.0, 25)


_OFF_PRESET = ["near-rank-deficient", "rank1-near-circle", "rank2-near-circle", "two-seeds"]


@pytest.mark.parametrize("name", h.preset_names() + _OFF_PRESET)
def test_kappa_inf_lies_within_2R_of_the_svd_condition_number(name):
    from hirota_ist import solitons

    if name in _OFF_PRESET:
        spec, grid = _off_preset(name)
    else:
        p = h.preset(name)
        spec, g = p.spec, p.grid
        grid = GridSpec(g.xmin, g.xmax, 41, g.tmin, g.tmax, 25)
    x, t = (a.ravel() for a in np.broadcast_arrays(grid.x_axis()[None, :], grid.t_axis()[:, None]))
    _, kappa = solitons._field(x, t, spec)
    M, _, _ = solitons._system(x, t, spec)
    kappa2, n = np.linalg.cond(M), M.shape[-1]  # the SVD oracle
    assert n == 2 * len(spec._residues.col)
    assert np.all(kappa2 / n <= kappa) and np.all(kappa <= n * kappa2)
    inf_norm = functools.partial(np.linalg.norm, ord=np.inf, axis=(-2, -1))
    np.testing.assert_allclose(kappa, inf_norm(M) * inf_norm(np.linalg.inv(M)), rtol=1e-6)
    if name in ("near-rank-deficient", "two-seeds"):
        assert kappa.max() > 1e6  # far beyond the presets' 1 to 20
    elif name not in _OFF_PRESET:
        np.testing.assert_array_equal(kappa <= solitons.COND_LIMIT, kappa2 <= solitons.COND_LIMIT)


def test_field_masks_nonfinite_and_ill_conditioned_points_across_blocks(monkeypatch):
    from hirota_ist import solitons
    from hirota_ist.errors import SingularSystem

    spec, _ = _seed_spec(2)
    B = solitons._BLOCK // (2 * len(spec._residues.col)) ** 2  # points per block
    n = 2 * B + 37
    x, t = np.linspace(-40.0, 40.0, n), np.linspace(-3.0, 3.0, n)[::-1].copy()
    bad = [B - 1, B, B + 1, 2 * B + 5]
    singular = x[B + 1]
    x[[B - 1, B, 2 * B + 5]] = np.nan, np.inf, -np.inf
    system = solitons._system

    def with_a_singular_point(x, t, spec):  # an M whose LU meets a zero pivot
        M, rhs, norm = system(x, t, spec)
        M[x == singular] = 0.0
        return M, rhs, norm

    monkeypatch.setattr(solitons, "_system", with_a_singular_point)
    with np.errstate(all="ignore"):
        _, kappa = solitons._field(x, t, spec)
    assert np.all(np.isinf(kappa[bad]))
    finite = np.isfinite(kappa)
    assert finite.sum() == n - len(bad)
    worst = np.argmax(np.where(finite, kappa, 0.0))
    monkeypatch.setattr(solitons, "COND_LIMIT", (kappa[worst] + np.sort(kappa[finite])[-2]) / 2)
    with np.errstate(all="ignore"):
        Q, _ = solitons._field(x, t, spec)
        with pytest.raises(SingularSystem, match=rf"at 5 of {n} points, largest inf, first at \(x, t\) = \(nan, "):
            h.reconstruct_Q(x, t, spec)
    masked = sorted(bad + [worst])
    assert np.all(Q[masked] == 0)
    keep = np.setdiff1d(np.arange(n), masked)
    points = np.array([h.reconstruct_Q(float(x[i]), float(t[i]), spec) for i in keep])
    assert np.array_equal(points.view(np.uint64), Q[keep].view(np.uint64))


@pytest.mark.parametrize("name", h.preset_names() + _OFF_PRESET)
def test_inf_norm_from_the_block_structure_matches_numpy(name):
    from hirota_ist import solitons

    spec = _off_preset(name)[0] if name in _OFF_PRESET else h.preset(name).spec
    x, t = (a.ravel() for a in np.meshgrid(np.linspace(-40.0, 40.0, 81), np.linspace(-3.0, 3.0, 7)))
    M, _, norm = solitons._system(x, t, spec)
    assert np.any(np.abs(np.diagonal(M, axis1=-2, axis2=-1)) < 0.5)  # points with g > 0 scale their diagonal
    np.testing.assert_allclose(norm, np.linalg.norm(M, np.inf, axis=(-2, -1)), rtol=1e-14, atol=0)


@pytest.mark.parametrize("rank", [1, 2])
def test_field_bits_do_not_depend_on_the_block_size(monkeypatch, rank):
    from hirota_ist import solitons

    spec, grid = _seed_spec(rank)
    n = (2 * len(spec._residues.col)) ** 2  # matrix entries per point
    B = solitons._BLOCK // n  # points in a default block
    x, t = (a.ravel() for a in np.broadcast_arrays(grid.x_axis()[None, :], grid.t_axis()[:, None]))
    _, kappa = solitons._field(x, t, spec)
    limit = np.quantile(kappa, 0.8)
    ok = kappa <= limit
    m = int(np.sum(~ok))
    # the masked points form one run across the first boundary of a default block
    order = np.concatenate((np.flatnonzero(ok)[:B - m // 2], np.flatnonzero(~ok), np.flatnonzero(ok)[B - m // 2:]))
    x, t = x[order], t[order]
    monkeypatch.setattr(solitons, "COND_LIMIT", limit)
    Q, kappa = solitons._field(x, t, spec)
    assert np.all(kappa[B - m // 2:B - m // 2 + m] > limit) and np.sum(kappa > limit) == m
    assert np.all(Q[kappa > limit] == 0) and np.all(np.any(Q[kappa <= limit] != 0, axis=(-2, -1)))
    for points in (1, 7):
        monkeypatch.setattr(solitons, "_BLOCK", points * n)
        Qb, kb = solitons._field(x, t, spec)
        assert np.array_equal(Qb.view(np.uint64), Q.view(np.uint64))
        assert np.array_equal(kb.view(np.uint64), kappa.view(np.uint64))


def test_eval_field_logs_its_condition_numbers(monkeypatch, caplog, fig3a_spec):
    from hirota_ist import solitons

    grid = GridSpec(-5, 5, 21, -3, 3, 11)
    with caplog.at_level(logging.INFO, logger="hirota_ist.solitons"):
        h.eval_field(grid, fig3a_spec, "fig3a")
    assert not caplog.records
    monkeypatch.setattr(solitons, "COND_LIMIT", 1.5)  # as in test_eval_field_masks_exactly_the_singular_points
    with caplog.at_level(logging.DEBUG, logger="hirota_ist.solitons"):
        h.eval_field(grid, fig3a_spec, "fig3a")
    (record,) = caplog.records
    assert record.getMessage() == "eval_field fig3a: 231 points, 143 masked, kappa_inf max 4.97 p99 4.91"


def test_field_never_reaches_the_svd(monkeypatch, fig6_spec):
    def unreachable(*args, **kwargs):
        raise AssertionError("the residue solve reached an SVD")

    spec = h.preset("fig10d").spec
    for s in (spec, fig6_spec):
        s._residues  # the rank factors take their SVDs once, when the residues are built
    monkeypatch.setattr(np.linalg, "svd", unreachable)
    monkeypatch.setattr(np.linalg, "cond", unreachable)
    fg = h.eval_field(GridSpec(-5, 5, 41, -3, 3, 25), spec, "fig10d")
    assert fg.masked_count == 0
    assert np.all(np.isfinite(h.reconstruct_Q(np.linspace(-40, 40, 9), 0.5, fig6_spec)))


# every subcommand on small arguments, then the closed form against reconstruct_Q; prints one JSON line
_CLI_THEN_CLOSED_FORM = """
import contextlib, io, json, sys
import numpy as np
from hirota_ist import one_soliton_closed_form, preset, reconstruct_Q
from hirota_ist.cli import main

out = sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in (
        ["presets"],
        ["solve", "--preset", "fig10d", "--nx", "9", "--nt", "5", "--out", out + ".csv"],
        ["verify", "--preset", "fig3a", "--n-probe", "4"],
        ["scatter", "--preset", "fig6", "--n-real-orbits", "1", "--n-circle-orbits", "0", "--out", out + ".json"],
        ["roundtrip", "--preset", "fig3a", "--find-tol", "1e-3"],
    )]
cli_loaded = "mpmath" in sys.modules
p = preset("fig6")
err = max(float(np.max(np.abs(one_soliton_closed_form(x, 0.5, p.seeds[0], p.bg) - reconstruct_Q(x, 0.5, p.spec))))
          for x in (-3.0, 0.0, 2.5))
print(json.dumps({"codes": codes, "cli_loaded": cli_loaded, "closed_form_loaded": "mpmath" in sys.modules, "err": err}))
"""


def test_cli_never_loads_mpmath_and_the_closed_form_does(tmp_path):
    # a fresh interpreter, since the tests' own oracles load mpmath into this one
    src = os.path.dirname(os.path.dirname(h.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.run([sys.executable, "-c", _CLI_THEN_CLOSED_FORM, str(tmp_path / "out")],
                         env=env, capture_output=True, text=True, check=True)
    res = json.loads(run.stdout.splitlines()[-1])
    assert res["codes"] == [0] * 5
    assert not res["cli_loaded"]
    assert res["closed_form_loaded"] and res["err"] <= 1e-12


def test_closed_form_never_reaches_the_solver(monkeypatch, fig6):
    from hirota_ist import solitons

    def unreachable(*args):
        raise AssertionError("the closed form reached the residue solver")

    monkeypatch.setattr(solitons, "_field", unreachable)
    monkeypatch.setattr(solitons, "_residue_system", unreachable)
    for seed, bg in ((fig6.seeds[0], fig6.bg), (DiscreteEigenpair(2j, ONES), FOC)):
        assert np.all(np.isfinite(h.one_soliton_closed_form(-1.5, 0.5, seed, bg)))


def test_min_decay_rate(fig3a_spec, fig6_spec):
    assert abs(min_decay_rate(fig3a_spec) - 1.5) < 1e-12
    assert abs(min_decay_rate(fig6_spec) - 1.6) < 1e-12
