import cmath
import functools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hirota_ist as h
from hirota_ist.errors import DefocusingUnsupported, PoleHit
from hirota_ist.matrices import dagger
from hirota_ist.solitons import min_decay_rate
from hirota_ist.spectral import Background
from hirota_ist.traceform import TraceInput, theta_condition, trace_det_a
from hirota_ist.verification import X_FAR, boundary_decay
from test_solitons import _symmetric_unitary, random_seeds, rank1_or_2, scaled_backgrounds

EYE = np.eye(2, dtype=complex)
FOC = Background(sigma=-1, k0=1.0, alpha=1.0, beta=0.1, Qplus=EYE, Qminus=EYE)


def _gap(a, b):
    """Distance of two phases on the circle."""
    d = abs(a - b) % (2 * math.pi)
    return min(d, 2 * math.pi - d)


def test_empty_input_is_trivial():
    inp = TraceInput(bg=FOC)
    for z in (3j, 1 + 2j, 0.2 + 1.5j):
        assert trace_det_a(z, inp) == 1.0
    assert theta_condition(inp) == 0.0


def test_hand_value_single_zero():
    inp = TraceInput(FOC, (2j,), (1,))
    assert abs(trace_det_a(3j, inp) - 0.28) < 1e-15


def test_array_of_z_gives_the_bits_of_its_scalar_calls():
    # one simple and one double zero, on a (2, 4) array of D+ points; a scalar z gives a scalar
    inp = TraceInput(FOC, (2j, 1 + 2j), (1, 2))
    zs = np.array([[3j, 1.2 + 1.9j, -0.8 + 2.6j, 0.4 + 1.3j], [-2 + 0.5j, 2.5 + 3j, 1e3j, -1.5 + 1.1j]])
    got = trace_det_a(zs, inp)
    assert got.shape == (2, 4)
    scalar = [trace_det_a(complex(z), inp) for z in zs.ravel()]
    assert all(np.ndim(v) == 0 for v in scalar)
    assert np.array_equal(got.ravel(), scalar)


def test_normalization_at_infinity():
    # approach to 1 is O(1/z) with coefficient 5 for this zero
    inp = TraceInput(FOC, (2j,), (1,))
    assert abs(trace_det_a(1e4j, inp) - 1.0) < 1e-3
    assert abs(trace_det_a(1e7j, inp) - 1.0) < 1e-6


def test_pole_hit():
    # poles of the product sit at z_n* and -k0^2/z_n, both outside D+
    inp = TraceInput(FOC, (2j,), (1,))
    with pytest.raises(PoleHit):
        trace_det_a(0.5j + 1e-14, inp)
    with pytest.raises(PoleHit):
        trace_det_a(-2j + 1e-14, inp)
    # an array call names its first bad z
    with pytest.raises(PoleHit, match=re.escape(f"z = {-2j + 1e-14}")):
        trace_det_a(np.array([3j, -2j + 1e-14, 0.5j + 1e-14]), inp)


def test_zero_validation():
    with pytest.raises(ValueError):
        TraceInput(FOC, (0.5j,), (1,))  # not in D+
    with pytest.raises(ValueError):
        TraceInput(FOC, (2j, 1 + 2j, 2j + 1e-9), (1, 2, 2))  # a repeated zero
    for zeros, mults in (((2j,), (0,)), ((2j,), (3,)), ((2j,), ()), ((2j,), (1, 1)), (2j, 1)):
        with pytest.raises(ValueError, match="one multiplicity"):  # not one multiplicity, 1 or 2, per zero
            TraceInput(FOC, zeros, mults)


def test_trace_product_refuses_a_defocusing_background(dark_bg):
    # the product is the focusing quartet's; a dark soliton's double zero at e^{i}, which the zero search returns,
    # was once refused as "not in the admissible part of D+", a message that blamed the zero
    with pytest.raises(DefocusingUnsupported, match="the trace product is focusing-only"):
        TraceInput(dark_bg, (np.exp(1j),), (2,))


def test_requires_dplus_argument():
    inp = TraceInput(FOC, (2j,), (1,))
    with pytest.raises(ValueError):
        trace_det_a(0.5, inp)
    with pytest.raises(ValueError, match=re.escape(f"z = {0.5 - 1j}")):
        trace_det_a(np.array([[3j, 1 + 1j], [0.5 - 1j, 0.5 + 0j]]), inp)


def test_trace_det_a_analytic():
    inp = TraceInput(FOC, (2j,), (1,))
    z0, hs = 0.9 + 1.6j, 1e-5

    def f(z):
        return trace_det_a(z, inp)

    dre = (f(z0 + hs) - f(z0 - hs)) / (2 * hs)
    dim = (f(z0 + 1j * hs) - f(z0 - 1j * hs)) / (2 * hs)
    assert abs(dre - (-1j) * dim) <= 1e-8


def test_theta_condition_single_simple_zero():
    # delta = pi/2: 4 delta = 2 pi, reduces to 0
    inp = TraceInput(FOC, (2j,), (1,))
    assert abs(theta_condition(inp)) < 1e-15


def test_theta_condition_mixed_orders():
    z_simple = 2j  # delta = pi/2
    z_double = 2.0 * cmath.exp(1j * math.pi / 3)  # delta = pi/3
    inp = TraceInput(FOC, (z_simple, z_double), (1, 2))
    # 4 (pi/2) + 8 (pi/3) mod 2 pi = 2 pi/3
    assert abs(theta_condition(inp) - 2 * math.pi / 3) < 1e-12


def test_theta_condition_consistency_with_measured_boundary_rank1():
    # rank-1 seed at a generic angle: simple zeros, measured phase = +4 delta
    seed = h.DiscreteEigenpair(1 + 2j, np.ones((2, 2), dtype=complex))
    bg = Background(sigma=-1, k0=1.0, alpha=1.0, beta=0.01, Qplus=EYE, Qminus=EYE)
    spec = h.expand_quartets([seed], bg)
    Qm = h.reconstruct_Q(-40.0, 0.2, spec)
    measured = np.angle(np.linalg.det(bg.Qplus @ dagger(Qm))) % (2 * math.pi)
    assert _gap(theta_condition(TraceInput(bg, (1 + 2j,), (1,))), measured) <= 1e-3


def test_theta_condition_consistency_with_measured_boundary_rank2(fig6, fig6_spec):
    # rank-2 norming constant: double zero, measured phase = +8 delta
    Qm = h.reconstruct_Q(-40.0, 0.0, fig6_spec)
    measured = np.angle(np.linalg.det(fig6.bg.Qplus @ dagger(Qm))) % (2 * math.pi)
    assert _gap(theta_condition(TraceInput(fig6.bg, (fig6.seeds[0].zn,), (2,))), measured) <= 1e-3


def _decays(quartet):
    # verify's own gate for its decay and phase checks: a rate of at least 0.75 k0
    seed, bg = quartet
    return min_decay_rate(h.expand_quartets([seed], bg)) >= 0.75 * bg.k0


@given(random_seeds(scaled_backgrounds, st.floats(min_value=1.05, max_value=3.0), rank1_or_2).filter(_decays))
@settings(deadline=None, max_examples=50)
# a fast soliton (|z| = 3 k0, beta = 1): at t = 0.25 it sat at x = -23, where one reading of the left limit at
# x = -40 was 1.2e-8 off in phase; at verify's t = 0.25 / k0^3 it sits at x = -3.9, short of the ladder's first
# reading at -2 X_FAR / k0 = -20, whose drifted-front branch test_left_limit_is_read_past_a_drifted_soliton takes
@example((h.DiscreteEigenpair(-5.875471724439123 + 1.2160723725652027j, np.diag([1.0, 0.0]).astype(complex)),
          Background(-1, 2.0, 1.0, 1.0, 2.0 * _symmetric_unitary(0.0, 0.0, 0.0), 2.0 * _symmetric_unitary(0.0, 0.0, 0.0))))
def test_theta_condition_matches_measured_boundary_on_random_seeds(quartet):
    # the left limit as verify measures it, on random k0, Q+ and ranks
    seed, bg = quartet
    assert _theta_gap_to_measured([seed], bg) <= 1e-9


def test_left_limit_is_read_past_a_drifted_soliton():
    # twice the @example's z (|z| = 6 k0) at beta = 2: at verify's t = 0.25 / k0^3 the front, the maximum of
    # |Q Q^dag - k0^2 I| over x, sits at x = -25.3, past the ladder's first reading at -2 X_FAR / k0 = -20, which
    # is 1.6 off the limit and 0.82 off in phase
    U = 2.0 * _symmetric_unitary(0.0, 0.0, 0.0)
    bg = Background(-1, 2.0, 1.0, 2.0, U, U)
    seed = h.DiscreteEigenpair(2.0 * (-5.875471724439123 + 1.2160723725652027j), np.diag([1.0, 0.0]).astype(complex))
    spec, t = h.expand_quartets([seed], bg), 0.25 / bg.k0**3
    xs = np.linspace(-100.0, 10.0, 11001)
    Q = h.reconstruct_Q(xs, t, spec)
    front = xs[np.argmax(np.abs(Q @ dagger(Q) - bg.k0**2 * EYE).max(axis=(-2, -1)))]
    first = h.reconstruct_Q(-2.0 * X_FAR / bg.k0, t, spec)
    assert front < -2.0 * X_FAR / bg.k0
    Qm = boundary_decay(functools.partial(h.reconstruct_Q, spec=spec), t=t, bg=bg).Qminus_measured
    assert np.abs(Qm - first).max() > 1.0
    assert _theta_gap_to_measured([seed], bg) <= 1e-9


def _theta_gap_to_measured(seeds, bg):
    """Gap between theta_condition and the boundary phase of the left limit, measured as verify measures it: at
    t = 0.25 / k0^3."""
    spec = h.expand_quartets(seeds, bg)
    Qm = boundary_decay(functools.partial(h.reconstruct_Q, spec=spec), t=0.25 / bg.k0**3, bg=bg).Qminus_measured
    measured = np.angle(np.linalg.det(bg.Qplus @ dagger(Qm))) % (2 * math.pi)
    return _gap(theta_condition(TraceInput(bg, [s.zn for s in seeds], [s.rank_flag.value for s in seeds])), measured)


@pytest.mark.parametrize("alpha, beta", [(1.0, 0.1), (1.0, 0.01), (-1.0, 0.1)])
def test_theta_condition_matches_measured_boundary_with_a_simple_and_a_double_zero(alpha, beta):
    # the seeds of test_two_eigenvalue_recovery: 2i of rank 1 and 1 + 2i of rank 2 (at most 5.3e-15)
    seeds = [h.DiscreteEigenpair(2j, np.ones((2, 2), dtype=complex)),
             h.DiscreteEigenpair(1 + 2j, np.array([[1, 0.5], [0.5, 1]], dtype=complex))]
    assert [s.rank_flag.value for s in seeds] == [1, 2]
    bg = Background(sigma=-1, k0=1.0, alpha=alpha, beta=beta, Qplus=EYE, Qminus=EYE)
    assert min_decay_rate(h.expand_quartets(seeds, bg)) >= 0.75
    assert _theta_gap_to_measured(seeds, bg) <= 1e-9
