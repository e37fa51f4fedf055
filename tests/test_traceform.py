import cmath
import math

import numpy as np
import pytest

import hirota_ist as h
from hirota_ist.errors import PoleHit
from hirota_ist.matrices import dagger
from hirota_ist.spectral import Background
from hirota_ist.traceform import TraceInput, _quadrature, theta_condition_variants, trace_det_a

EYE = np.eye(2, dtype=complex)
FOC = Background(sigma=-1, k0=1.0, alpha=1.0, beta=0.1, Qplus=EYE, Qminus=EYE)


def test_empty_input_is_trivial():
    inp = TraceInput(bg=FOC)
    for z in (3j, 1 + 2j, 0.2 + 1.5j):
        assert trace_det_a(z, inp) == 1.0
    assert set(theta_condition_variants(inp).values()) == {0.0}


def test_hand_value_single_zero():
    inp = TraceInput(bg=FOC, simple_zeros=(2j,))
    assert abs(trace_det_a(3j, inp) - 0.28) < 1e-15


def test_normalization_at_infinity():
    # approach to 1 is O(1/z) with coefficient 5 for this zero
    inp = TraceInput(bg=FOC, simple_zeros=(2j,))
    assert abs(trace_det_a(1e4j, inp) - 1.0) < 1e-3
    assert abs(trace_det_a(1e7j, inp) - 1.0) < 1e-6


def test_pole_hit():
    # poles of the product sit at z_n* and -k0^2/z_n, both outside D+
    inp = TraceInput(bg=FOC, simple_zeros=(2j,))
    with pytest.raises(PoleHit):
        trace_det_a(0.5j + 1e-14, inp)
    with pytest.raises(PoleHit):
        trace_det_a(-2j + 1e-14, inp)


def test_zero_validation():
    with pytest.raises(ValueError):
        TraceInput(bg=FOC, simple_zeros=(0.5j,))  # not in D+
    with pytest.raises(ValueError):
        TraceInput(bg=FOC, simple_zeros=(2j,), double_zeros=(2j,))  # overlapping lists


def test_requires_dplus_argument():
    inp = TraceInput(bg=FOC, simple_zeros=(2j,))
    with pytest.raises(ValueError):
        trace_det_a(0.5, inp)


def test_trace_det_a_analytic():
    inp = TraceInput(bg=FOC, simple_zeros=(2j,))
    z0, hs = 0.9 + 1.6j, 1e-5

    def f(z):
        return trace_det_a(z, inp)

    dre = (f(z0 + hs) - f(z0 - hs)) / (2 * hs)
    dim = (f(z0 + 1j * hs) - f(z0 - 1j * hs)) / (2 * hs)
    assert abs(dre - (-1j) * dim) <= 1e-8


def test_theta_condition_single_simple_zero():
    # delta = pi/2: 4 delta = 2 pi, reduces to 0
    inp = TraceInput(bg=FOC, simple_zeros=(2j,))
    assert abs(theta_condition_variants(inp)["simple_plus_double_minus"]) < 1e-15


def test_theta_condition_mixed_orders():
    z_simple = 2j  # delta = pi/2
    z_double = 2.0 * cmath.exp(1j * math.pi / 3)  # delta = pi/3
    inp = TraceInput(bg=FOC, simple_zeros=(z_simple,), double_zeros=(z_double,))
    # shipped signs: 4*(pi/2) - 8*(pi/3) mod 2 pi = 4 pi/3
    v = theta_condition_variants(inp)
    assert abs(v["simple_plus_double_minus"] - 4 * math.pi / 3) < 1e-12
    assert abs(v["simple_minus_double_minus"] - 4 * math.pi / 3) < 1e-12  # -2pi == +2pi mod 2pi
    assert abs(v["simple_plus_double_plus"] - 2 * math.pi / 3) < 1e-12


def test_theta_condition_consistency_with_measured_boundary_rank1():
    # rank-1 seed at a generic angle: simple zeros, measured phase = +4 delta
    seed = h.DiscreteEigenpair(1 + 2j, np.ones((2, 2), dtype=complex))
    bg = Background(sigma=-1, k0=1.0, alpha=1.0, beta=0.01, Qplus=EYE, Qminus=EYE)
    spec = h.expand_quartets([seed], bg)
    Qm = h.reconstruct_Q(-40.0, 0.2, spec)
    measured = np.angle(np.linalg.det(bg.Qplus @ dagger(Qm))) % (2 * math.pi)
    inp = TraceInput(bg=bg, simple_zeros=(1 + 2j,))
    shipped = theta_condition_variants(inp)["simple_plus_double_minus"]
    assert min(abs(shipped - measured), 2 * math.pi - abs(shipped - measured)) <= 1e-3


def test_theta_condition_consistency_with_measured_boundary_rank2(fig6, fig6_spec):
    # rank-2 norming constant: double zero; the measured phase picks out
    # the +8 variant among the reported values
    Qm = h.reconstruct_Q(-40.0, 0.0, fig6_spec)
    measured = np.angle(np.linalg.det(fig6.bg.Qplus @ dagger(Qm))) % (2 * math.pi)
    inp = TraceInput(bg=fig6.bg, double_zeros=(fig6.seeds[0].zn,))
    v = theta_condition_variants(inp)
    diffs = {
        k: min(abs(val - measured), 2 * math.pi - abs(val - measured)) for k, val in v.items()
    }
    assert diffs["simple_plus_double_plus"] <= 1e-3
    assert min(diffs.values()) == diffs["simple_plus_double_plus"]


def _contour_nodes(n_real, n_circle, L):
    """Cell midpoints of [-L, L] (never 0 or +-k0 = +-1 for the sizes used)
    and the unit circle at half-step angles, closed under conjugation."""
    xs = -L + (np.arange(n_real) + 0.5) * (2.0 * L / n_real)
    phis = (np.arange(n_circle) + 0.5) * (2.0 * math.pi / n_circle)
    return [complex(x) for x in xs] + [complex(np.exp(1j * p)) for p in phis]


def _constant_rho_samples(scale):
    rho = scale * np.array([[1.0, 0.2], [0.2, 1.0]], dtype=complex)
    return tuple((z, rho) for z in _contour_nodes(768, 512, 30.0))


def test_quadrature_orientation_focusing():
    # constant rho: every term is weight * logdet, and the trapezoid weights
    # of a sorted segment sum to its node span, so the real terms sum to
    # logdet (outer spans - inner spans) and the closed circle loop to 0
    rho = np.array([[0.3 + 0.1j, 0.2], [0.2, -0.4j]])
    inp = TraceInput(bg=FOC, rho_samples=tuple((z, rho) for z in _contour_nodes(64, 16, 5.0)))
    logdet = cmath.log(np.linalg.det(np.eye(2) + dagger(rho) @ rho))
    terms = _quadrature(inp)
    real = [(z.real, wl) for z, wl in terms if z.imag == 0]
    circle = [wl for z, wl in terms if z.imag != 0]
    assert len(real) == 64 and len(circle) == 16

    def span(pred):
        xs = [x for x, _ in real if pred(x)]
        return max(xs) - min(xs)

    outer = span(lambda x: x <= -1) + span(lambda x: x >= 1)
    inner = span(lambda x: -1 < x < 0) + span(lambda x: 0 < x < 1)
    assert abs(sum(wl for _, wl in real) - logdet * (outer - inner)) <= 1e-12
    assert abs(sum(circle)) <= 1e-12


def test_quadrature_term_scales_quadratically():
    inp1 = TraceInput(bg=FOC, rho_samples=_constant_rho_samples(1e-3))
    inp2 = TraceInput(bg=FOC, rho_samples=_constant_rho_samples(2e-3))
    v1 = trace_det_a(3j, inp1)
    v2 = trace_det_a(3j, inp2)
    # log det(I + rho^dag rho) ~ |rho|^2, so deviations from 1 scale by 4
    r = abs(v2 - 1.0) / max(abs(v1 - 1.0), 1e-300)
    assert 3.5 <= r <= 4.5
