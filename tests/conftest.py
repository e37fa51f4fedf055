import functools

import numpy as np
import pytest

import hirota_ist as h


@pytest.fixture(scope="session")
def fig3a():
    return h.preset("fig3a")


@pytest.fixture(scope="session")
def fig3a_spec(fig3a):
    return fig3a.spec


@pytest.fixture(scope="session")
def fig3a_field(fig3a_spec):
    return functools.partial(h.reconstruct_Q, spec=fig3a_spec)


@pytest.fixture(scope="session")
def fig6():
    return h.preset("fig6")


@pytest.fixture(scope="session")
def fig6_spec(fig6):
    return fig6.spec


@pytest.fixture(scope="session")
def background_bg():
    eye = np.eye(2, dtype=complex)
    return h.Background(sigma=-1, k0=1.0, alpha=1.0, beta=0.1, Qplus=eye, Qminus=eye)


@pytest.fixture(scope="session")
def background_field(background_bg):
    Qp = background_bg.Qplus

    def field(x, t):
        return np.broadcast_to(Qp, np.broadcast_shapes(np.shape(x), np.shape(t)) + (2, 2))

    return field


@pytest.fixture(scope="session")
def dark_bg():
    eye = np.eye(2, dtype=complex)
    return h.Background(sigma=1, k0=1.0, alpha=1.0, beta=0.1, Qplus=eye, Qminus=np.exp(-2j) * eye)


@pytest.fixture(scope="session")
def dark_field():
    """Q = e^{-i} (cos 1 + i sin 1 tanh(x sin 1)) I, taken as constant in t: a sigma = +1 dark soliton from
    e^{-2i} I to I, whose det a has a double zero at e^{i} on the circle |z| = k0."""

    def field(x, t):
        x = np.broadcast_to(x, np.broadcast_shapes(np.shape(x), np.shape(t)))
        q = np.exp(-1j) * (np.cos(1.0) + 1j * np.sin(1.0) * np.tanh(x * np.sin(1.0)))
        return q[..., None, None] * np.eye(2)

    return field
