"""Independent oracles of the Jost layer in `scattering`: the Magnus generators and the transfer.

`cells` forms each cell's Omega = sum_j k^j A[j] on (n, 4, 4) stacks with
`@`, the layout `scattering._cells` had before it moved to (4, 4, n) stacks;
the two agree to rounding, not bit for bit.

`transfer` exponentiates each cell by a Taylor sum of degree 9 with scaling
and squaring (squarings from a 1-norm bound, `_squarings`, which reads a
`norm` of the cells' |A[j]|_1), where `scattering._expm1` uses a closed form
in Omega and Omega^2, over the same pairwise product tree.  Each block of
cells x z allocates its own stacks, and every squaring round gathers the
cells that still need it.  The two transfers agree to 1e-13 of each z's
largest entry.

`transfer` multiplies with `np.einsum` and `cells` with `@`, and neither is
`scattering._mm`, which sums broadcast ufunc products: the oracles share no
product kernel with the code they check.
"""

from __future__ import annotations

import math

import numpy as np

from hirota_ist.matrices import SIGMA3, embed

_BLOCK = 512
_THETA = 0.1
_TAYLOR = [1.0 / math.factorial(j) for j in range(10)]
_DIAG = np.arange(4)


_SGN = np.array([1.0, 1.0, -1.0, -1.0])


def _comm(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return A @ B - B @ A


def cells(Q: np.ndarray, sigma: int, steps: np.ndarray) -> np.ndarray:
    """A (4, 4, 4, n) of the cells of signed lengths steps whose Gauss-node samples are Q (n, 3, 2, 2)."""
    A = np.empty((4, 4, 4, len(Q)), dtype=complex)
    for lo in range(0, len(Q), _BLOCK):
        cut = slice(lo, lo + _BLOCK)
        h = steps[cut, None, None]
        P1, P2, P3 = (embed(Q[cut, i], sigma) for i in range(3))
        a1, s1 = h * P2, -1j * h * SIGMA3
        d = -1j * h * (_SGN[:, None] - _SGN)
        a2 = math.sqrt(15.0) / 3.0 * h * (P3 - P1)
        a3 = 10.0 / 3.0 * h * (P3 - 2.0 * P2 + P1)
        c, cs = _comm(a1, a2), d * a2
        x, xs = -20.0 * a1 - a3 + c, -20.0 * s1 + cs
        e = 2.0 * a3 + c
        y = a2 - _comm(a1, e) / 60.0
        y1 = -(d * e + _comm(a1, cs)) / 60.0
        y2 = -(d * cs) / 60.0
        Om = (a1 + a3 / 12.0 + _comm(x, y) / 240.0, s1 + (_comm(x, y1) + _comm(xs, y)) / 240.0,
              (_comm(x, y2) + _comm(xs, y1)) / 240.0, _comm(xs, y2) / 240.0)
        A[..., cut] = np.moveaxis(np.stack(Om), 1, -1)
    return A


def _mm(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return np.einsum("ik...,kj...->ij...", A, B)


def _squarings(cells, k: np.ndarray) -> np.ndarray:
    b = np.abs(k)[:, None] ** np.arange(4) @ cells.norm
    return np.ceil(np.log2(np.maximum(b, _THETA) / _THETA)).astype(int)


def _expm1(om: np.ndarray, squarings: np.ndarray) -> np.ndarray:
    om2 = _mm(om, om)
    om3 = _mm(om2, om)

    def poly(j):
        B = _TAYLOR[j + 1] * om + _TAYLOR[j + 2] * om2
        B[_DIAG, _DIAG] += _TAYLOR[j]
        return B

    F = om + _TAYLOR[2] * om2 + _mm(om3, poly(3) + _mm(om3, poly(6) + _TAYLOR[9] * om3))
    for j in range(squarings.max(initial=0)):
        i = np.flatnonzero(squarings > j)
        F[..., i] = 2.0 * F[..., i] + _mm(F[..., i], F[..., i])
    return F


def transfer(cells, k: np.ndarray, w: np.ndarray) -> np.ndarray:
    n = len(cells.h)
    per = max(1, _BLOCK // n)
    out = np.empty((len(k), 4, 4), dtype=complex)
    for z0 in range(0, len(k), per):
        zs = slice(z0, z0 + per)
        s = _squarings(cells, k[zs])
        wh = w[zs, None] * cells.h
        shift, shift1 = np.exp(wh), 2.0 * np.exp(0.5 * wh) * np.sinh(0.5 * wh)
        total = None
        for lo in range(0, n, _BLOCK):
            cut = slice(lo, lo + _BLOCK)
            om = cells.A[3, ..., None, cut]
            for j in (2, 1, 0):
                om = k[zs, None] * om + cells.A[j, ..., None, cut]
            F = _expm1((om * 0.5 ** s[:, cut]).reshape(4, 4, -1), s[:, cut].ravel()).reshape(om.shape)
            F *= shift[:, cut]
            F[_DIAG, _DIAG] += shift1[:, cut]
            while F.shape[-1] > 1:
                m = F.shape[-1]
                A, B = F[..., 1:m:2], F[..., 0 : m - 1 : 2]
                P = A + B + _mm(A, B)
                F = np.concatenate((P, F[..., m - 1 :]), axis=-1) if m % 2 else P
            total = F if total is None else F + total + _mm(F, total)
        out[zs] = np.moveaxis(np.eye(4)[..., None] + total[..., 0], -1, 0)
    return out
