"""The Jost transfer as it stood before its workspace rework: the bit-for-bit oracle of `scattering._transfer`.

Each block of cells x z allocates its own 4x4 stacks, every squaring round
gathers the cells that still need it with `flatnonzero` and scatters them
back, and the pairwise tree concatenates.  The reworked transfer must give
the same bits on any mesh and any z.
"""

from __future__ import annotations

import math

import numpy as np

_BLOCK = 512
_THETA = 0.1
_TAYLOR = [1.0 / math.factorial(j) for j in range(10)]
_DIAG = np.arange(4)


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
