"""mpmath oracle for `reconstruct_Q` that only the tests call."""

import mpmath as mp
import numpy as np

from hirota_ist.errors import SingularSystem
from hirota_ist.matrices import CMat2
from hirota_ist.solitons import SolitonSpec, _mp_theta


def _reconstruct_mp(x: float, t: float, spec: SolitonSpec, dps: int) -> CMat2:
    """Oracle for `reconstruct_Q`: the eliminated system at `dps` digits.

    Solves X_n + sum_l X_l Gamma_{nl} = B_n with
    Gamma_{nl} = sum_j c_l^dag(zeta_j*) c_j(zeta_n*) and
    B_n = I - i Q+ sum_j c_j(zeta_n*) / zeta_j, which loses about e^{s}
    times the working precision; `_dps_for(log_scale)` adds digits in
    proportion to s so that the loss stays far below double rounding.
    It honours every digit of the norming constants, including the
    rounding-level rank-2 part that a float partner constant of a rank-1
    seed carries and `reconstruct_Q` drops.
    """
    bg = spec.bg
    n2 = len(spec.zetas)
    with mp.workdps(dps):
        zs = [mp.mpc(z) for z in spec.zetas]
        Cs = [mp.matrix(C.tolist()) for C in spec.Cs]
        Cbars = [mp.matrix(C.tolist()) for C in spec.Cbars]
        Qp = mp.matrix(bg.Qplus.tolist())
        E = [mp.e ** (-2j * _mp_theta(x, t, z, bg)) for z in zs]

        def c(j, z):
            return Cs[j] * (E[j] / (z - zs[j]))

        eye = mp.eye(2)
        B = []
        for n in range(n2):
            s = mp.matrix(2, 2)
            zc = mp.conj(zs[n])
            for j in range(n2):
                s += c(j, zc) * (1 / zs[j])
            B.append(eye - 1j * Qp * s)
        p = 2 * n2
        M = mp.matrix(p, p)
        rhs = mp.matrix(p, 2)
        for n in range(n2):
            zc = mp.conj(zs[n])
            cj = [c(j, zc) for j in range(n2)]
            for a in range(2):
                for b in range(2):
                    rhs[2 * n + a, b] = B[n][b, a]
            for l in range(n2):
                G = mp.matrix(2, 2)
                cd = [c(l, mp.conj(zs[j])).H for j in range(n2)]
                for j in range(n2):
                    G += cd[j] * cj[j]
                for a in range(2):
                    for b in range(2):
                        M[2 * n + a, 2 * l + b] = G[b, a] + (1 if (n == l and a == b) else 0)
        XT = mp.matrix(p, 2)
        try:
            for b in range(2):
                col = mp.lu_solve(M, mp.matrix([rhs[r, b] for r in range(p)]))
                for r in range(p):
                    XT[r, b] = col[r]
        except (ZeroDivisionError, ValueError) as exc:
            raise SingularSystem(f"mpmath solve failed: {exc}") from exc
        Q = Qp
        for n in range(n2):
            Eb = mp.e ** (2j * _mp_theta(x, t, mp.conj(zs[n]), bg))
            Xn = mp.matrix([[XT[2 * n + b, a] for b in range(2)] for a in range(2)])
            Q += (Xn * Cbars[n]) * (1j * Eb)
        return np.array(Q.tolist(), dtype=complex)
