"""Reflectionless inverse problem for the focusing regime.

Seed eigenvalue/norming-constant pairs are expanded into symmetric quartets,
the residue system of the pole conditions is solved, and the potential is
rebuilt from its solution.

Numerics: every exponential E_j = e^{-2i theta(zeta_j)} is bounded on
compact (x, t) sets but grows like e^{2 Im lambda |x|} toward the left far
field.  Eliminating one eigenfunction family mixes O(1) and O(E^2) entries
and loses about eps * e^{s}, s being the largest log-magnitude among the E_j.
`reconstruct_Q` therefore solves the un-eliminated residue system, with each
norming constant factored by rank and every unknown scaled by its
exponential, so that all entries stay O(1) at every (x, t); it runs in
double precision only, one LAPACK inverse per point giving both the solution
and its condition guard, with the point-independent parts built once per spec.

mpmath serves the oracles alone: `one_soliton_closed_form` (one coupled
4x4 solve of the one-quartet algebra at `_dps_for(log_scale)` digits) is an
independent evaluation that the tests compare `reconstruct_Q` against, as is
the eliminated system in `tests/mp_oracle.py`.  Only these oracles load
mpmath, on their first call.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import (
    DefocusingUnsupported,
    DuplicateEigenvalue,
    EigenvalueRegionError,
    EigenvalueTooCloseToSigma,
    NoSeeds,
    PoleCollision,
    SingularSystem,
)
from .grids import ARTIFACT_VERSION, FieldGrid, GridSpec
from .matrices import CMat2, dagger
from .spectral import Background, dispersion, theta, uniformize

if TYPE_CHECKING:
    import mpmath as mp

# on kappa_inf = ||M||_inf ||M^-1||_inf of the 2R x 2R scaled system (4 x 4 for one
# rank-1 seed, 8 x 8 for rank 2), which lies within kappa_2 / 2R <= kappa_inf <= 2R kappa_2
COND_LIMIT = 1e12
_log = logging.getLogger(__name__)


class RankFlag(enum.Enum):
    RANK1 = 1
    RANK2 = 2


def rank_of(C: CMat2) -> RankFlag:
    """RANK1 when the smaller singular value is at most 1e-12 of the larger.

    The ratio does not change under scaling or unitary factors, the map from a
    seed's constant to its quartet partner's Q+^dag Cbar Q+^dag / (z*)^2.
    """
    s = np.linalg.svd(np.asarray(C, dtype=complex), compute_uv=False)
    return RankFlag.RANK1 if s[1] <= 1e-12 * s[0] else RankFlag.RANK2


@dataclass(frozen=True)
class DiscreteEigenpair:
    """One seed eigenvalue with its symmetric 2x2 norming constant."""

    zn: complex
    Cn: CMat2
    rank_flag: RankFlag = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "zn", complex(self.zn))
        object.__setattr__(self, "Cn", np.asarray(self.Cn, dtype=complex))
        if not np.isfinite(self.zn):
            raise ValueError(f"eigenvalue zn must be finite, not {self.zn}")
        if self.Cn.shape != (2, 2):
            raise ValueError(f"norming constant Cn must be 2x2, not of shape {self.Cn.shape}")
        if not np.all(np.isfinite(self.Cn)):
            raise ValueError(f"norming constant Cn must be finite, not {self.Cn.tolist()}")
        scale = max(1.0, float(np.max(np.abs(self.Cn))))
        if np.max(np.abs(self.Cn - self.Cn.T)) > 1e-14 * scale:
            raise ValueError("norming constant must be symmetric")
        object.__setattr__(self, "rank_flag", rank_of(self.Cn))


def quartet_partner(z: complex, k0: float) -> complex:
    """Second member of the eigenvalue quartet, z -> -k0^2 / z*."""
    return complex(-k0**2 / np.conj(z))


@dataclass(frozen=True)
class SolitonSpec:
    """Fully quartet-expanded scattering data driving the linear system.

    The N >= 1 seeds come first, their N partners follow in the same order, and
    construction raises `NoSeeds`, `DuplicateEigenvalue` or `PoleCollision` (`_check_poles`).
    """

    bg: Background
    zetas: tuple[complex, ...]
    Cs: tuple[CMat2, ...]

    def __post_init__(self):
        if not self.zetas:
            raise NoSeeds("the seed list is empty; a soliton spec needs at least one seed")
        _check_poles(self.zetas, self.bg.k0)

    @property
    def Cbars(self) -> tuple[CMat2, ...]:
        return tuple(-dagger(C) for C in self.Cs)  # Cbar_j = -C_j^dag, the focusing case

    @cached_property
    def _residues(self) -> "_ResidueSystem":
        """Point-independent parts of the scaled residue system."""
        return _residue_system(self)


# Seeds strictly inside the circle are rejected; the admitted band below the
# circle radius covers the space-periodic breather limit where the eigenvalue
# approaches (or sits on) |z| = k0.
_CIRCLE_BAND = 0.25


def expand_quartets(seeds: Sequence[DiscreteEigenpair], bg: Background) -> SolitonSpec:
    """Expand seeds into the 2N symmetric pairs (zeta_n, C_n).

    For each seed (z_n, C_n): zeta_{n+N} = -k0^2/z_n*, and the partner norming
    constant is Q+^dag Cbar_n Q+^dag / (z_n*)^2 with Cbar_n = -C_n^dag.
    """
    if bg.sigma != -1:
        raise DefocusingUnsupported("soliton construction is focusing-only")
    zetas: list[complex] = []
    Cs: list[np.ndarray] = []
    for s in seeds:
        z = s.zn
        if z.imag <= 1e-8 * bg.k0:
            raise EigenvalueTooCloseToSigma(f"seed {z} too close to the real axis")
        if abs(z) < (1.0 - _CIRCLE_BAND) * bg.k0:
            raise EigenvalueRegionError(
                f"seed {z} lies deep inside the circle |z| = k0 (region violation)"
            )
        zetas.append(z)
        Cs.append(s.Cn.copy())
    Qp = bg.Qplus
    for s in seeds:
        z = s.zn
        Cbar = -dagger(s.Cn)
        zetas.append(quartet_partner(z, bg.k0))
        Cs.append(dagger(Qp) @ Cbar @ dagger(Qp) / np.conj(z) ** 2)
    return SolitonSpec(bg=bg, zetas=tuple(zetas), Cs=tuple(Cs))


def _check_poles(zetas: Sequence[complex], k0: float) -> None:
    """Eigenvalues at least 1e-8 k0 apart, then no pole zeta_n* within 1e-10 k0 of an eigenvalue."""
    for i in range(len(zetas)):
        for j in range(i + 1, len(zetas)):
            if abs(zetas[i] - zetas[j]) < 1e-8 * k0:
                raise DuplicateEigenvalue(f"eigenvalues {zetas[i]} and {zetas[j]} coincide")
    for n, zn in enumerate(zetas):
        for j, zj in enumerate(zetas):
            if abs(np.conj(zn) - zj) < 1e-10 * k0:
                raise PoleCollision(f"zeta_{n}* collides with zeta_{j}")


def _rank_factor(C: CMat2, rank: RankFlag) -> tuple[np.ndarray, np.ndarray]:
    """C = A B with A 2 x r and B r x 2, r = rank.value, balanced by the SVD."""
    U, S, Vh = np.linalg.svd(C)
    r = rank.value
    root = np.sqrt(S[:r])
    return U[:, :r] * root, root[:, None] * Vh[:r]


@dataclass(frozen=True)
class _ResidueSystem:
    """Parts of the residue system that do not depend on (x, t): each C_j = A_j B_j (`_rank_factor`), the
    factors of all eigenvalues side by side as R columns, column k belonging to zeta_k = zetas[col[k]]."""

    col: np.ndarray  # eigenvalue index of each column
    Ah: np.ndarray  # R x 2, the left factors conjugate-transposed
    AB: np.ndarray  # 2R x R, (A^dag A)_{nk} / (zeta_n* - zeta_k) over (B B^dag)_{jm} / (zeta_m* - zeta_j)
    AB_abs: np.ndarray  # |AB|
    By: np.ndarray  # 2 x 2R, [B^dag | i Q+ A / zeta], rhs before the scaling by [e* | e]
    lam: np.ndarray  # R, lambda(zeta_k)
    disp: np.ndarray  # R, the dispersion w(zeta_k), so that theta = lam (-x - disp t)


def _residue_system(spec: SolitonSpec) -> _ResidueSystem:
    # a partner's constant is fixed by its seed's, so it takes the seed's rank:
    # a second decision could differ within rounding of the rank threshold
    n = len(spec.Cs) // 2
    factors = [_rank_factor(C, rank_of(spec.Cs[j % n])) for j, C in enumerate(spec.Cs)]
    col = np.repeat(np.arange(len(factors)), [a.shape[1] for a, _ in factors])
    A = np.hstack([a for a, _ in factors])
    B = np.vstack([b for _, b in factors])
    zk = np.asarray(spec.zetas, dtype=complex)[col]
    G = 1.0 / (np.conj(zk)[None, :] - zk[:, None])  # G[k, m] = 1 / (zeta_m* - zeta_k)
    AB, sp = np.vstack(((dagger(A) @ A) * G.T, (B @ dagger(B)) * G)), uniformize(zk, spec.bg)
    return _ResidueSystem(
        col=col, Ah=dagger(A), AB=AB, AB_abs=np.abs(AB), By=np.hstack((dagger(B), 1j * spec.bg.Qplus @ A / zk)),
        lam=sp.lam, disp=dispersion(sp.k, spec.bg),
    )


def log_scale(x: float, t: float, spec: SolitonSpec) -> float:
    """Largest positive log-magnitude among the plane-wave factors E_j = e^{-2i theta(x, t; zeta_j)}."""
    return float(np.max((-2j * theta(x, t, np.array(spec.zetas), spec.bg)).real, initial=0.0))


_BLOCK = 8192  # matrix entries per batched inverse: 512 points of a 4 x 4 system, 128 of an 8 x 8


def _system(x, t, spec: SolitonSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The scaled residue system Z M = rhs at 1-D arrays of points: M (n, 2R, 2R), rhs (n, 2, 2R), ||M||_inf (n,).

    M = [[D, AA e], [BB e*, D]] with D = diag(1 / max(1, |E|)), so ||M||_inf is the largest
    D_k + max((|AA| |e|)_k, (|BB| |e|)_k): no |M| over 4R^2 entries and no matmul over points.
    """
    rs = spec._residues
    R = len(rs.col)
    log_e = -2j * (rs.lam * (-x[:, None] - rs.disp * t[:, None]))  # the operations of `theta`, so its bits
    g = np.maximum(log_e.real, 0.0)
    d, e, ae = np.exp(-g), np.exp(log_e - g), np.exp(log_e.real - g)  # ae = |e|
    M = np.zeros((len(g), 2 * R, 2 * R), dtype=complex)
    M.reshape(len(g), -1)[:, ::2 * R + 1] = np.tile(d, 2)
    np.multiply(rs.AB[:R], e[:, None, :], out=M[:, :R, R:])
    np.multiply(rs.AB[R:], np.conj(e)[:, None, :], out=M[:, R:, :R])
    s = rs.AB_abs[:, 0] * ae[:, :1]  # |AA| |e| over |BB| |e|, elementwise products summed in column order
    for k in range(1, R):
        s += rs.AB_abs[:, k] * ae[:, k:k + 1]
    norm = (d + np.maximum(s[:, :R], s[:, R:])).max(-1)
    return M, rs.By * np.concatenate((np.conj(e), e), axis=-1)[:, None, :], norm


def _field(x, t, spec: SolitonSpec) -> tuple[np.ndarray, np.ndarray]:
    """`reconstruct_Q` with (Q, kappa_inf) in place of `SingularSystem`; Q is 0 where kappa_inf > `COND_LIMIT`.

    One LAPACK inverse per point gives both Z = rhs M^-1 and kappa_inf = ||M||_inf ||M^-1||_inf, with no
    SVD (Higham 2002, ch. 15); a non-finite kappa_inf reads inf.  Only a block whose inverse raises on a
    zero pivot is screened by slogdet, whose LU flags the pivot instead of raising, and inverted again
    with its singular M replaced (kappa_inf = inf there).  A block holds `_BLOCK` / (2R)^2 points, and a
    point's inverse and sums (einsum adds in index order) are its own: alone or in any batch, same bits.
    """
    x, t = np.broadcast_arrays(x, t)
    R = len(spec._residues.col)
    size = max(1, _BLOCK // (2 * R) ** 2)
    Q, kappa = np.empty((x.size, 2, 2), dtype=complex), np.empty(x.size)
    for lo in range(0, x.size, size):
        blk = slice(lo, lo + size)
        M, rhs, norm = _system(x.flat[blk], t.flat[blk], spec)
        try:
            Minv, singular = np.linalg.inv(M), False
        except np.linalg.LinAlgError:
            sign, logdet = np.linalg.slogdet(M)
            singular = (sign == 0) | ~np.isfinite(logdet)
            M[singular] = np.eye(2 * R)  # a stand-in that the inverse cannot fail on; such points stay masked
            Minv = np.linalg.inv(M)
        k = norm * np.abs(Minv).sum(-1).max(-1)
        kappa[blk] = k = np.where(singular | ~np.isfinite(k), np.inf, k)
        Z = np.einsum("paj,pjk->pak", rhs, Minv[..., :R])  # the x_n
        Qb = spec.bg.Qplus - 1j * np.einsum("pak,kb->pab", Z, spec._residues.Ah)
        Q[blk] = np.where((k <= COND_LIMIT)[:, None, None], Qb, 0)
    return Q.reshape(x.shape + (2, 2)), kappa.reshape(x.shape)


def reconstruct_Q(x, t, spec: SolitonSpec) -> np.ndarray:
    """Potential from the reflectionless residue system, on arrays of points.

    x and t are scalars or arrays that broadcast to one shape S; the result
    has shape S + (2, 2), a 2x2 matrix for a scalar point.  Double precision
    at every (x, t); the mpmath oracles `one_soliton_closed_form` and
    `tests/mp_oracle.py` check it in the tests.  With
    c_j(z) = C_j E_j / (z - zeta_j), the residues of the two eigenfunction
    families satisfy

        X_n + sum_j Y_j c_j(zeta_n*) = I,
        Y_j - sum_n X_n c_n^dag(zeta_j*) = i Q+ / zeta_j,

    and Q = Q+ + i sum_n E_n* X_n Cbar_n.  Only X_n B_n^dag and Y_j A_j
    enter (C_j = A_j B_j, see `_rank_factor`), so the unknowns are
    x_n = E_n* X_n B_n^dag and y_j = E_j Y_j A_j (2 x r blocks), which stay
    O(1):

        x_n / E_n* + sum_j y_j B_j B_n^dag / (zeta_n* - zeta_j) = B_n^dag,
        y_j / E_j + sum_n x_n A_n^dag A_j / (zeta_n* - zeta_j) = i Q+ A_j / zeta_j.

    Scaling the first equation by conj(e_n) and the second by e_j, where
    e = E / max(1, |E|), leaves every entry bounded by its Cauchy factor and
    puts 1 / max(1, |E|) on the diagonal; E itself is never formed, so
    nothing overflows.  Then Q = Q+ - i sum_n x_n A_n^dag, symmetric to
    1e-10 by the norming-constant symmetries.  Raises `SingularSystem` when
    kappa_inf of the scaled 2R x 2R system exceeds `COND_LIMIT` at any of the
    points (`eval_field` masks such points instead); kappa_2 / 2R <=
    kappa_inf <= 2R kappa_2.
    """
    x, t = np.broadcast_arrays(x, t)
    Q, kappa = _field(x, t, spec)
    ok = kappa <= COND_LIMIT
    if not ok.all():
        i = np.argmin(ok)
        raise SingularSystem(f"kappa_inf above {COND_LIMIT:.0e} at {np.sum(~ok)} of {ok.size} points, largest "
                             f"{kappa.max():.3g}, first at (x, t) = ({x.flat[i]:.17g}, {t.flat[i]:.17g})")
    return Q


# mpmath oracles -------------------------------------------------------------
#
# Independent reference evaluations that the tests compare `reconstruct_Q`
# against; `reconstruct_Q` never calls them.  Precision grows with the
# largest log-magnitude of the plane-wave factors (`_dps_for`).  `_mp_theta`
# and `_dps_for` also serve the eliminated-system oracle of `tests/mp_oracle.py`.
# Each oracle imports mpmath itself, so that importing the package and running
# the command line never load it (about 3.5 MB of memory and 35 ms a process).

def _mp_theta(x, t, z: mp.mpc, bg: Background):
    import mpmath as mp

    k0 = mp.mpf(bg.k0)
    w = bg.sigma * k0**2 / z
    k = (z + w) / 2
    lam = (z - w) / 2
    disp = bg.beta * (4 * k**2 - 2 * k0**2) + 2 * bg.alpha * k
    return lam * (-x - disp * t)


def _dps_for(scale: float) -> int:
    return 40 + int(2.0 * scale / 2.302585)


# Closed-form one-quartet oracle --------------------------------------------

@lru_cache(maxsize=16)
def _mp_polar(qplus: bytes, k0: float, dps: int) -> mp.matrix:
    """k0 (Q+ Q+^dag)^(-1/2) Q+ at dps digits, Q+ the bytes of a complex 2x2 array; callers must not modify it.

    The float Q+ meets Q+ Q+^dag = k0^2 I only to rounding, and a rank-1
    quartet amplifies that defect like e^s; k0 times the unitary polar
    factor (symmetric for a symmetric Q+) meets it at dps digits.  Every
    point of a background at one precision shares it.
    """
    import mpmath as mp

    with mp.workdps(dps):
        Qp = mp.matrix(np.frombuffer(qplus, dtype=complex).reshape(2, 2).tolist())
        P, V = mp.eighe(Qp * Qp.H)
        return V * mp.diag([mp.mpf(k0) / mp.sqrt(p) for p in P]) * V.H * Qp


def _closed_mp(x: float, t: float, seed: DiscreteEigenpair, bg: Background, dps: int) -> CMat2:
    import mpmath as mp

    with mp.workdps(dps):
        z1 = mp.mpc(seed.zn)
        z1c = mp.conj(z1)
        k0 = mp.mpf(bg.k0)
        if seed.rank_flag is RankFlag.RANK1:
            # the product of the float rank factors is rank 1 at this
            # precision; the rounding-level rank-2 part of a float C1 would
            # grow into a spurious structure in the left far field
            A, B = _rank_factor(seed.Cn, RankFlag.RANK1)
            C1 = mp.matrix(A.tolist()) * mp.matrix(B.tolist())
        else:
            C1 = mp.matrix(seed.Cn.tolist())
        Qp = _mp_polar(bg.Qplus.tobytes(), bg.k0, dps)
        z2 = -(k0**2) / z1c
        C2 = -(Qp.H * C1.H * Qp.H) / z1c**2
        E1 = mp.exp(-2j * _mp_theta(x, t, z1, bg))
        E1bar = mp.exp(2j * _mp_theta(x, t, z1c, bg))
        E2 = mp.exp(-2j * _mp_theta(x, t, z2, bg))
        D1 = mp.eye(2) + (C1.H * Qp.H) * (1j * E1bar / (z1c**2 + k0**2))
        N = mp.matrix(4, 4)
        N[:2, :2] = D1
        N[:2, 2:] = (Qp * C2) * (-1j * z1c * E2 / (k0**2 * (mp.conj(z2) - z2)))
        N[2:, :2] = (Qp * C1) * (1j * E1 / (z1 * (z1c - z1)))
        N[2:, 2:] = D1.H
        try:
            LU, perm = mp.mp.LU_decomp(N.T)  # [X1 X2] N = [I I]: N^T x_r = e_r + e_(r+2) for row r of X
        except ZeroDivisionError as exc:
            raise SingularSystem(f"closed-form system singular: {exc}") from exc
        X = mp.matrix([list(mp.mp.U_solve(LU, mp.mp.L_solve(LU, mp.matrix([1 - r, r] * 2), perm))) for r in (0, 1)])
        Q = Qp - (X[:, :2] * C1.H) * (1j * E1bar) + (X[:, 2:] * Qp * C1 * Qp) * (1j * E1 / z1**2)
        return np.array(Q.tolist(), dtype=complex)


def one_soliton_closed_form(x: float, t: float, seed: DiscreteEigenpair, bg: Background) -> CMat2:
    """Closed-form one-quartet solution (independent of the linear solver).

    Solves [X1 X2] N = [I I], N = [[D1, B21], [B12, D1^dag]], once in mpmath
    at `_dps_for(log_scale)` digits and returns Q = Q+ - i X1 E1* C1^dag
    + i X2 E1 Q+ C1 Q+ / zeta1^2, E1 = e^{-2i theta(zeta1)}.  Q+ enters as
    k0 (Q+ Q+^dag)^(-1/2) Q+, k0 times its unitary polar factor (Higham,
    SIAM J. Sci. Stat. Comput. 7, 1986), and a rank-1 C1 as the product of
    its `_rank_factor` factors, as in `reconstruct_Q`.  Raises
    `SingularSystem` where N is singular.  The tests' oracle for `reconstruct_Q`.
    """
    spec = expand_quartets([seed], bg)
    return _closed_mp(x, t, seed, bg, _dps_for(log_scale(x, t, spec)))


# Grid and sampled-field helpers ---------------------------------------------

def eval_field(grid: GridSpec, spec: SolitonSpec, preset_name: str = "") -> FieldGrid:
    """Evaluate the reconstruction on a rectangular grid (t outer, x inner).

    Points whose kappa_inf exceeds `COND_LIMIT` are recorded in the mask
    (their values stay zero) instead of aborting the run.  At DEBUG level
    one record states the points, the masked points and the largest and
    99th-percentile kappa_inf.
    """
    xs, ts = grid.x_axis(), grid.t_axis()
    values, kappa = _field(xs[None, :], ts[:, None], spec)
    ok = kappa <= COND_LIMIT
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("eval_field %s: %d points, %d masked, kappa_inf max %.3g p99 %.3g", preset_name, kappa.size,
                   np.sum(~ok), kappa.max(), np.quantile(kappa, 0.99, method="higher"))
    meta = {"preset": preset_name, "artifact_version": ARTIFACT_VERSION,
            "sigma": spec.bg.sigma, "k0": spec.bg.k0,
            "alpha": spec.bg.alpha, "beta": spec.bg.beta}
    return FieldGrid(xs=xs, ts=ts, values=values, mask=~ok, metadata=meta)


def min_decay_rate(spec: SolitonSpec) -> float:
    """2 min_n Im lambda(zeta_n), the slowest spatial decay rate."""
    return 2.0 * float(uniformize(np.array(spec.zetas), spec.bg).lam.imag.min())
