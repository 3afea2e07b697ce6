"""Matrix pencils (E, A), resolvents and index estimation.

The pencil lives between spaces of dimension n_x and n_z.  Square pencils
admit the resolvent (lam*E - A)^{-1}; rectangular ones are analysis-only and
use the least-squares (Moore-Penrose) resolvent, which is the discrete
analogue of an operator that is invertible between function spaces of
different "coordinate" dimensions.  Square pencils that are solved at many
shifts are factored once into complex QZ form (``QZForm``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import ztrcon, ztrtrs

from .errors import NotRegularOnRay, ShapeMismatch, SingularAtLambda

COND_CAP = 1e12
# Cap for sampled resolvents (index fit, contour nodes): norms growing like
# |lam|^p_res are measured there and must not be mistaken for singularity.
SAMPLE_COND_CAP = 1e15
RANK_RCOND = 1e-10
TOL_SLOPE = 0.15


@dataclass(frozen=True)
class Pencil:
    """The pair (E, A) defining d/dt(E x) = A x + f."""

    E: np.ndarray
    A: np.ndarray
    omega_hint: float | None = None
    name: str = ""

    def __post_init__(self):
        E = np.asarray(self.E, dtype=complex)
        A = np.asarray(self.A, dtype=complex)
        if E.ndim != 2 or E.shape != A.shape:
            raise ShapeMismatch(f"E {E.shape} vs A {A.shape}")
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "A", A)

    @property
    def n_x(self) -> int:
        return self.E.shape[1]

    @property
    def n_z(self) -> int:
        return self.E.shape[0]

    @property
    def is_square(self) -> bool:
        return self.n_x == self.n_z

    @property
    def scale(self) -> float:
        return float(np.linalg.norm(self.E, 2) + np.linalg.norm(self.A, 2))


def default_shift(p: Pencil) -> float:
    """The shift mu used when none is given: two right of the growth hint."""
    return (p.omega_hint or 0.0) + 2.0


def spectral_shift(p: Pencil) -> float | None:
    """Two right of the largest real part of the finite eigenvalues.

    The fallback when a finite eigenvalue sits at ``default_shift(p)``; it
    costs a generalized eigenvalue solve, so it is computed only then.
    None for rectangular pencils and pencils with no finite eigenvalue.
    """
    if not p.is_square:
        return None
    w = scipy.linalg.eigvals(p.A, p.E)
    w = w[np.isfinite(w)]
    return float(np.max(w.real)) + 2.0 if w.size else None


@dataclass(frozen=True)
class SubspaceBasis:
    basis: np.ndarray  # orthonormal columns
    ambient_dim: int

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T


def null_space(M: np.ndarray, scale: float | None = None) -> SubspaceBasis:
    """Orthonormal kernel basis.

    ``scale`` sets an absolute floor for the rank cutoff; without it a
    matrix that is entirely round-off noise would count as full rank.
    """
    u, s, vh = np.linalg.svd(M)
    tol = max(s[0] if s.size else 0.0, scale or 0.0) * RANK_RCOND
    rank = int(np.sum(s > tol))
    return SubspaceBasis(vh[rank:].conj().T, M.shape[1])


def power_kernel(R: np.ndarray, k: int) -> SubspaceBasis:
    """ker R^k, with ||R||_2^k as the absolute rank floor.

    Powers of a nilpotent-like map may be pure round-off noise.
    """
    return null_space(np.linalg.matrix_power(R, k),
                      scale=np.linalg.norm(R, 2) ** k)


@dataclass(frozen=True)
class IndexReport:
    sample_points: np.ndarray
    norms: np.ndarray
    fitted_slope: float
    p_res: int
    growth_constant: float
    p_res_vertical: int | None = None
    axis_consistent: bool = True


@dataclass(frozen=True)
class Chain:
    """x_1 in ker E, E x_{i+1} = A x_i."""

    vectors: tuple[np.ndarray, ...]

    @property
    def length(self) -> int:
        return len(self.vectors)


def pencil_matrix(p: Pencil, lam: complex) -> np.ndarray:
    return lam * p.E - p.A


def resolvent(p: Pencil, lam: complex, cond_cap: float = COND_CAP) -> np.ndarray:
    """(lam E - A)^{-1}; least-squares pseudoinverse for rectangular pencils."""
    M = pencil_matrix(p, lam)
    if not p.is_square:
        # analysis-only: full column rank required; the pseudoinverse is
        # formed from the same SVD, truncated as np.linalg.pinv would
        u, s, vh = np.linalg.svd(M, full_matrices=False)
        if s[-1] <= s[0] / cond_cap:
            raise SingularAtLambda(f"rank-deficient at lambda={lam}")
        keep = s > RANK_RCOND * s[0]
        return (vh[keep].conj().T / s[keep]) @ u[:, keep].conj().T
    try:
        cond = np.linalg.cond(M)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise SingularAtLambda(str(exc)) from exc
    if not np.isfinite(cond) or cond > cond_cap:
        raise SingularAtLambda(f"cond {cond:.2e} at lambda={lam}")
    return np.linalg.solve(M, np.eye(p.n_z, dtype=complex))


@dataclass(frozen=True)
class QZForm:
    """Complex QZ form A = Q AA Z^H, E = Q EE Z^H of a square pencil.

    AA and EE are upper triangular (Moler & Stewart, SIAM J. Numer. Anal.
    1973), so every shifted system (lam E - A) x = b is the triangular
    system (lam EE - AA) y = Q^H b with x = Z y: one O(n^2) solve per shift
    after one O(n^3) factorization (Laub, IEEE TAC 1981).
    """

    AA: np.ndarray
    EE: np.ndarray
    Q: np.ndarray
    Z: np.ndarray

    @classmethod
    def of(cls, p: Pencil) -> "QZForm":
        return cls(*scipy.linalg.qz(p.A, p.E, output="complex"))

    def shifted_solver(self, b: np.ndarray):
        """lam -> (lam E - A)^{-1} b, with Q^H b formed once.

        Each call gates lam EE - AA by its LAPACK 1-norm condition estimate
        and raises SingularAtLambda above SAMPLE_COND_CAP.
        """
        c = self.Q.conj().T @ np.asarray(b, dtype=complex)

        def solve(lam: complex) -> np.ndarray:
            T = lam * self.EE - self.AA
            rcond, info = ztrcon(T)
            if (info != 0 or not T.diagonal().all()
                    or not rcond >= 1.0 / SAMPLE_COND_CAP):
                raise SingularAtLambda(f"rcond {rcond:.2e} at lambda={lam}")
            y, info = ztrtrs(T, c)
            if info != 0:
                raise SingularAtLambda(f"zero pivot at lambda={lam}")
            return self.Z @ y

        return solve


def right_resolvent(p: Pencil, lam: complex) -> np.ndarray:
    """R_r(lam) = (lam E - A)^{-1} E, acting on the x-space."""
    return resolvent(p, lam) @ p.E


def left_resolvent(p: Pencil, lam: complex) -> np.ndarray:
    """R_l(lam) = E (lam E - A)^{-1}, acting on the z-space."""
    return p.E @ resolvent(p, lam)


def _fit_slope(lams: np.ndarray, norms: np.ndarray) -> float:
    x = np.log(lams)
    y = np.log(norms)
    A = np.vstack([x, np.ones_like(x)]).T
    slope, _ = np.linalg.lstsq(A, y, rcond=None)[0]
    return float(slope)


def _p_from_slope(slope: float) -> int:
    return max(0, math.ceil(slope + 1.0 - TOL_SLOPE))


def _sample_norms(p: Pencil, lams: np.ndarray) -> np.ndarray:
    """||(lam E - A)^+||_2 = 1/sigma_min at each lam, from one batched SVD.

    Raises SingularAtLambda where sigma_min <= sigma_max / SAMPLE_COND_CAP,
    the gate ``resolvent`` applies with that cap.
    """
    s = np.linalg.svd(lams[:, None, None] * p.E - p.A, compute_uv=False)
    bad = s[:, -1] <= s[:, 0] / SAMPLE_COND_CAP
    if np.any(bad):
        raise SingularAtLambda(f"singular sample at {lams[np.argmax(bad)]}")
    return 1.0 / s[:, -1]


def estimate_resolvent_index(p: Pencil) -> IndexReport:
    """Fit the growth exponent of ||(lam E - A)^{-1}|| on the real ray.

    Samples 16 geometrically spaced points from max(10, omega + 1) to 1e3.

    Also fits along a vertical line as a cross-check, since the half-plane
    bound is only exercised on the real axis.  Each line's norms are the
    reciprocal smallest singular values of one batched SVD of the stacked
    lam E - A (the least-squares resolvent's norm on rectangular pencils).
    Sampling relaxes the usual condition-number cap: resolvent norms
    growing like lam**p_res are the very thing being measured and must not
    be mistaken for singularity.
    """
    omega = p.omega_hint if p.omega_hint is not None else 0.0
    lam_min = max(10.0, omega + 1.0)
    lams = np.geomspace(lam_min, 1e3, 16)
    try:
        norms = _sample_norms(p, lams)
    except SingularAtLambda as exc:
        raise NotRegularOnRay(str(exc)) from exc
    slope = _fit_slope(lams, norms)
    p_res = _p_from_slope(slope)
    # growth constant C with ||resolvent|| <= C |lam|^{p_res - 1}
    C = float(np.max(norms / lams ** (p_res - 1)))

    # vertical-line cross-check at fixed real part, at the ray's sample heights
    vlams = lam_min + 1j * lams
    try:
        p_vert = _p_from_slope(_fit_slope(np.abs(vlams),
                                          _sample_norms(p, vlams)))
    except SingularAtLambda:
        p_vert = None
    return IndexReport(sample_points=lams, norms=norms, fitted_slope=slope,
                       p_res=p_res, growth_constant=C,
                       p_res_vertical=p_vert,
                       axis_consistent=(p_vert is None or p_vert == p_res))


def chain_index(p: Pencil) -> tuple[int, list[Chain]]:
    """Longest chain x_1 in ker E, E x_{i+1} = A x_i, with witnesses.

    Works on the subspace of all partial chains (x_1, ..., x_j) stacked in
    C^{j*n} rather than extending individual kernel vectors, because for a
    general pencil only special kernel directions admit long chains and
    each extension step is determined only up to ker E.
    """
    n = p.n_x
    kernel = null_space(p.E).basis
    if kernel.shape[1] == 0:
        return 0, []
    scale = max(p.scale, 1.0)
    # G holds a basis of the space of length-j chains, stacked by level
    G = kernel
    q = 1
    best = G
    while q < n + 1:
        tips = G[-n:, :]
        d = G.shape[1]
        # solve  E y = A x_j  jointly: null space of [A tips | -E]
        M = np.hstack([p.A @ tips, -p.E]) / scale
        ns = null_space(M).basis
        if ns.size == 0:
            break
        c, y = ns[:d, :], ns[d:, :]
        ext = np.vstack([G @ c, y])
        # discard solutions whose chain head (hence whole chain) vanishes
        head_rank = np.linalg.matrix_rank(ext[:n, :], tol=1e-8)
        if head_rank == 0:
            break
        G = ext
        best = G
        q += 1
    heads = np.linalg.norm(best[:n, :], axis=0)
    vecs = best[:, int(np.argmax(heads))]
    witness = Chain(tuple(vecs.reshape(q, n)))
    return q, [witness]

