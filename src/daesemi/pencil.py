"""Matrix pencils (E, A), resolvents and index estimation.

The pencil lives between spaces of dimension n_x and n_z.  Square pencils
admit the resolvent (lam*E - A)^{-1}; rectangular ones use the least-squares
(Moore-Penrose) resolvent, the discrete analogue of an operator invertible
between function spaces of different "coordinate" dimensions.  A Pencil
caches ran E, ker E and its scale from one SVD of E, and its first regular
shift.  Contour nodes are not solved on the pencil: the split's generator
A_R, solved at many shifts, is factored once into complex Schur form
(``SchurForm``), and every node is one back-substitution with it, gated by
a batched 1-norm condition estimate; its triangle also gives A_R's eigenbasis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import NotRegularOnRay, ShapeMismatch, SingularAtLambda

COND_CAP = 1e12
# Cap for sampled resolvents and contour nodes: in the index fit, norms
# growing like |lam|^p_res are measured and must not be mistaken for
# singularity; the contour's nodes lam - A_R share it.
SAMPLE_COND_CAP = 1e15
RANK_RCOND = 1e-10
TOL_SLOPE = 0.15
MIN_FIT_SAMPLES = 4


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

    @cached_property
    def E_split(self) -> tuple:
        """(ran E, ker E, scale): what the pencil keeps of ``split_E``."""
        return self.split_E()[:3]

    def split_E(self) -> tuple:
        """(ran E, ker E, scale, coim E, coker E) from one SVD of E, its rank
        cut as svd_split's at the floor scale = ||E||_2 + ||A||_2.

        The complements are read once, by the Wong split's first step; the
        pencil keeps only the first three, as ``E_split``, so that later
        reads take no SVD and hold no singular vectors.
        """
        u, s, vh = np.linalg.svd(self.E)
        scale = float(s.max(initial=0.0) + np.linalg.norm(self.A, 2))
        ran, ker, _, coim = _split((u, s, vh), self.E.shape, RANK_RCOND,
                                   scale)
        kept = SubspaceBasis(ran.basis.copy(), self.n_z), ker, scale
        self.__dict__["E_split"] = kept  # E_split's cache
        return (*kept, coim, SubspaceBasis(u[:, ran.rank:], self.n_z))

    @property
    def scale(self) -> float:
        """||E||_2 + ||A||_2."""
        return self.E_split[2]

    @cached_property
    def shift(self) -> tuple[float, np.ndarray]:
        """(mu, (mu E - A)^{-1}) at the first mu = omega_hint + 2 + j,
        j = 0, 1, ..., n_x, that passes ``resolvent``'s gate: a regular
        pencil has at most n_x finite eigenvalues, so one of them does."""
        for j in range(self.n_x + 1):
            mu = (self.omega_hint or 0.0) + 2.0 + j
            try:
                return mu, resolvent(self, mu)
            except SingularAtLambda:
                if j == self.n_x:
                    raise


@dataclass(frozen=True)
class SubspaceBasis:
    basis: np.ndarray  # orthonormal columns
    ambient_dim: int

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T


def svd_split(M: np.ndarray, rcond: float = RANK_RCOND,
              scale: float | None = None
              ) -> tuple[SubspaceBasis, SubspaceBasis, float, SubspaceBasis]:
    """Orthonormal (range, kernel) bases of M, ||M||_2 and the coimage
    (the complement of the kernel, ran M^H), from one SVD.

    The rank counts s > max(s_0, scale) * rcond; the absolute floor
    ``scale`` keeps a matrix of pure round-off noise from counting as full
    rank.  Only a wide M needs the full V for its kernel.
    """
    m, n = M.shape
    if M.size == 0:
        return (SubspaceBasis(np.zeros((m, 0), dtype=complex), m),
                SubspaceBasis(np.eye(n, dtype=complex), n), 0.0,
                SubspaceBasis(np.zeros((n, 0), dtype=complex), n))
    return _split(np.linalg.svd(M, full_matrices=m < n), M.shape, rcond,
                  scale)


def _split(usv: tuple, shape: tuple, rcond: float, scale: float | None):
    """svd_split's bases from the SVD ``usv`` of a matrix of ``shape``."""
    (m, n), (u, s, vh) = shape, usv
    s0 = float(s.max(initial=0.0))
    rank = int(np.sum(s > max(s0, scale or 0.0) * rcond))
    return (SubspaceBasis(u[:, :rank], m),
            SubspaceBasis(vh[rank:].conj().T, n), s0,
            SubspaceBasis(vh[:rank].conj().T, n))


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


def gated_inverse(M: np.ndarray, cap: float, error: type, what: str) -> tuple:
    """(M^{-1}, kappa_1 = ||M||_1 ||M^{-1}||_1), within a factor n of the
    2-norm condition number (Higham 2002, ch. 6, 15); raises ``error`` when
    M has an exact zero pivot or kappa_1 exceeds ``cap``."""
    try:
        inv = np.linalg.inv(M)
    except np.linalg.LinAlgError as exc:
        raise error(f"{what} (exactly singular)") from exc
    cond = float(np.linalg.norm(M, 1) * np.linalg.norm(inv, 1))
    if not cond <= cap:
        raise error(f"{what} (1-norm condition {cond:.2e})")
    return inv, cond


def resolvent(p: Pencil, lam: complex) -> np.ndarray:
    """(lam E - A)^{-1}; least-squares pseudoinverse for rectangular pencils."""
    M = lam * p.E - p.A
    if not p.is_square:
        # analysis-only: full column rank required; the pseudoinverse is
        # formed from the same SVD, truncated as np.linalg.pinv would
        u, s, vh = np.linalg.svd(M, full_matrices=False)
        if s[-1] <= s[0] / COND_CAP:
            raise SingularAtLambda(f"rank-deficient at lambda={lam}")
        keep = s > RANK_RCOND * s[0]
        return (vh[keep].conj().T / s[keep]) @ u[:, keep].conj().T
    return gated_inverse(M, COND_CAP, SingularAtLambda,
                         f"lam E - A at lambda={lam}")[0]


@dataclass(frozen=True)
class SchurForm:
    """Complex Schur form M = U T U^H of a square matrix, T upper triangular.

    Every shifted system (lam - M) x = b is the triangular system
    (lam - T) y = U^H b with x = U y: one O(r^2) solve per shift after one
    O(r^3) factorization (Laub, IEEE TAC 1981).
    """

    T: np.ndarray
    U: np.ndarray

    @classmethod
    def of(cls, M: np.ndarray) -> "SchurForm":
        return cls(*scipy.linalg.schur(M, output="complex"))

    def eigenvectors(self) -> np.ndarray:
        """Unit 2-norm eigenvectors U X of M, X_kk = 1, (T - T_kk) X[:, k] = 0,
        X solved from its bottom row up.  As in ztrevc, a pivot T_kk - T_ii
        below max(eps |T_kk|, tiny) is raised to it: diagonal T gives X = I."""
        w, X = self.T.diagonal(), np.eye(len(self.T), dtype=complex)
        d = w - w[:, None]                                   # T_kk - T_ii
        floor = np.maximum(np.finfo(float).eps * np.abs(w),
                           np.finfo(float).tiny)
        d = np.where(np.abs(d) < floor, floor, d)
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(len(w) - 2, -1, -1):
                j = slice(i + 1, None)
                X[i, j] = self.T[i, j] @ X[j, j] / d[i, j]
            return self.U @ (X / np.linalg.norm(X, axis=0))

    def solve_at(self, lams, b: np.ndarray) -> np.ndarray:
        """(lam_k - M)^{-1} b for every lam_k in ``lams``, one row each.

        All K triangles lam_k - T are solved by one vectorized
        back-substitution, gated by their batched 1-norm condition estimate
        (``solve_with_rcond``); a sample with an exact zero pivot or above
        SAMPLE_COND_CAP raises SingularAtLambda.
        """
        lams = np.asarray(lams, dtype=complex)
        y, rcond = self.solve_with_rcond(
            lams, self.U.conj().T @ np.asarray(b, dtype=complex))
        bad = ~(rcond >= 1.0 / SAMPLE_COND_CAP)
        if bad.any():
            k = int(np.argmax(bad))
            raise SingularAtLambda(f"rcond {rcond[k]:.2e} at lambda={lams[k]}")
        return (self.U @ y).T

    def solve_with_rcond(self, lams: np.ndarray, c: np.ndarray):
        """(Y, rcond): Y[:, k] = (lam_k - T)^{-1} c and rcond[k] estimates
        1/(||lam_k - T||_1 ||(lam_k - T)^{-1}||_1).

        The inverse's norm is estimated as ztrcon does, by Hager's method in
        Higham's form (ACM TOMS 14, 1988), run on every triangle at once and
        stopped after its first step.  The start vectors x = 1/n and the
        alternating x_i = (-1)^i (1 + i/(n-1)) ride along as extra columns of
        the sweep for c; one sweep with the adjoint gives
        z = (lam - T)^{-H} sign((lam - T)^{-1} x), and one more the column
        (lam - T)^{-1} e_j at j = argmax |z_j|.  Each of the three 1-norms
        (the alternating one times 2/(3n)) is a lower bound, so the largest
        is taken.  ||lam_k - T||_1 is bounded above column by column by
        |lam_k - T_jj| + sum_{i<j} |T_ij|, so rcond can only come out lower
        than with the exact norm.  An exact zero pivot raises
        SingularAtLambda.
        """
        n, K = len(c), len(lams)
        d = lams - self.T.diagonal()[:, None]                # (n, K)
        if not d.all():
            k = int(np.argmin(d.all(axis=0)))
            raise SingularAtLambda(f"zero pivot at lambda={lams[k]}")
        alt = (-1.0) ** np.arange(n) * np.linspace(1.0, 2.0, n)
        rhs = np.stack([c, np.full(n, 1.0 / n), alt], axis=1)[:, None, :]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            Y = _upper_sweep(self.T, d, np.broadcast_to(rhs, (n, K, 3)))
            y = Y[:, :, 1]
            a = np.abs(y)
            sgn = np.where(a > np.finfo(float).tiny, y / a, 1.0)
            # (lam - T)^H is lower triangular; reversing its rows and
            # columns makes it upper triangular again
            T_h = np.ascontiguousarray(self.T.conj().T[::-1, ::-1])
            z = _upper_sweep(T_h, d[::-1].conj(),
                             sgn[::-1, :, None])[::-1, :, 0]
            e = np.zeros((n, K, 1))
            e[np.argmax(np.abs(z), axis=0), np.arange(K), 0] = 1.0
            inv_norm = np.maximum.reduce([
                a.sum(axis=0),
                np.abs(_upper_sweep(self.T, d, e)[:, :, 0]).sum(axis=0),
                2.0 * np.abs(Y[:, :, 2]).sum(axis=0) / (3 * n)])
            off = np.abs(np.triu(self.T, 1)).sum(axis=0)
            norm = np.max(np.abs(d) + off[:, None], axis=0)
            rcond = 1.0 / (norm * inv_norm)
        return Y[:, :, 0], rcond


def _upper_sweep(T: np.ndarray, d: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Y[:, k] = (lam_k - T)^{-1} R[:, k] for every k.

    T is upper triangular, d (n, K) holds the diagonals lam_k - T_ii of
    the K triangles and R is (n, K, m).  Each row step is one product of
    T[i, i+1:] with the (n - i - 1, K m) block already solved, so no
    (K, n, n) stack is formed.
    """
    n, K, m = R.shape
    Y = np.empty((n, K, m), dtype=complex)
    for i in range(n - 1, -1, -1):
        s = (T[i, i + 1:] @ Y[i + 1:].reshape(n - 1 - i, K * m)).reshape(K, m)
        Y[i] = (R[i] + s) / d[i][:, None]
    return Y


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


def _sample_norms(p: Pencil, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lams, ||(lam E - A)^+||_2 = 1/sigma_min) from one batched SVD, on
    the samples whose sigma_max / sigma_min is below SAMPLE_COND_CAP.

    At high index sigma_max / sigma_min grows like lam^p_res past the cap,
    so a refused tail is dropped if MIN_FIT_SAMPLES lead it; any other
    refusal raises SingularAtLambda.
    """
    s = np.linalg.svd(lams[:, None, None] * p.E - p.A, compute_uv=False)
    bad = np.flatnonzero(s[:, -1] <= s[:, 0] / SAMPLE_COND_CAP)
    m = len(lams) - bad.size  # the accepted prefix when ``bad`` is a tail
    if bad.size and (bad[0] != m or m < MIN_FIT_SAMPLES):
        raise SingularAtLambda(f"singular sample at {lams[bad[0]]}")
    return lams[:m], 1.0 / s[:m, -1]


def estimate_resolvent_index(p: Pencil) -> IndexReport:
    """Fit the growth exponent of ||(lam E - A)^{-1}|| on the real ray.

    Samples 16 geometrically spaced points from max(10, omega + 1) to 1e3.

    Also fits along a vertical line as a cross-check, since the half-plane
    bound is only exercised on the real axis.  Each line's norms are the
    reciprocal smallest singular values of one batched SVD of the stacked
    lam E - A (the least-squares resolvent's norm on rectangular pencils).
    Sampling relaxes the usual condition-number cap: resolvent norms
    growing like lam**p_res are the very thing being measured and must not
    be mistaken for singularity, so a refused tail is dropped.
    """
    omega = p.omega_hint if p.omega_hint is not None else 0.0
    lam_min = max(10.0, omega + 1.0)
    heights = np.geomspace(lam_min, 1e3, 16)
    try:
        lams, norms = _sample_norms(p, heights)
    except SingularAtLambda as exc:
        raise NotRegularOnRay(str(exc)) from exc
    slope = _fit_slope(lams, norms)
    p_res = _p_from_slope(slope)
    # growth constant C with ||resolvent|| <= C |lam|^{p_res - 1}
    C = float(np.max(norms / lams ** (p_res - 1)))

    # vertical-line cross-check at fixed real part, at the ray's sample heights
    try:
        vlams, vnorms = _sample_norms(p, lam_min + 1j * heights)
        p_vert = _p_from_slope(_fit_slope(np.abs(vlams), vnorms))
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
    kernel = p.E_split[1].basis
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
        ns = svd_split(M)[1].basis
        if ns.size == 0:
            break
        c, y = ns[:d, :], ns[d:, :]
        ext = np.vstack([G @ c, y])
        # discard solutions whose chain head (hence whole chain) vanishes
        if np.linalg.norm(ext[:n, :], 2) <= 1e-8:
            break
        G = ext
        best = G
        q += 1
    heads = np.linalg.norm(best[:n, :], axis=0)
    vecs = best[:, int(np.argmax(heads))]
    witness = Chain(tuple(vecs.reshape(q, n)))
    return q, [witness]

