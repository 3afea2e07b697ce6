"""Integrated semigroups of a matrix pencil and their verification.

S_r(t) is the p-fold time integral of the solution propagator on X_ran,
characterized by R_r(lam) x0 = lam^p * Laplace[S_r(.) x0](lam).  The
closed-form backend restricts R_r(mu) to X_ran, inverts it to obtain the
generator A_R = mu I - (restricted R_r(mu))^{-1}, and integrates the
matrix exponential analytically.  The contour backend inverts
R_r(lam) x0 / lam^p numerically and needs no invertibility; on square
pencils its samples are triangular solves with the evaluator's one QZ form.

S_l, characterized on Z_ran by R_l(lam) = E (lam E - A)^{-1} in the same
way, is built the same two ways from the Z side of the same decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ClosedFormUnavailable, DisjointnessViolated, NotInXran
from .laplace import bromwich_invert, contour_for
from .pencil import COND_CAP, SAMPLE_COND_CAP, Pencil, QZForm, resolvent
from .signals import Signal, _combine
from .subspaces import (DecompositionReport, check_disjointness,
                        hilbert_decomposition)

XRAN_TOL = 1e-8
EIGVEC_COND_CAP = 1e8


def propagator_signal(M: np.ndarray) -> Signal:
    """exp(t M) as a matrix-valued exp-polynomial via eigendecomposition.

    Requires M to be diagonalizable with a well-conditioned eigenbasis.
    """
    r = M.shape[0]
    if r == 0:
        return Signal.zero((0, 0))
    w, Q = np.linalg.eig(M)
    if np.linalg.cond(Q) > EIGVEC_COND_CAP:
        raise ClosedFormUnavailable(
            "generator eigenbasis too ill-conditioned for closed form")
    # eigenpairs in the order Signal sorts its terms, so none is moved
    order = np.lexsort((w.imag, w.real))
    w, Q = w[order], Q[:, order]
    Qinv = np.linalg.solve(Q, np.eye(r, dtype=complex))
    outer = np.einsum("ik,kj->kij", Q, Qinv, order="C")  # Q[:, k] Qinv[k, :]
    # one term (k, 1, 0, w_k) per eigenvalue: _combine keeps ``outer`` as is
    return _combine(outer, [(k, 1, 0, wk) for k, wk in enumerate(w)])


def range_generator(R: np.ndarray, basis: np.ndarray, mu) -> np.ndarray:
    """mu I - (basis^H R basis)^{-1}, the generator of the resolvent R at mu
    on the span of ``basis``; refused above COND_CAP."""
    R_restr = basis.conj().T @ R @ basis
    if not np.linalg.cond(R_restr) <= COND_CAP:
        raise ClosedFormUnavailable("resolvent singular on the range space")
    return mu * np.eye(len(R_restr)) - np.linalg.inv(R_restr)


@dataclass
class SemigroupEvaluator:
    """Configured evaluator of S_r(t) (and lazily S_l, S_r^(p))."""

    pencil: Pencil
    mu: complex
    p: int
    backend: str
    decomposition: DecompositionReport
    omega: float
    V: np.ndarray                      # orthonormal basis of X_ran
    A_R: np.ndarray | None             # generator on X_ran coordinates
    prop: Signal | None                # exp(t A_R), matrix signal
    S_coord: Signal | None             # p-fold antiderivative of prop
    spectrum: np.ndarray | None = None  # eigvals(A_R); None without A_R

    @property
    def rank(self) -> int:
        return self.V.shape[1]

    @cached_property
    def _qz(self) -> QZForm:
        return QZForm.of(self.pencil)

    @cached_property
    def _S_left(self) -> Signal:
        """S_l on Z_ran coordinates, from A_L = mu I - (restricted R_l(mu))^{-1}."""
        dec = self.decomposition
        A_L = range_generator(self.pencil.E @ dec.R_mu, dec.Z_ran.basis, self.mu)
        return propagator_signal(A_L).antiderivative(self.p)

    def project(self, x0: np.ndarray) -> np.ndarray:
        """Coordinates in X_ran of x0, a vector or a matrix of columns."""
        return _coordinates(self.V, x0)


def _coordinates(basis: np.ndarray, v: np.ndarray) -> np.ndarray:
    """basis^H v; rejects any column of v farther than XRAN_TOL (relative)
    from the span of the orthonormal ``basis``."""
    v = np.asarray(v, dtype=complex)
    c = basis.conj().T @ v
    dist = np.linalg.norm(v - basis @ c, axis=0)
    if np.any(dist > XRAN_TOL * np.maximum(np.linalg.norm(v, axis=0), 1.0)):
        raise NotInXran(f"distance to the range space is {np.max(dist):.2e}")
    return c


def require_closed_form(ev: SemigroupEvaluator, what: str) -> None:
    """Refuse ``what`` on an evaluator of nonzero rank without a closed form."""
    if ev.rank and ev.S_coord is None:
        raise ClosedFormUnavailable(f"{what} needs the closed-form "
                                    "representation")


def build_evaluator(p: Pencil, mu: complex | None = None, p_int: int | None = None,
                    backend: str = "closed_form") -> SemigroupEvaluator:
    """The p_int-times integrated semigroup of p on its range space X_ran.

    ``mu`` defaults to the shift ``hilbert_decomposition`` picks.  ``p_int``
    defaults to ``decomposition.stagnation_k + 1``: the range chain of
    R_r(mu) stops shrinking at the resolvent index, so no separate index
    estimate is run.  The contour backend stops after the generator and its
    growth bound; it never reads the closed form, so ``prop`` and
    ``S_coord`` stay None.
    """
    if backend not in ("closed_form", "contour"):
        raise ValueError(f"unknown backend {backend!r}")
    omega = p.omega_hint if p.omega_hint is not None else 0.0
    decomposition = hilbert_decomposition(p, mu)
    mu = decomposition.mu
    if p_int is None:
        p_int = decomposition.stagnation_k + 1
    V = decomposition.X_ran.basis
    r = V.shape[1]
    A_R = prop = S_coord = None
    if r > 0:
        try:
            A_R = range_generator(decomposition.R_mu @ p.E, V, mu)
        except ClosedFormUnavailable:
            if backend == "closed_form":
                raise
        if backend == "closed_form":
            prop = propagator_signal(A_R)
            S_coord = prop.antiderivative(p_int)
    spectrum = None if A_R is None else np.linalg.eigvals(A_R)
    if spectrum is not None:
        omega = max(float(np.max(spectrum.real)), omega)
    return SemigroupEvaluator(pencil=p, mu=mu, p=p_int, backend=backend,
                              decomposition=decomposition, omega=omega,
                              V=V, A_R=A_R, prop=prop,
                              S_coord=S_coord, spectrum=spectrum)


def _pencil_solver(ev: SemigroupEvaluator, b: np.ndarray):
    """lam -> (lam E - A)^{-1} b, refused above SAMPLE_COND_CAP: a triangular
    solve with the evaluator's QZ form, factored on first use, on square
    pencils; the least-squares resolvent on rectangular ones."""
    pen = ev.pencil
    if not pen.is_square:
        return lambda lam: resolvent(pen, lam, cond_cap=SAMPLE_COND_CAP) @ b
    return ev._qz.shifted_solver(b)


def transform_sampler(ev: SemigroupEvaluator, x0: np.ndarray):
    """lam -> (lam E - A)^{-1} E x0, the Laplace transform of the solution."""
    return _pencil_solver(ev, ev.pencil.E @ x0)


def _apply(ev: SemigroupEvaluator, t: float, v0: np.ndarray, left: bool):
    """S_l(t) v0 for v0 in Z_ran if ``left``, else S_r(t) v0 for v0 in X_ran."""
    basis = ev.decomposition.Z_ran.basis if left else ev.V
    c = _coordinates(basis, v0)
    if basis.shape[1] == 0 or t == 0:
        return np.zeros(basis.shape[0], dtype=complex)
    if ev.backend == "closed_form":
        return basis @ ((ev._S_left if left else ev.S_coord)(t) @ c)
    v, E, pp = basis @ c, ev.pencil.E, ev.p
    solve = _pencil_solver(ev, v) if left else transform_sampler(ev, v)

    def sample(lam):  # R_l(lam) v / lam^p or R_r(lam) v / lam^p
        return (E @ solve(lam) if left else solve(lam)) / lam ** pp

    # lam^{-p} adds a pole at 0 to the spectrum of A_R
    spectrum = None if ev.spectrum is None else np.append(ev.spectrum, 0.0)
    return bromwich_invert(sample, contour_for(t, ev.omega, spectrum))


def eval_S_r(ev: SemigroupEvaluator, t: float, x0: np.ndarray) -> np.ndarray:
    """S_r(t) x0 for x0 in X_ran."""
    return _apply(ev, t, x0, left=False)


def eval_S_l(ev: SemigroupEvaluator, t: float, z0: np.ndarray) -> np.ndarray:
    """S_l(t) z0 for z0 in Z_ran, from the Z side of the decomposition: the
    closed form of A_L = mu I - (Z_ran^H R_l(mu) Z_ran)^{-1}, or the contour
    inversion of E (lam E - A)^{-1} z0 / lam^p on eval_S_r's contour."""
    return _apply(ev, t, z0, left=True)


def cp_semigroup(ev: SemigroupEvaluator, t: float) -> np.ndarray:
    """The strongly continuous semigroup S_r^(p)(t) as a matrix on X_ran.

    Returns the ambient n x n matrix V exp(t A_R) V^H, which acts as the
    propagator on X_ran and as zero on its orthogonal complement.  Refuses
    when X_ran meets ker E nontrivially, since the propagator is only
    injectively determined under that disjointness.
    """
    flags = check_disjointness(ev.decomposition, ev.pencil)
    if not flags.disjoint_ranE:
        raise DisjointnessViolated(
            f"range space meets ker E (angle {flags.min_angle_kerE:.2e})")
    require_closed_form(ev, "propagator extraction")
    if ev.rank == 0:
        return np.zeros((ev.pencil.n_x, ev.pencil.n_x), dtype=complex)
    return ev.V @ ev.prop(t) @ ev.V.conj().T


def f_norm(ev: SemigroupEvaluator, x0: np.ndarray) -> float:
    """sup over [0, 10] of ||exp(-omega t) S_r^(p)(t) x0||, on 200 points."""
    c = ev.project(x0)
    require_closed_form(ev, "the F-norm")
    if ev.rank == 0:
        return 0.0
    ts = np.linspace(0.0, 10.0, 200)
    vals = ev.prop(ts) @ c
    return float(np.max(np.exp(-ev.omega * ts)
                        * np.linalg.norm(vals, axis=1)))


@dataclass(frozen=True)
class PropertyReport:
    residuals: dict
    grid: tuple
    tol: float

    @property
    def passed(self) -> dict:
        return {k: v <= self.tol for k, v in self.residuals.items()}

    @property
    def all_passed(self) -> bool:
        return all(self.passed.values())


def verify_properties(ev: SemigroupEvaluator,
                      time_grid=(0.1, 0.5, 1.0, 2.0),
                      tol: float = 1e-6) -> PropertyReport:
    """Residuals of the integrated-semigroup identity suite.

    (a) commutation with R_r(mu) on X_ran;
    (b) E S_r(t) = S_l(t) E on X_ran;
    (c) d/dt E S_r(t) x0 = A S_r(t) x0 + t^{p-1}/(p-1)! E x0;
    (d) A int_0^t S_r = E S_r(t) - t^p/p! E on X_ran;
    (f) the composition formula for S_r(t) S_r(s).
    Derivatives and integrals in (c), (d) are analytic; the composition
    integral in (f) uses 40-node Gauss-Legendre quadrature (the integrand
    is entire in the integration variable).  Signals are evaluated on
    whole grids: S_r, its derivative, its antiderivative and S_l once each
    on time_grid, and S_r at all 40 nodes of one t, or of one (t, s) pair,
    per call.  (b) takes the left coordinates of all columns of E V in one
    projection.
    """
    require_closed_form(ev, "identity verification")
    if ev.rank == 0:
        return PropertyReport(dict.fromkeys("abcdf", 0.0), tuple(time_grid), tol)
    E, A, V, p = ev.pencil.E, ev.pencil.A, ev.V, ev.p
    S = ev.S_coord
    W = ev.decomposition.Z_ran.basis
    Rr = ev.decomposition.R_mu @ E
    scale = max(np.linalg.norm(E, 2) + np.linalg.norm(A, 2), 1.0)
    ts = np.asarray(time_grid, dtype=float)

    def mnorm(M):
        """Largest 2-norm over a stack of matrices."""
        return float(np.max(np.linalg.norm(M, 2, axis=(-2, -1))))

    EV, AV = E @ V, A @ V
    St = S(ts)                                    # (len(ts), r, r)
    tt = ts[:, None, None]
    res = {}
    # (a) commutation with the right resolvent on X_ran
    S_amb = V @ St @ V.conj().T
    res["a"] = mnorm((Rr @ S_amb - S_amb @ Rr) @ (V @ V.conj().T))
    # (b) intertwining with the left semigroup
    Slt = W @ ev._S_left(ts) @ _coordinates(W, EV)
    res["b"] = mnorm(EV @ St - Slt)
    # (c) p-times integrated equation (analytic derivative)
    res["c"] = mnorm(EV @ S.derivative()(ts) - (
        AV @ St + tt ** (p - 1) / math.factorial(p - 1) * EV))
    # (d) integral identity (analytic antiderivative)
    res["d"] = mnorm(AV @ S.antiderivative()(ts)
                     - (EV @ St - tt ** p / math.factorial(p) * EV))
    # (f) composition formula, quadrature in the inner variable
    nodes, weights = np.polynomial.legendre.leggauss(40)
    diffs = []
    for i, t in enumerate(ts):
        rad = t / 2.0
        taus = rad + rad * nodes
        S_tau = S(taus)
        for j, s in enumerate(ts):
            acc = (np.tensordot(weights * (t - taus) ** (p - 1), S(taus + s), 1)
                   - np.tensordot(weights * (t + s - taus) ** (p - 1), S_tau, 1))
            diffs.append(St[i] @ St[j] - acc * rad / math.factorial(p - 1))
    res["f"] = mnorm(np.array(diffs))
    res = {k: v / scale for k, v in res.items()}
    return PropertyReport(res, tuple(time_grid), tol)
