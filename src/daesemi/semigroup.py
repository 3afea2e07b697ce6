"""Integrated semigroups of a matrix pencil and their verification.

S_r(t) is the p-fold time integral of the solution propagator on X_ran,
characterized by R_r(lam) x0 = lam^p * Laplace[S_r(.) x0](lam).  The
closed-form backend restricts R_r(mu) to X_ran, inverts it to obtain the
generator A_R = mu I - (restricted R_r(mu))^{-1}, and integrates the
matrix exponential analytically.  The contour backend inverts
R_r(lam) x0 / lam^p numerically and needs no invertibility; on square
pencils its samples are triangular solves with the evaluator's one QZ form.

S_l comes from the transformed pencil (E (mu E - A)^{-1}, A (mu E - A)^{-1}),
whose right objects coincide with the left objects of the original pencil.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ClosedFormUnavailable, DisjointnessViolated, NotInXran
from .laplace import bromwich_invert, contour_for
from .pencil import COND_CAP, SAMPLE_COND_CAP, Pencil, QZForm, resolvent
from .signals import Signal
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
    return Signal.from_terms(zip(outer, np.zeros(r), w), shape=(r, r))


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
    _left: "SemigroupEvaluator | None" = field(default=None, repr=False)
    _qz: QZForm | None = field(default=None, repr=False)

    @property
    def rank(self) -> int:
        return self.V.shape[1]

    def project(self, x0: np.ndarray) -> np.ndarray:
        """Coordinates in X_ran of x0, a vector or a matrix of columns.

        Rejects any column farther than XRAN_TOL (relative) from X_ran.
        """
        x0 = np.asarray(x0, dtype=complex)
        c = self.V.conj().T @ x0
        dist = np.linalg.norm(x0 - self.V @ c, axis=0)
        if np.any(dist > XRAN_TOL * np.maximum(np.linalg.norm(x0, axis=0), 1.0)):
            raise NotInXran(
                f"distance to the range space is {np.max(dist):.2e}")
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
        R_restr = V.conj().T @ (decomposition.R_mu @ p.E) @ V
        if np.linalg.cond(R_restr) <= COND_CAP:
            A_R = mu * np.eye(r) - np.linalg.solve(
                R_restr, np.eye(r, dtype=complex))
        elif backend == "closed_form":
            raise ClosedFormUnavailable(
                "R_r(mu) is not invertible on the range space "
                "(range and kernel overlap)")
        if backend == "closed_form":
            prop = propagator_signal(A_R)
            S_coord = prop.antiderivative(p_int)
    spectrum = None
    omega_growth = omega
    if A_R is not None and A_R.size:
        spectrum = np.linalg.eigvals(A_R)
        omega_growth = max(float(np.max(spectrum.real)), omega)
    return SemigroupEvaluator(pencil=p, mu=mu, p=p_int, backend=backend,
                              decomposition=decomposition, omega=omega_growth,
                              V=V, A_R=A_R, prop=prop,
                              S_coord=S_coord, spectrum=spectrum)


def transform_sampler(ev: SemigroupEvaluator, x0: np.ndarray):
    """lam -> (lam E - A)^{-1} E x0, the Laplace transform of the solution.

    Square pencils are factored into QZ form once per evaluator, on the
    first call, and each sample is one triangular solve; rectangular pencils
    use the least-squares resolvent.  Both refuse a sample above
    SAMPLE_COND_CAP with SingularAtLambda.
    """
    pen = ev.pencil
    b = pen.E @ x0
    if not pen.is_square:
        return lambda lam: resolvent(pen, lam, cond_cap=SAMPLE_COND_CAP) @ b
    if ev._qz is None:
        ev._qz = QZForm.of(pen)
    return ev._qz.shifted_solver(b)


def _left_evaluator(ev: SemigroupEvaluator) -> SemigroupEvaluator:
    if ev._left is None:
        inv = ev.decomposition.R_mu
        tp = Pencil(ev.pencil.E @ inv, ev.pencil.A @ inv,
                    omega_hint=ev.pencil.omega_hint,
                    name=ev.pencil.name + ":left")
        ev._left = build_evaluator(tp, mu=ev.mu, p_int=ev.p,
                                   backend=ev.backend)
    return ev._left


def eval_S_r(ev: SemigroupEvaluator, t: float, x0: np.ndarray) -> np.ndarray:
    """S_r(t) x0 for x0 in X_ran."""
    c = ev.project(x0)
    if ev.rank == 0 or t == 0:
        return np.zeros(ev.pencil.n_x, dtype=complex)
    if ev.backend == "closed_form":
        return ev.V @ (ev.S_coord(t) @ c)
    sample, pp = transform_sampler(ev, ev.V @ c), ev.p
    # lam^{-p} adds a pole at 0 to the spectrum of A_R
    spectrum = None if ev.spectrum is None else np.append(ev.spectrum, 0.0)
    return bromwich_invert(lambda lam: sample(lam) / lam ** pp,
                           contour_for(t, ev.omega, spectrum))


def eval_S_l(ev: SemigroupEvaluator, t: float, z0: np.ndarray) -> np.ndarray:
    """S_l(t) z0 for z0 in Z_ran, via the transformed pencil."""
    return eval_S_r(_left_evaluator(ev), t, z0)


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
        zero = {k: 0.0 for k in "abcdf"}
        return PropertyReport(zero, tuple(time_grid), tol)
    E, A, V, p = ev.pencil.E, ev.pencil.A, ev.V, ev.p
    S = ev.S_coord
    lev = _left_evaluator(ev)
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
    Slt = lev.V @ lev.S_coord(ts) @ lev.project(EV)
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
