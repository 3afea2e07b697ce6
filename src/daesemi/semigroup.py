"""Integrated semigroups of a matrix pencil and their verification.

S_r(t) is the p-fold time integral of the solution propagator on X_ran,
characterized by R_r(lam) x0 = lam^p * Laplace[S_r(.) x0](lam); its
generator is the split's A_R (E V A_R = A V on X_ran).  ``build_evaluator``
holds it in closed form, Q diag(phi_p(t, w)) Q^{-1} with phi_p(t, w) =
int_0^t (t - s)^{p-1} / (p-1)! e^{s w} ds (``ModalSignal``), where the
eigenbasis Q of A_R passes its gate (the decomposition's ``prop``), and
samples it by ``contour_coords`` elsewhere, as on the transport generator,
one Jordan block.  S_l, characterized on Z_ran = E X_ran by R_l(lam) =
E (lam E - A)^{-1}, is built the same two ways (``eval_S_l``).
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ClosedFormUnavailable, DisjointnessViolated, NotInXran
from .laplace import bromwich_invert, contour_for
from .pencil import COND_CAP, Pencil, SchurForm, gated_inverse
from .signals import ModalSignal
from .subspaces import (ANGLE_TOL, DecompositionReport, angle_to_kerE,
                        hilbert_decomposition, propagator_signal)

XRAN_TOL = 1e-8
IDENTITY_GRID = (0.1, 0.5, 1.0, 2.0)
IDENTITY_TOL = 1e-6
SWEEP_ENTRIES = 1 << 16  # node entries (nodes times dim X_ran) per sweep


@dataclass
class SemigroupEvaluator:
    """Evaluator of S_r(t) (and lazily S_l) on its decomposition's X_ran."""

    decomposition: DecompositionReport
    p: int
    S_coord: ModalSignal | None  # p-fold antiderivative of its report's prop

    @property
    def backend(self) -> str:
        return "contour" if self.rank and self.S_coord is None else "closed_form"

    @property
    def closed_form(self) -> ModalSignal:
        """S_coord, else built from ``prop``, which refuses a bad eigenbasis."""
        return self.S_coord or self.decomposition.prop.antiderivative(self.p)

    @property
    def rank(self) -> int:
        return self.decomposition.X_ran.rank

    @property
    def V(self) -> np.ndarray:
        """Orthonormal basis of X_ran."""
        return self.decomposition.X_ran.basis

    @cached_property
    def _S_left(self) -> ModalSignal:
        """S_l on Z_ran coordinates: A_L = mu I - (Z^H R_l(mu) Z)^{-1}."""
        dec, Z = self.decomposition, self.decomposition.Z_ran.basis
        R = Z.conj().T @ dec.pencil.E @ dec.R_mu @ Z
        R_inv, _ = gated_inverse(R, COND_CAP, ClosedFormUnavailable,
                                 "R_l(mu) singular on Z_ran")
        A_L = dec.mu * np.eye(len(R)) - R_inv
        return propagator_signal(SchurForm.of(A_L)).antiderivative(self.p)

    @cached_property
    def _angle_kerE(self) -> float:
        """Smallest principal angle between X_ran and ker E."""
        dec = self.decomposition
        return angle_to_kerE(dec.X_ran, dec.pencil)

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


def build_evaluator(p: Pencil) -> SemigroupEvaluator:
    """The p-times integrated semigroup of p on its range space X_ran.

    The decomposition fixes both: the generator is its A_R, and p is
    ``stagnation_k + 1``, since Wong's sequences stop at the index.
    S_coord is None where its ``prop`` refuses A_R's eigenbasis; eval_S_r
    and eval_S_l then take the contour.
    """
    rep = hilbert_decomposition(p)
    p_int = rep.stagnation_k + 1
    S_coord = None
    if rep.X_ran.rank:
        rep.S_inv  # the split's refusal, which no contour can pass
        with contextlib.suppress(ClosedFormUnavailable):
            S_coord = rep.prop.antiderivative(p_int)
    return SemigroupEvaluator(decomposition=rep, p=p_int, S_coord=S_coord)


def contour_coords(rep: DecompositionReport, c: np.ndarray, ts, p: int = 0):
    """X_ran coordinates of x(t) and x'(t) at the times ``ts``, x the p-fold
    time integral of exp(t A_R) c, by inverting (lam - A_R)^{-1} c / lam^p.

    In the split's quasi-Weierstrass form S^{-1} (lam E - A) [V | K] =
    diag(lam - A_R, lam N - I) (Berger, Ilchmann & Trenn, LAA 436 (2012)),
    so V (lam - A_R)^{-1} c = (lam E - A)^{-1} E V c on square and
    rectangular pencils alike.  Each t > 0 takes the rule ``contour_for``
    picks for the spectrum of A_R and, for p > 0, the pole at 0; the nodes
    of all times are one batched back-substitution with the report's Schur
    form, gated node by node (``SchurForm.solve_at``), in blocks of about
    SWEEP_ENTRIES node entries, about 10 MB each.  A node's sample
    [F, lam F - x(0)] gives x and x' from one inversion.  Returns (x, x',
    the contour kind per time); at t = 0, x is c (0 for p > 0), x' is NaN
    and the kind None.
    """
    ts = np.asarray(ts, dtype=float)
    r, schur = rep.X_ran.rank, rep.schur
    x_at_0 = 0 if p else c
    spectrum = np.append(schur.T.diagonal(), 0.0) if p else schur.T.diagonal()

    def sample(lams):  # coordinates of the transforms of x and x', as rows
        F = schur.solve_at(lams, c)
        if p:
            F = F / lams[:, None] ** p
        return np.hstack([F, lams[:, None] * F - x_at_0])

    coords = np.full((len(ts), 2 * r), np.nan, dtype=complex)
    coords[ts == 0, :r] = x_at_0
    # X_ran = 0 leaves x = 0 at every t, with no contour to sample
    pos = np.flatnonzero(ts != 0) if r else np.zeros(0, dtype=int)
    cfgs = [contour_for(t, rep.omega, spectrum) for t in ts[pos]]
    block = np.cumsum([len(cfg.nodes) * r for cfg in cfgs]) // SWEEP_ENTRIES
    for b in np.unique(block):
        coords[pos[block == b]] = bromwich_invert(
            sample, [cfg for cfg, bb in zip(cfgs, block) if bb == b])
    kinds = np.full(len(ts), None)
    kinds[pos] = [cfg.kind for cfg in cfgs]
    return coords[:, :r], coords[:, r:], tuple(kinds)


def _apply(ev: SemigroupEvaluator, t: float, v0: np.ndarray, left: bool):
    """S_l(t) v0 for v0 in Z_ran if ``left``, else S_r(t) v0 for v0 in X_ran."""
    basis = ev.decomposition.Z_ran.basis if left else ev.V
    c = _coordinates(basis, v0)
    if basis.shape[1] == 0 or t == 0:
        return np.zeros(basis.shape[0], dtype=complex)
    if ev.S_coord is not None:
        return basis @ ((ev._S_left if left else ev.S_coord)(t) @ c)
    dec, lift = ev.decomposition, ev.V
    if left:  # v0 = E V c
        c = dec.image_part(basis @ c)
        lift = dec.pencil.E @ ev.V
    return lift @ contour_coords(dec, c, [t], ev.p)[0][0]


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
    if not ev._angle_kerE > ANGLE_TOL:
        raise DisjointnessViolated(
            f"range space meets ker E (angle {ev._angle_kerE:.2e})")
    return ev.V @ ev.decomposition.prop(t) @ ev.V.conj().T


def f_norm(ev: SemigroupEvaluator, x0: np.ndarray) -> float:
    """sup over [0, 10] of ||exp(-omega t) S_r^(p)(t) x0||, on 200 points."""
    c = ev.project(x0)
    ts = np.linspace(0.0, 10.0, 200)
    vals = ev.decomposition.prop(ts) @ c
    return float(np.max(np.exp(-ev.decomposition.omega * ts)
                        * np.linalg.norm(vals, axis=1)))


@dataclass(frozen=True)
class PropertyReport:
    residuals: dict
    grid = IDENTITY_GRID
    tol = IDENTITY_TOL

    @property
    def passed(self) -> dict:
        return {k: v <= self.tol for k, v in self.residuals.items()}

    @property
    def all_passed(self) -> bool:
        return all(self.passed.values())


def verify_properties(ev: SemigroupEvaluator) -> PropertyReport:
    """Residuals of the integrated-semigroup identity suite on IDENTITY_GRID,
    passed at IDENTITY_TOL, at the pencil's shift mu and the evaluator's p.

    (a) commutation with R_r(mu) on X_ran;
    (b) E S_r(t) = S_l(t) E on X_ran;
    (c) d/dt E S_r(t) x0 = A S_r(t) x0 + t^{p-1}/(p-1)! E x0;
    (d) A int_0^t S_r = E S_r(t) - t^p/p! E on X_ran;
    (f) the composition formula for S_r(t) S_r(s).
    Derivatives and integrals in (c), (d) are analytic; the composition
    integral in (f) uses 40-node Gauss-Legendre quadrature (the integrand
    is entire in the integration variable).  Signals are evaluated on
    whole grids: S_r, its derivative, its antiderivative and S_l once each
    on the grid.  S_r = Q diag(d(t)) Q^{-1} in A_R's eigenbasis, so (f)
    contracts the quadrature weights with d's term basis at the nodes and
    then with d's coefficients, which gives every (t, s) pair's integral
    as one diagonal; all pairs then meet Q and Q^{-1} in one product.
    (b) takes the left coordinates of all columns of E V in one projection.
    """
    if ev.rank == 0:
        return PropertyReport(dict.fromkeys("abcdf", 0.0))
    dec, V, p, S = ev.decomposition, ev.V, ev.p, ev.closed_form
    E, A, W = dec.pencil.E, dec.pencil.A, dec.Z_ran.basis
    Rr = dec.R_mu @ E
    scale = max(dec.pencil.scale, 1.0)
    ts = np.asarray(IDENTITY_GRID, dtype=float)

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
    # (f) composition formula; quadrature weights meet S's coefficients once
    nodes, weights = np.polynomial.legendre.leggauss(40)
    taus, ss = tt / 2.0 * (1.0 + nodes), ts[:, None]    # (t, 1, node), (s, 1)
    w = weights * tt / (2.0 * math.factorial(p - 1))
    terms = ((w * (tt - taus) ** (p - 1))[..., None] * S.d._basis(taus + ss)
             - (w * (tt + ss - taus) ** (p - 1))[..., None] * S.d._basis(taus))
    diag = np.tensordot(terms.sum(axis=2), S.d.coeffs, 1)   # (t, s, r)
    acc = S.Q @ (diag[..., None] * S.Qinv)                 # (t, s, r, r)
    res["f"] = mnorm(St[:, None] @ St[None, :] - acc)
    res = {k: v / scale for k, v in res.items()}
    return PropertyReport(res)
