"""Wong's sequences of the pencil and the split X = X_ran + X_ker.

``hilbert_decomposition`` runs Wong's two sequences in lockstep, with no
shift (Wong, JDE 16 (1974); Berger, Ilchmann & Trenn, LAA 436 (2012)):
V_{j+1} = {x in V_j : A x in E V_j} shrinks from C^n to V* = X_ran, and
W_{j+1} = {x : E x in A W_j} grows from 0 to W* = X_ker, up to the index
stagnation_k.  A rectangular pencil goes through its least-squares square
reduction (R_mu E, R_mu A).  The left side, the left levels W_{Z,k} in
which R_l(mu) = E R_mu is block upper triangular, and on a square pencil
mu and R_mu themselves are built on first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import BasisMismatch, ClosedFormUnavailable, SingularAtLambda
from .pencil import (COND_CAP, Pencil, SchurForm, SubspaceBasis,
                     gated_inverse, svd_split)
from .signals import ModalSignal, _combine

ANGLE_TOL = 1e-6
EIGVEC_COND_CAP = 1e8


def principal_angles(U: SubspaceBasis, V: SubspaceBasis) -> np.ndarray:
    """Principal angles (radians, ascending) between two subspaces.

    Uses the sine-based recomputation for small angles, so values far
    below sqrt(machine eps) are meaningful.
    """
    if U.rank == 0 or V.rank == 0:
        return np.array([])
    return np.sort(scipy.linalg.subspace_angles(U.basis, V.basis))


def intersection_dim(U: SubspaceBasis, V: SubspaceBasis,
                     angle_tol: float = ANGLE_TOL) -> int:
    ang = principal_angles(U, V)
    return int(np.sum(ang < angle_tol))


def complement_in(outer: SubspaceBasis, inner: SubspaceBasis) -> SubspaceBasis:
    """Orthogonal complement of ``inner`` inside ``outer``."""
    resid = outer.basis - inner.basis @ (inner.basis.conj().T @ outer.basis)
    return svd_split(resid, rcond=1e-8)[0]


def propagator_signal(schur: SchurForm) -> ModalSignal:
    """exp(t M) = Q diag(e^{t w}) Q^{-1}, M = U T U^H, in the eigenbasis Q
    read off T (``SchurForm.eigenvectors``); d has one term per distinct
    eigenvalue, 1 on its columns of Q.  Refuses an eigenbasis whose 1-norm
    condition number, kept as ``cond``, exceeds EIGVEC_COND_CAP."""
    w, Q = schur.T.diagonal(), schur.eigenvectors()
    order = np.lexsort((w.imag, w.real))  # Signal's term order: none moves
    w, Q = w[order], Q[:, order]
    Qinv, cond = gated_inverse(
        Q, EIGVEC_COND_CAP, ClosedFormUnavailable,
        "generator eigenbasis too ill-conditioned for closed form")
    # one term (k, 1, 0, w_k) per eigenvalue; equal eigenvalues share one
    d = _combine(np.eye(len(w), dtype=complex),
                 [(k, 1, 0, wk) for k, wk in enumerate(w)])
    return ModalSignal(d, Q, Qinv, cond)


@dataclass
class DecompositionReport:
    """The V iterates, one step past stagnation, and X_ker = W at the index
    stagnation_k.  On first read: the split's S^{-1}, A_R, its Schur form and
    exp(t A_R), the pencil's shift mu and R_mu = (mu E - A)^{-1}, the left
    chain and kernel, and the left levels (W_Z[i] = level i+1, the
    complement of Z_{i+1} in Z_i)."""

    pencil: Pencil
    square: Pencil    # the pencil the split ran on: ``pencil`` or its reduction
    stagnation_k: int
    X_chain: list[SubspaceBasis]  # V_0 ) V_1 ) ... ) V_k = V_{k+1}
    X_ker: SubspaceBasis

    @property
    def X_ran(self) -> SubspaceBasis:
        return self.X_chain[-1]

    @cached_property
    def S_inv(self) -> np.ndarray:
        """S^{-1}, S = [E V | A K] on ``square`` for bases V, K of X_ran, X_ker:
        S^{-1} E [V | K] = diag(I, N) and S^{-1} A [V | K] = diag(A_R, I).  A
        split that is not one raises BasisMismatch, or ClosedFormUnavailable
        unless the 1-norm condition ||S|| ||S^{-1}|| is at most COND_CAP."""
        q, V, K = self.square, self.X_ran.basis, self.X_ker.basis
        if V.shape[1] + K.shape[1] != q.n_x:
            raise BasisMismatch(f"X_ran and X_ker have dimensions {V.shape[1]}"
                                f" and {K.shape[1]}, the state space {q.n_x}")
        return gated_inverse(np.hstack([q.E @ V, q.A @ K]), COND_CAP,
                             ClosedFormUnavailable,
                             "X_ran and X_ker do not split the pencil")[0]

    @cached_property
    def A_R(self) -> np.ndarray:
        """The split's generator (S^{-1} A V)_1: E V A_R = A V, V = X_ran."""
        return self.S_inv[:self.X_ran.rank] @ self.square.A @ self.X_ran.basis

    @cached_property
    def schur(self) -> SchurForm:
        """A_R = U T U^H, its one factorization: the spectrum (T's diagonal),
        the contour's node solves and ``prop``'s eigenbasis all read it."""
        return SchurForm.of(self.A_R)

    @cached_property
    def _prop(self) -> ModalSignal | ClosedFormUnavailable:
        try:
            return propagator_signal(self.schur)
        except ClosedFormUnavailable as refusal:
            return refusal

    @property
    def prop(self) -> ModalSignal:
        """exp(t A_R) in A_R's eigenbasis (``propagator_signal``), built
        once; a refused eigenbasis is refused once, and every read raises
        a ClosedFormUnavailable with that refusal's message."""
        if isinstance(self._prop, ClosedFormUnavailable):
            raise ClosedFormUnavailable(*self._prop.args)
        return self._prop

    @cached_property
    def omega(self) -> float:
        """Growth abscissa of exp(t A_R): the largest real part on its Schur
        diagonal, at least the pencil's omega_hint (0 without one)."""
        return float(np.max(self.schur.T.diagonal().real,
                            initial=self.pencil.omega_hint or 0.0))

    def ran_part(self, x: np.ndarray) -> np.ndarray:
        """Coordinates in X_ran of the part of x (a vector or columns) in
        X_ran taken along X_ker: (S^{-1} E x)_1 on ``square``."""
        return self.S_inv[:self.X_ran.rank] @ (self.square.E @ x)

    def image_part(self, z: np.ndarray) -> np.ndarray:
        """c with E V c the part of z (a vector or columns) in Z_ran taken
        along A X_ker: (S^{-1} z)_1, or (S^{-1} R_mu z)_1 if reduced."""
        z = z if self.pencil.is_square else self.R_mu @ z
        return self.S_inv[:self.X_ran.rank] @ z

    @property
    def mu(self) -> float:
        return self.pencil.shift[0]

    @property
    def R_mu(self) -> np.ndarray:
        return self.pencil.shift[1]

    @cached_property
    def Z_chain(self) -> list[SubspaceBasis]:
        """Z_0 = C^{n_z} and Z_{j+1} = ran E X_j (= ran R_l(mu)^{j+1}), to
        one step past stagnation (one step later on a tall pencil)."""
        p = self.pencil
        chain = [SubspaceBasis(np.eye(p.n_z, dtype=complex), p.n_z),
                 p.E_split[0]]
        for X in self.X_chain[1:]:
            if chain[-1].rank == chain[-2].rank:
                break
            chain.append(svd_split(p.E @ X.basis, scale=p.scale)[0])
        return chain

    @property
    def Z_ran(self) -> SubspaceBasis:
        return self.Z_chain[-1]

    @cached_property
    def Z_ker(self) -> SubspaceBasis:
        """ran [A X_ker | ker R_mu]; ker R_mu = 0 on a square pencil."""
        p = self.pencil
        M = p.A @ self.X_ker.basis
        if not p.is_square:
            M = np.hstack([M, svd_split(self.R_mu)[1].basis])
        return svd_split(M, scale=p.scale)[0]

    # a chain ends one step past stagnation, so it holds one level per power
    @cached_property
    def W_Z(self) -> list[SubspaceBasis]:
        return list(map(complement_in, self.Z_chain, self.Z_chain[1:-1]))


def _disjoint(V: np.ndarray, C: np.ndarray) -> bool:
    """span V and (span C)^perp split the space at angles above ANGLE_TOL."""
    return V.shape[1] == C.shape[1] and (V.shape[1] == 0 or np.linalg.svd(
        C.conj().T @ V, compute_uv=False)[-1] > ANGLE_TOL)


def _advance(s: list, scale: float) -> np.ndarray:
    """keep = ker(D^H H), D^H H of full row rank, and [M, H] <- P^H [M, H]
    keep, for s = [M, H, P, D], P and D bases of ran M and its complement."""
    M, H, P, D = s
    out, keep = svd_split(D.conj().T @ H, scale=scale)[:2]
    if out.rank != D.shape[1]:
        raise SingularAtLambda("singular pencil: a Wong step lost rank")
    s[:2] = (P.conj().T @ X @ keep.basis for X in (M, H))
    return keep.basis


def hilbert_decomposition(p: Pencil) -> DecompositionReport:
    """The Wong split of p (of its least-squares reduction (R_mu E, R_mu A)
    at the pencil's shift if rectangular): V_0, ..., V_k, V_k and W_k, k the
    index, the first j at which V_j meets neither W_j nor ker E.

    In coordinates, with one SVD of about dim V_j x dim V_j per sequence
    and step: V: for U a basis of E V_{j-1}, M = U^H E V_j splits U into
    U P = ran E V_j and U D, and V_{j+1} = V_j ker(D^H U^H A V_j).  W: the
    same step on the adjoint, M = C^H E^H G for C and G bases of W_j^perp
    and (A W_j)^perp, adds C D to W and leaves C P.  At j = 0 both splits
    come from the pencil's one SVD of E (``Pencil.split_E``).  Ranks are
    cut at the floor q.scale.
    A step that loses rank, or changes nothing while V_j and W_j meet (it
    would repeat for ever), raises SingularAtLambda.
    """
    q = p if p.is_square else Pencil(p.shift[1] @ p.E, p.shift[1] @ p.A)
    n = q.n_x
    ranE, kerE, scale, coimE, cokerE = q.split_E()
    v = [q.E, q.A, ranE.basis, cokerE.basis]
    w = [q.E.conj().T, q.A.conj().T, coimE.basis, kerE.basis]
    V = [np.eye(n, dtype=complex)]
    W, C = np.zeros((n, 0), dtype=complex), V[0]
    while kerE.rank if len(V) == 1 else not _disjoint(V[-1], C):
        if len(V) > 1:
            for s in (v, w):
                _, D, _, P = svd_split(s[0].conj().T, scale=scale)
                s[2:] = P.basis, D.basis
        keep = _advance(v, scale)
        if not w[3].shape[1] and keep.shape[1] == V[-1].shape[1]:
            raise SingularAtLambda("Wong's sequences stagnate before V_j "
                                   "and W_j split the space")
        V.append(V[-1] @ keep)
        W, C = np.hstack([W, C @ w[3]]), C @ w[2]
        _advance(w, scale)
    V = [SubspaceBasis(b, n) for b in V]
    return DecompositionReport(pencil=p, square=q, stagnation_k=len(V) - 1,
                               X_chain=V + V[-1:], X_ker=SubspaceBasis(W, n))


def decomposition_basis(rep: DecompositionReport) -> np.ndarray:
    """Unitary [Z_ran | W_{Z,K} | ... | W_{Z,1}] in the display ordering."""
    blocks = [rep.Z_ran.basis] + [w.basis for w in reversed(rep.W_Z)]
    U = np.hstack(blocks)
    n = rep.Z_ran.ambient_dim
    if U.shape != (n, n):
        raise BasisMismatch(
            f"blocks assemble to {U.shape}, ambient dimension {n}")
    if np.linalg.norm(U.conj().T @ U - np.eye(n)) > 1e-8 * max(1, n):
        raise BasisMismatch("assembled basis is not unitary")
    return U


def block_left_resolvent(rep: DecompositionReport):
    """R_l(mu) in the ordered basis (Z_ran, W_{Z,K}, ..., W_{Z,1}).

    Returns (matrix, slices) where slices[i] indexes block i.  Verifies that
    every block row below the first vanishes on and left of its diagonal
    block.  No solver uses the block form; it stays for analysis and
    tracing.
    """
    U = decomposition_basis(rep)
    Rl = rep.pencil.E @ rep.R_mu
    B = U.conj().T @ Rl @ U
    sizes = [rep.Z_ran.rank] + [w.rank for w in reversed(rep.W_Z)]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    slices = [slice(offsets[i], offsets[i + 1]) for i in range(len(sizes))]
    norm = max(np.linalg.norm(Rl, 2), 1e-300)
    for i in range(1, len(sizes)):
        for j in range(0, i + 1):
            blk = B[slices[i], slices[j]]
            if blk.size and np.linalg.norm(blk) > 1e-10 * norm:
                raise BasisMismatch(
                    f"block ({i},{j}) not zero: {np.linalg.norm(blk):.2e}")
    return B, slices


@dataclass(frozen=True)
class DisjointnessFlags:
    disjoint_ranE: bool
    disjoint_kernel: bool
    dim_Xran_cap_Xker: int
    dim_Zran_cap_Zker: int
    min_angle_kerE: float
    min_angle_Xker: float


def angle_to_kerE(X_ran: SubspaceBasis, p: Pencil) -> float:
    """Smallest principal angle between X_ran and ker E (pi/2 if trivial)."""
    ang = principal_angles(X_ran, p.E_split[1])
    return float(ang[0]) if ang.size else np.pi / 2


def check_disjointness(rep: DecompositionReport, p: Pencil) -> DisjointnessFlags:
    """Disjointness of X_ran from ker E and of the ranges from the kernels
    at principal angle ANGLE_TOL, for the split ``rep`` computed."""
    angle_E = angle_to_kerE(rep.X_ran, p)
    ang_K = principal_angles(rep.X_ran, rep.X_ker)
    return DisjointnessFlags(
        disjoint_ranE=angle_E > ANGLE_TOL,
        disjoint_kernel=bool(ang_K.size == 0 or ang_K[0] > ANGLE_TOL),
        dim_Xran_cap_Xker=int(np.sum(ang_K < ANGLE_TOL)),
        dim_Zran_cap_Zker=intersection_dim(rep.Z_ran, rep.Z_ker),
        min_angle_kerE=angle_E,
        min_angle_Xker=float(ang_K[0]) if ang_K.size else np.pi / 2,
    )
