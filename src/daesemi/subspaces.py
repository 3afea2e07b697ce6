"""Range/kernel stabilization sequences and the orthogonal decomposition.

X_k = ran R_r(mu)^k and Z_k = ran R_l(mu)^k shrink until they stagnate; the
stagnated spaces X_ran, Z_ran carry the dynamics, their complements split
into levels W_{.,k} in which the left resolvent becomes block upper
triangular with zero diagonal blocks below the first row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import BasisMismatch, NoStagnation, SingularAtLambda
from .pencil import (RANK_RCOND, Pencil, SubspaceBasis, default_shift,
                     null_space, power_kernel, resolvent, spectral_shift)

ANGLE_TOL = 1e-6


def orth_range(M: np.ndarray, rcond: float = RANK_RCOND,
               scale: float | None = None) -> SubspaceBasis:
    """Orthonormal range basis; ``scale`` is an absolute rank floor."""
    if M.size == 0 or not np.any(M):
        return SubspaceBasis(np.zeros((M.shape[0], 0), dtype=complex), M.shape[0])
    u, s, _ = np.linalg.svd(M, full_matrices=False)
    rank = int(np.sum(s > max(s[0], scale or 0.0) * rcond))
    return SubspaceBasis(u[:, :rank], M.shape[0])


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
    return orth_range(resid, rcond=1e-8)


@dataclass
class DecompositionReport:
    mu: complex
    stagnation_k: int
    X_chain: list[SubspaceBasis]  # X_0 ) X_1 ) ... (index = power k)
    Z_chain: list[SubspaceBasis]
    X_ker: SubspaceBasis
    Z_ker: SubspaceBasis
    R_mu: np.ndarray  # (mu E - A)^{-1}, shared by every later stage
    W_X: list[SubspaceBasis] = field(default_factory=list)  # W_X[i] = level i+1
    W_Z: list[SubspaceBasis] = field(default_factory=list)

    @property
    def X_ran(self) -> SubspaceBasis:
        return self.X_chain[-1]

    @property
    def Z_ran(self) -> SubspaceBasis:
        return self.Z_chain[-1]


def _range_chain(R: np.ndarray, p_max: int) -> list[SubspaceBasis]:
    n = R.shape[0]
    floor = np.linalg.norm(R, 2) if n else 0.0
    chain = [SubspaceBasis(np.eye(n, dtype=complex), n)]
    for _ in range(p_max):
        nxt = orth_range(R @ chain[-1].basis, scale=floor)
        chain.append(nxt)
        if nxt.rank == chain[-2].rank:
            return chain
    if chain[-1].rank != chain[-2].rank:
        raise NoStagnation(f"ranks still decreasing after {p_max} steps")
    return chain


def stabilized_sequences(p: Pencil, mu: complex) -> DecompositionReport:
    """Compute the range chains and the stabilized kernels at mu."""
    p_max = max(p.n_x, p.n_z) + 1
    R_mu = resolvent(p, mu)
    Rr = R_mu @ p.E
    Rl = p.E @ R_mu
    X_chain = _range_chain(Rr, p_max)
    Z_chain = _range_chain(Rl, p_max)
    # X_k = X_{k+1} exactly once ranks agree (nested ranges), so the chain
    # ends one step past stagnation; report the stagnation power.
    stag = max(len(X_chain), len(Z_chain)) - 2
    X_ker = power_kernel(Rr, max(stag, 1))
    Z_ker = power_kernel(Rl, max(stag, 1))
    # pad the shorter chain with its stagnated space to the common power
    X_chain += [X_chain[-1]] * (stag + 2 - len(X_chain))
    Z_chain += [Z_chain[-1]] * (stag + 2 - len(Z_chain))
    return DecompositionReport(mu=mu, stagnation_k=stag, X_chain=X_chain,
                               Z_chain=Z_chain, X_ker=X_ker, Z_ker=Z_ker,
                               R_mu=R_mu)


def hilbert_decomposition(p: Pencil, mu: complex | None = None) -> DecompositionReport:
    """Fill in the complements W_{.,k} of the range chains.

    Without ``mu`` the shift is ``default_shift(p)``; if a finite eigenvalue
    makes that shift singular, it moves once to ``spectral_shift(p)``.  The
    shift used is ``rep.mu``.
    """
    if mu is not None:
        rep = stabilized_sequences(p, mu)
    else:
        try:
            rep = stabilized_sequences(p, default_shift(p))
        except SingularAtLambda:
            mu = spectral_shift(p)
            if mu is None:
                raise
            rep = stabilized_sequences(p, mu)
    for chain, W in ((rep.X_chain, rep.W_X), (rep.Z_chain, rep.W_Z)):
        for k in range(rep.stagnation_k):
            W.append(complement_in(chain[k], chain[k + 1]))
    return rep


def decomposition_basis(rep: DecompositionReport, side: str = "Z") -> np.ndarray:
    """Unitary [ran | W_K | ... | W_1] in the display ordering."""
    ran = rep.Z_ran if side == "Z" else rep.X_ran
    Ws = rep.W_Z if side == "Z" else rep.W_X
    blocks = [ran.basis] + [w.basis for w in reversed(Ws)]
    U = np.hstack(blocks)
    n = ran.ambient_dim
    if U.shape != (n, n):
        raise BasisMismatch(
            f"blocks assemble to {U.shape}, ambient dimension {n}")
    if np.linalg.norm(U.conj().T @ U - np.eye(n)) > 1e-8 * max(1, n):
        raise BasisMismatch("assembled basis is not unitary")
    return U


def block_left_resolvent(rep: DecompositionReport, p: Pencil, mu: complex):
    """R_l(mu) in the ordered basis (Z_ran, W_{Z,K}, ..., W_{Z,1}).

    Returns (matrix, slices) where slices[i] indexes block i.  Verifies that
    every block row below the first vanishes on and left of its diagonal
    block.
    """
    U = decomposition_basis(rep, side="Z")
    Rl = p.E @ rep.R_mu
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


def check_disjointness(rep: DecompositionReport, p: Pencil,
                       angle_tol: float = ANGLE_TOL) -> DisjointnessFlags:
    ker_E = null_space(p.E)
    ang_E = principal_angles(rep.X_ran, ker_E)
    ang_K = principal_angles(rep.X_ran, rep.X_ker)
    return DisjointnessFlags(
        disjoint_ranE=bool(ang_E.size == 0 or ang_E[0] > angle_tol),
        disjoint_kernel=bool(ang_K.size == 0 or ang_K[0] > angle_tol),
        dim_Xran_cap_Xker=intersection_dim(rep.X_ran, rep.X_ker, angle_tol),
        dim_Zran_cap_Zker=intersection_dim(rep.Z_ran, rep.Z_ker, angle_tol),
        min_angle_kerE=float(ang_E[0]) if ang_E.size else np.pi / 2,
        min_angle_Xker=float(ang_K[0]) if ang_K.size else np.pi / 2,
    )
