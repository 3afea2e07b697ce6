"""Range/kernel stabilization sequences and the orthogonal decomposition.

X_k = ran R_r(mu)^k and Z_k = ran R_l(mu)^k shrink until they stagnate; the
stagnated spaces X_ran, Z_ran carry the dynamics, and X_ran + X_ker is the
split solve_full solves in.  ``hilbert_decomposition`` alone picks the
shift mu, and the right chain alone fixes the power stagnation_k.  For
analysis, the left complements split into levels W_{Z,k} in which the left
resolvent becomes block upper triangular with zero diagonal blocks below
the first row.  The kernels, the whole left side and the levels are built
on first read, so a caller pays only for what it reads: solve_full and the
evaluator read the right side alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import BasisMismatch, NoStagnation, SingularAtLambda
from .pencil import (Pencil, SubspaceBasis, default_shift, power_kernel,
                     resolvent, svd_split)

ANGLE_TOL = 1e-6


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


@dataclass
class DecompositionReport:
    """The range chain of R_r(mu), whose length fixes stagnation_k, and
    everything else on first read: the stabilized kernels (of R^max(k, 1),
    k the power at which that side's chain stagnates), the left side
    (R_l(mu) = E R_mu and its chain) and the left levels (W_Z[i] = level
    i+1, the complement of Z_{i+1} in Z_i)."""

    mu: float
    stagnation_k: int
    X_chain: list[SubspaceBasis]  # X_0 ) X_1 ) ... (index = power k)
    R_r: np.ndarray   # R_r(mu) = (mu E - A)^{-1} E, on the x-space
    R_mu: np.ndarray  # (mu E - A)^{-1}
    E: np.ndarray
    X_split: tuple    # svd_split(R_r), the X chain's first step

    @property
    def X_ran(self) -> SubspaceBasis:
        return self.X_chain[-1]

    @cached_property
    def X_ker(self) -> SubspaceBasis:
        return power_kernel(self.R_r, max(self.stagnation_k, 1), self.X_split)

    @property
    def R_l(self) -> np.ndarray:
        """R_l(mu) = E (mu E - A)^{-1}, on the z-space: one product per
        read, so the report holds no third n x n matrix for it."""
        return self.E @ self.R_mu

    @cached_property
    def _left(self) -> tuple[list[SubspaceBasis], tuple]:
        """(Z chain, svd_split(R_l)).  R_mu maps onto the x-space, so
        rank Z_{j+1} = rank E X_j lies between rank X_{j+1} and rank X_j:
        the left chain stagnates at stagnation_k, or one power later on a
        tall pencil (on a square one R_mu is invertible and the ranks
        agree).  A longer left chain raises NoStagnation."""
        k = self.stagnation_k + (self.E.shape[0] > self.E.shape[1])
        try:
            return _range_chain(self.R_l, k + 1)
        except NoStagnation as exc:
            raise NoStagnation(
                f"the left chain outlasts the right one, which stagnates at "
                f"power {self.stagnation_k}") from exc

    @property
    def Z_chain(self) -> list[SubspaceBasis]:
        return self._left[0]

    @property
    def Z_ran(self) -> SubspaceBasis:
        return self.Z_chain[-1]

    @cached_property
    def Z_ker(self) -> SubspaceBasis:
        return power_kernel(self.R_l, max(len(self.Z_chain) - 2, 1),
                            self._left[1])

    # a chain ends one step past stagnation, so it holds one level per power
    @cached_property
    def W_Z(self) -> list[SubspaceBasis]:
        return list(map(complement_in, self.Z_chain, self.Z_chain[1:-1]))


def _range_chain(R: np.ndarray, p_max: int
                 ) -> tuple[list[SubspaceBasis], tuple]:
    """(ran R^j for j = 0, 1, ... one step past stagnation, svd_split(R));
    the first step's ||R||_2 is the rank floor of the later ones."""
    n = R.shape[0]
    split = svd_split(R)
    chain = [SubspaceBasis(np.eye(n, dtype=complex), n), split[0]]
    while chain[-1].rank != chain[-2].rank:
        if len(chain) > p_max:
            raise NoStagnation(f"ranks still decreasing after {p_max} steps")
        chain.append(svd_split(R @ chain[-1].basis, scale=split[2])[0])
    return chain, split


def hilbert_decomposition(p: Pencil) -> DecompositionReport:
    """The range chain of R_r(mu) and its stagnation power; the left side
    is built when first read.

    The shift mu is the first default_shift(p) + j, j = 0, 1, ..., n_x, at
    which ``resolvent`` is regular: a regular pencil has at most n_x finite
    eigenvalues, so one of them is.  The shift used is ``rep.mu``.
    """
    for j in range(p.n_x + 1):
        mu = default_shift(p) + j
        try:
            R_mu = resolvent(p, mu)
            break
        except SingularAtLambda:
            if j == p.n_x:
                raise
    Rr = R_mu @ p.E
    X_chain, X_split = _range_chain(Rr, max(p.n_x, p.n_z) + 1)
    # X_k = X_{k+1} exactly once ranks agree (nested ranges), so the chain
    # ends one step past stagnation; report the stagnation power.
    return DecompositionReport(mu=mu, stagnation_k=len(X_chain) - 2,
                               X_chain=X_chain, R_r=Rr, R_mu=R_mu, E=p.E,
                               X_split=X_split)


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
    Rl = rep.R_l
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
    ang = principal_angles(X_ran, p.ker_E)
    return float(ang[0]) if ang.size else np.pi / 2


def check_disjointness(rep: DecompositionReport, p: Pencil) -> DisjointnessFlags:
    """Disjointness of X_ran from ker E and of the ranges from the kernels
    at principal angle ANGLE_TOL, for the shift and power ``rep`` picked."""
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
