"""Restriction of the pencil to the kernel chain and its closed-form solve.

On the decomposition's kernels X_ker = W* and Z_ker (= A W* if square) the
operator A acts invertibly and N = E_ker A_ker^{-1} is nilpotent, so the
algebraic part of the DAE is solved by a finite derivative sum.

``derivative_sum`` is that sum; solve_full applies it in the coordinates
of its split X = X_ran + X_ker.  ``restrict_to_kernel`` builds A_ker and N
on the decomposition's kernel pair apart from that split, as the
independent route that acceptance criterion 7 checks and the solver tests
compare with solve_full.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AKerSingular, DimensionMismatch
from .pencil import COND_CAP, Pencil, SubspaceBasis, gated_inverse
from .signals import Signal
from .subspaces import hilbert_decomposition

NILPOTENT_TOL = 1e-10


@dataclass(frozen=True)
class KernelRestriction:
    basis_X_ker: SubspaceBasis
    basis_Z_ker: SubspaceBasis
    A_ker: np.ndarray
    A_ker_inv: np.ndarray
    N: np.ndarray
    nilpotency_degree: int

    @property
    def dim(self) -> int:
        return self.basis_X_ker.rank


def _nilpotency_degree(N: np.ndarray, bound: int) -> int:
    if N.shape[0] == 0:
        return 0
    scale = max(np.linalg.norm(N, 2), 1.0)
    M = np.eye(N.shape[0], dtype=complex)
    for d in range(bound + 1):
        if np.linalg.norm(M, 2) <= NILPOTENT_TOL * scale ** d:
            return d
        M = M @ N
    raise AKerSingular(
        f"E_ker A_ker^-1 is not nilpotent of degree <= {bound}")


def restrict_to_kernel(p: Pencil) -> KernelRestriction:
    """Coordinates of (E, A) between the decomposition's X_ker and Z_ker,
    with A inverted and N nilpotent of degree <= its stagnation power."""
    rep = hilbert_decomposition(p)
    Vx, Vz = rep.X_ker, rep.Z_ker
    if Vx.rank != Vz.rank:
        raise AKerSingular(
            f"kernel dimensions differ: {Vx.rank} vs {Vz.rank}")
    # Z_ker contains A X_ker by construction; an empty A_ker passes through
    A_ker = Vz.basis.conj().T @ p.A @ Vx.basis
    A_ker_inv, _ = gated_inverse(
        A_ker, COND_CAP, AKerSingular,
        "A restricted to the kernel is numerically singular")
    N = Vz.basis.conj().T @ p.E @ Vx.basis @ A_ker_inv
    degree = _nilpotency_degree(N, rep.stagnation_k)
    return KernelRestriction(Vx, Vz, A_ker, A_ker_inv, N, degree)


def derivative_sum(N: np.ndarray, g: Signal, terms: int) -> Signal:
    """-sum_{i<terms} N^i g^(i), stepping the derivative once per order:
    the unique solution of N x' = x + g when N^terms = 0."""
    acc, gi, Ni = Signal.zero(g.shape), g, np.eye(len(N), dtype=complex)
    for i in range(terms):
        if i:
            gi, Ni = gi.derivative(), Ni @ N
        acc = acc - gi.apply(Ni)
    return acc


def solve_kernel_inhomogeneity(k: KernelRestriction, f: Signal) -> Signal:
    """x(t) = -sum_{i<d} A_ker^{-1} N^i f^(i)(t) in kernel coordinates,
    with d = k.nilpotency_degree, so N^d = 0 ends the sum."""
    if len(f.shape) != 1 or f.shape[0] != k.dim:
        raise DimensionMismatch(
            f"signal shape {f.shape} vs kernel dimension {k.dim}")
    return derivative_sum(k.N, f, k.nilpotency_degree).apply(k.A_ker_inv)
