"""Built-in example pencils: transport discretization, structured random
pencils with a closed-form oracle, and dissipative-Hamiltonian pencils.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import BadShape, DaesemiError, GenerationFailed
from .pencil import Pencil
from .signals import ModalSignal, Signal
from .subspaces import check_disjointness, hilbert_decomposition

HAMILTONIAN_DRAWS = 12


def make_transport(n: int, m: int) -> Pencil:
    """Upwind discretization of a transport line coupled to a stationary one.

    State: x1 on n grid points of (0, 1), x2 on m grid points of (1, 2).
    Equations: dx1/dt = -d/dxi x1; 0 = -d/dxi x2; plus the two boundary
    functionals x1(0) = 0 and x2(1) = x1(1) as extra rows, giving an
    (n + m + 2) x (n + m) rectangular pencil.
    """
    if n < 2 or m < 2:
        raise BadShape("need at least two grid points per segment")
    nx = n + m
    nz = n + m + 2
    E = np.zeros((nz, nx), dtype=complex)
    E[:n, :n] = np.eye(n)
    A = np.zeros((nz, nx), dtype=complex)
    h1, h2 = 1.0 / n, 1.0 / m
    # -d/dxi on the first segment, upwind with a zero ghost value at 0
    for i in range(n):
        A[i, i] = -1.0 / h1
        if i > 0:
            A[i, i - 1] = 1.0 / h1
    # -d/dxi on the second segment, ghost value x1(1) at the interface
    for j in range(m):
        r, c = n + j, n + j
        A[r, c] = -1.0 / h2
        A[r, c - 1] = 1.0 / h2
    # boundary functionals: -x1(0) and -x1(1) + x2(1)
    A[n + m, 0] = -1.0
    A[n + m + 1, n - 1] = -1.0
    A[n + m + 1, n] = 1.0
    return Pencil(E, A, omega_hint=0.0, name=f"transport({n},{m})")


@dataclass(frozen=True)
class WeierstrassOracle:
    """Exact solver for a structurally generated pencil.

    The pencil is E = T diag(I, N) S, A = T diag(J, I) S with N a single
    nilpotent Jordan block padded by zeros.  In the internal coordinates
    u = S x, g = T^{-1} f the system splits into an ODE block
    u1' = J u1 + g1 and a nilpotent block N u2' = u2 + g2 whose unique
    solution is the derivative sum u2 = -sum N^i g2^(i).
    """

    T: np.ndarray
    S: np.ndarray
    J: np.ndarray
    N: np.ndarray
    k: int

    @property
    def n_smooth(self) -> int:
        return self.J.shape[0]

    @property
    def n_nilpotent(self) -> int:
        return self.N.shape[0]

    def solve(self, x0, f: Signal | None = None) -> Signal:
        """Closed-form solution; the algebraic part of x0 is overridden by
        the value forced by f (consistency)."""
        ns, nn = self.n_smooth, self.n_nilpotent
        n = ns + nn
        if f is None:
            f = Signal.zero(n)
        u0 = self.S @ np.asarray(x0, dtype=complex)
        g = f.apply(np.linalg.inv(self.T))
        pick1 = np.hstack([np.eye(ns), np.zeros((ns, nn))])
        pick2 = np.hstack([np.zeros((nn, ns)), np.eye(nn)])
        g1, g2 = g.apply(pick1), g.apply(pick2)
        u = Signal.zero(n)
        if ns:
            # exp(tJ) by numpy's eig, apart from the solvers' Schur path
            w, Q = np.linalg.eig(self.J)
            d = Signal.from_terms((np.eye(ns)[i], 0, w[i]) for i in range(ns))
            prop = ModalSignal(d, Q, np.linalg.inv(Q), np.linalg.cond(Q, 1))
            u1 = prop.matvec(u0[:ns]) + prop.convolve(g1)
            u = u + u1.apply(pick1.T)
        if nn:
            u2 = Signal.zero(nn)
            Ni = np.eye(nn, dtype=complex)
            for i in range(max(self.k, 1)):
                u2 = u2 - g2.derivative(i).apply(Ni)
                Ni = Ni @ self.N
            u = u + u2.apply(pick2.T)
        return u.apply(np.linalg.inv(self.S))

    def consistent_x0(self, x0, f: Signal | None = None) -> np.ndarray:
        return np.asarray(self.solve(x0, f).value_at_zero())


def _well_conditioned(rng, n: int) -> np.ndarray:
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q1 @ np.diag(rng.uniform(0.7, 1.4, size=n)) @ q2


def make_weierstrass(n_s: int, n_n: int, k: int, seed=0,
                     trivial_transforms: bool = False) -> tuple[Pencil, WeierstrassOracle]:
    """Random pencil with prescribed smooth/nilpotent structure and oracle."""
    if n_n == 0:
        if k != 0:
            raise BadShape("nilpotent index must be 0 for an empty block")
    elif not 1 <= k <= n_n:
        raise BadShape(f"nilpotent index {k} outside [1, {n_n}]")
    if n_s < 0 or n_s + n_n == 0:
        raise BadShape("empty pencil")
    rng = np.random.default_rng(seed)
    n = n_s + n_n
    # diagonalizable stable block with a controlled eigenbasis
    if n_s:
        eigs = -rng.uniform(0.3, 2.0, size=n_s) \
            + 1j * rng.uniform(-1.0, 1.0, size=n_s)
        # pin the leading mode at -1 so the smallest instance is the
        # canonical scalar decay pencil diag(1,0) / diag(-1,1)
        eigs[0] = -1.0
        V = _well_conditioned(rng, n_s)
        J = V @ np.diag(eigs) @ np.linalg.inv(V)
    else:
        J = np.zeros((0, 0), dtype=complex)
    N = np.zeros((n_n, n_n), dtype=complex)
    for i in range(k - 1):
        N[i, i + 1] = 1.0
    if trivial_transforms:
        T = S = np.eye(n, dtype=complex)
    else:
        T = _well_conditioned(rng, n)
        S = _well_conditioned(rng, n)
    E = T @ scipy.linalg.block_diag(np.eye(n_s), N) @ S
    A = T @ scipy.linalg.block_diag(J, np.eye(n_n)) @ S
    pen = Pencil(E, A, omega_hint=0.0, name=f"weierstrass({n_s},{n_n},{k})")
    return pen, WeierstrassOracle(T=T, S=S, J=J, N=N, k=k)


def make_hamiltonian(n: int, rank_E: int, seed=0) -> Pencil:
    """E = B B^H nonnegative, A = skew - positive, regular on Re >= 0.

    Instances are regenerated until the range space and ker E intersect
    trivially (checked by principal angle), so the extracted semigroup is
    well defined.
    """
    if not 0 <= rank_E <= n:
        raise BadShape(f"rank {rank_E} outside [0, {n}]")
    rng = np.random.default_rng(seed)
    for _ in range(HAMILTONIAN_DRAWS):
        B = rng.normal(size=(n, rank_E)) + 1j * rng.normal(size=(n, rank_E))
        E = B @ B.conj().T
        M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        K = (M - M.conj().T) / 2.0
        H = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        P = H @ H.conj().T / n + 0.2 * np.eye(n)
        A = K - P
        pen = Pencil(E, A, omega_hint=0.0, name=f"hamiltonian({n},{rank_E})")
        try:
            rep = hilbert_decomposition(pen)
            flags = check_disjointness(rep, pen)
        except (DaesemiError, np.linalg.LinAlgError):
            continue
        if flags.disjoint_ranE and flags.disjoint_kernel:
            return pen
    raise GenerationFailed(
        f"no admissible instance after {HAMILTONIAN_DRAWS} draws")
