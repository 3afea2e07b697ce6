"""Reference solutions computed apart from daesemi, and the output checks.

Every check compares an output of daesemi against numpy/scipy code in this
file, or against a property the construction guarantees.  Nothing here calls
a daesemi solver, and no check compares against a stored copy of an earlier
output.

Forcing terms are exp-polynomials ``f(t) = sum_q c_q t**m_q exp(a_q t)``,
given as a list of ``(c_q, m_q, a_q)``.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

# solve_full is exact up to rounding (about 1e-13 against the references on
# the pencils used here); 1e-8 rejects a 1e-6 relative perturbation.
EXACT_TOL = 1e-8
# contour inversion is accurate to about 1e-8 relative at resolvent index
# <= 2 (laplace.DEFAULT_ACCEL); transport solves land near 1e-10.
CONTOUR_TOL = 1e-6


class CheckFailed(Exception):
    """An output disagrees with its reference or breaks a property."""


def rel_error(values, ref) -> float:
    values = np.asarray(values)
    ref = np.asarray(ref)
    if values.shape != ref.shape:
        raise CheckFailed(f"shape {values.shape} against reference {ref.shape}")
    return float(np.max(np.abs(values - ref)) / max(np.max(np.abs(ref)), 1e-300))


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def require_close(values, ref, tol: float, what: str) -> None:
    err = rel_error(values, ref)
    if not err <= tol:
        raise CheckFailed(f"{what}: relative error {err:.2e} above {tol:.0e}")


# -- exp-polynomial forcing as a linear system (Van Loan 1978) -------------

def _forcing_generator(forcing):
    """Generator Phi, start w0 and output rows of the scalar basis.

    For the term t**m exp(a t) the states w_j = t**j exp(a t), j = 0..m,
    obey w_j' = a w_j + j w_{j-1}, w(0) = e_0; the term is w_m.
    """
    sizes = [m + 1 for _, m, _ in forcing]
    dim = sum(sizes)
    Phi = np.zeros((dim, dim), dtype=complex)
    w0 = np.zeros(dim, dtype=complex)
    out = []
    off = 0
    for (_, m, a), size in zip(forcing, sizes):
        for j in range(size):
            Phi[off + j, off + j] = a
            if j:
                Phi[off + j, off + j - 1] = j
        w0[off] = 1.0
        out.append(off + m)
        off += size
    return Phi, w0, out


def _expm_on_grid(M: np.ndarray, y0: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Rows expm(t M) y0 for t in ts (a uniform grid starting at 0)."""
    ts = np.asarray(ts, dtype=float)
    ys = np.empty((len(ts), len(y0)), dtype=complex)
    if len(ts) == 1:
        ys[0] = scipy.linalg.expm(ts[0] * M) @ y0
        return ys
    h = ts[1] - ts[0]
    if ts[0] != 0.0 or np.max(np.abs(np.diff(ts) - h)) > 1e-12 * max(h, 1.0):
        return np.array([scipy.linalg.expm(t * M) @ y0 for t in ts])
    step = scipy.linalg.expm(h * M)
    y = np.asarray(y0, dtype=complex)
    for i in range(len(ts)):
        ys[i] = y
        y = step @ y
    return ys


def _forcing_derivative(forcing, order: int, ts: np.ndarray) -> np.ndarray:
    """d^order/dt^order f at ts, written out term by term.

    d^i/dt^i t**m e^{at} = sum_l C(i,l) m!/(m-l)! t**(m-l) a**(i-l) e^{at}.
    """
    ts = np.asarray(ts, dtype=float)
    n = len(forcing[0][0])
    acc = np.zeros((len(ts), n), dtype=complex)
    for c, m, a in forcing:
        scal = np.zeros(len(ts), dtype=complex)
        for l in range(min(order, m) + 1):
            scal += (math.comb(order, l) * math.factorial(m) / math.factorial(m - l)
                     * ts ** (m - l) * complex(a) ** (order - l))
        acc += np.outer(scal * np.exp(complex(a) * ts), np.asarray(c, dtype=complex))
    return acc


# -- Weierstrass pencils: E = T diag(I, N) S, A = T diag(J, I) S -----------

def weierstrass_solution(oracle, u1_0, forcing, ts) -> np.ndarray:
    """x(t) on ts for the pencil behind ``oracle`` (fields T, S, J, N, k).

    u1' = J u1 + g1 is solved with expm of the block matrix
    [[J, G], [0, Phi]] that carries the forcing generator along; the
    nilpotent part is u2 = -sum_{i<k} N^i g2^(i).  Returns rows x(t_i).
    The algebraic part of the start value is the one forced by f.
    """
    T, S, J, N, k = oracle.T, oracle.S, oracle.J, oracle.N, oracle.k
    ns, nn = J.shape[0], N.shape[0]
    ts = np.asarray(ts, dtype=float)
    Tinv = np.linalg.inv(T)
    u = np.zeros((len(ts), ns + nn), dtype=complex)
    if forcing:
        Phi, w0, out = _forcing_generator(forcing)
        G = np.zeros((ns, Phi.shape[0]), dtype=complex)
        for (c, _, _), col in zip(forcing, out):
            G[:, col] = (Tinv @ np.asarray(c, dtype=complex))[:ns]
        M = np.block([[J, G], [np.zeros((Phi.shape[0], ns)), Phi]])
        y = _expm_on_grid(M, np.concatenate([u1_0, w0]), ts)
        u[:, :ns] = y[:, :ns]
        for i in range(max(k, 1)):
            gi = _forcing_derivative(forcing, i, ts) @ Tinv.T
            u[:, ns:] -= gi[:, ns:] @ np.linalg.matrix_power(N, i).T
    elif ns:
        u[:, :ns] = _expm_on_grid(J, np.asarray(u1_0, dtype=complex), ts)
    return u @ np.linalg.inv(S).T


def weierstrass_start(oracle, u1_0, forcing) -> np.ndarray:
    """The consistent initial value with smooth part u1_0."""
    return weierstrass_solution(oracle, u1_0, forcing, [0.0])[0]


def integrated_propagator(J: np.ndarray, p: int, t: float) -> np.ndarray:
    """int_0^t (t-s)^(p-1)/(p-1)! e^{sJ} ds as the top-right block of
    expm(t K), K = [[J, I, 0..], [0, 0, I, ..], .., [0 .. 0]] with p+1
    block rows (Van Loan 1978)."""
    r = J.shape[0]
    K = np.zeros(((p + 1) * r, (p + 1) * r), dtype=complex)
    K[:r, :r] = J
    for b in range(p):
        K[b * r:(b + 1) * r, (b + 1) * r:(b + 2) * r] = np.eye(r)
    return scipy.linalg.expm(t * K)[:r, p * r:]


# -- transport pencils -----------------------------------------------------

def transport_solution(E: np.ndarray, A: np.ndarray, n: int, x0, ts) -> np.ndarray:
    """Upwind transport pencil from make_transport(n, m), rows unmixed.

    The first n rows are x1' = A11 x1 (E = I there, A12 = 0), solved by
    expm; the remaining rows are algebraic and give x2 by least squares.
    """
    require(np.allclose(E[:n, :n], np.eye(n)) and not np.any(E[n:])
            and not np.any(A[:n, n:]), "transport pencil structure")
    x1 = _expm_on_grid(A[:n, :n], np.asarray(x0, dtype=complex)[:n], ts)
    x2 = np.linalg.lstsq(A[n:, n:], -A[n:, :n] @ x1.T, rcond=None)[0]
    return np.hstack([x1, x2.T])


# -- dissipative-Hamiltonian pencils ---------------------------------------

def finite_modes(E: np.ndarray, A: np.ndarray):
    """Finite generalized eigenvalues of A v = lam E v and their vectors (QZ)."""
    (alpha, beta), vr = scipy.linalg.eig(A, E, homogeneous_eigvals=True)
    finite = np.abs(beta) > 1e-8 * np.abs(alpha)
    return alpha[finite] / beta[finite], vr[:, finite]


# -- checks of the CLI's textual outputs -----------------------------------

def read_csv_trajectory(path):
    """(times, values) from a ``t,x_0_re,x_0_im,...`` CSV file."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1::2] + 1j * data[:, 2::2]


def check_analyze(report: dict, k: int, dim_ran: int, dim_ker: int) -> None:
    """p_res = chain_index = stagnation_k = k and the two dimensions."""
    idx, dec = report["index"], report["decomposition"]
    got = (idx["p_res"], idx["chain_index"], dec["stagnation_k"],
           dec["dim_X_ran"], dec["dim_X_ker"])
    require(got == (k, k, k, dim_ran, dim_ker),
            f"analyze (p_res, chain, stagnation, dim_X_ran, dim_X_ker) = {got}, "
            f"construction gives {(k, k, k, dim_ran, dim_ker)}")
