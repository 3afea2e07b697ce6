"""End-to-end DAE solvers with residual certification.

Routes to x with d/dt(E x) = A x + f; each keeps the part of x0 in X_ran
taken along X_ker (Wong's V* along W*), and the equation fixes the rest:
  * solve_full: the split X = X_ran + X_ker of the decomposition, in which
    the pencil is diag(I, N), diag(J, I) (quasi-Weierstrass form): the
    propagator of J on X_ran and a finite derivative sum on X_ker —
    accepts f anywhere in Z;
  * solve_homogeneous: solve_full with f = 0, or contour inversion of the
    resolvent through the split's generator (square or rectangular
    pencils);
  * solve_inhomogeneous_ran: convolution with the integrated semigroup and
    p analytic derivatives, for f valued in Z_ran;
  * the kernel formula (kernel module) for f valued in Z_ker.
Every trajectory carries max residuals of the pointwise (classical) and
integrated (mild) forms of the equation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (DecompositionUnavailable, InconsistentInitialValue,
                     LiftFailed, SolverMismatch)
from .kernel import derivative_sum
from .laplace import bromwich_invert, contour_for
# resolvent stays importable from here: perfbench's tracing tests look it up
# on this module.
from .pencil import Pencil, resolvent  # noqa: F401
from .semigroup import SemigroupEvaluator, build_evaluator
from .signals import Signal
from .subspaces import hilbert_decomposition

CONSISTENCY_TOL = 1e-6
LIFT_TOL = 1e-8
CLASSICAL_TOL = 1e-8
MILD_TOL = 1e-8
CROSS_TOL = 1e-4
# The contour nodes of all output times share one batched sweep, which
# holds about ten vectors of X_ran coordinates per node; a long time grid is
# sampled in blocks of about SWEEP_ENTRIES node entries (nodes times
# dim X_ran), about 10 MB each.
SWEEP_ENTRIES = 1 << 16


@dataclass
class Trajectory:
    times: np.ndarray
    values: np.ndarray                     # (len(times), n_x)
    signal: Signal | None = None           # closed form when available
    classical_res: float = np.inf
    mild_res: float = np.inf
    classification: str = "none"
    consistency: dict = field(default_factory=dict)
    # sampled (contour) trajectories: x'(t) from the same nodes as x(t),
    # NaN at t = 0, and the contour kind per time (None at t = 0)
    derivatives: np.ndarray | None = None
    contours: tuple | None = None


def residual(p: Pencil, traj: Trajectory, f: Signal | None) -> tuple[float, float]:
    """(classical, mild) max residuals on the trajectory's grid; 0 on an
    empty grid.

    Closed-form trajectories are differentiated and integrated
    analytically.  Sampled ones take the classical residual
    E x'(t) - A x(t) - f(t) pointwise at every t > 0 from their sampled
    derivatives (inf without them) and the mild one by the trapezoid
    rule.  A non-finite value after t = 0 gives (inf, inf); at t = 0 the
    state may blow up, as under integrable fractional data.

    Contour trajectories sum x(t) and x'(t) from the same samples with the
    same weights, so their classical residual is the weighted sum of the
    per-node solve residuals (z E - A) F(z) - E x0 and rounding: it checks
    the solves, not the quadrature.  An aliasing or truncation error, or a
    contour placed on a wrong spectrum, leaves it small.
    """
    ts = np.asarray(traj.times, dtype=float)
    if not np.all(np.isfinite(traj.values[ts > 0])):
        return np.inf, np.inf
    if f is None:
        f = Signal.zero(p.n_z)
    # an entry that blows up at t = 0 must not inflate the scale
    scale = p.scale * max(1.0, float(np.max(
        np.abs(traj.values), where=np.isfinite(traj.values), initial=0.0)))
    if traj.signal is not None:
        x = traj.signal
        # the pointwise form needs x continuous and Ex differentiable at 0;
        # a fractional blow-up there makes the classical defect infinite
        dEx = x.apply(p.E).derivative().trim()
        if x.has_negative_powers() or dEx.has_negative_powers():
            classical = np.inf
        else:
            res_c = x.derivative().apply(p.E) - x.apply(p.A) - f
            classical = float(np.max(np.abs(res_c(ts)), initial=0.0))
        intx = x.antiderivative()
        intf = f.antiderivative()
        mild_sig = x.apply(p.E) - intx.apply(p.A) - intf
        vals = mild_sig(ts) - x.apply(p.E)(0.0)
        mild = float(np.max(np.abs(vals), initial=0.0))
        return classical / scale, mild / scale
    xs = traj.values
    Ex = xs @ p.E.T
    Ax = xs @ p.A.T
    fs = f(ts)
    if traj.derivatives is None:
        classical = np.inf
    else:
        pos = ts > 0
        res_c = traj.derivatives[pos] @ p.E.T - Ax[pos] - fs[pos]
        classical = float(np.max(np.abs(res_c), initial=0.0))
    rhs = Ax + fs
    cum = np.concatenate([np.zeros((1, p.n_z)),
                          np.cumsum((rhs[1:] + rhs[:-1]) / 2.0
                                    * np.diff(ts)[:, None], axis=0)])
    mild = float(np.max(np.abs(Ex - Ex[:1] - cum), initial=0.0))
    return classical / scale, mild / scale


def _classify(p: Pencil, traj: Trajectory, f: Signal | None) -> None:
    traj.classical_res, traj.mild_res = residual(p, traj, f)
    tol_c, tol_m = CLASSICAL_TOL, MILD_TOL
    if traj.signal is None and len(traj.times) > 1:
        # sampled trajectories: the mild form only up to quadrature order
        tol_m = max(tol_m, float(np.max(np.diff(traj.times))) ** 2)
    if traj.classical_res <= tol_c:
        traj.classification = "classical"
    elif traj.mild_res <= tol_m:
        traj.classification = "mild"
    else:
        traj.classification = "none"


def _from_signal(p: Pencil, sig: Signal, ts, f, x0=None) -> Trajectory:
    ts = np.asarray(ts, dtype=float)
    traj = Trajectory(times=ts, values=np.atleast_2d(sig(ts)), signal=sig)
    if x0 is not None:
        v0 = sig.value_at_zero()
        err = np.inf if v0 is None else float(
            np.linalg.norm(v0 - np.asarray(x0, dtype=complex)))
        traj.consistency["initial_value_error"] = err
    _classify(p, traj, f)
    return traj


def _check_consistent(x0, dist: float, strict: bool) -> None:
    if strict and dist > CONSISTENCY_TOL * max(np.linalg.norm(x0), 1.0):
        raise InconsistentInitialValue(f"x0 lies {dist:.2e} off X_ran")


def solve_homogeneous(p: Pencil, x0, ts, method: str = "decomp",
                      strict: bool = True) -> Trajectory:
    """d/dt(E x) = A x from the part of x0 in X_ran taken along X_ker.

    consistency["initial_value_error"] records ||x(0) - x0||; ``strict``
    raises InconsistentInitialValue when it exceeds CONSISTENCY_TOL
    (relative).  ``method="decomp"`` is solve_full with f = 0 (square
    pencils).  ``method="contour"`` (square or rectangular pencils) inverts
    F(lam) = (lam E - A)^{-1} E x(0) at each output time, on the hyperbola
    when the evaluator's spectrum of A_R fits inside it at that time and on
    the Euler-accelerated line otherwise (``contour_for``).  F is sampled in
    X_ran coordinates, (lam - A_R)^{-1} c0 with c0 those of x(0), by one
    batched back-substitution with the decomposition's one Schur form of A_R,
    gated node by node by a batched 1-norm condition estimate
    (``SchurForm.solve_at``); one call takes the 41 (hyperbola) or 109
    (line) nodes of every output time, a long grid in blocks of about
    SWEEP_ENTRIES node entries.  Each node is sampled as
    [F(z), z F(z) - c0], so one inversion gives x(t) and x'(t), lifted by V
    into X_ran, and the classical residual is pointwise; it bounds the node
    solves, not the quadrature error (see ``residual``).
    """
    if method not in ("decomp", "contour"):
        raise ValueError(f"unknown method {method!r}")
    if method == "decomp":
        traj = solve_full(p, x0, Signal.zero(p.n_z), ts)
        _check_consistent(x0, traj.consistency["initial_value_error"], strict)
        return traj
    ev = build_evaluator(p, backend="contour")
    c0 = ev.decomposition.ran_part(x0)
    dist = float(np.linalg.norm(x0 - ev.V @ c0))
    _check_consistent(x0, dist, strict)
    r, schur = ev.rank, ev.decomposition.schur

    def sample(lams):  # coordinates of the transforms of x and x', as rows
        F = schur.solve_at(lams, c0)
        return np.hstack([F, lams[:, None] * F - c0])

    ts = np.asarray(ts, dtype=float)
    coords = np.zeros((len(ts), 2 * r), dtype=complex)
    coords[ts == 0, :r] = c0
    # X_ran = 0 leaves x = 0 at every t, with no contour to sample
    pos = np.flatnonzero(ts != 0) if r else np.zeros(0, dtype=int)
    cfgs = [contour_for(t, ev.omega, schur.T.diagonal()) for t in ts[pos]]
    block = np.cumsum([len(cfg.nodes) * r for cfg in cfgs]) // SWEEP_ENTRIES
    for b in np.unique(block):
        coords[pos[block == b]] = bromwich_invert(
            sample, [cfg for cfg, bb in zip(cfgs, block) if bb == b])
    values, derivatives = coords[:, :r] @ ev.V.T, coords[:, r:] @ ev.V.T
    derivatives[ts == 0] = np.nan
    kinds = [None] * len(ts)
    for i, cfg in zip(pos, cfgs):
        kinds[i] = cfg.kind
    traj = Trajectory(times=ts, values=values,
                      consistency={"initial_value_error": dist},
                      derivatives=derivatives, contours=tuple(kinds))
    _classify(p, traj, None)
    return traj


def _lift_into_xran(ev: SemigroupEvaluator, f: Signal) -> Signal:
    """Coefficient-wise c = (S^{-1} f)_1 (``image_part``), residual-gated."""
    EV = ev.decomposition.pencil.E @ ev.V
    C = ev.decomposition.image_part(f.coeffs.T)
    resid = np.linalg.norm(EV @ C - f.coeffs.T, axis=0)
    if np.any(resid > LIFT_TOL * max(f.magnitude(), 1.0)):
        raise LiftFailed(
            f"no preimage in the range space (residual {np.max(resid):.2e})")
    return Signal.from_terms(zip(C.T, f.powers, f.rates), shape=(ev.rank,))


def solve_inhomogeneous_ran(p: Pencil, x0, f: Signal, ts) -> Trajectory:
    """f valued in Z_ran and x0 in X_ran: convolve with S_r, then
    differentiate p times, with the evaluator's shift and p."""
    ev = build_evaluator(p)
    f_tilde = _lift_into_xran(ev, f)
    c0 = ev.decomposition.ran_part(x0)
    _check_consistent(x0, float(np.linalg.norm(x0 - ev.V @ c0)), True)
    if ev.rank == 0:
        return _from_signal(p, Signal.zero(p.n_x), ts, f, x0=x0)
    v_tilde = ev.S_coord.matvec(c0) + ev.S_coord.convolve(f_tilde)
    return _from_signal(p, v_tilde.derivative(ev.p).apply(ev.V), ts, f, x0=x0)


def solve_full(p: Pencil, x0, f: Signal, ts) -> Trajectory:
    """f anywhere in Z, solved in the split X = X_ran + X_ker.

    In the decomposition's quasi-Weierstrass form (``S_inv``, which refuses
    a split that is not one), xi = exp(tJ) xi0 + exp(tJ) * g_1 with J = A_R,
    g = S^{-1} f and xi0 = (S^{-1} E x0)_1, the derivative sum
    eta = -sum N^i g_2^(i) to the stagnation power, and x = V xi + K eta.
    The algebraic part of x0 is the one f forces (``initial_value_error``
    records any jump).
    """
    if not p.is_square:
        raise DecompositionUnavailable("full solve needs a square pencil")
    x0 = np.asarray(x0, dtype=complex)
    rep = hilbert_decomposition(p)
    S_inv, V, K = rep.S_inv, rep.X_ran.basis, rep.X_ker.basis
    r = V.shape[1]
    x_sig = Signal.zero(p.n_x)
    if r:
        xi = (rep.prop.matvec(rep.ran_part(x0))
              + rep.prop.convolve(f.apply(S_inv[:r])))
        x_sig = xi.apply(V)
    if r < p.n_x:
        eta = derivative_sum(S_inv[r:] @ p.E @ K, f.apply(S_inv[r:]),
                             rep.stagnation_k)
        x_sig = x_sig + eta.apply(K)
    return _from_signal(p, x_sig, ts, f, x0=x0)


def cross_check(p: Pencil, t1: Trajectory, t2: Trajectory) -> float:
    """Max pointwise disagreement of two trajectories on a common grid,
    relative to the largest finite entry of t1; 0 on an empty grid.  A
    non-finite entry agrees only with the same value (NaN with NaN)."""
    a, b = t1.values, t2.values
    if a.shape != b.shape:
        raise SolverMismatch("trajectories sampled on different grids")
    finite = np.isfinite(a) & np.isfinite(b)
    if np.any(~finite & (a != b) & ~(np.isnan(a) & np.isnan(b))):
        raise SolverMismatch("solution methods disagree on a non-finite value")
    a, b = a[finite], b[finite]
    scale = max(1.0, float(np.max(np.abs(a), initial=0.0)))
    err = float(np.max(np.abs(a - b), initial=0.0)) / scale
    if err > CROSS_TOL:
        raise SolverMismatch(f"solution methods disagree by {err:.2e}")
    return err
