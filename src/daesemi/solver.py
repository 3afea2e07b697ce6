"""End-to-end DAE solvers with residual certification.

Four routes to x with d/dt(E x) = A x + f:
  * solve_homogeneous: contour inversion of the resolvent, or propagation
    on the range space by the extracted semigroup;
  * solve_inhomogeneous_ran: convolution with the integrated semigroup and
    p analytic derivatives, for f valued in Z_ran;
  * solve_full: orthogonal block decomposition of the left resolvent,
    back-substitution of the algebraic levels, the leading block solved
    directly as an ODE with the propagator of -R00^{-1}, and exponential
    back-transform — accepts f anywhere in Z;
  * the kernel formula (kernel module) for f valued in Z_ker.
Every trajectory carries max residuals of the pointwise (classical) and
integrated (mild) forms of the equation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (DecompositionUnavailable, InconsistentInitialValue,
                     LiftFailed, SolverMismatch)
from .laplace import bromwich_invert, contour_for
# resolvent stays importable from here: perfbench's tracing tests look it up
# on this module.
from .pencil import Pencil, resolvent  # noqa: F401
from .semigroup import (SemigroupEvaluator, build_evaluator, propagator_signal,
                        range_generator, require_closed_form, transform_sampler)
from .signals import Signal
from .subspaces import (block_left_resolvent, decomposition_basis,
                        hilbert_decomposition)

CONSISTENCY_TOL = 1e-6
LIFT_TOL = 1e-8
CLASSICAL_TOL = 1e-8
MILD_TOL = 1e-8
CROSS_TOL = 1e-4


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

    @property
    def residual_max(self) -> float:
        return min(self.classical_res, self.mild_res)


def residual(p: Pencil, traj: Trajectory, f: Signal | None) -> tuple[float, float]:
    """(classical, mild) max residuals on the trajectory's grid.

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
    scale = p.scale * max(1.0, float(np.max(np.abs(traj.values), initial=0.0)))
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
    mild = float(np.max(np.abs(Ex - Ex[0] - cum)))
    return classical / scale, mild / scale


def _classify(p: Pencil, traj: Trajectory, f: Signal | None,
              x0: np.ndarray | None) -> None:
    traj.classical_res, traj.mild_res = residual(p, traj, f)
    if x0 is not None and traj.signal is not None:
        v0 = traj.signal.value_at_zero()
        err = np.inf if v0 is None else float(
            np.linalg.norm(v0 - np.asarray(x0, dtype=complex)))
        traj.consistency.setdefault("initial_value_error", err)
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


def _from_signal(p: Pencil, sig: Signal, ts, f, x0=None,
                 consistency=None) -> Trajectory:
    ts = np.asarray(ts, dtype=float)
    traj = Trajectory(times=ts, values=np.atleast_2d(sig(ts)), signal=sig,
                      consistency=dict(consistency or {}))
    _classify(p, traj, f, x0)
    return traj


def _project_initial(ev: SemigroupEvaluator, x0, strict: bool) -> tuple:
    x0 = np.asarray(x0, dtype=complex)
    c = ev.V.conj().T @ x0
    dist = float(np.linalg.norm(x0 - ev.V @ c))
    if strict and dist > CONSISTENCY_TOL * max(np.linalg.norm(x0), 1.0):
        raise InconsistentInitialValue(
            f"distance {dist:.2e} from the admissible range space")
    return c, dist


def solve_homogeneous(p: Pencil, x0, ts, method: str = "decomp",
                      mu: complex | None = None,
                      evaluator: SemigroupEvaluator | None = None,
                      strict: bool = True) -> Trajectory:
    """d/dt(E x) = A x with x(0) = x0 projected onto the range space.

    ``method="decomp"`` propagates the projected x0 with the evaluator's
    closed-form exp(t A_R).  ``method="contour"`` inverts the Laplace
    transform F(lam) = (lam E - A)^{-1} E x0 at each output time, on the
    hyperbola when the evaluator's spectrum of A_R fits inside it at that
    time and on the Euler-accelerated line otherwise (``contour_for``).
    Each node is solved once and sampled as [F(z), z F(z) - x0], so one
    inversion gives x(t) and x'(t), and the classical residual is taken
    pointwise; it bounds the per-node solves but not the quadrature error
    (see ``residual``).  On square pencils each of the 41 (hyperbola) or 109
    (line) nodes per time is one triangular solve with the evaluator's QZ
    form, gated by its condition estimate.
    """
    if method not in ("decomp", "contour"):
        raise ValueError(f"unknown method {method!r}")
    backend = "closed_form" if method == "decomp" else "contour"
    ev = evaluator or build_evaluator(p, mu=mu, backend=backend)
    c, dist = _project_initial(ev, x0, strict)
    cons = {"projection_distance": dist}
    if method == "decomp":
        require_closed_form(ev, "the decomp method")
        sig = ev.prop.matvec(c).apply(ev.V) if ev.rank else Signal.zero(p.n_x)
        return _from_signal(p, sig, ts, None, x0=ev.V @ c, consistency=cons)
    x0p = ev.V @ c
    solve = transform_sampler(ev, x0p)

    def sample(lam):
        F = solve(lam)
        return np.concatenate([F, lam * F - x0p])  # transforms of x and x'

    ts = np.asarray(ts, dtype=float)
    vals = np.zeros((len(ts), 2 * p.n_x), dtype=complex)
    vals[ts == 0] = np.concatenate([x0p, np.full(p.n_x, np.nan)])
    kinds = []
    for i, t in enumerate(ts):
        if t == 0:
            kinds.append(None)
            continue
        cfg = contour_for(t, ev.omega, ev.spectrum)
        vals[i] = bromwich_invert(sample, cfg)
        kinds.append(cfg.kind)
    traj = Trajectory(times=ts, values=vals[:, :p.n_x], consistency=cons,
                      derivatives=vals[:, p.n_x:], contours=tuple(kinds))
    _classify(p, traj, None, None)
    return traj


def _lift_into_xran(ev: SemigroupEvaluator, f: Signal) -> Signal:
    """Coefficient-wise least-squares solve of E (V c) = f, residual-gated."""
    EV = ev.pencil.E @ ev.V
    C, *_ = np.linalg.lstsq(EV, f.coeffs.T, rcond=None)
    resid = np.linalg.norm(EV @ C - f.coeffs.T, axis=0)
    if np.any(resid > LIFT_TOL * max(f.magnitude(), 1.0)):
        raise LiftFailed(
            f"no preimage in the range space (residual {np.max(resid):.2e})")
    return Signal.from_terms(zip(C.T, f.powers, f.rates), shape=(ev.rank,))


def solve_inhomogeneous_ran(p: Pencil, x0, f: Signal, ts,
                            mu: complex | None = None,
                            evaluator: SemigroupEvaluator | None = None) -> Trajectory:
    """f valued in Z_ran: convolve with S_r, then differentiate p times."""
    ev = evaluator or build_evaluator(p, mu=mu, backend="closed_form")
    require_closed_form(ev, "the convolution route")
    Pz = ev.decomposition.Z_ran.projector()
    off = float(np.max(np.linalg.norm(f.coeffs.T - Pz @ f.coeffs.T, axis=0),
                       initial=0.0))
    if off > LIFT_TOL * max(f.magnitude(), 1.0):
        raise LiftFailed(
            f"inhomogeneity leaves the left range space by {off:.2e}")
    c0, dist = _project_initial(ev, x0, True)
    cons = {"projection_distance": dist}
    if ev.rank == 0:
        return _from_signal(p, Signal.zero(p.n_x), ts, f, consistency=cons)
    f_tilde = _lift_into_xran(ev, f)
    v_tilde = ev.S_coord.matvec(c0) + ev.S_coord.convolve(f_tilde)
    x_coord = v_tilde.derivative(ev.p)
    sig = x_coord.apply(ev.V)
    return _from_signal(p, sig, ts, f, x0=ev.V @ c0, consistency=cons)


def solve_full(p: Pencil, x0, f: Signal, ts,
               mu: complex | None = None) -> Trajectory:
    """f anywhere in Z: block back-substitution of the left resolvent.

    The substitution w = (mu E - A) e^{-mu t} x turns the DAE into
    d/dt(R_l(mu) w) = -w + e^{-mu t} f; in the ordered decomposition basis
    the resolvent is block upper triangular with zero lower rows, so the
    algebraic levels resolve bottom-up by differentiation.  The leading
    block d/dt(R00 zeta) = -zeta + h on Z_ran has R00 invertible, so it is
    solved directly by variation of constants with the propagator
    exp(-R00^{-1} t).  Transforming back multiplies by
    e^{mu t}(mu E - A)^{-1}.
    """
    if not p.is_square:
        raise DecompositionUnavailable("full solve needs a square pencil")
    x0 = np.asarray(x0, dtype=complex)
    rep = hilbert_decomposition(p, mu)
    mu = rep.mu
    B, slices = block_left_resolvent(rep, p, mu)
    U = decomposition_basis(rep, side="Z")
    n_blocks = len(slices)
    fm = f.modulate(-mu)
    g = [fm.apply(U[:, sl].conj().T) for sl in slices]

    # algebraic levels, solved bottom-up by differentiation
    z: dict[int, Signal] = {}
    for i in range(n_blocks - 1, 0, -1):
        acc = g[i]
        for j in range(i + 1, n_blocks):
            Bij = B[slices[i], slices[j]]
            if np.linalg.norm(Bij):
                acc = acc - z[j].derivative().apply(Bij)
        z[i] = acc

    # leading block on Z_ran: the ODE d/dt(R00 zeta) = -zeta + h_hat
    h_hat = g[0]
    for j in range(1, n_blocks):
        B0j = B[slices[0], slices[j]]
        if np.linalg.norm(B0j):
            h_hat = h_hat - z[j].derivative().apply(B0j)
    r0 = slices[0].stop - slices[0].start
    w0 = U.conj().T @ ((mu * p.E - p.A) @ x0)
    if r0 > 0:
        # R00 = Z_ran^H R_l(mu) Z_ran, whose generator at shift 0 is -R00^{-1}
        G = range_generator(p.E @ rep.R_mu, rep.Z_ran.basis, 0.0)
        prop = propagator_signal(G)
        z[0] = prop.matvec(w0[slices[0]]) - prop.convolve(h_hat.apply(G))
    else:
        z[0] = Signal.zero(0)

    w_sig = Signal.zero(p.n_z)
    for i in range(n_blocks):
        if z[i].shape[0]:
            w_sig = w_sig + z[i].apply(U[:, slices[i]])
    x_sig = w_sig.apply(rep.R_mu).modulate(mu)
    init_mismatch = {}
    for i in range(1, n_blocks):
        v0 = z[i].value_at_zero()
        if v0 is not None and v0.size:
            init_mismatch[f"level_{n_blocks - i}"] = float(
                np.linalg.norm(v0 - w0[slices[i]]))
    cons = {"algebraic_initial_mismatch": init_mismatch}
    return _from_signal(p, x_sig, ts, f, x0=x0, consistency=cons)


def cross_check(p: Pencil, t1: Trajectory, t2: Trajectory) -> float:
    """Max pointwise disagreement of two trajectories on a common grid."""
    if t1.values.shape != t2.values.shape:
        raise SolverMismatch("trajectories sampled on different grids")
    scale = max(1.0, float(np.max(np.abs(t1.values))))
    err = float(np.max(np.abs(t1.values - t2.values))) / scale
    if err > CROSS_TOL:
        raise SolverMismatch(f"solution methods disagree by {err:.2e}")
    return err
