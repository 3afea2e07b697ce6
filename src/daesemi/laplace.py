"""Numerical Laplace transforms: Bromwich inversion and forward quadrature.

``bromwich_invert`` sums one list of nodes and weights, built by one of two
rules that ``contour_for`` picks per output time t.  The transform is called
once on the array of all nodes (of one rule, or of a list of rules for
several times) and returns one sample per node as a row, so a sampler can
solve every node in one batched sweep:

* the hyperbola z(u) = sigma + mu (1 + sin(iu - alpha)), sampled by the
  trapezoid rule at u_k = k h, k = -N..N (Weideman & Trefethen, Math. Comp.
  76, 2007), with mu = HYP_MU_T/t and sigma = max(omega, 0) +
  min(HYP_SHIFT, HYP_SHIFT_T/t).  It is taken when every singularity of
  the transform lies strictly left of the narrower hyperbola of angle
  alpha + d, the image of the edge of the strip of analyticity of
  half-width d, so the trapezoid error e^{-2 pi d / h} is below rounding.
  With W&T's parameters its 41 nodes give 1e-12 to 1e-10 relative error
  at resolvent index 1 to 4;
* the vertical line Re lam = omega + accel/(2t) with node spacing pi/t,
  which turns the contour sum into an alternating series accelerated by
  Euler (binomial) averaging of its partial sums: 2 (N_NODES + EULER_DEPTH)
  + 1 = 109 nodes.  Its aliasing error is of order exp(-accel) while
  round-off grows like exp(accel/2) times the sampling error of the
  transform, so at index 1 and 2 it is accurate to about 1e-9 relative and
  from index 3 on round-off at the far nodes takes over.  It needs only a
  growth bound omega, so it serves every transform the hyperbola cannot
  enclose at that t.

The forward transform is a composite Gauss-Legendre quadrature on a
truncated horizon with an explicit tail bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteSample, TailTooLarge

# Line: balances the trapezoid aliasing error exp(-accel) against round-off
# amplification exp(accel/2) * eps_F, where eps_F ~ cond(lam - A_R) * 1e-16
# is the relative error of one backward-stable (triangular) solve.
DEFAULT_ACCEL = 20.0
EULER_DEPTH = 14
N_NODES = 40  # conjugate node pairs summed before Euler averaging
# Euler averaging of the partial sums S_N, ..., S_{N+m} is linear in the
# samples: node k keeps the share of the binomial weights C(m, j)/2^m of
# those partial sums that contain it, 1 for |k| <= N.
_LINE_SHARE = np.array([sum(math.comb(EULER_DEPTH, j)
                            for j in range(i, EULER_DEPTH + 1))
                        for i in range(EULER_DEPTH + 1)]) / 2.0 ** EULER_DEPTH
# Hyperbola: Weideman & Trefethen's optimal parameters for a spectrum on the
# negative real axis, with 2 HYP_N + 1 nodes.  N = 16 left 3e-9 on stiff
# transport pencils; at N = 32 the error grows again to 1e-10, as e^{mu t}
# grows with N and amplifies the samples' round-off.
HYP_N = 20
HYP_ALPHA = 1.1721
HYP_H = 1.0818 / HYP_N
HYP_MU_T = 4.4921 * HYP_N  # mu = HYP_MU_T / t
# Shift sigma = max(omega, 0) + min(HYP_SHIFT, HYP_SHIFT_T / t).  A larger
# shift lets more of a spectrum near the imaginary axis fit, but the
# weights carry e^{z t}, up to e^{sigma t + HYP_MU_T (1 - sin alpha)}, and
# amplify round-off by that much over the growth e^{max(omega, 0) t} of the
# result.  Capping the shift's part of sigma t at HYP_SHIFT_T bounds the
# amplification by e^{8.6} at every t, as the line bounds it by e^{10}; an
# uncapped shift of 1 left a 6e-2 error at t = 30 on a stable spectrum.
HYP_SHIFT = 1.0
HYP_SHIFT_T = 1.5
# Half-width d of the strip of analyticity on the spectrum's side.  W&T's
# derivation takes it up to pi/2 - alpha - delta for a spectrum in a sector
# of half-angle delta about the negative real axis; the trapezoid error from
# that edge is e^{-2 pi d / h}, 7e-16 at d = 0.3, which leaves
# delta = 0.099 rad.  contour_for requires alpha + d < pi/2.
HYP_STRIP = 0.3
TAIL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ContourConfig:
    """Quadrature rule of the Bromwich integral at one time, built by
    ``contour_for``.

    kind: "hyperbola" or "line".  sigma: the line's abscissa or the
    hyperbola's shift.  nodes, weights: the points where the transform is
    sampled and the factors, e^{z t} included, that sum the samples.
    """

    kind: str
    sigma: float
    nodes: np.ndarray
    weights: np.ndarray


def contour_for(t: float, omega: float = 0.0,
                spectrum=None) -> ContourConfig:
    """Contour for inversion at time t > 0 given growth abscissa omega.

    The hyperbola when ``spectrum``, every singularity of the transform,
    lies strictly left of its narrower companion of angle alpha + d;
    otherwise (including without a spectrum) the line.
    """
    if t <= 0:
        raise ValueError("inversion time must be positive")
    if spectrum is not None:
        sigma = max(omega, 0.0) + min(HYP_SHIFT, HYP_SHIFT_T / t)
        mu = HYP_MU_T / t
        s = np.asarray(spectrum, dtype=complex)
        X = s.real - sigma - mu
        edge = -mu * math.sin(HYP_ALPHA + HYP_STRIP) * np.sqrt(
            1.0 + (s.imag / (mu * math.cos(HYP_ALPHA + HYP_STRIP))) ** 2)
        if np.all(X < edge):
            # v = i u_k - alpha
            v = 1j * HYP_H * np.arange(-HYP_N, HYP_N + 1) - HYP_ALPHA
            z = sigma + mu * (1.0 + np.sin(v))
            # h/(2 pi i) z'(u_k) e^{z_k t}, z'(u) = i mu cos(iu - alpha)
            w = (HYP_H * mu / (2.0 * math.pi)) * np.cos(v) * np.exp(z * t)
            return ContourConfig("hyperbola", sigma, z, w)
    sigma = max(omega, 0.0) + DEFAULT_ACCEL / (2.0 * t)
    h = math.pi / t
    k = np.arange(-(N_NODES + EULER_DEPTH), N_NODES + EULER_DEPTH + 1)
    share = _LINE_SHARE[np.maximum(np.abs(k) - N_NODES, 0)]
    # e^{lam t} = (-1)^k e^{sigma t} at the nodes sigma + i k pi/t
    w = (-1.0) ** k * share * (h * math.exp(sigma * t) / (2.0 * math.pi))
    return ContourConfig("line", sigma, sigma + 1j * h * k, w)


def bromwich_invert(F, cfg):
    """(1/2 pi i) * integral of e^{lam t} F(lam) along the contour cfg.

    F maps the array of the rule's K nodes to its K samples, one row per
    node (a scalar transform gives shape (K,), a vector one (K, n)); it is
    called once.  ``cfg`` is one ContourConfig, or a list of them whose
    nodes are all sampled by that one call, and then one result per rule
    is returned, stacked.  A non-finite sample raises NonFiniteSample.
    """
    rules = [cfg] if isinstance(cfg, ContourConfig) else list(cfg)
    nodes = np.concatenate([r.nodes for r in rules])
    vals = np.asarray(F(nodes), dtype=complex)
    finite = np.isfinite(vals).reshape(len(nodes), -1).all(axis=1)
    if not finite.all():
        raise NonFiniteSample(
            f"transform not finite at {nodes[np.argmin(finite)]}")
    parts = np.split(vals, np.cumsum([len(r.nodes) for r in rules])[:-1])
    out = [np.tensordot(r.weights, v, 1) for r, v in zip(rules, parts)]
    return out[0] if isinstance(cfg, ContourConfig) else np.array(out)


def forward_laplace(g, lam: complex, T: float = 40.0, n: int = 64,
                    omega: float = 0.0) -> np.ndarray:
    """Integral of e^{-lam t} g(t) over [0, T] by composite Gauss-Legendre.

    The neglected tail is bounded by ||g(T)|| e^{-(Re lam - omega) T} /
    (Re lam - omega) assuming ||g(t)|| <= ||g(T)|| e^{omega (t - T)} for
    t >= T; a bound above TAIL_TOL raises TailTooLarge.
    """
    decay = lam.real - omega
    gT = np.linalg.norm(np.atleast_1d(np.asarray(g(T), dtype=complex)))
    if decay <= 0:
        raise TailTooLarge(f"Re lambda = {lam.real} does not dominate omega = {omega}")
    tail = gT * abs(np.exp(-lam * T)) / decay
    if tail > TAIL_TOL:
        raise TailTooLarge(f"tail bound {tail:.2e} exceeds {TAIL_TOL:.1e}")
    nodes, weights = np.polynomial.legendre.leggauss(12)
    edges = np.linspace(0.0, T, n + 1)
    acc = None
    for a, b in zip(edges[:-1], edges[1:]):
        mid, rad = (a + b) / 2.0, (b - a) / 2.0
        for x, w in zip(nodes, weights):
            tt = mid + rad * x
            val = np.asarray(g(tt), dtype=complex) * np.exp(-lam * tt) * (w * rad)
            acc = val if acc is None else acc + val
    return acc
