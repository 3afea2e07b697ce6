"""Numerical Laplace transforms on a vertical line.

Inversion uses the trapezoid rule on a Bromwich line with node spacing
pi/t, which turns the contour sum into an alternating series, accelerated
by Euler (binomial) averaging of the partial sums.  With the abscissa
pushed to ``omega + accel/(2t)`` the aliasing error of the trapezoid rule
is of order exp(-accel) while round-off grows like exp(accel/2) times the
sampling error of the transform.  Transforms sampled by backward-stable
solves (triangular solves with the pencil's QZ form) carry a relative
error near cond(lam E - A) * 1e-16, so at resolvent index 1 and 2 the
aliasing term dominates and inversion is accurate to about 1e-9 relative;
from index 3 on, cond grows like |lam|^p at the far nodes and round-off
takes over.

The forward transform is a composite Gauss-Legendre quadrature on a
truncated horizon with an explicit tail bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteSample, TailTooLarge

# Balances the trapezoid aliasing error exp(-accel) against round-off
# amplification exp(accel/2) * eps_F, where eps_F ~ cond(lam E - A) * 1e-16
# is the relative error of one backward-stable (triangular) solve.
DEFAULT_ACCEL = 20.0
EULER_DEPTH = 14
N_NODES = 40  # conjugate node pairs summed before Euler averaging
TAIL_TOL = 1e-9


@dataclass(frozen=True)
class ContourConfig:
    """Vertical-line contour for inversion.

    sigma: line abscissa (must lie right of all singularities of F).
    """

    sigma: float


def contour_for(t: float, omega: float = 0.0) -> ContourConfig:
    """Contour tuned for inversion at time t given growth abscissa omega."""
    return ContourConfig(sigma=max(omega, 0.0) + DEFAULT_ACCEL / (2.0 * t))


def bromwich_invert(F, t: float, cfg: ContourConfig) -> np.ndarray:
    """(1/2*pi*i) * integral of e^{lam t} F(lam) along Re lam = cfg.sigma.

    F maps a complex point to a complex vector (or scalar).  Requires
    t > 0; nodes are sigma +/- i*k*pi/t so that e^{lam t} alternates in
    sign, and the alternating partial sums are Euler-averaged.
    """
    if t <= 0:
        raise ValueError("inversion time must be positive")
    sigma = cfg.sigma
    h = math.pi / t
    m = EULER_DEPTH

    def sample(lam):
        val = np.asarray(F(lam), dtype=complex)
        if not np.all(np.isfinite(val)):
            raise NonFiniteSample(f"transform not finite at {lam}")
        return val

    acc = sample(sigma)
    partials = []
    for k in range(1, N_NODES + m + 1):
        acc = acc + (-1) ** k * (sample(sigma + 1j * k * h)
                                 + sample(sigma - 1j * k * h))
        if k >= N_NODES:
            partials.append(acc.copy())
    euler = sum(math.comb(m, j) * partials[j] for j in range(m + 1)) / 2.0 ** m
    return euler * (h * math.exp(sigma * t) / (2.0 * math.pi))


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
