"""Closed-form exp-polynomial time signals.

A signal is a finite sum of terms ``coeff * t**power * exp(rate * t)`` with
vector- (or matrix-) valued coefficients.  The class is closed under
differentiation, antidifferentiation from 0, convolution and Laplace
transform, which is what makes the solution formulas of the solver modules
exact instead of quadrature-based.

Powers are floats so that fractional-smoothness data (t**(q + alpha)) can be
represented; non-integer powers are only supported with rate 0, which is all
the smoothness-ladder tests need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _gamma

from .errors import DimensionMismatch, SmoothnessInsufficient

_MERGE_DIGITS = 9
_MAX_VANISHING_ORDER = 12


def _key(power: float, rate: complex) -> tuple:
    return (round(power, _MERGE_DIGITS), round(rate.real, _MERGE_DIGITS),
            round(rate.imag, _MERGE_DIGITS))


@dataclass(frozen=True)
class Term:
    coeff: np.ndarray
    power: float
    rate: complex


@dataclass(frozen=True)
class Signal:
    """Finite exp-polynomial sum; immutable."""

    terms: tuple[Term, ...]
    shape: tuple[int, ...]

    # -- construction ------------------------------------------------------

    @staticmethod
    def zero(shape) -> "Signal":
        if isinstance(shape, int):
            shape = (shape,)
        return Signal((), tuple(shape))

    @staticmethod
    def from_terms(raw, shape=None) -> "Signal":
        """raw: iterable of (coeff, power, rate)."""
        terms = []
        for c, m, a in raw:
            c = np.asarray(c, dtype=complex)
            terms.append(Term(c, float(m), complex(a)))
        if shape is None:
            if not terms:
                raise DimensionMismatch("shape required for empty signal")
            shape = terms[0].coeff.shape
        for t in terms:
            if t.coeff.shape != tuple(shape):
                raise DimensionMismatch("inconsistent coefficient shapes")
        return Signal((), tuple(shape))._replace_terms(terms)

    @staticmethod
    def constant(vec) -> "Signal":
        vec = np.asarray(vec, dtype=complex)
        return Signal.from_terms([(vec, 0, 0)])

    def _replace_terms(self, terms) -> "Signal":
        merged: dict[tuple, np.ndarray] = {}
        meta: dict[tuple, tuple[float, complex]] = {}
        for t in terms:
            k = _key(t.power, t.rate)
            if k in merged:
                merged[k] = merged[k] + t.coeff
            else:
                merged[k] = t.coeff.astype(complex)
                meta[k] = (t.power, t.rate)
        kept = []
        for k, c in merged.items():
            if np.any(c != 0):
                m, a = meta[k]
                kept.append(Term(c, m, a))
        kept.sort(key=lambda t: (t.power, t.rate.real, t.rate.imag))
        return Signal(tuple(kept), self.shape)

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "Signal") -> "Signal":
        if self.shape != other.shape:
            raise DimensionMismatch(f"{self.shape} + {other.shape}")
        return self._replace_terms(list(self.terms) + list(other.terms))

    def __sub__(self, other: "Signal") -> "Signal":
        return self + (-other)

    def __neg__(self) -> "Signal":
        return self.scale(-1)

    def scale(self, alpha) -> "Signal":
        return Signal(tuple(Term(alpha * t.coeff, t.power, t.rate)
                            for t in self.terms), self.shape)

    def apply(self, matrix: np.ndarray) -> "Signal":
        """Left-multiply every coefficient by ``matrix``."""
        matrix = np.asarray(matrix, dtype=complex)
        out = [Term(matrix @ t.coeff, t.power, t.rate) for t in self.terms]
        shape = (matrix.shape[0],) + self.shape[1:]
        return Signal((), shape)._replace_terms(out)

    def matvec(self, vec: np.ndarray) -> "Signal":
        """Matrix-valued signal times a constant vector."""
        if len(self.shape) != 2:
            raise DimensionMismatch("matvec needs a matrix-valued signal")
        vec = np.asarray(vec, dtype=complex)
        out = [Term(t.coeff @ vec, t.power, t.rate) for t in self.terms]
        return Signal((), (self.shape[0],))._replace_terms(out)

    def modulate(self, rate: complex) -> "Signal":
        """Multiply pointwise by exp(rate * t)."""
        return Signal(tuple(Term(t.coeff, t.power, t.rate + complex(rate))
                            for t in self.terms), self.shape)

    # -- calculus ----------------------------------------------------------

    def derivative(self, order: int = 1) -> "Signal":
        sig = self
        for _ in range(order):
            out = []
            for t in sig.terms:
                if t.rate != 0:
                    out.append(Term(t.rate * t.coeff, t.power, t.rate))
                if t.power != 0:
                    out.append(Term(t.power * t.coeff, t.power - 1, t.rate))
            sig = sig._replace_terms(out)
        return sig

    def antiderivative(self, order: int = 1) -> "Signal":
        """k-fold integral from 0, exact."""
        sig = self
        for _ in range(order):
            out = []
            for t in sig.terms:
                for coef, m, a in _int_power_exp(t.power, t.rate):
                    out.append(Term(coef * t.coeff, m, a))
            sig = sig._replace_terms(out)
        return sig

    def convolve(self, other: "Signal") -> "Signal":
        """(self * other)(t) = int_0^t self(t - tau) @ other(tau) d tau.

        self must have matrix coefficients (n, r) and other vector (r,);
        both restricted to integer powers.
        """
        if len(self.shape) != 2 or len(other.shape) != 1 \
                or self.shape[1] != other.shape[0]:
            raise DimensionMismatch(
                f"convolve shapes {self.shape} and {other.shape}")
        out = []
        for kt in self.terms:
            m = _as_int_power(kt.power)
            for ft in other.terms:
                k = _as_int_power(ft.power)
                vec = kt.coeff @ ft.coeff
                for r in range(m + 1):
                    pref = math.comb(m, r) * (-1.0) ** r
                    for coef, j, c in _int_power_exp(r + k, ft.rate - kt.rate):
                        # multiply by  pref * t**(m-r) * exp(rate_K * t)
                        out.append(Term(pref * coef * vec, (m - r) + j,
                                        kt.rate + c))
        return Signal((), (self.shape[0],))._replace_terms(out)

    def laplace(self, lam: complex) -> np.ndarray:
        """Exact transform  int_0^inf e^{-lam t} f(t) dt  (Re lam large)."""
        acc = np.zeros(self.shape, dtype=complex)
        for t in self.terms:
            acc += t.coeff * _gamma(t.power + 1) / (lam - t.rate) ** (t.power + 1)
        return acc

    # -- evaluation --------------------------------------------------------

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        tt = np.atleast_1d(t)
        acc = np.zeros(tt.shape + self.shape, dtype=complex)
        extra = (np.newaxis,) * len(self.shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            for term in self.terms:
                if term.power == 0:
                    pw = np.ones_like(tt)
                else:
                    pw = tt ** term.power
                factor = (pw * np.exp(term.rate * tt))[(...,) + extra]
                acc = acc + factor * term.coeff
        return acc[0] if scalar else acc

    def value_at_zero(self):
        """f(0); terms with negative power make it infinite."""
        acc = np.zeros(self.shape, dtype=complex)
        for t in self.terms:
            if t.power == 0:
                acc += t.coeff
            elif t.power < 0:
                return None  # unbounded at 0
        return acc

    def vanishing_order(self) -> int:
        """Largest q with f(0) = ... = f^{(q-1)}(0) = 0."""
        scale = max((np.max(np.abs(t.coeff)) for t in self.terms), default=0.0)
        if scale == 0.0:
            return _MAX_VANISHING_ORDER
        sig = self
        for q in range(_MAX_VANISHING_ORDER):
            v = sig.value_at_zero()
            if v is None or np.max(np.abs(v)) > 1e-10 * scale:
                return q
            sig = sig.derivative()
        return _MAX_VANISHING_ORDER

    def magnitude(self) -> float:
        return max((np.max(np.abs(t.coeff)) for t in self.terms), default=0.0)

    def trim(self) -> "Signal":
        """Drop terms whose coefficients are negligible relative to the rest."""
        cut = 1e-12 * self.magnitude()
        kept = tuple(t for t in self.terms if np.max(np.abs(t.coeff)) > cut)
        return Signal(kept, self.shape)

    def has_negative_powers(self) -> bool:
        return any(t.power < 0 for t in self.terms)

    # -- serialization (vector signals) ------------------------------------

    def to_json_dict(self) -> dict:
        if len(self.shape) != 1:
            raise DimensionMismatch("only vector signals serialize to JSON")
        return {"terms": [
            {"coeff": [[float(c.real), float(c.imag)] for c in t.coeff],
             "power": t.power,
             "rate": [float(t.rate.real), float(t.rate.imag)]}
            for t in self.terms]}

    @staticmethod
    def from_json_dict(d: dict) -> "Signal":
        terms = []
        for t in d["terms"]:
            coeff = np.array([complex(re, im) for re, im in t["coeff"]])
            rate = complex(t["rate"][0], t["rate"][1])
            terms.append((coeff, t["power"], rate))
        return Signal.from_terms(terms)


def _as_int_power(m: float) -> int:
    if not float(m).is_integer() or m < 0:
        raise SmoothnessInsufficient(
            f"operation needs nonnegative integer powers, got {m}")
    return int(m)


_SERIES_HORIZON = 10.0
_SERIES_TOL = 1e-17
_MAX_SERIES_TERMS = 80


def _small_rate_cutoff(q: int) -> float:
    # The closed-form recursion amplifies round-off by ~ q! / |c|^{q+1};
    # below this cutoff the series branch is the accurate one.
    return min(0.5, (math.factorial(q) * 1e-6) ** (1.0 / (q + 1)))


def _int_power_exp(q: float, c: complex) -> list[tuple[complex, float, complex]]:
    """int_0^t tau**q e^{c tau} d tau as [(coef, power, rate)] terms.

    The closed-form recursion divides by c repeatedly and loses accuracy
    for small rates; those are integrated through the series
    sum_i c^i t^{q+i+1} / (i! (q+i+1)) instead, truncated so the result is
    accurate to ~1e-12 on t in [0, _SERIES_HORIZON].
    """
    if c == 0:
        if q <= -1:
            raise SmoothnessInsufficient(f"non-integrable power {q}")
        return [(1.0 / (q + 1), q + 1, 0j)]
    qi_guess = int(max(q, 0))
    if abs(c) < _small_rate_cutoff(qi_guess):
        if q <= -1:
            raise SmoothnessInsufficient(f"non-integrable power {q}")
        out = []
        for i in range(_MAX_SERIES_TERMS):
            coef = c ** i / math.factorial(i)
            out.append((coef / (q + i + 1), q + i + 1, 0j))
            if abs(coef) * _SERIES_HORIZON ** i < _SERIES_TOL:
                break
        return out
    qi = _as_int_power(q)
    # recursion I_q = (t**q e^{ct} - q I_{q-1}) / c,  I_0 = (e^{ct} - 1)/c
    terms: dict[tuple, complex] = {}

    def add(coef, m, a):
        k = (m, a)
        terms[k] = terms.get(k, 0j) + coef

    coef = 1.0 + 0j
    for j in range(qi, -1, -1):
        # coefficient of t**j e^{ct} from the unrolled recursion
        add(coef / c, float(j), c)
        coef *= -j / c
    # integration constant chosen so the integral vanishes at t = 0
    const = -sum(v for (m, a), v in terms.items() if m == 0.0 and a == c)
    add(const, 0.0, 0j)
    return [(v, m, a) for (m, a), v in terms.items() if v != 0]
