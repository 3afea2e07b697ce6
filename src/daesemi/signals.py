"""Closed-form exp-polynomial time signals.

A signal is a finite sum of terms ``coeff * t**power * exp(rate * t)`` with
vector- (or matrix-) valued coefficients.  The class is closed under
differentiation, antidifferentiation from 0, convolution and Laplace
transform, which is what makes the solution formulas of the solver modules
exact instead of quadrature-based.

A signal of K terms is stored as three arrays, ``coeffs`` (K,) + shape,
``powers`` (K,) and ``rates`` (K,); ``terms`` is a per-term view of them.
Results in which terms can meet are built by ``_combine``, so the terms of
every signal have distinct (power, rate) keys, sorted, and none is zero.

A function of a diagonalizable generator, such as exp(t M) = Q diag(e^{t w})
Q^{-1}, is a ``ModalSignal``: the vector signal of its diagonal in the
eigenbasis Q, with Q and Q^{-1}.  It meets vectors and vector signals
through Q and Q^{-1} and never stores a matrix coefficient per term.

Powers are floats so that fractional-smoothness data (t**(q + alpha)) can be
represented; non-integer powers are only supported with rate 0, which is all
the smoothness-ladder tests need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gamma as _gamma

from .errors import DimensionMismatch, SmoothnessInsufficient

_MERGE_DIGITS = 9
_MAX_VANISHING_ORDER = 12


@dataclass(frozen=True)
class Term:
    coeff: np.ndarray
    power: float
    rate: complex


@dataclass(frozen=True)
class Signal:
    """Finite exp-polynomial sum; immutable."""

    coeffs: np.ndarray                 # (K,) + shape, complex
    powers: np.ndarray                 # (K,), float
    rates: np.ndarray                  # (K,), complex

    @property
    def shape(self) -> tuple[int, ...]:
        return self.coeffs.shape[1:]

    @property
    def terms(self) -> tuple[Term, ...]:
        return tuple(Term(c, float(m), complex(a))
                     for c, m, a in zip(self.coeffs, self.powers, self.rates))

    # -- construction ------------------------------------------------------

    @staticmethod
    def zero(shape) -> "Signal":
        if isinstance(shape, int):
            shape = (shape,)
        return Signal(np.zeros((0,) + tuple(shape), dtype=complex),
                      np.zeros(0), np.zeros(0, dtype=complex))

    @staticmethod
    def from_terms(raw, shape=None) -> "Signal":
        """raw: iterable of (coeff, power, rate)."""
        raw = list(raw)
        coeffs = [np.asarray(c, dtype=complex) for c, _, _ in raw]
        if shape is None:
            if not coeffs:
                raise DimensionMismatch("shape required for empty signal")
            shape = coeffs[0].shape
        if any(c.shape != tuple(shape) for c in coeffs):
            raise DimensionMismatch("inconsistent coefficient shapes")
        stack = np.array(coeffs, dtype=complex).reshape((len(raw), *shape))
        return _combine(stack, [(k, 1, m, a) for k, (_, m, a) in enumerate(raw)])

    @staticmethod
    def constant(vec) -> "Signal":
        vec = np.asarray(vec, dtype=complex)
        return Signal.from_terms([(vec, 0, 0)])

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "Signal") -> "Signal":
        if self.shape != other.shape:
            raise DimensionMismatch(f"{self.shape} + {other.shape}")
        k = len(self.powers) + len(other.powers)
        return _combine(np.concatenate([self.coeffs, other.coeffs]),
                        np.column_stack([np.arange(k), np.ones(k),
                                         np.r_[self.powers, other.powers],
                                         np.r_[self.rates, other.rates]]))

    def __sub__(self, other: "Signal") -> "Signal":
        return self + (-other)

    def __neg__(self) -> "Signal":
        return self.scale(-1)

    def scale(self, alpha) -> "Signal":
        return Signal(alpha * self.coeffs, self.powers, self.rates)

    def apply(self, matrix: np.ndarray) -> "Signal":
        """Left-multiply every coefficient by ``matrix``."""
        matrix = np.asarray(matrix, dtype=complex)
        out = np.tensordot(self.coeffs, matrix, axes=(1, 1))  # (K, ..., m)
        return _nonzero(np.moveaxis(out, -1, 1), self.powers, self.rates)

    def matvec(self, vec: np.ndarray) -> "Signal":
        """Matrix-valued signal times a constant vector."""
        if len(self.shape) != 2:
            raise DimensionMismatch("matvec needs a matrix-valued signal")
        vec = np.asarray(vec, dtype=complex)
        return _nonzero(self.coeffs @ vec, self.powers, self.rates)

    # -- calculus ----------------------------------------------------------

    def derivative(self, order: int = 1) -> "Signal":
        """The order-th derivative, exact; steps composed as in ``_repeat``."""
        return self._repeat(_derivative_rows, order)

    def antiderivative(self, order: int = 1) -> "Signal":
        """k-fold integral from 0, exact; steps composed as in ``_repeat``,
        each choosing its branch by the steps still to come."""
        return self._repeat(_antiderivative_rows, order)

    def _repeat(self, rows_of, order: int) -> "Signal":
        """``order`` steps of the term map ``rows_of(powers, rates, later)``,
        ``later`` the number of steps still to come."""
        sig = self
        for j in range(order):
            sig = _combine(sig.coeffs,
                           rows_of(sig.powers, sig.rates, order - 1 - j))
        return sig

    def convolve(self, other: "Signal") -> "Signal":
        """(self * other)(t) = int_0^t self(t - tau) @ other(tau) d tau.

        self must have matrix coefficients (n, r) and other vector (r,), or
        both vector coefficients of one shape, convolved componentwise (a
        diagonal kernel); both restricted to integer powers.
        """
        if len(other.shape) != 1 or self.shape[-1:] != other.shape \
                or len(self.shape) > 2:
            raise DimensionMismatch(
                f"convolve shapes {self.shape} and {other.shape}")
        spec = "kij,lj->kli" if len(self.shape) == 2 else "kj,lj->klj"
        # source i * L + j is kernel term i times input term j
        prods = np.einsum(spec, self.coeffs, other.coeffs, optimize=True
                          ).reshape(len(self.powers) * len(other.powers),
                                    self.shape[0])
        rows = []
        for i, (m, a) in enumerate(zip(self.powers, self.rates)):
            m = _as_int_power(m)
            for j, (k, b) in enumerate(zip(other.powers, other.rates)):
                k = _as_int_power(k)
                for r in range(m + 1):
                    pref = math.comb(m, r) * (-1.0) ** r
                    for coef, q, c in _int_power_exp(r + k, b - a, 0):
                        # times  pref * t**(m-r) * exp(a * t)
                        rows.append((i * len(other.powers) + j, pref * coef,
                                     (m - r) + q, a + c))
        return _combine(prods, rows)

    def laplace(self, lam) -> np.ndarray:
        """Exact transform  int_0^inf e^{-lam t} f(t) dt  (Re lam large).

        ``lam`` may be an array; the result has one row per point, so the
        transform can be handed to ``bromwich_invert`` as it is.
        """
        lam = np.asarray(lam, dtype=complex)[..., np.newaxis]
        weights = (_gamma(self.powers + 1)
                   / (lam - self.rates) ** (self.powers + 1))
        return np.tensordot(weights, self.coeffs, axes=1)

    # -- evaluation --------------------------------------------------------

    def __call__(self, t):
        """The value at t, or one row per entry of an array t.

        A term that is infinite at t (a negative power at t = 0) makes inf
        exactly the components in which its coefficient is nonzero.
        """
        basis = self._basis(t)
        blown = np.isinf(basis)
        if not blown.any():
            return np.tensordot(basis, self.coeffs, axes=1)
        out = np.tensordot(np.where(blown, 0.0, basis), self.coeffs, axes=1)
        hit = np.tensordot(blown.astype(float),
                           (self.coeffs != 0).astype(float), axes=1)
        out[hit > 0] = np.inf
        return out

    def _basis(self, t) -> np.ndarray:
        """The terms t**power * exp(rate * t), shape t.shape + (K,)."""
        tt = np.asarray(t, dtype=float)[..., np.newaxis]
        with np.errstate(divide="ignore", invalid="ignore"):
            return tt ** self.powers * np.exp(tt * self.rates)

    def value_at_zero(self):
        """f(0); terms with negative power make it infinite."""
        if self.has_negative_powers():
            return None  # unbounded at 0
        return self.coeffs[self.powers == 0].sum(axis=0)

    def vanishing_order(self) -> int:
        """Largest q with f(0) = ... = f^{(q-1)}(0) = 0."""
        scale = self.magnitude()
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
        return float(np.max(np.abs(self.coeffs), initial=0.0))

    def trim(self) -> "Signal":
        """Drop terms whose coefficients are negligible relative to the rest."""
        keep = np.max(np.abs(self.coeffs), axis=tuple(range(1, self.coeffs.ndim)),
                      initial=0.0) > 1e-12 * self.magnitude()
        return Signal(self.coeffs[keep], self.powers[keep], self.rates[keep])

    def has_negative_powers(self) -> bool:
        return bool(np.any(self.powers < 0))

    # -- serialization (vector signals) ------------------------------------

    def to_json_dict(self) -> dict:
        if len(self.shape) != 1:
            raise DimensionMismatch("only vector signals serialize to JSON")
        return {"shape": list(self.shape), "terms": [
            {"coeff": [[float(c.real), float(c.imag)] for c in t.coeff],
             "power": t.power,
             "rate": [float(t.rate.real), float(t.rate.imag)]}
            for t in self.terms]}

    @staticmethod
    def from_json_dict(d: dict) -> "Signal":
        """The inverse of ``to_json_dict``; only an empty signal needs "shape"."""
        return Signal.from_terms(
            (([complex(re, im) for re, im in t["coeff"]], t["power"],
              complex(t["rate"][0], t["rate"][1])) for t in d["terms"]),
            shape=d.get("shape"))


@dataclass(frozen=True)
class ModalSignal:
    """The matrix signal Q diag(d(t)) Q^{-1}, held in the eigenbasis Q.

    ``d`` is a vector signal of shape (r,), one component per column of Q,
    so a function of a diagonalizable generator costs K x r coefficients,
    not K x r x r.  Calculus and scaling act on ``d`` alone; a product
    with a vector or a vector signal passes through Q^{-1} and Q once.
    ``cond`` is the 1-norm condition number ||Q||_1 ||Q^{-1}||_1 of Q.
    """

    d: Signal
    Q: np.ndarray
    Qinv: np.ndarray
    cond: float

    @property
    def shape(self) -> tuple[int, ...]:
        return self.Q.shape

    @property
    def terms(self) -> tuple[Term, ...]:
        """The terms of ``d``: one coefficient per eigenvector."""
        return self.d.terms

    def __call__(self, t):
        """The matrix at t, or one per entry of an array t: (..., r, r)."""
        return (self.Q * self.d(t)[..., np.newaxis, :]) @ self.Qinv

    def derivative(self, order: int = 1) -> "ModalSignal":
        return replace(self, d=self.d.derivative(order))

    def antiderivative(self, order: int = 1) -> "ModalSignal":
        return replace(self, d=self.d.antiderivative(order))

    def scale(self, alpha) -> "ModalSignal":
        return replace(self, d=self.d.scale(alpha))

    def matvec(self, vec: np.ndarray) -> Signal:
        """The vector signal Q diag(d(t)) Q^{-1} vec."""
        c = self.Qinv @ np.asarray(vec, dtype=complex)
        return _nonzero(self.d.coeffs * c, self.d.powers,
                        self.d.rates).apply(self.Q)

    def convolve(self, other: Signal) -> Signal:
        """int_0^t Q diag(d(t - tau)) Q^{-1} other(tau) d tau."""
        if other.shape != self.shape[1:]:
            raise DimensionMismatch(
                f"convolve shapes {self.shape} and {other.shape}")
        return self.d.convolve(other.apply(self.Qinv)).apply(self.Q)


def _combine(stack: np.ndarray, rows) -> Signal:
    """The signal  sum_i weight_i * stack[source_i] * t**power_i e^{rate_i t}.

    ``rows`` holds one (source, weight, power, rate) per row.  Rows whose
    (power, rate) agree to _MERGE_DIGITS decimals form one term, which keeps
    the first (power, rate) seen; terms come out sorted by that rounded key,
    and a term whose coefficient sums to exactly zero is dropped.  The
    coefficients are one product of a (terms x sources) weight matrix with
    ``stack``, so only the input and output stacks are ever materialized.
    """
    rows = np.asarray(rows, dtype=complex).reshape(-1, 4)
    rows = rows[rows[:, 1] != 0]          # a zero weight contributes nothing
    src, weight = rows[:, 0].real.astype(np.intp), rows[:, 1]
    powers, rates = rows[:, 2].real, rows[:, 3]
    keys = np.round([rates.imag, rates.real, powers], _MERGE_DIGITS)
    order = np.lexsort(keys)              # stable: each group opens with its first row
    keys = keys[:, order]
    opens = np.ones(len(order), dtype=bool)
    opens[1:] = np.any(keys[:, 1:] != keys[:, :-1], axis=0)
    W = np.zeros((int(opens.sum()), len(stack)), dtype=complex)
    np.add.at(W, (np.cumsum(opens) - 1, src[order]), weight[order])
    if not (len(W) == len(stack) and np.array_equal(W, np.eye(len(W)))):
        stack = np.tensordot(W, stack, axes=1)   # W = I would only copy it
    first = order[opens]
    return _nonzero(stack, powers[first], rates[first])


def _derivative_rows(powers, rates, later) -> np.ndarray:
    """``_combine`` rows of d/dt: t^m e^{at} -> (a t^m + m t^{m-1}) e^{at}."""
    k = np.arange(len(powers))
    return np.column_stack([np.r_[k, k], np.r_[rates, powers],
                            np.r_[powers, powers - 1], np.r_[rates, rates]])


def _antiderivative_rows(powers, rates, later) -> list:
    """``_combine`` rows of the integral from 0 of every term."""
    return [(k, coef, m, a) for k, (q, c) in enumerate(zip(powers, rates))
            for coef, m, a in _int_power_exp(q, c, later)]


def _nonzero(coeffs, powers, rates) -> Signal:
    """The terms whose coefficient is not exactly zero; no copy if that is all."""
    keep = np.any(coeffs != 0, axis=tuple(range(1, coeffs.ndim)))
    if keep.all():
        return Signal(coeffs, powers, rates)
    return Signal(coeffs[keep], powers[keep], rates[keep])


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


def _int_power_exp(q: float, c: complex,
                   later: int) -> list[tuple[complex, float, complex]]:
    """int_0^t tau**q e^{c tau} d tau as [(coef, power, rate)] terms.

    The closed-form recursion divides by c repeatedly and loses accuracy
    for small rates; those are integrated through the series
    sum_i c^i t^{q+i+1} / (i! (q+i+1)) instead, truncated so the result is
    accurate to ~1e-12 on t in [0, _SERIES_HORIZON].  Each of ``later``
    integrations still to come divides by c again, so q + later decides.
    """
    if c == 0:
        if q <= -1:
            raise SmoothnessInsufficient(f"non-integrable power {q}")
        return [(1.0 / (q + 1), q + 1, 0j)]
    qi_guess = int(max(q, 0))
    if abs(c) < _small_rate_cutoff(qi_guess + later):
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
    out = []
    coef = 1.0 + 0j
    for j in range(qi, -1, -1):
        # coefficient of t**j e^{ct} from the unrolled recursion
        out.append((coef / c, float(j), c))
        coef *= -j / c
    # integration constant chosen so the integral vanishes at t = 0
    out.append((-out[-1][0], 0.0, 0j))
    return out
