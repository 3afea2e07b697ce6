"""Exp-polynomial signal calculus against quadrature and finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daesemi import Signal
from daesemi.errors import DimensionMismatch, SmoothnessInsufficient


def _rand_signal(rng, dim=2, n_terms=3, max_power=3):
    terms = []
    for _ in range(n_terms):
        c = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        terms.append((c, rng.integers(0, max_power + 1),
                      complex(rng.uniform(-1, 0.5), rng.uniform(-1, 1))))
    return Signal.from_terms(terms)


def test_evaluation_matches_term_sum():
    sig = Signal.from_terms([([1.0, 0.0], 2, -1.0), ([0.0, 2.0], 0, 1j)])
    t = 0.7
    v = sig(t)
    assert np.allclose(v, [t ** 2 * np.exp(-t), 2 * np.exp(1j * t)])


def test_derivative_finite_difference():
    rng = np.random.default_rng(0)
    sig = _rand_signal(rng)
    d = sig.derivative()
    h = 1e-6
    for t in (0.3, 1.1, 2.0):
        fd = (sig(t + h) - sig(t - h)) / (2 * h)
        assert np.allclose(d(t), fd, atol=1e-6)


def test_antiderivative_quadrature():
    rng = np.random.default_rng(1)
    sig = _rand_signal(rng)
    F = sig.antiderivative()
    assert np.allclose(F(0.0), 0.0)
    ts = np.linspace(0, 2, 4001)
    vals = sig(ts)
    quad = np.trapezoid(vals, ts, axis=0)
    assert np.allclose(F(2.0), quad, atol=1e-6)


def test_derivative_of_antiderivative_round_trip():
    rng = np.random.default_rng(2)
    sig = _rand_signal(rng)
    back = sig.antiderivative().derivative()
    ts = np.linspace(0, 3, 17)
    assert np.allclose(back(ts), sig(ts), atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=3),
       st.floats(min_value=-1.0, max_value=1.0),
       st.floats(min_value=-1.0, max_value=1.0))
def test_antiderivative_property(p1, p2, re, im):
    sig = Signal.from_terms([([1.0], p1, complex(re, im)), ([0.5], p2, 0.0)])
    F = sig.antiderivative()
    assert np.allclose(F(0.0), 0.0, atol=1e-12)
    ts = np.linspace(0.1, 2.0, 7)
    h = 1e-5
    fd = (F(ts + h) - F(ts - h)) / (2 * h)
    assert np.allclose(fd, sig(ts), atol=1e-5 * (1 + np.abs(sig(ts)).max()))


def test_convolution_against_quadrature():
    rng = np.random.default_rng(3)
    K = Signal.from_terms([(rng.normal(size=(2, 2)), 1, -0.5 + 0.3j),
                           (rng.normal(size=(2, 2)), 0, 0.2j)])
    f = _rand_signal(rng, dim=2, n_terms=2)
    conv = K.convolve(f)
    for t in (0.5, 1.5):
        taus = np.linspace(0, t, 3001)
        integrand = np.einsum("kij,kj->ki", K(t - taus), f(taus))
        quad = np.trapezoid(integrand, taus, axis=0)
        assert np.allclose(conv(t), quad, atol=1e-6)


def test_laplace_against_quadrature():
    rng = np.random.default_rng(4)
    sig = _rand_signal(rng)
    lam = 3.0 + 0.7j
    ts = np.linspace(0, 60, 120001)
    quad = np.trapezoid(sig(ts) * np.exp(-lam * ts)[:, None], ts, axis=0)
    assert np.allclose(sig.laplace(lam), quad, atol=1e-6)


def test_vanishing_order_powers():
    for q in range(4):
        sig = Signal.from_terms([([1.0], q, -0.3)])
        assert sig.vanishing_order() == q
    frac = Signal.from_terms([([1.0], 1.5, 0.0)])
    assert frac.vanishing_order() == 2
    assert Signal.zero(1).vanishing_order() == 12


def test_value_at_zero_unbounded():
    sig = Signal.from_terms([([1.0], -0.5, 0.0)])
    assert sig.value_at_zero() is None
    assert sig.has_negative_powers()


def test_modulate_and_matvec():
    sig = Signal.from_terms([(np.eye(2), 1, -1.0)])
    v = np.array([2.0, -1.0])
    mv = sig.matvec(v).modulate(0.5)
    t = 0.9
    assert np.allclose(mv(t), t * np.exp(-0.5 * t) * v)


def test_trim_drops_noise_terms():
    sig = Signal.from_terms([([1.0], 0, -1.0), ([1e-15], 2, 0.0)])
    assert len(sig.trim().terms) == 1


def test_json_round_trip():
    rng = np.random.default_rng(5)
    sig = _rand_signal(rng)
    back = Signal.from_json_dict(sig.to_json_dict())
    ts = np.linspace(0, 2, 9)
    assert np.allclose(back(ts), sig(ts))


def test_shape_errors():
    a = Signal.zero(2)
    b = Signal.zero(3)
    with pytest.raises(DimensionMismatch):
        _ = a + b
    frac = Signal.from_terms([(np.eye(2), 0.5, -1.0)])
    with pytest.raises(SmoothnessInsufficient):
        frac.convolve(Signal.constant([1.0, 2.0]))


def test_merge_keeps_first_key_seen():
    a, b = np.array([1.0, 2.0]), np.array([0.5, -1.0])
    near = -0.5 + 2e-11          # equal to -0.5 in 9 digits
    for first, second in ((-0.5, near), (near, -0.5)):
        sig = Signal.from_terms([(a, 1, first), (b, 1.0 + 3e-11, second)])
        (term,) = sig.terms
        assert term.power == 1.0 and term.rate == first
        assert np.array_equal(term.coeff, a + b)
    apart = Signal.from_terms([(a, 1, -0.5), (b, 1, -0.5 + 2e-9)])
    assert len(apart.terms) == 2


def test_exact_cancellation_drops_the_term():
    rng = np.random.default_rng(6)
    sig = _rand_signal(rng)
    assert len((sig - sig).terms) == 0
    both = Signal.from_terms([([1.0, 0.0], 0, -1.0), ([0.0, 1.0], 1, 0.0)])
    kept = both.apply(np.array([[1.0, 0.0]]))
    assert [(t.power, t.rate) for t in kept.terms] == [(0.0, -1.0)]
    assert kept.shape == (1,)


def test_terms_come_out_sorted():
    rng = np.random.default_rng(7)
    raw = [(rng.normal(size=2), m, complex(re, im))
           for m in (2, 0, 1) for re, im in ((0.5, 0.0), (-1.0, 1.0), (-1.0, -1.0))]
    sig = Signal.from_terms(raw[::-1]) + Signal.from_terms(raw[:4])
    keys = [(t.power, t.rate.real, t.rate.imag) for t in sig.terms]
    assert keys == sorted(keys) and len(keys) == len(raw)
    keys = [(t.power, t.rate.real, t.rate.imag)
            for t in sig.antiderivative(2).derivative().terms]
    assert keys == sorted(keys)


@pytest.mark.parametrize("shape", [(0,), (0, 0)])
def test_empty_shape_evaluates_to_shaped_zeros(shape):
    sig = Signal.zero(shape)
    assert sig(0.5).shape == shape
    assert sig(np.linspace(0, 1, 3)).shape == (3,) + shape
    assert sig.value_at_zero().shape == shape


def test_matrix_evaluation_matches_term_sum():
    rng = np.random.default_rng(8)
    sig = Signal.from_terms(
        [(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)), m,
          complex(rng.uniform(-1, 0.5), rng.uniform(-2, 2)))
         for m in (0, 0, 1, 2, 3, 1)]).antiderivative(2)
    ts = np.linspace(0.0, 4.0, 40)
    ref = sum(t.coeff * (ts ** t.power * np.exp(t.rate * ts))[:, None, None]
              for t in sig.terms)
    got = sig(ts)
    assert got.shape == (40, 5, 5)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_terms_view_the_stored_coefficients():
    rng = np.random.default_rng(9)
    sig = Signal.from_terms([(rng.normal(size=(3, 3)), m, -0.2 * m)
                             for m in range(4)])
    assert sig.coeffs.shape == (4, 3, 3)
    assert sum(t.coeff.nbytes for t in sig.terms) == sig.coeffs.nbytes
