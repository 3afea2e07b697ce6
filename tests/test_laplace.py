"""Bromwich inversion and forward quadrature against known transforms."""

import numpy as np
import pytest

from daesemi import (Signal, bromwich_invert, contour_for, forward_laplace)
from daesemi.errors import NonFiniteSample, TailTooLarge
from daesemi.laplace import DEFAULT_ACCEL, HYP_ALPHA, HYP_STRIP


def test_invert_simple_pole():
    # L[e^{-t}] = 1/(lam + 1)
    for t in (0.2, 1.0, 3.0):
        got = bromwich_invert(lambda lam: 1.0 / (lam + 1.0), contour_for(t))
        assert abs(got - np.exp(-t)) < 1e-7


def test_invert_oscillatory():
    # L[cos(5t)] = lam / (lam^2 + 25)
    for t in (0.5, 2.0):
        got = bromwich_invert(lambda lam: lam / (lam ** 2 + 25.0),
                              contour_for(t))
        assert abs(got - np.cos(5.0 * t)) < 1e-8


def test_invert_polynomial_growth():
    # L[t^3/6] = 1/lam^4
    t = 1.5
    got = bromwich_invert(lambda lam: lam ** -4.0, contour_for(t))
    assert abs(got - t ** 3 / 6.0) < 1e-7


def test_invert_growing_exponential():
    # growth abscissa 2 requires omega in the contour choice
    t = 1.0
    got = bromwich_invert(lambda lam: 1.0 / (lam - 2.0),
                          contour_for(t, omega=2.0))
    assert abs(got - np.exp(2.0 * t)) < 1e-7


def test_invert_vector_valued():
    t = 0.8
    got = bromwich_invert(
        lambda lam: np.stack([1.0 / (lam + 1.0), 1.0 / lam ** 2], axis=-1),
        contour_for(t))
    assert np.allclose(got, [np.exp(-t), t], atol=1e-7)


def test_contour_without_spectrum_is_the_line():
    for t in (0.1, 1.0, 4.0):
        for cfg in (contour_for(t), contour_for(t, 2.0)):
            assert cfg.kind == "line"
            assert cfg.sigma > DEFAULT_ACCEL / (2.0 * t) - 1e-12


def test_hyperbola_inverts_known_transforms():
    # e^{-t}, cos t, t^3 e^{-2t}/6 and t^2/2: poles at -1, +-i, -2 and 0
    F = lambda lam: np.stack([1.0 / (lam + 1.0), lam / (lam ** 2 + 1.0),
                              (lam + 2.0) ** -4.0, lam ** -3.0], axis=-1)
    for t in (0.25, 1.0, 1.5):
        cfg = contour_for(t, 0.0, [-1.0, 1j, -1j, -2.0, 0.0])
        assert cfg.kind == "hyperbola"
        exact = [np.exp(-t), np.cos(t), t ** 3 * np.exp(-2.0 * t) / 6.0,
                 t ** 2 / 2.0]
        assert np.max(np.abs(bromwich_invert(F, cfg) - exact)) < 1e-11
        nodes = []
        bromwich_invert(lambda lam: nodes.extend(lam) or np.zeros(len(lam)),
                        cfg)
        assert len(nodes) == 41


def test_hyperbola_round_off_does_not_grow_with_t():
    # e^{-t} and 1, poles at -1 and 0: the shift's part of sigma t is
    # capped, so the weights' e^{z t} stay bounded at every t
    F = lambda lam: np.stack([1.0 / (lam + 1.0), 1.0 / lam], axis=-1)
    for t in (10.0, 30.0, 100.0):
        cfg = contour_for(t, 0.0, [-1.0, 0.0])
        assert cfg.kind == "hyperbola"
        got = bromwich_invert(F, cfg)
        assert np.max(np.abs(got - [np.exp(-t), 1.0])) < 1e-11


def test_spectrum_outside_the_hyperbola_takes_the_line():
    # +-20i lie outside the hyperbola at t = 1.5 but inside at t = 0.01;
    # a point right of the abscissa never fits
    assert HYP_ALPHA + HYP_STRIP < np.pi / 2
    assert contour_for(1.5, 0.0, [20j, -20j]).kind == "line"
    assert contour_for(0.01, 0.0, [20j, -20j]).kind == "hyperbola"
    assert contour_for(1.0, 0.0, [3.0]).kind == "line"
    assert contour_for(1.0, 3.0, [3.0]).kind == "hyperbola"


def test_invert_rejects_nonpositive_time():
    for spectrum in (None, [-1.0]):
        with pytest.raises(ValueError):
            contour_for(0.0, 0.0, spectrum)


def test_invert_rejects_nonfinite_samples():
    t = 1.0
    cfg = contour_for(t)
    with pytest.raises(NonFiniteSample):
        bromwich_invert(lambda lam: np.full((len(lam), 1), np.inf), cfg)
    cfg = contour_for(t, 0.0, [-1.0])
    assert cfg.kind == "hyperbola"
    with pytest.raises(NonFiniteSample):
        bromwich_invert(lambda lam: np.stack(
            [np.ones(len(lam)), np.full(len(lam), np.nan)], axis=-1), cfg)


def test_forward_matches_exact_transform():
    sig = Signal.from_terms([([1.0, -0.5], 1, -0.8), ([0.2, 0.1], 0, -0.1j)])
    lam = 1.5 + 0.4j
    got = forward_laplace(sig, lam, T=60.0, n=96)
    assert np.allclose(got, sig.laplace(lam), atol=1e-8)


def test_forward_round_trip_with_inversion():
    sig = Signal.from_terms([([1.0], 0, -1.0), ([0.5], 1, -0.5)])
    t = 1.2
    got = bromwich_invert(lambda lam: sig.laplace(lam), contour_for(t))
    assert np.allclose(got, sig(t), atol=1e-8)


def test_forward_tail_bound_enforced():
    grower = Signal.from_terms([([1.0], 0, 1.0)])  # e^{t}
    with pytest.raises(TailTooLarge):
        forward_laplace(grower, 1.2, T=40.0, omega=1.0)
