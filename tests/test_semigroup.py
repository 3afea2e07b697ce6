"""Integrated-semigroup construction, Laplace representation, identity suite."""

import numpy as np
import pytest

from daesemi import (build_evaluator, cp_semigroup, eval_S_l, eval_S_r,
                     f_norm, forward_laplace, make_hamiltonian,
                     make_weierstrass, right_resolvent, verify_properties)
from daesemi.errors import NotInXran
from daesemi.signals import Signal

from conftest import nilpotent_of_index


def test_laplace_representation_closed_vs_quadrature(diag_pencil):
    """lam^p * L[S_r(.) x0](lam) = R_r(lam) x0, transform done two ways."""
    ev = build_evaluator(diag_pencil)
    x0 = np.array([1.0, -0.5])
    for lam in (3.0, 6.0, 9.0):
        rhs = right_resolvent(diag_pencil, lam) @ x0
        # route 1: exact transform of the closed-form signal
        sig = ev.S_coord.matvec(ev.project(x0)).apply(ev.V)
        exact = lam ** ev.p * sig.laplace(lam)
        # route 2: independent quadrature of t -> S_r(t) x0
        quad = lam ** ev.p * forward_laplace(
            lambda t: eval_S_r(ev, t, x0), lam, T=40.0, n=64,
            omega=max(ev.omega, 0.0))
        assert np.linalg.norm(exact - rhs) < 1e-10
        assert np.linalg.norm(quad - rhs) < 1e-6


def test_contour_backend_matches_closed_form():
    p, _ = make_weierstrass(3, 2, 2, seed=21)
    ev_c = build_evaluator(p, backend="closed_form")
    ev_k = build_evaluator(p, backend="contour")
    rng = np.random.default_rng(0)
    x0 = ev_c.V @ rng.normal(size=ev_c.rank)
    for t in (0.3, 1.0, 2.5):
        a = eval_S_r(ev_c, t, x0)
        b = eval_S_r(ev_k, t, x0)
        assert np.linalg.norm(a - b) < 1e-7 * max(1.0, np.linalg.norm(a))


def test_starts_at_zero_and_rejects_outside_vectors():
    p, _ = make_weierstrass(2, 2, 2, seed=3)
    ev = build_evaluator(p)
    x0 = ev.V[:, 0]
    assert np.linalg.norm(eval_S_r(ev, 0.0, x0)) == 0.0
    # a kernel-direction vector is not admissible
    ker_vec = ev.decomposition.X_ker.basis[:, 0]
    with pytest.raises(NotInXran):
        eval_S_r(ev, 1.0, ker_vec)
    # a matrix of columns is projected column by column
    with pytest.raises(NotInXran):
        ev.project(np.column_stack([x0, ker_vec]))
    X = ev.V @ np.array([[1.0, 2.0], [-0.5, 1.0j]])
    assert np.allclose(ev.project(X), np.column_stack(
        [ev.project(X[:, 0]), ev.project(X[:, 1])]), rtol=0, atol=1e-14)


def test_left_and_right_intertwine():
    p, _ = make_weierstrass(2, 2, 2, seed=6)
    ev = build_evaluator(p)
    x0 = ev.V[:, 0]
    for t in (0.4, 1.2):
        lhs = p.E @ eval_S_r(ev, t, x0)
        rhs = eval_S_l(ev, t, p.E @ x0)
        assert np.linalg.norm(lhs - rhs) < 1e-8


@pytest.mark.parametrize("maker", [
    lambda: make_weierstrass(2, 2, 2, seed=5)[0],
    lambda: make_weierstrass(3, 1, 1, seed=8)[0],
    lambda: make_hamiltonian(6, 4, seed=2),
])
def test_identity_suite(maker):
    ev = build_evaluator(maker())
    rep = verify_properties(ev)
    assert rep.all_passed, rep.residuals


def test_identity_suite_trivial_on_pure_nilpotent():
    ev = build_evaluator(nilpotent_of_index(2))
    assert ev.rank == 0
    rep = verify_properties(ev)
    assert rep.all_passed


def test_extracted_semigroup_properties():
    p = make_hamiltonian(6, 4, seed=7)
    ev = build_evaluator(p)
    S1, S2, S3 = (cp_semigroup(ev, t) for t in (0.6, 0.9, 1.5))
    assert np.linalg.norm(S1 @ S2 - S3, 2) < 1e-8
    P = ev.V @ ev.V.conj().T
    assert np.linalg.norm(cp_semigroup(ev, 0.0) - P, 2) < 1e-12
    # strong continuity on the range space
    x = ev.V[:, 0]
    errs = [np.linalg.norm(cp_semigroup(ev, h) @ x - x)
            for h in (1.0, 0.25, 0.05, 0.01)]
    assert errs[-1] < 1e-2 and errs[-1] < errs[0]


def test_f_norm_dominates_trajectory():
    p = make_hamiltonian(5, 3, seed=11)
    ev = build_evaluator(p)
    x0 = ev.V[:, 0]
    M = f_norm(ev, x0)
    for t in (0.3, 2.0, 7.0):
        val = np.linalg.norm(cp_semigroup(ev, t) @ x0)
        assert val <= M * np.exp(ev.omega * t) + 1e-10


def test_propagator_solves_the_ode(diag_pencil):
    ev = build_evaluator(diag_pencil)
    # d/dt S_coord^(p) = A_R S_coord^(p): check via the exp-polynomial
    prop = ev.prop
    d = prop.derivative()
    for t in (0.0, 0.7, 2.0):
        assert np.allclose(d(t), ev.A_R @ prop(t), atol=1e-12)
    assert np.allclose(prop(0.0), np.eye(ev.rank))
    # S_r itself vanishes to order p at t = 0
    vanish = Signal.from_terms(
        [(c, pw, r) for (c, pw, r) in
         ((t.coeff, t.power, t.rate) for t in ev.S_coord.terms)],
        shape=(ev.rank, ev.rank))
    assert np.allclose(vanish(0.0), 0.0, atol=1e-12)
