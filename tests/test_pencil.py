"""Resolvent, index estimation and chain computation."""

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.lapack import ztrcon

from daesemi import (Pencil, bromwich_invert, build_evaluator, chain_index,
                     contour_for, estimate_resolvent_index,
                     hilbert_decomposition, left_resolvent, make_transport,
                     make_weierstrass, resolvent, right_resolvent)
from daesemi.errors import NotRegularOnRay, ShapeMismatch, SingularAtLambda
from daesemi.pencil import RANK_RCOND, SAMPLE_COND_CAP, SchurForm

from conftest import mixed_transport, nilpotent_of_index


def test_shape_validation():
    with pytest.raises(ShapeMismatch):
        Pencil(np.eye(2), np.eye(3))


def test_resolvent_inverts_pencil(diag_pencil):
    lam = 3.0 + 1.0j
    R = resolvent(diag_pencil, lam)
    M = lam * diag_pencil.E - diag_pencil.A
    assert np.allclose(R @ M, np.eye(2))


def test_resolvent_identity(diag_pencil):
    # R_r(lam) - R_r(nu) = (nu - lam) R_r(nu) R_r(lam)
    lam, nu = 2.0, 5.0 + 1.0j
    Rl_ = right_resolvent(diag_pencil, lam)
    Rn = right_resolvent(diag_pencil, nu)
    assert np.allclose(Rl_ - Rn, (nu - lam) * Rn @ Rl_, atol=1e-12)


def test_left_right_intertwine(nilpotent_pencil):
    lam = 4.0
    assert np.allclose(
        nilpotent_pencil.E @ right_resolvent(nilpotent_pencil, lam),
        left_resolvent(nilpotent_pencil, lam) @ nilpotent_pencil.E)


def test_singular_point_raises():
    p = Pencil(np.eye(2), np.diag([2.0, 3.0]))
    with pytest.raises(SingularAtLambda):
        resolvent(p, 2.0)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_index_pure_nilpotent(k):
    p = nilpotent_of_index(k)
    rep = estimate_resolvent_index(p)
    assert rep.p_res == k
    assert rep.axis_consistent
    q, chains = chain_index(p)
    assert q == k
    # witness chains satisfy E x_{i+1} = A x_i with x_1 in ker E
    for ch in chains:
        assert np.linalg.norm(p.E @ ch.vectors[0]) < 1e-10
        for a, b in zip(ch.vectors, ch.vectors[1:]):
            assert np.allclose(p.E @ b, p.A @ a, atol=1e-8)


def test_index_ode_pencil(diag_pencil):
    rep = estimate_resolvent_index(diag_pencil)
    assert rep.p_res <= 1
    q, _ = chain_index(diag_pencil)
    assert q == 0


def _sampled_resolvent_norms(p, lams):
    """Norms of the explicit (lam E - A)^{-1} (its pseudoinverse if p is
    rectangular), and the condition numbers of lam E - A."""
    Ms = [lam * p.E - p.A for lam in lams]
    invs = [np.linalg.inv(M) if p.is_square
            else np.linalg.pinv(M, rcond=RANK_RCOND) for M in Ms]
    return (np.array([np.linalg.norm(R, 2) for R in invs]),
            np.array([np.linalg.cond(M) for M in Ms]))


def test_index_mixed_weierstrass():
    for k in (1, 2, 3):
        p, _ = make_weierstrass(2, 3, k, seed=10 + k)
        rep = estimate_resolvent_index(p)
        assert rep.p_res == k
        assert chain_index(p)[0] == k
        # the batched singular values give the explicit resolvent's norms;
        # both carry a relative error up to cond * eps, so the agreement
        # asked for scales with cond where that exceeds 1e-10
        ref, cond = _sampled_resolvent_norms(p, rep.sample_points)
        assert np.all(np.abs(rep.norms - ref)
                      <= np.maximum(1e-10, 1e-15 * cond) * ref)


def test_growth_constant_bounds_samples():
    p = nilpotent_of_index(2)
    rep = estimate_resolvent_index(p)
    assert np.all(rep.norms <= rep.growth_constant
                  * rep.sample_points ** (rep.p_res - 1) * (1 + 1e-12))


def test_not_regular_on_ray():
    # identically singular pencil: every sample point fails
    E = np.array([[0.0, 1.0], [0.0, 0.0]])
    p = Pencil(E, E.copy())
    with pytest.raises(NotRegularOnRay):
        estimate_resolvent_index(p)


def test_index_fit_drops_a_refused_tail():
    # at index 6 the condition of lam E - A passes SAMPLE_COND_CAP at the
    # large end of the ray; the fit runs on the leading samples
    p, _ = make_weierstrass(8, 8, 6, seed=0)
    rep = estimate_resolvent_index(p)
    assert 4 <= len(rep.sample_points) < 16
    assert rep.p_res == rep.p_res_vertical == 6


def test_index_fit_refuses_an_interior_or_long_refused_run():
    # a finite eigenvalue exactly on an interior ray sample: an accepted
    # sample follows the refused one
    lam = np.geomspace(10.0, 1e3, 16)[5]
    with pytest.raises(NotRegularOnRay):
        estimate_resolvent_index(Pencil(np.diag([1.0, 0.0]),
                                        np.diag([lam, 1.0])))
    # index 14: only the first sample passes the cap, too few to fit
    with pytest.raises(NotRegularOnRay):
        estimate_resolvent_index(nilpotent_of_index(14))


def test_hand_checked_dissipative_example():
    # E = diag(1,0), A = [[-1,1],[-1,-1]]: det(lam E - A) = lam + 2
    p = Pencil(np.diag([1.0, 0.0]), np.array([[-1.0, 1.0], [-1.0, -1.0]]),
               omega_hint=0.0)
    assert estimate_resolvent_index(p).p_res == 1
    R = resolvent(p, 1.0)
    assert np.allclose(R @ (1.0 * p.E - p.A), np.eye(2))
    # at the eigenvalue -2, -2 E - A = [[-1, -1], [1, 1]] has an exact zero
    # pivot
    with pytest.raises(SingularAtLambda, match="exactly singular"):
        resolvent(p, -2.0)


def test_rectangular_pencil_resolvent():
    p = make_transport(4, 3)
    assert p.E.shape == (9, 7)
    R = resolvent(p, 2.0)
    # least-squares resolvent is a left inverse at full column rank
    assert np.allclose(R @ (2.0 * p.E - p.A), np.eye(7), atol=1e-8)
    for lam in (2.0, 2.0 + 3.0j):
        ref = np.linalg.pinv(lam * p.E - p.A, rcond=RANK_RCOND)
        assert np.linalg.norm(resolvent(p, lam) - ref) \
            <= 1e-12 * np.linalg.norm(ref)
    rep = estimate_resolvent_index(p)
    ref, _ = _sampled_resolvent_norms(p, rep.sample_points)
    assert np.allclose(rep.norms, ref, rtol=1e-10, atol=0.0)
    # a zero column makes lam E - A rank-deficient at every lam
    E = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    A = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(SingularAtLambda):
        resolvent(Pencil(E, A), 2.0)


def _contour_nodes(t, omega, spectrum=None):
    lams = []
    bromwich_invert(lambda lam: lams.extend(lam) or np.zeros(len(lam)),
                    contour_for(t, omega, spectrum))
    return lams


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_qz_shifted_solve_matches_resolvent(k):
    """At every node of the line and of the hyperbola, the solve with the
    generator's Schur form (the QZ form of the pencil (I, A_R)) is backward
    stable for lam - A_R and agrees with the explicit resolvent to 1e-10
    relative, or to 1e-14 * cond at an ill-conditioned node.  The pencil's
    nilpotent part, whose growth |lam|^(k-1) made the far nodes of the
    pencil ill-conditioned at index 3 and 4, no longer enters."""
    p, _ = make_weierstrass(6, 6, k, seed=70 + k)
    dec = hilbert_decomposition(p)
    spectrum, r = dec.schur.T.diagonal(), dec.X_ran.rank
    rng = np.random.default_rng(k)
    c = rng.normal(size=r) + 1j * rng.normal(size=r)
    I = np.eye(r)
    assert all(contour_for(t, dec.omega, spectrum).kind == "hyperbola"
               for t in (0.25, 1.0, 1.5))
    for t in (0.25, 1.0, 1.5):
        lams = (_contour_nodes(t, dec.omega)
                + _contour_nodes(t, dec.omega, spectrum))
        for lam, x in zip(lams, dec.schur.solve_at(lams, c)):
            M = lam * I - dec.A_R
            assert np.linalg.norm(M @ x - c) <= 1e-14 * (
                np.linalg.norm(M, 2) * np.linalg.norm(x) + np.linalg.norm(c))
            ref = np.linalg.solve(M, c)
            tol = max(1e-10, 1e-14 * np.linalg.cond(M))
            assert np.linalg.norm(x - ref) <= tol * np.linalg.norm(ref)


@pytest.mark.parametrize("mixed", [False, True])
def test_rectangular_sampler_matches_least_squares(mixed):
    """Every node of the line and of the hyperbola on a rectangular
    transport pencil (rows mixed by a unitary at 24 x 24, as the benchmark
    draws it), from a consistent start V c: the sampler's X_ran
    coordinates, lifted by V, agree with the least-squares solution of
    (lam E - A) x = E V c to 1e-10 relative, or to 1e-14 * cond where the
    node is ill-conditioned."""
    n, m = (24, 24) if mixed else (4, 3)
    p = mixed_transport(n, m, seed=3) if mixed else make_transport(n, m)
    ev = build_evaluator(p)
    rng = np.random.default_rng(5)
    # x1(0) = 0 and x2 = x1(1): the boundary rows hold
    x1 = rng.normal(size=n) + 1j * rng.normal(size=n)
    x1[0] = 0.0
    c = ev.project(np.concatenate([x1, np.full(m, x1[-1])]))
    b = p.E @ (ev.V @ c)
    schur = ev.decomposition.schur
    for t in (0.25, 1.0, 1.5):
        lams = (_contour_nodes(t, ev.decomposition.omega)
                + _contour_nodes(t, ev.decomposition.omega,
                                 schur.T.diagonal()))
        for lam, y in zip(lams, schur.solve_at(lams, c)):
            M = lam * p.E - p.A
            ref = np.linalg.lstsq(M, b, rcond=None)[0]
            tol = max(1e-10, 1e-14 * np.linalg.cond(M))
            assert np.linalg.norm(ev.V @ y - ref) <= tol * np.linalg.norm(ref)


def test_sampler_refuses_nodes_at_the_generator_spectrum():
    # -4 is the eigenvalue of make_transport(4, 4)'s generator, a Jordan
    # block, so lam - A_R is numerically singular at a node there
    dec = hilbert_decomposition(make_transport(4, 4))
    with pytest.raises(SingularAtLambda, match=r"lambda=\(-4"):
        dec.schur.solve_at([1.0, -4.0], np.ones(dec.X_ran.rank))
    # a zero column leaves lam E - A rank-deficient at every lam: the shift
    # search refuses the pencil; a wide pencil (make_transport(4, 3)
    # transposed) is refused by the split
    E = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    A = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(SingularAtLambda, match="rank-deficient"):
        hilbert_decomposition(Pencil(E, A))
    p = make_transport(4, 3)
    with pytest.raises(SingularAtLambda, match="a Wong step lost rank"):
        hilbert_decomposition(Pencil(p.E.T, p.A.T))


def test_qz_shifted_solve_raises_at_eigenvalue(diag_pencil):
    schur = SchurForm.of(diag_pencil.A)
    with pytest.raises(SingularAtLambda, match="zero pivot"):
        schur.solve_at([-1.0], np.ones(2))
    assert np.allclose(schur.solve_at([1.0], np.ones(2))[0], [0.5, 1.0 / 3.0])


def test_qz_shifted_solve_raises_on_singular_pencil():
    # det(lam E - A) = 0 for every lam: the split refuses it before any
    # node is solved
    E = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(SingularAtLambda):
        hilbert_decomposition(Pencil(E, E.copy()))


@pytest.mark.parametrize("case", ["diag", 1, 2, 3, 4])
def test_batched_gate_refuses_what_ztrcon_refuses(case, diag_pencil):
    """Nodes approaching each eigenvalue of the generator from four
    directions: the batched estimate refuses every triangle that LAPACK's
    per-node ztrcon refuses, and where both accept it is within a factor 2
    of ztrcon's."""
    A_R = diag_pencil.A if case == "diag" else hilbert_decomposition(
        make_weierstrass(8, 8, case, seed=case)[0]).A_R
    schur = SchurForm.of(A_R)
    w = np.linalg.eigvals(A_R)
    steps = np.logspace(1, -18, 60)
    lams = np.concatenate([s + d * steps for s in w
                           for d in (1, 1j, -1, (1 - 1j) / np.sqrt(2))])
    # an exact zero pivot is refused before any estimate; keep the rest
    lams = lams[np.all(lams[:, None] - schur.T.diagonal(), axis=1)]
    b = np.ones(len(A_R))
    _, rcond = schur.solve_with_rcond(lams, schur.U.conj().T @ b)
    I = np.eye(len(A_R))
    ref = np.array([ztrcon(lam * I - schur.T)[0] for lam in lams])
    cap = 1.0 / SAMPLE_COND_CAP
    refused = ref < cap
    assert refused.any() and not refused.all()
    assert np.all(rcond[refused] < cap)
    both = ~refused & (rcond >= cap)
    assert np.all(np.abs(np.log2(rcond[both] / ref[both])) <= 1.0)
    for lam in lams[refused][::10]:
        with pytest.raises(SingularAtLambda):
            schur.solve_at([lam], b)
    schur.solve_at(lams[both], b)
