"""Resolvent, index estimation and chain computation."""

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.lapack import ztrcon

from daesemi import (Pencil, bromwich_invert, build_evaluator, chain_index,
                     contour_for, estimate_resolvent_index, left_resolvent,
                     make_transport, make_weierstrass, resolvent,
                     right_resolvent)
from daesemi.errors import NotRegularOnRay, ShapeMismatch, SingularAtLambda
from daesemi.pencil import (RANK_RCOND, SAMPLE_COND_CAP, QZForm,
                            least_squares_at)

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
    """Norms of the explicit resolvent, and the condition numbers of lam E - A."""
    norms = [np.linalg.norm(resolvent(p, lam, cond_cap=SAMPLE_COND_CAP), 2)
             for lam in lams]
    return np.array(norms), np.array([np.linalg.cond(lam * p.E - p.A)
                                      for lam in lams])


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
    """Backward stable at every node of the line and of the hyperbola, and
    agrees with the explicit resolvent to 1e-10 relative; at index 3 and 4
    the far nodes make lam E - A so ill-conditioned that any two stable
    solves differ by up to cond * eps, so there the agreement is asked to
    within 1e-14 * cond."""
    p, _ = make_weierstrass(6, 6, k, seed=70 + k)
    ev = build_evaluator(p, backend="contour")
    rng = np.random.default_rng(k)
    b = p.E @ (ev.V @ (rng.normal(size=ev.rank) + 1j * rng.normal(size=ev.rank)))
    qz = QZForm.of(p)
    assert all(contour_for(t, ev.omega, ev.spectrum).kind == "hyperbola"
               for t in (0.25, 1.0, 1.5))
    for t in (0.25, 1.0, 1.5):
        lams = (_contour_nodes(t, ev.omega)
                + _contour_nodes(t, ev.omega, ev.spectrum))
        for lam, x in zip(lams, qz.solve_at(lams, b)):
            M = lam * p.E - p.A
            assert np.linalg.norm(M @ x - b) <= 1e-14 * (
                np.linalg.norm(M, 2) * np.linalg.norm(x) + np.linalg.norm(b))
            ref = resolvent(p, lam, cond_cap=SAMPLE_COND_CAP) @ b
            tol = max(1e-10, 1e-14 * np.linalg.cond(M))
            assert np.linalg.norm(x - ref) <= tol * np.linalg.norm(ref)


@pytest.mark.parametrize("mixed", [False, True])
def test_least_squares_at_matches_resolvent(mixed):
    """Every node of the line and of the hyperbola on a rectangular
    transport pencil (rows mixed by a unitary at 24 x 24, as the benchmark
    draws it): the QR solve agrees with the least-squares resolvent to
    1e-10 relative, or to 1e-14 * cond where the node is ill-conditioned."""
    p = mixed_transport(24, 24, seed=3) if mixed else make_transport(4, 3)
    ev = build_evaluator(p, backend="contour")
    rng = np.random.default_rng(5)
    b = p.E @ (ev.V @ (rng.normal(size=ev.rank) + 1j * rng.normal(size=ev.rank)))
    for t in (0.25, 1.0, 1.5):
        lams = (_contour_nodes(t, ev.omega)
                + _contour_nodes(t, ev.omega, ev.spectrum))
        for lam, x in zip(lams, least_squares_at(p, lams, b)):
            ref = resolvent(p, lam, cond_cap=SAMPLE_COND_CAP) @ b
            tol = max(1e-10, 1e-14 * np.linalg.cond(lam * p.E - p.A))
            assert np.linalg.norm(x - ref) <= tol * np.linalg.norm(ref)


def test_least_squares_at_refuses_rank_deficient_nodes():
    # -4 is the eigenvalue of make_transport(4, 4); a zero column leaves
    # lam E - A rank-deficient at every lam, an exact zero pivot of R
    p = make_transport(4, 4)
    with pytest.raises(SingularAtLambda, match=r"lambda=\(-4"):
        least_squares_at(p, [1.0, -4.0], np.ones(p.n_z))
    E = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    A = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(SingularAtLambda, match=r"rcond 0\.00e\+00"):
        least_squares_at(Pencil(E, A), [2.0], np.ones(3))
    # a wide pencil: no node has full column rank
    with pytest.raises(SingularAtLambda, match="wide"):
        least_squares_at(Pencil(E.T, A.T), [2.0], np.ones(2))


def test_qz_shifted_solve_raises_at_eigenvalue(diag_pencil):
    qz = QZForm.of(diag_pencil)
    with pytest.raises(SingularAtLambda):
        qz.solve_at([-1.0], np.ones(2))
    assert np.allclose(qz.solve_at([1.0], np.ones(2))[0], [0.5, 1.0 / 3.0])


def test_qz_shifted_solve_raises_on_singular_pencil():
    # det(lam E - A) = 0 for every lam
    E = np.array([[0.0, 1.0], [0.0, 0.0]])
    qz = QZForm.of(Pencil(E, E.copy()))
    for lam in (2.0, 5.0 + 3.0j):
        with pytest.raises(SingularAtLambda):
            qz.solve_at([lam], np.ones(2))


@pytest.mark.parametrize("case", ["diag", 1, 2, 3, 4])
def test_batched_gate_refuses_what_ztrcon_refuses(case, diag_pencil):
    """Nodes approaching each finite eigenvalue from four directions: the
    batched estimate refuses every triangle that LAPACK's per-node ztrcon
    refuses, and where both accept it is within a factor 2 of ztrcon's."""
    p = diag_pencil if case == "diag" else make_weierstrass(8, 8, case,
                                                            seed=case)[0]
    qz = QZForm.of(p)
    w = scipy.linalg.eigvals(p.A, p.E)
    steps = np.logspace(1, -18, 60)
    lams = np.concatenate([s + d * steps for s in w[np.isfinite(w)]
                           for d in (1, 1j, -1, (1 - 1j) / np.sqrt(2))])
    # an exact zero pivot is refused before any estimate; keep the rest
    lams = lams[np.all(lams[:, None] * qz.EE.diagonal() - qz.AA.diagonal(),
                       axis=1)]
    b = np.ones(len(p.E))
    _, rcond = qz.solve_with_rcond(lams, qz.Q.conj().T @ b)
    ref = np.array([ztrcon(lam * qz.EE - qz.AA)[0] for lam in lams])
    cap = 1.0 / SAMPLE_COND_CAP
    refused = ref < cap
    assert refused.any() and not refused.all()
    assert np.all(rcond[refused] < cap)
    both = ~refused & (rcond >= cap)
    assert np.all(np.abs(np.log2(rcond[both] / ref[both])) <= 1.0)
    for lam in lams[refused][::10]:
        with pytest.raises(SingularAtLambda):
            qz.solve_at([lam], b)
    qz.solve_at(lams[both], b)
