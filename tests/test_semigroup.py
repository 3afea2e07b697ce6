"""Integrated-semigroup construction, Laplace representation, identity suite."""

import dataclasses
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from daesemi import (build_evaluator, cp_semigroup, eval_S_l, eval_S_r,
                     f_norm, forward_laplace, make_hamiltonian,
                     make_transport, make_weierstrass, restrict_to_kernel,
                     right_resolvent, solve_inhomogeneous_ran,
                     verify_properties)
from daesemi import pencil as pencil_module
from daesemi import semigroup, solver, subspaces
from daesemi.errors import ClosedFormUnavailable, NotInXran
from daesemi.pencil import SchurForm, SubspaceBasis
from daesemi.signals import Signal
from daesemi.subspaces import propagator_signal

from conftest import nilpotent_of_index, weierstrass_with_mode


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
            omega=max(ev.decomposition.omega, 0.0))
        assert np.linalg.norm(exact - rhs) < 1e-10
        assert np.linalg.norm(quad - rhs) < 1e-6


def test_contour_backend_matches_closed_form():
    p, _ = make_weierstrass(3, 2, 2, seed=21)
    ev_c = build_evaluator(p)
    ev_k = dataclasses.replace(ev_c, S_coord=None)
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


@pytest.mark.parametrize("backend", ["closed_form", "contour"])
@pytest.mark.parametrize("maker", [
    lambda: make_weierstrass(2, 2, 2, seed=6)[0],
    lambda: make_transport(2, 2),   # rectangular: n_z = 6, n_x = 4
], ids=["weierstrass", "transport"])
def test_left_and_right_intertwine(maker, backend):
    """E S_r(t) x0 = S_l(t) E x0, S_l built from the Z side."""
    p = maker()
    ev = build_evaluator(p)
    if backend == "contour":
        ev = dataclasses.replace(ev, S_coord=None)
    assert ev.backend == backend
    x0 = ev.V[:, 0]
    for t in (0.4, 1.2):
        lhs = p.E @ eval_S_r(ev, t, x0)
        rhs = eval_S_l(ev, t, p.E @ x0)
        assert np.linalg.norm(lhs - rhs) < 1e-8


@pytest.mark.parametrize("k", [1, 2, 3])
def test_contour_S_l_matches_closed_form(k):
    p, _ = make_weierstrass(4, 4, k, seed=30 + k)
    ev_c = build_evaluator(p)
    ev_k = dataclasses.replace(ev_c, S_coord=None)
    rng = np.random.default_rng(k)
    z0 = ev_c.decomposition.Z_ran.basis @ (rng.normal(size=ev_c.rank)
                                           + 1j * rng.normal(size=ev_c.rank))
    for t in (0.3, 1.0, 2.0):
        a = eval_S_l(ev_c, t, z0)
        b = eval_S_l(ev_k, t, z0)
        assert np.linalg.norm(a - b) <= 1e-11 * np.linalg.norm(a)


def test_one_analysis_per_evaluator(monkeypatch):
    """S_r and S_l reuse the evaluator's decomposition and its one r x r
    Schur form of A_R; the closed form's S_l takes one more, of A_L."""
    calls = {"decomposition": 0, "schur": []}
    decompose, schur_of = semigroup.hilbert_decomposition, SchurForm.of

    def counted_decomposition(*args, **kwargs):
        calls["decomposition"] += 1
        return decompose(*args, **kwargs)

    def counted_schur(M):
        calls["schur"].append(np.shape(M))
        return schur_of(M)

    monkeypatch.setattr(semigroup, "hilbert_decomposition",
                        counted_decomposition)
    monkeypatch.setattr(SchurForm, "of", staticmethod(counted_schur))
    p, _ = make_weierstrass(2, 2, 2, seed=6)
    verify_properties(build_evaluator(p))
    assert calls == {"decomposition": 1, "schur": [(2, 2), (2, 2)]}
    ev = dataclasses.replace(build_evaluator(p), S_coord=None)
    x0 = ev.V[:, 0]
    eval_S_r(ev, 1.0, x0)
    eval_S_l(ev, 1.0, p.E @ x0)
    assert calls == {"decomposition": 2, "schur": [(2, 2)] * 3}


_X0 = np.linalg.inv(make_weierstrass(3, 3, 2, seed=4)[1].S)[:, 0]  # in X_ran
_TS = [0.0, 0.5]
# route -> (the call, its Schur forms: A_R, and A_L where S_l is read)
_FACTOR_ROUTES = {
    "full": (lambda p: solver.solve_full(p, _X0, Signal.zero(6), _TS), 1),
    "decomp": (lambda p: solver.solve_homogeneous(p, _X0, _TS), 1),
    "contour": (lambda p: solver.solve_homogeneous(p, _X0, _TS,
                                                   method="contour"), 1),
    "convolution": (lambda p: solver.solve_inhomogeneous_ran(
        p, _X0, Signal.constant(p.A @ _X0), _TS), 1),
    "verify": (lambda p: verify_properties(build_evaluator(p)), 2),
    "cp_semigroup": (lambda p: cp_semigroup(build_evaluator(p), 1.0), 1),
}


@pytest.mark.parametrize("route", _FACTOR_ROUTES)
def test_one_split_and_one_schur_form_per_route(monkeypatch, route):
    """Every route splits the pencil once and factors its generator A_R
    once, plus A_L where S_l is read; none calls np.linalg.eig."""
    calls = {"split": 0, "schur": []}
    decompose, schur_of = subspaces.hilbert_decomposition, SchurForm.of

    def counted_decomposition(p):
        calls["split"] += 1
        return decompose(p)

    def counted_schur(M):
        calls["schur"].append(np.shape(M))
        return schur_of(M)

    def refused(*args, **kwargs):
        raise AssertionError("np.linalg.eig called")

    for module in (semigroup, solver):
        monkeypatch.setattr(module, "hilbert_decomposition",
                            counted_decomposition)
    monkeypatch.setattr(SchurForm, "of", staticmethod(counted_schur))
    monkeypatch.setattr(np.linalg, "eig", refused)
    solve, schur_forms = _FACTOR_ROUTES[route]
    solve(make_weierstrass(3, 3, 2, seed=4)[0])
    assert calls == {"split": 1, "schur": [(3, 3)] * schur_forms}


def test_contour_solve_takes_no_pencil_qz_or_eigvals(monkeypatch):
    """The contour's nodes and spectrum come from the Schur form of A_R:
    no QZ of the pencil and no separate eigenvalue solve."""
    def refused(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setattr(scipy.linalg, "qz", refused)
    monkeypatch.setattr(np.linalg, "eigvals", refused)
    p, orc = make_weierstrass(32, 32, 2, seed=0)
    rng = np.random.default_rng(0)
    x0 = orc.consistent_x0(rng.normal(size=64) + 1j * rng.normal(size=64))
    traj = solver.solve_homogeneous(p, x0, [0.0, 0.5, 1.0], method="contour")
    assert traj.classification == "classical"


def test_one_inverse_of_the_split(monkeypatch):
    """The generator, solve_full's coordinates and its gate all read the
    decomposition's one S^{-1}: no least-squares solve (the range lift of
    solve_inhomogeneous_ran included) and no eigensolve.  Every gated
    inverse (S^{-1}, A_R's eigenbasis, R_l(mu) on Z_ran for S_l, A_ker, and
    the resolvent at the shift that verify_properties reads first) takes
    its condition number off the inverse it forms, so no SVD condition
    number is taken."""
    shapes = {"lstsq": [], "eig": [], "eigvals": [], "cond": []}
    for name, calls in shapes.items():
        def counted(M, *args, _f=getattr(np.linalg, name), _calls=calls,
                    **kwargs):
            _calls.append(np.shape(M))
            return _f(M, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    p, _ = make_weierstrass(2, 2, 2, seed=6)
    ev = build_evaluator(p)
    assert shapes["eig"] == shapes["eigvals"] == []
    solver.solve_full(p, ev.V[:, 0], Signal.zero(4), [0.0, 1.0])
    verify_properties(ev)
    restrict_to_kernel(p)
    assert shapes["lstsq"] == [] and shapes["cond"] == []
    solver.solve_inhomogeneous_ran(
        p, ev.V[:, 0], Signal.constant(p.E @ ev.V[:, 1]), [0.0, 1.0])
    assert shapes["lstsq"] == [] and shapes["cond"] == []


@pytest.mark.parametrize("eps, refused",
                         [(1e-3, False), (1e-12, True), (0.0, True)])
def test_propagator_refuses_an_ill_conditioned_eigenbasis(eps, refused):
    """[[-1, 1], [0, -1 - eps]] has eigenvectors at angle about eps, so
    its eigenbasis's condition number grows like 1/eps past
    EIGVEC_COND_CAP; at eps = 0, a Jordan block, the pivot floor leaves
    them at angle about machine epsilon."""
    M = np.array([[-1.0, 1.0], [0.0, -1.0 - eps]])
    if refused:
        with pytest.raises(ClosedFormUnavailable, match="eigenbasis"):
            propagator_signal(SchurForm.of(M))
        return
    prop = propagator_signal(SchurForm.of(M))
    assert 1.0 <= prop.cond <= subspaces.EIGVEC_COND_CAP
    assert np.allclose(prop(0.7), scipy.linalg.expm(0.7 * M), atol=1e-12)


@pytest.mark.parametrize("diag", [[-1.0] * 3, [-1.0, -1.0, -2.0, -1.0]])
def test_exactly_repeated_eigenvalues_give_unit_eigenvectors(diag):
    """ztrevc's pivot floor: an eigenvalue repeated exactly on a diagonal
    triangle gives unit eigenvectors, so kappa_1 = 1 and exp(tM) is exact."""
    prop = propagator_signal(SchurForm.of(np.diag(diag)))
    assert prop.cond == 1.0
    for t in (0.5, 2.0):
        assert np.array_equal(prop(t), np.diag(np.exp(t * np.array(diag))))


@pytest.mark.parametrize("r", [1, 16, 64, 128])
def test_report_closed_form_matches_expm(r):
    """The report's exp(t A_R), in the eigenbasis read off its Schur
    triangle, matches scipy's expm to 1e-13 relative."""
    rep = subspaces.hilbert_decomposition(make_weierstrass(r, 2, 2, seed=r)[0])
    for t in (0.1, 0.5, 1.0, 2.0):
        ref = scipy.linalg.expm(t * rep.A_R)
        assert np.linalg.norm(rep.prop(t) - ref) <= 1e-13 * np.linalg.norm(ref)


def test_transport_generator_has_no_closed_form():
    """make_transport's generator is defective (one Jordan block): its
    triangular eigenvectors are nearly parallel, so the evaluator takes the
    contour, and every reader of the closed form gets the eigenbasis
    gate's refusal."""
    for n in (4, 16, 24):
        p = make_transport(n, n)
        ev = build_evaluator(p)
        assert ev.backend == "contour" and ev.S_coord is None
        x0 = ev.V[:, 0]
        for read in (lambda: verify_properties(ev),
                     lambda: cp_semigroup(ev, 1.0),
                     lambda: f_norm(ev, x0),
                     lambda: solve_inhomogeneous_ran(
                         p, x0, Signal.zero(p.n_z), [0.0, 1.0])):
            with pytest.raises(ClosedFormUnavailable, match="eigenbasis"):
                read()


def test_refused_eigenbasis_is_refused_once(monkeypatch):
    """The report keeps its prop's refusal: on the transport generator the
    evaluator and every closed-form reader after it take one
    propagator_signal call between them, and all raise the same error."""
    calls = []

    def counted(schur):
        calls.append(schur)
        return propagator_signal(schur)

    monkeypatch.setattr(subspaces, "propagator_signal", counted)
    ev = build_evaluator(make_transport(32, 32))
    assert len(calls) == 1 and ev.S_coord is None
    messages = set()
    for read in (lambda: cp_semigroup(ev, 1.0),
                 lambda: f_norm(ev, ev.V[:, 0]),
                 lambda: verify_properties(ev),
                 lambda: ev.decomposition.prop):
        with pytest.raises(ClosedFormUnavailable) as err:
            read()
        assert type(err.value) is ClosedFormUnavailable
        messages.add(str(err.value))
    assert len(calls) == 1
    [message] = messages
    assert message.startswith("generator eigenbasis too ill-conditioned")


@pytest.mark.parametrize("n", [4, 16, 24])
def test_contour_semigroup_without_an_eigenbasis(n):
    """On the transport generator the default evaluator samples S_r and S_l
    by the contour: S_r matches an 80-node Gauss-Legendre quadrature of
    int_0^t (t - s)^{p-1} / (p-1)! exp(s A_R) ds, and E S_r = S_l E."""
    p = make_transport(n, n)
    ev = build_evaluator(p)
    assert ev.backend == "contour"
    A_R, k = ev.decomposition.A_R, ev.p - 1
    c = np.random.default_rng(n).normal(size=ev.rank)
    x0 = ev.V @ c
    nodes, weights = np.polynomial.legendre.leggauss(80)
    for t in (0.25, 0.5, 1.0, 1.5):
        ref = ev.V @ sum(
            w * t / 2 * (t - s) ** k / math.factorial(k)
            * scipy.linalg.expm(s * A_R) @ c
            for w, s in zip(weights, t / 2 * (1 + nodes)))
        got = eval_S_r(ev, t, x0)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
        rhs = eval_S_l(ev, t, p.E @ x0)
        assert np.linalg.norm(p.E @ got - rhs) <= 1e-12 * np.linalg.norm(rhs)


def test_S_l_refuses_a_singular_R_l_on_Z_ran():
    """A Z_ran with a direction in ker R_l(mu) = (mu E - A) ker E makes
    Z_ran^H R_l(mu) Z_ran numerically singular: S_l's gated inverse raises
    ClosedFormUnavailable."""
    p, _ = make_weierstrass(2, 2, 2, seed=0)
    ev = build_evaluator(p)
    dec = ev.decomposition
    k = p.E_split[1].basis[:, 0]
    Z = scipy.linalg.orth(np.column_stack(
        [dec.Z_ran.basis[:, 0], (dec.mu * p.E - p.A) @ k]))
    dec.Z_chain = dec.Z_chain[:-1] + [SubspaceBasis(Z, 4)]
    with pytest.raises(ClosedFormUnavailable, match="R_l"):
        eval_S_l(ev, 1.0, Z[:, 0])


@pytest.mark.parametrize("maker", [
    lambda: make_weierstrass(2, 2, 2, seed=5)[0],
    lambda: make_weierstrass(3, 1, 1, seed=8)[0],
    lambda: make_hamiltonian(6, 4, seed=2),
])
def test_identity_suite(maker):
    ev = build_evaluator(maker())
    rep = verify_properties(ev)
    assert rep.all_passed, rep.residuals


@pytest.mark.parametrize("k, mode", [(2, -1e-3), (4, -1e-4)])
@pytest.mark.parametrize("seed", [0, 1])
def test_slow_mode_semigroup(k, mode, seed):
    """A mode near 0 makes S_coord = prop.antiderivative(p) integrate
    e^{ct} p times at a small rate; it must still pass the identity suite
    and match the Van Loan block exponential, whose top-right block is the
    p-fold integral of exp(t A_R)."""
    ev = build_evaluator(weierstrass_with_mode(4, 4, k, seed, mode)[0])
    assert verify_properties(ev).all_passed
    r, p = ev.rank, ev.p
    M = np.zeros((r * (p + 1),) * 2, dtype=complex)
    M[:r, :r] = ev.decomposition.A_R
    for i in range(p):
        M[i * r:(i + 1) * r, (i + 1) * r:(i + 2) * r] = np.eye(r)
    for t in (0.5, 2.0, 10.0):
        ref = scipy.linalg.expm(t * M)[:r, p * r:]
        assert np.abs(ev.S_coord(t) - ref).max() <= 1e-9 * np.abs(ref).max()


def _dense_propagator(M):
    """exp(t M) as the dense matrix signal sum_k Q[:, k] Q^{-1}[k, :] e^{w_k t}
    (one r x r coefficient per term), from the Schur eigenbasis that
    propagator_signal reads, in its order."""
    schur = SchurForm.of(M)
    w, Q = schur.T.diagonal(), schur.eigenvectors()
    order = np.lexsort((w.imag, w.real))
    w, Q = w[order], Q[:, order]
    Qinv = np.linalg.solve(Q, np.eye(len(w), dtype=complex))
    return Signal.from_terms([(np.outer(Q[:, k], Qinv[k]), 0, w[k])
                              for k in range(len(w))], shape=M.shape)


def _similar(eigenvalues, seed):
    rng = np.random.default_rng(seed)
    T = rng.normal(size=(len(eigenvalues),) * 2)
    return T @ np.diag(eigenvalues) @ np.linalg.inv(T)


@pytest.mark.parametrize("case", ["distinct", "repeated", "slow", "rank0"])
def test_modal_propagator_matches_the_dense_stack(case):
    """The eigenbasis form Q diag(d(t)) Q^{-1} evaluates, differentiates,
    integrates up to 4 times, applies and convolves like the dense stack
    built apart from it, with a forcing term resonant with an eigenvalue."""
    rng = np.random.default_rng(9)
    M = {"distinct": lambda: _similar([-1.0, -0.5 + 1j, -0.5 - 1j, 0.3], 1),
         "repeated": lambda: _similar([-1.0, -1.0, -0.5 + 1j, -0.5 - 1j, 0.3],
                                      2),
         "slow": lambda: weierstrass_with_mode(4, 4, 2, 0, -1e-4)[1].J,
         "rank0": lambda: np.zeros((0, 0))}[case]()
    r = len(M)
    prop, dense = propagator_signal(SchurForm.of(M)), _dense_propagator(M)
    assert len(prop.terms) == len(dense.terms) == r - (case == "repeated")
    assert np.array_equal(prop.d.rates, dense.rates)
    v = rng.normal(size=r) + 1j * rng.normal(size=r)
    g = Signal.zero(r)
    if r:  # its first term's rate is an eigenvalue of M
        g = Signal.from_terms([(v, 0, prop.d.rates[0]),
                               (rng.normal(size=r), 1, -0.3 + 0.5j)])
    ts = np.linspace(0.0, 5.0, 11)

    def close(got, ref):
        got, ref = got(ts), ref(ts)
        assert got.shape == ref.shape
        scale = max(np.max(np.abs(ref), initial=0.0), np.finfo(float).tiny)
        assert np.max(np.abs(got - ref), initial=0.0) <= 1e-12 * scale

    for k in range(5):
        A, D = prop.antiderivative(k), dense.antiderivative(k)
        close(A, D)
        close(A.derivative(), D.derivative())
        close(A.matvec(v), D.matvec(v))
        close(A.convolve(g), D.convolve(g))
    if case == "slow":  # the mode -1e-4 took the series branch
        assert np.max(prop.antiderivative(2).d.powers) > 2


def test_benchmark_reads_the_modal_S_coord():
    """perfbench's tracer records S_coord's terms and their bytes: at range
    rank 64 these are 67 vectors, not 67 r x r matrices (4.19 MB), and
    S_coord still gives one r x r matrix per time of the identity grid."""
    spec = importlib.util.spec_from_file_location(
        "tracing", Path(__file__).resolve().parents[1] / "perfbench"
        / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    ev = build_evaluator(make_weierstrass(64, 16, 2)[0])
    tracer = tracing.Tracer()
    tracer.record_evaluator(ev)
    [(terms, nbytes)] = tracer.s_coord_sizes
    assert terms == 67 and nbytes / 2 ** 20 < 0.1
    grid = np.array(semigroup.IDENTITY_GRID)
    assert ev.S_coord(grid).shape == (4, 64, 64)


@pytest.mark.parametrize("factor", [1.0, 1.01])
def test_composition_residual_against_a_per_node_loop(factor):
    """(f) contracts the quadrature before the coefficients: its residual is
    the one of S_r evaluated node by node, and S_r scaled by 1.01 fails."""
    ev = build_evaluator(make_weierstrass(16, 8, 2, seed=3)[0])
    assert ev.rank == 16
    ev = dataclasses.replace(ev, S_coord=ev.S_coord.scale(factor))
    S, p = ev.S_coord, ev.p
    nodes, weights = np.polynomial.legendre.leggauss(40)
    worst = 0.0
    for t in semigroup.IDENTITY_GRID:
        for s in semigroup.IDENTITY_GRID:
            acc = sum(w * ((t - tau) ** (p - 1) * S(tau + s)
                           - (t + s - tau) ** (p - 1) * S(tau))
                      for w, tau in zip(weights, t / 2 * (1 + nodes)))
            diff = S(t) @ S(s) - acc * t / 2 / math.factorial(p - 1)
            worst = max(worst, np.linalg.norm(diff, 2))
    got = verify_properties(ev).residuals["f"]
    assert abs(got - worst / max(ev.decomposition.pencil.scale, 1.0)) <= 1e-12
    assert (got > semigroup.IDENTITY_TOL) == (factor != 1.0)


def _batched_max_norm(M):
    return float(np.max(np.linalg.norm(M, 2, axis=(-2, -1))))


def _stacks():
    """Stacks of the suite's shapes ((a): n x n, (b)-(d): n x r, (f): a
    (4, 4, r, r) grid of pairs), real and complex, and the edge cases."""
    rng = np.random.default_rng(33)
    out = []
    for shape in [(4, 20, 20), (4, 20, 16), (4, 4, 16, 16), (1, 7, 5)]:
        out.append(rng.normal(size=shape))
        out.append(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    # graded slices, so that few are visited, and slices of equal norm
    out.append(rng.normal(size=(16, 9, 9)) * np.logspace(0, -3, 16)[:, None,
                                                                    None])
    out.append(np.stack([rng.normal(size=(6, 6))] * 4))
    out.append(np.zeros((4, 5, 5)))
    u, v = rng.normal(size=(4, 8, 1)), rng.normal(size=(4, 1, 6))
    out.append(u @ v)  # rank one: the Frobenius norm is sigma_1
    out.append(np.stack([u[0] @ v[0]] * 3))  # rank one and tied
    out.append(rng.normal(size=(1, 6, 6)))
    return out


@pytest.mark.parametrize("k", range(len(_stacks())))
def test_max_spectral_norm_equals_the_batched_norm(k):
    M = _stacks()[k]
    got = semigroup.max_spectral_norm(M)
    assert np.float64(got).tobytes() == np.float64(
        _batched_max_norm(M)).tobytes()


def test_max_spectral_norm_skips_what_the_frobenius_bound_excludes(
        monkeypatch):
    """On graded slices only the first few SVDs run, and on a zero stack
    none; the maximum is the batched one either way."""
    rng = np.random.default_rng(1)
    M = rng.normal(size=(16, 9, 9)) * np.logspace(0, -3, 16)[:, None, None]
    svd, calls = np.linalg.svd, []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    assert semigroup.max_spectral_norm(M) == _batched_max_norm(M)
    assert 1 <= len(calls) <= 3 and set(calls) == {(1, 9, 9)}
    calls.clear()
    assert semigroup.max_spectral_norm(np.zeros((4, 3, 3))) == 0.0
    assert calls == []


@pytest.mark.parametrize("where", [0, 2, 3])
def test_max_spectral_norm_keeps_nonfinite_outcomes(where):
    """A NaN entry in any slice raises the batched norm's LinAlgError, and
    an inf entry gives NaN, never a maximum that skipped its slice."""
    M = np.random.default_rng(where).normal(size=(4, 6, 6))
    M[0] *= 100.0  # the largest finite slice would otherwise prune the rest
    for value in (np.nan, np.inf, -np.inf):
        bad = M.copy()
        bad[where, 1, 2] = value
        if np.isnan(value):
            for norm in (semigroup.max_spectral_norm, _batched_max_norm):
                with pytest.raises(np.linalg.LinAlgError):
                    norm(bad)
        else:
            assert np.isnan(_batched_max_norm(bad))
            assert np.isnan(semigroup.max_spectral_norm(bad))


@pytest.mark.parametrize("case", [
    pytest.param((lambda k=k: make_weierstrass(6, k, k, seed=k)[0], 1.0),
                 id=f"index{k}") for k in (1, 2, 3, 4)] + [
    pytest.param((lambda: make_hamiltonian(8, 4, seed=1), 1.0),
                 id="hamiltonian"),
    pytest.param((lambda: nilpotent_of_index(2), 1.0), id="rank0"),
    pytest.param((lambda: make_weierstrass(16, 8, 2, seed=3)[0], 1.01),
                 id="scaled-fails"),
])
def test_identity_suite_equals_the_batched_norms(monkeypatch, case):
    """Pruning by the Frobenius bound changes no residual: each report is
    bitwise the one taken with every slice's SVD, and passes as it does."""
    maker, factor = case
    ev = build_evaluator(maker())
    if factor != 1.0:
        ev = dataclasses.replace(ev, S_coord=ev.S_coord.scale(factor))
    got = verify_properties(ev)
    monkeypatch.setattr(semigroup, "max_spectral_norm", _batched_max_norm)
    ref = verify_properties(ev)
    assert {k: np.float64(v).tobytes() for k, v in got.residuals.items()} \
        == {k: np.float64(v).tobytes() for k, v in ref.residuals.items()}
    assert got.passed == ref.passed
    assert got.all_passed == (factor == 1.0)


def test_identity_suite_takes_few_svds(monkeypatch):
    """At range rank 64 the five residuals take at most 10 one-slice SVDs
    in all, where one per slice of their stacks would be 32."""
    svd, calls = np.linalg.svd, []

    def counted(M, *args, **kwargs):
        calls.append(np.ndim(M) == 3)
        return svd(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    for seed in range(10):
        ev = build_evaluator(make_weierstrass(64, 16, 2, seed=seed)[0])
        calls.clear()
        verify_properties(ev)
        assert 5 <= sum(calls) <= 10


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


def test_cp_semigroup_decides_disjointness_once(monkeypatch):
    """Only the first cp_semigroup call may take an SVD, for ker E."""
    ev = build_evaluator(make_hamiltonian(8, 4))
    svd, calls = np.linalg.svd, []

    def counted_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    cp_semigroup(ev, 0.3)
    first = len(calls)
    cp_semigroup(ev, 0.6)
    cp_semigroup(ev, 1.0)
    assert first <= 1 and len(calls) == first


def test_rectangular_contour_takes_no_svd_per_node(monkeypatch):
    """A contour solve on a rectangular pencil calls the resolvent at most
    once, for the shift, and takes as many SVDs at 6 output times as at 4:
    its nodes are solves with the Schur form of A_R."""
    svd, resolvent = np.linalg.svd, pencil_module.resolvent
    calls = {"svd": 0, "resolvent": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "svd", counted("svd", svd))
    for module in (pencil_module, semigroup, solver):  # wherever bound
        if hasattr(module, "resolvent"):
            monkeypatch.setattr(module, "resolvent",
                                counted("resolvent", resolvent))
    x1 = np.linspace(0.0, 1.0, 16)
    x0 = np.concatenate([x1, np.full(16, x1[-1])])
    counts = []
    for steps in (4, 6):
        calls.update(svd=0, resolvent=0)
        traj = solver.solve_homogeneous(make_transport(16, 16), x0,
                                        np.linspace(0.0, 1.0, steps),
                                        method="contour")
        assert traj.classification == "classical"
        counts.append(dict(calls))
    assert all(c["resolvent"] <= 1 for c in counts)
    assert counts[0]["svd"] == counts[1]["svd"]


def test_evaluator_attributes_read_by_the_benchmark():
    """perfbench's tracer reads S_coord after every build_evaluator, and its
    check test assigns ev.p: on a generator with no eigenbasis S_coord is a
    plain None, neither built on read nor raising."""
    ev = build_evaluator(make_transport(16, 16))
    assert ev.backend == "contour"
    assert getattr(ev, "S_coord", None) is None
    p = ev.p
    ev.p += 1
    assert ev.p == p + 1


def test_f_norm_dominates_trajectory():
    p = make_hamiltonian(5, 3, seed=11)
    ev = build_evaluator(p)
    x0 = ev.V[:, 0]
    M = f_norm(ev, x0)
    for t in (0.3, 2.0, 7.0):
        val = np.linalg.norm(cp_semigroup(ev, t) @ x0)
        assert val <= M * np.exp(ev.decomposition.omega * t) + 1e-10


def test_propagator_solves_the_ode(diag_pencil):
    ev = build_evaluator(diag_pencil)
    # d/dt S_coord^(p) = A_R S_coord^(p): check via the exp-polynomial
    prop = ev.decomposition.prop
    d = prop.derivative()
    for t in (0.0, 0.7, 2.0):
        assert np.allclose(d(t), ev.decomposition.A_R @ prop(t), atol=1e-12)
    assert np.allclose(prop(0.0), np.eye(ev.rank))
    # S_r itself vanishes to order p at t = 0; its terms hold the diagonal
    # of each matrix coefficient in the eigenbasis Q
    S = ev.S_coord
    vanish = Signal.from_terms(
        [((S.Q * t.coeff) @ S.Qinv, t.power, t.rate) for t in S.terms],
        shape=(ev.rank, ev.rank))
    assert np.allclose(vanish(0.0), 0.0, atol=1e-12)
