"""Solver routes against the closed-form structural oracle."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from daesemi import (Pencil, Signal, SubspaceBasis, WeierstrassOracle,
                     bromwich_invert, build_evaluator, contour_for,
                     cp_semigroup, cross_check, eval_S_r,
                     hilbert_decomposition, make_transport, make_weierstrass,
                     principal_angles, restrict_to_kernel, solve_full, solve_homogeneous,
                     semigroup, solve_inhomogeneous_ran,
                     solve_kernel_inhomogeneity, solver, verify_properties)
from daesemi.errors import (BasisMismatch, ClosedFormUnavailable,
                            DecompositionUnavailable,
                            InconsistentInitialValue, LiftFailed,
                            SolverMismatch)

from conftest import mixed_transport, weierstrass_with_mode

TS = np.linspace(0.0, 5.0, 41)


def _ran_x0(ev, rng):
    c = rng.normal(size=ev.rank) + 1j * rng.normal(size=ev.rank)
    return ev.V @ c


def test_homogeneous_decomp_matches_oracle():
    rng = np.random.default_rng(0)
    p, orc = make_weierstrass(3, 2, 2, seed=30)
    ev = build_evaluator(p)
    x0 = _ran_x0(ev, rng)
    traj = solve_homogeneous(p, x0, TS)
    ref = orc.solve(x0)(TS)
    assert np.max(np.abs(traj.values - ref)) < 1e-8 * max(1, np.abs(ref).max())
    assert traj.classification == "classical"


def test_homogeneous_contour_matches_decomp():
    p, orc = make_weierstrass(2, 2, 2, seed=31)
    ev = build_evaluator(p)
    x0 = _ran_x0(ev, np.random.default_rng(1))
    t_dec = solve_homogeneous(p, x0, TS, method="decomp")
    t_con = solve_homogeneous(p, x0, TS, method="contour")
    err = cross_check(p, t_dec, t_con)
    assert err < 1e-6
    assert t_con.classification in ("classical", "mild")


# Below every error that per-node explicit inverses gave on these cases:
# index 1: 1.2e-10, index 2: 5.8e-9, index 3: 1.6e-6 (smallest over cases).
CONTOUR_SAMPLING_BOUND = {1: 1e-10, 2: 4e-9, 3: 1e-6}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_homogeneous_contour_accuracy_against_oracle(k):
    """Contour error against the oracle, split into its two sources.

    Inverting the oracle's exact transform on the contour the solver used
    gives the quadrature's own error; what the contour trajectory adds on
    top of it comes from sampling (lam E - A)^{-1} E x0.
    """
    ts = np.array([0.5, 1.0, 1.5])
    for n in (16, 32):
        for seed in range(4):
            p, orc = make_weierstrass(n // 2, n // 2, k, seed=seed)
            rng = np.random.default_rng(seed)
            x0 = orc.consistent_x0(rng.normal(size=n) + 1j * rng.normal(size=n))
            ev = build_evaluator(p, backend="contour")
            traj = solve_homogeneous(p, x0, ts, method="contour")
            exact = orc.solve(x0)
            ref = exact(ts)
            spectrum = ev.decomposition.schur.T.diagonal()
            cfgs = [contour_for(t, ev.omega, spectrum) for t in ts]
            assert traj.contours == tuple(cfg.kind for cfg in cfgs)
            quad = bromwich_invert(exact.laplace, cfgs)
            scale = np.max(np.abs(ref))
            sampling = np.max(np.abs(traj.values - quad)) / scale
            floor = np.max(np.abs(quad - ref)) / scale
            oracle = np.max(np.abs(traj.values - ref)) / scale
            assert sampling <= CONTOUR_SAMPLING_BOUND[k], (n, seed, sampling)
            assert oracle <= floor + CONTOUR_SAMPLING_BOUND[k], (n, seed, oracle)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_homogeneous_contour_on_hyperbola_matches_oracle(k):
    # x(t) keeps its part in X_ran along X_ker, so the quadrature's drift
    # off X_ran does not grow with the index
    ts = np.array([0.0, 0.5, 1.0, 1.5])
    for n in (16, 32, 64):
        for seed in range(4):
            p, orc = make_weierstrass(n // 2, n // 2, k, seed=seed)
            rng = np.random.default_rng(seed)
            x0 = orc.consistent_x0(rng.normal(size=n) + 1j * rng.normal(size=n))
            traj = solve_homogeneous(p, x0, ts, method="contour")
            ref = orc.solve(x0)(ts)
            err = np.max(np.abs(traj.values - ref)) / np.max(np.abs(ref))
            assert err <= 1e-11, (n, seed, err)
            assert traj.contours == (None, "hyperbola", "hyperbola",
                                     "hyperbola")
            assert traj.classification == "classical"


def test_contour_falls_back_to_the_line_outside_the_hyperbola():
    # eigenvalues +-20i: inside the hyperbola at t = 0.01, outside at 1.5
    E = np.diag([1.0, 1.0, 0.0])
    A = np.array([[0.0, 20.0, 0.0], [-20.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    ts = np.array([0.0, 0.01, 1.5])
    traj = solve_homogeneous(Pencil(E, A), [1.0, 2.0, 0.0], ts,
                             method="contour")
    assert traj.contours == (None, "hyperbola", "line")
    c, s = np.cos(20.0 * ts), np.sin(20.0 * ts)
    exact = np.column_stack([c + 2.0 * s, 2.0 * c - s, np.zeros_like(ts)])
    assert np.max(np.abs(traj.values - exact)) < 1e-8
    assert traj.classification == "classical"
    assert solve_homogeneous(Pencil(E, A), [1.0, 2.0, 0.0], ts).contours is None


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_hyperbola_stays_accurate_at_long_times(k):
    # a real spectrum in [-2, 0] fits the hyperbola at every t, so the
    # weights' e^{z t} must not grow with t; the line gave 1e-9 here
    ts = np.array([0.0, 10.0, 20.0, 30.0])
    for seed in range(3):
        _, base = make_weierstrass(8, 8, k, seed=seed)
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.normal(size=(8, 8))
                            + 1j * rng.normal(size=(8, 8)))
        J = Q @ np.diag(-np.linspace(0.0, 2.0, 8)) @ Q.conj().T
        orc = WeierstrassOracle(T=base.T, S=base.S, J=J, N=base.N, k=k)
        p = Pencil(orc.T @ scipy.linalg.block_diag(np.eye(8), orc.N) @ orc.S,
                   orc.T @ scipy.linalg.block_diag(J, np.eye(8)) @ orc.S,
                   omega_hint=0.0)
        x0 = orc.consistent_x0(rng.normal(size=16) + 1j * rng.normal(size=16))
        ev = build_evaluator(p, backend="contour")
        traj = solve_homogeneous(p, x0, ts, method="contour")
        ref = orc.solve(x0)(ts)
        err = np.max(np.abs(traj.values - ref)) / np.max(np.abs(ref))
        assert err <= 1e-10, (seed, err)
        assert traj.contours == (None, "hyperbola", "hyperbola", "hyperbola")
        assert traj.classification == "classical"
        # S_r adds the pole at 0 and its integrated growth t^p
        closed = build_evaluator(p)
        for t in ts[1:]:
            got, exact = eval_S_r(ev, t, x0), eval_S_r(closed, t, x0)
            assert np.max(np.abs(got - exact)) <= 1e-10 * np.max(np.abs(exact))


def _transport_reference(p, n, x0, ts):
    # E = I and A12 = 0 on the first n rows; the rest are algebraic
    x1 = np.array([scipy.linalg.expm(p.A[:n, :n].real * t) @ x0[:n]
                   for t in ts])
    x2 = np.linalg.lstsq(p.A[n:, n:], -p.A[n:, :n] @ x1.T, rcond=None)[0]
    return np.hstack([x1, x2.T])


@pytest.mark.parametrize("seed", range(8))
def test_stiff_transport_contour_is_certified_pointwise(seed):
    # x1(0) = 0 and x2 = x1(1): consistent start data on a stiff upwind
    # line, certified classical whatever the output grid; also on the
    # benchmark's pencil, make_transport(24, 24) with its rows mixed by a
    # unitary, which leaves the solution as it is.  At n = 64 and 128 the
    # generator is a Jordan block of size n at -n, and the hyperbola's error
    # against expm grows to 3.3e-10 (seeds 0-7), so there the bounds are
    # 1e-9 and a classical residual of 1e-11 (3.2e-12 measured).
    rng = np.random.default_rng(seed)
    ts = np.linspace(0.0, 1.0, 4 if seed % 2 == 0 else 6)
    for n, p, err_tol, res_tol in (
            (16, make_transport(16, 16), 1e-10, 1e-12),
            (24, mixed_transport(24, 24, seed), 1e-10, 1e-12),
            (64, make_transport(64, 64), 1e-9, 1e-11),
            (128, make_transport(128, 128), 1e-9, 1e-11)):
        x1 = rng.normal(size=n)
        x1[0] = 0.0
        x0 = np.concatenate([x1, np.full(n, x1[-1])])
        traj = solve_homogeneous(p, x0, ts, method="contour", strict=False)
        ref = _transport_reference(make_transport(n, n), n, x0, ts)
        assert np.max(np.abs(traj.values - ref)) <= err_tol * np.max(np.abs(ref))
        assert traj.classification == "classical"
        assert traj.classical_res <= res_tol


def test_inconsistent_transport_start_is_not_classical():
    # x1(0) = 1 breaks the boundary row x1(0) = 0, yet ones(8) lies in the
    # X_ran of the least-squares reduction, so the start passes the strict
    # check; the trajectory breaks the row and must not be certified
    # classical (it reads mild under the h^2 mild tolerance of 3 times)
    traj = solve_homogeneous(make_transport(4, 4), np.ones(8),
                             np.linspace(0.0, 1.0, 3), method="contour")
    assert traj.classification != "classical"
    assert traj.classical_res > 1e-3


@pytest.mark.parametrize("k", [3, 4])
def test_contour_is_insensitive_to_one_ulp_in_the_start(k):
    # the sampled transforms lie in X_ran, so rounding in x0 along X_ker
    # cannot meet the nilpotent block's |lam|^(k-1) growth (it moved the
    # output by 1.7e-10 when the pencil itself was sampled)
    ts = np.linspace(0.25, 1.5, 6)
    for seed in range(4):
        p, orc = make_weierstrass(8, 8, k, seed=seed)
        rng = np.random.default_rng(seed)
        x0 = orc.consistent_x0(rng.normal(size=16) + 1j * rng.normal(size=16))
        a = solve_homogeneous(p, x0, ts, method="contour").values
        b = solve_homogeneous(p, x0 * (1.0 + 2.0 ** -52), ts,
                              method="contour").values
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a)), seed


@pytest.mark.parametrize("method", ["decomp", "contour"])
def test_default_shift_moves_off_a_finite_eigenvalue(method):
    # the finite eigenvalue 2 sits at the default shift omega_hint + 2, so
    # the decomposition steps to the next shift, 3
    p = Pencil(np.diag([1.0, 0.0]), np.diag([2.0, 1.0]), omega_hint=0.0)
    ev = build_evaluator(p, backend="closed_form" if method == "decomp"
                         else "contour")
    assert (ev.p, ev.rank) == (2, 1)
    assert ev.decomposition.mu == 3.0 and ev.omega == pytest.approx(2.0)
    ts = np.linspace(0.0, 1.0, 11)
    traj = solve_homogeneous(p, [1.0, 0.0], ts, method=method)
    exact = np.column_stack([np.exp(2.0 * ts), np.zeros_like(ts)])
    assert np.max(np.abs(traj.values - exact)) < 1e-8 * np.exp(2.0)
    if method == "decomp":
        assert traj.classification == "classical"


@pytest.mark.parametrize("method", ["decomp", "contour"])
def test_homogeneous_on_an_empty_grid(diag_pencil, method):
    traj = solve_homogeneous(diag_pencil, [1.0, 0.0], [], method=method)
    assert traj.values.shape == (0, 2)
    assert (traj.classical_res, traj.mild_res) == (0.0, 0.0)


def test_homogeneous_rejects_inadmissible_x0():
    p, _ = make_weierstrass(1, 2, 2, seed=32)
    bad = build_evaluator(p).decomposition.X_ker.basis[:, 0]
    with pytest.raises(InconsistentInitialValue):
        solve_homogeneous(p, bad, TS)


@pytest.mark.parametrize("method", ["decomp", "contour"])
def test_inconsistent_start_keeps_its_part_along_the_kernel(method):
    """From x0 = e1, x(0) is the part of x0 in X_ran along X_ker, as in
    the oracle's Weierstrass coordinates; the orthogonal projection of x0
    onto X_ran left both methods about 0.2 off the oracle, labelled
    classical."""
    p, orc = make_weierstrass(2, 2, 2, seed=1)
    x0 = np.array([1.0, 0.0, 0.0, 0.0])
    ts = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    traj = solve_homogeneous(p, x0, ts, method=method, strict=False)
    ref = orc.solve(x0)(ts)
    assert np.max(np.abs(traj.values - ref)) <= 1e-10 * np.max(np.abs(ref))
    assert traj.consistency["initial_value_error"] == pytest.approx(
        np.linalg.norm(ref[0] - x0), rel=1e-10)
    with pytest.raises(InconsistentInitialValue):
        solve_homogeneous(p, x0, ts, method=method)


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_every_route_agrees_with_the_oracle_from_inconsistent_starts(n, k):
    ts = np.array([0.0, 0.25, 0.5, 1.0, 1.5])
    for seed in range(3):
        p, orc = make_weierstrass(n // 2, n // 2, k, seed=seed)
        rng = np.random.default_rng(seed)
        x0 = rng.normal(size=n) + 1j * rng.normal(size=n)
        ref = orc.solve(x0)(ts)
        scale = np.max(np.abs(ref))
        trajs = {"full": solve_full(p, x0, Signal.zero(n), ts)}
        for method in ("decomp", "contour"):
            trajs[method] = solve_homogeneous(p, x0, ts, method=method,
                                              strict=False)
        for method, bound in (("full", 1e-12), ("decomp", 1e-12),
                              ("contour", 1e-9)):
            err = np.max(np.abs(trajs[method].values - ref)) / scale
            assert err <= bound, (method, seed, err)
            assert trajs[method].consistency["initial_value_error"] \
                == pytest.approx(np.linalg.norm(ref[0] - x0), rel=1e-8)
        assert np.array_equal(trajs["decomp"].values, trajs["full"].values)


_SINGULAR = np.array([[0.0, 1.0], [0.0, 0.0]])


@pytest.mark.parametrize("call, error", [
    # refused before an evaluator is built, which would raise
    # SingularAtLambda on this pencil
    (lambda: solve_homogeneous(Pencil(_SINGULAR, _SINGULAR), [1.0, 0.0], TS,
                               method="bogus"), ValueError),
    # decomp is solve_full, which needs a square pencil; contour serves
    # rectangular ones
    (lambda: solve_homogeneous(make_transport(4, 4), np.zeros(8), TS,
                               method="decomp"), DecompositionUnavailable),
], ids=["unknown-method", "rectangular-decomp"])
def test_unusable_route_raises_typed_error(call, error):
    with pytest.raises(error):
        call()


def test_convolution_route_matches_oracle():
    rng = np.random.default_rng(2)
    p, orc = make_weierstrass(3, 2, 2, seed=33)
    ev = build_evaluator(p)
    x0 = _ran_x0(ev, rng)
    # inhomogeneity valued in the dynamic constraint directions
    Pz = ev.decomposition.Z_ran.projector()
    f = Signal.from_terms([(Pz @ rng.normal(size=p.n_z), 1, -0.5),
                           (Pz @ rng.normal(size=p.n_z), 0, 0.4j)])
    traj = solve_inhomogeneous_ran(p, x0, f, TS)
    # oracle needs the consistent initial value of the full problem
    ref_sig = orc.solve(traj.signal.value_at_zero(), f)
    ref = ref_sig(TS)
    assert np.max(np.abs(traj.values - ref)) < 1e-7 * max(1, np.abs(ref).max())
    assert traj.classification == "classical"


def test_convolution_route_rejects_offspace_f():
    p, _ = make_weierstrass(1, 2, 2, seed=34)
    ev = build_evaluator(p)
    ker_dir = ev.decomposition.Z_ker.basis[:, 0]
    f = Signal.from_terms([(ker_dir, 0, 0.0)])
    with pytest.raises(LiftFailed):
        solve_inhomogeneous_ran(p, np.zeros(p.n_x), f, TS)


def test_convolution_route_rejects_f_when_the_range_space_is_trivial():
    # X_ran = 0, so Z_ran = 0 and any nonzero f is off the range space
    p, _ = make_weierstrass(0, 3, 2, seed=1)
    f = Signal.from_terms([(np.ones(3), 0, 0.0)])
    with pytest.raises(LiftFailed):
        solve_inhomogeneous_ran(p, np.zeros(3), f, TS)
    traj = solve_inhomogeneous_ran(p, np.zeros(3), Signal.zero(3), TS)
    assert np.all(traj.values == 0)


@pytest.mark.parametrize("seed", range(5))
def test_full_route_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    p, orc = make_weierstrass(2, 2, 2, seed=40 + seed)
    f = Signal.from_terms([(rng.normal(size=4), 1, -0.3),
                           (rng.normal(size=4), 0, 0.2j)])
    x0_req = rng.normal(size=4)
    traj = solve_full(p, x0_req, f, TS)
    x0 = traj.signal.value_at_zero()
    ref = orc.solve(x0, f)(TS)
    scale = max(1.0, np.abs(ref).max())
    assert np.max(np.abs(traj.values - ref)) < 1e-6 * scale
    assert traj.classification == "classical"


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("shape", [(8, 8, 5), (4, 6, 6), (16, 16, 5)])
def test_default_path_at_high_index(shape, seed):
    # the integration order comes from the decomposition, so pencils whose
    # resolvent norm outgrows a sampled slope fit still solve by default
    n_s, n_n, k = shape
    p, orc = make_weierstrass(n_s, n_n, k, seed=seed)
    ev = build_evaluator(p)
    assert ev.p == k + 1
    assert verify_properties(ev).all_passed
    rng = np.random.default_rng(seed)
    f = Signal.from_terms([(rng.normal(size=p.n_z), 1, -0.3),
                           (rng.normal(size=p.n_z), 0, 0.2j)])
    x0 = orc.consistent_x0(rng.normal(size=p.n_x), f)
    traj = solve_full(p, x0, f, TS)
    ref = orc.solve(x0, f)(TS)
    assert np.max(np.abs(traj.values - ref)) < 1e-8 * np.abs(ref).max()


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("k", range(8, 21))
def test_split_and_solve_at_index_8_to_20(k, seed):
    """Wong's split keeps the structure up to index 20: ranks (2, k),
    angles to the oracle's V* and W* within 1e-8, and solve_full within
    1e-8 of the oracle, classified classical.  The shifted range chain it
    replaced classified index 12 as none and failed from index 14 on."""
    p, orc = make_weierstrass(2, k, k, seed=seed)
    rep = hilbert_decomposition(p)
    assert (rep.X_ran.rank, rep.X_ker.rank, rep.stagnation_k) == (2, k, k)
    S_inv = np.linalg.inv(orc.S)   # V* = S^-1 (C^2 + 0), W* = S^-1 (0 + C^k)
    for got, ref in ((rep.X_ran, S_inv[:, :2]), (rep.X_ker, S_inv[:, 2:])):
        ref = SubspaceBasis(np.linalg.qr(ref)[0], k + 2)
        assert principal_angles(got, ref).max() <= 1e-8
    rng = np.random.default_rng(seed)
    f = Signal.from_terms([(rng.normal(size=k + 2) + 1j * rng.normal(size=k + 2),
                            1, -0.3), (rng.normal(size=k + 2), 0, 0.5j)])
    x0 = rng.normal(size=k + 2) + 1j * rng.normal(size=k + 2)
    ts = np.linspace(0.0, 2.0, 9)
    traj = solve_full(p, x0, f, ts)
    ref = orc.solve(x0, f)(ts)
    assert np.abs(traj.values - ref).max() <= 1e-8 * np.abs(ref).max()
    assert traj.classification == "classical"


def _forcing(rng, n):
    return Signal.from_terms([(rng.normal(size=n), 1, -0.5),
                              (rng.normal(size=n), 0, 2j),
                              (rng.normal(size=n), 0, -2j)])


@pytest.mark.parametrize("n", [16, 128])
@pytest.mark.parametrize("k", [5, 6])
def test_full_route_exact_at_high_index(n, k):
    p, orc = make_weierstrass(n // 2, n // 2, k, seed=k)
    rng = np.random.default_rng(n + k)
    f = _forcing(rng, n)
    x0 = orc.consistent_x0(rng.normal(size=n), f)
    traj = solve_full(p, x0, f, TS)
    ref = orc.solve(x0, f)(TS)
    assert np.max(np.abs(traj.values - ref)) <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("seed", range(4))
def test_full_route_from_an_inconsistent_start(seed):
    # the differential part of x0 is kept, the algebraic part is the one f
    # forces, as in the oracle's Weierstrass coordinates
    p, orc = make_weierstrass(4, 4, 1 + seed, seed=70 + seed)
    rng = np.random.default_rng(seed)
    f = _forcing(rng, 8)
    x0 = rng.normal(size=8) + 1j * rng.normal(size=8)
    traj = solve_full(p, x0, f, TS)
    ref = orc.solve(x0, f)(TS)
    assert np.max(np.abs(traj.values - ref)) <= 1e-10 * np.abs(ref).max()
    assert traj.consistency["initial_value_error"] > 1e-2


_X0 = np.random.default_rng(0).normal(size=4)
# route -> (module whose hilbert_decomposition it calls, the solve)
_SPLIT_ROUTES = {
    "full": (solver, lambda p: solve_full(p, _X0, Signal.zero(4), TS)),
    "contour": (semigroup, lambda p: solve_homogeneous(
        p, _X0, TS, method="contour", strict=False)),
    "convolution": (semigroup, lambda p: solve_inhomogeneous_ran(
        p, np.zeros(4), Signal.zero(4), TS)),
}
_DIMENSIONS = (lambda rep: SubspaceBasis(rep.X_ker.basis[:, 1:], 4),
               BasisMismatch)
_CONDITION = (lambda rep: rep.X_ran, ClosedFormUnavailable)


@pytest.mark.parametrize("broken, error, route", [
    (*_DIMENSIONS, "full"), (*_CONDITION, "full"),
    (*_DIMENSIONS, "contour"), (*_CONDITION, "contour"),
    (*_DIMENSIONS, "convolution"), (*_CONDITION, "convolution")],
    ids=["dimensions", "condition", "contour-dimensions", "contour-condition",
         "convolution-dimensions", "convolution-condition"])
def test_full_route_refuses_a_split_that_is_not_one(monkeypatch, broken,
                                                    error, route):
    """Every route reads the report's one gated S^{-1}, so each refuses a
    split that is not one with the same typed error as solve_full."""
    p, _ = make_weierstrass(2, 2, 2, seed=0)
    rep = hilbert_decomposition(p)
    rep.X_ker = broken(rep)
    module, solve = _SPLIT_ROUTES[route]
    monkeypatch.setattr(module, "hilbert_decomposition", lambda _: rep)
    with pytest.raises(error):
        solve(p)


def test_full_route_with_finite_eigenvalue_at_twice_the_shift():
    # the leading block is an ODE in its own right; it needs no second shift,
    # so an eigenvalue at mu + 2 (here 4 with the default mu = 2) must not matter
    p = Pencil(np.diag([1.0, 0.0]), np.diag([4.0, 1.0]))
    ts = np.linspace(0.0, 1.0, 11)
    traj = solve_full(p, [1.0, -1.0], Signal.constant([1.0, 1.0]), ts)
    exact = np.column_stack([1.25 * np.exp(4.0 * ts) - 0.25, -np.ones_like(ts)])
    assert np.max(np.abs(traj.values - exact)) < 1e-10
    assert traj.classification == "classical"


def test_full_route_homogeneous_agrees_with_semigroup():
    p, orc = make_weierstrass(2, 1, 1, seed=50)
    ev = build_evaluator(p)
    x0 = _ran_x0(ev, np.random.default_rng(3))
    t_full = solve_full(p, x0, Signal.zero(p.n_z), TS)
    semigroup = np.array([cp_semigroup(ev, t) @ x0 for t in TS])
    assert np.max(np.abs(t_full.values - semigroup)) \
        < 1e-6 * np.max(np.abs(semigroup))


# derandomized: fixed draws.  The split takes no shift, so a mode at the
# default shift costs no accuracy: over 300 draws at index 6 with a mode
# at 2 the kernel route stayed within 7.4e-14 of the oracle (4.6e-11 when
# the kernels came from powers of R_r(3))
@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 4), st.integers(1, 6), st.data(),
       st.integers(0, 2 ** 16), st.booleans())
def test_full_and_kernel_routes_match_the_oracle(n_s, n_n, data, seed,
                                                 at_shift):
    """solve_full and the kernel formula against WeierstrassOracle, at any
    index up to n_n, with or without an eigenvalue of J at the default
    shift 2 (the shift the decomposition reports then steps to 3; its
    split takes none)."""
    k = data.draw(st.integers(1, n_n), label="k")
    if at_shift and n_s:
        p, orc = weierstrass_with_mode(n_s, n_n, k, seed, 2.0)
        assert hilbert_decomposition(p).mu == 3.0
    else:
        p, orc = make_weierstrass(n_s, n_n, k, seed=seed)
    n = n_s + n_n
    rng = np.random.default_rng(seed)
    f = Signal.from_terms([(rng.normal(size=n) + 1j * rng.normal(size=n),
                            1, -0.3), (rng.normal(size=n), 0, 0.5j)])
    x0 = rng.normal(size=n) + 1j * rng.normal(size=n)
    ts = np.linspace(0.0, 2.0, 9)
    ref = orc.solve(x0, f)(ts)
    got = solve_full(p, x0, f, ts).values
    assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()

    kr = restrict_to_kernel(p)
    assert (kr.dim, kr.nilpotency_degree) == (n_n, k)
    fk = Signal.from_terms([(rng.normal(size=n_n), 2, -0.5)])
    f_ker = fk.apply(kr.basis_Z_ker.basis)
    x = solve_kernel_inhomogeneity(kr, fk).apply(kr.basis_X_ker.basis)
    ref = orc.solve(np.zeros(n), f_ker)(ts)
    assert np.abs(x(ts) - ref).max() <= 1e-10 * np.abs(ref).max()


def test_kernel_route_agrees_with_full():
    p, orc = make_weierstrass(0, 2, 2, seed=60)
    rng = np.random.default_rng(4)
    f = Signal.from_terms([(rng.normal(size=2), 2, -0.25)])
    kr = restrict_to_kernel(p)
    x_ker = solve_kernel_inhomogeneity(
        kr, f.apply(kr.basis_Z_ker.basis.conj().T)) \
        .apply(kr.basis_X_ker.basis)
    t_full = solve_full(p, x_ker.value_at_zero(), f, TS)
    assert np.max(np.abs(t_full.values - x_ker(TS))) < 1e-7


def test_residual_certification_flags_wrong_trajectory(diag_pencil):
    ts = np.linspace(0, 2, 21)
    wrong = Signal.from_terms([([1.0, 1.0], 0, -3.0)])  # not a solution
    from daesemi.solver import Trajectory, residual
    traj = Trajectory(times=ts, values=wrong(ts), signal=wrong)
    cres, mres = residual(diag_pencil, traj, None)
    assert cres > 1e-3 and mres > 1e-3


def test_near_resonant_forcing_certifies_the_returned_signal():
    # the forcing rate is 0.2 from the propagator's, so many terms of x are
    # tiny next to the largest; the certificate must keep all of them
    ts = np.linspace(0.0, 5.0, 11)
    traj = solve_full(Pencil([[1.0]], [[-1.0]]), [0.0],
                      Signal.from_terms([([1.0], 5, -0.8)]), ts)
    assert traj.classification == "classical"
    assert traj.classical_res < 1e-12 and traj.mild_res < 1e-12


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("coeff, rate", [(np.nan, -0.5), (1.0, np.inf)],
                         ids=["nan-coefficient", "infinite-rate"])
def test_nonfinite_trajectory_never_certifies(coeff, rate):
    p, _ = make_weierstrass(2, 2, 2, seed=0)
    f = Signal.from_terms([(np.r_[coeff, np.ones(p.n_z - 1)], 1, rate)])
    traj = solve_full(p, np.zeros(p.n_x), f, TS)
    assert not np.all(np.isfinite(traj.values))
    assert traj.classical_res == traj.mild_res == np.inf
    assert traj.classification == "none"


def test_cross_check_raises_on_disagreement(diag_pencil):
    ts = np.linspace(0, 1, 5)
    a = solve_homogeneous(diag_pencil, [1.0, 1.0], ts)
    from daesemi.solver import Trajectory
    b = Trajectory(times=ts, values=a.values + 1.0)
    with pytest.raises(SolverMismatch):
        cross_check(diag_pencil, a, b)
    # a non-finite entry must not hide a 100-fold disagreement elsewhere
    ts = np.array([0.0, 1.0])
    c = Trajectory(times=ts, values=np.array([[np.inf, 0, 0, 0], [1, 2, 3, 4]]))
    d = Trajectory(times=ts, values=np.array([[0.0, 0, 0, 0], [100, 2, 3, 4]]))
    with pytest.raises(SolverMismatch, match="non-finite"):
        cross_check(diag_pencil, c, d)
    d.values[0, 0] = np.inf
    with pytest.raises(SolverMismatch, match="disagree by"):
        cross_check(diag_pencil, c, d)
    # the same non-finite value on both sides, and agreement elsewhere
    c.values[1, 0] = d.values[1, 0] = np.nan
    assert cross_check(diag_pencil, c, d) == 0.0
    empty = Trajectory(times=np.zeros(0), values=np.zeros((0, 2)))
    assert cross_check(diag_pencil, empty, empty) == 0.0


def test_smoothness_ladder_on_nilpotent_pencil(nilpotent_pencil):
    """Fractional inhomogeneities across the solvability boundary.

    With resolvent growth exponent 2, data vanishing to order 1 with a
    fractional profile forces an unbounded state component (integrable, so
    the integrated form still certifies); one order smoother data gives a
    solution classified classical.
    """
    kr = restrict_to_kernel(nilpotent_pencil)
    ts = np.linspace(0.0, 2.0, 21)
    from daesemi.solver import _from_signal

    def solve_power(beta):
        f = Signal.from_terms([([1.0, 0.5], beta, 0.0)])
        f_loc = f.apply(kr.basis_Z_ker.basis.conj().T)
        x = solve_kernel_inhomogeneity(kr, f_loc) \
            .apply(kr.basis_X_ker.basis)
        return _from_signal(nilpotent_pencil, x, ts, f)

    rough = solve_power(0.75)          # x ~ t^{-1/4}: not classical
    assert rough.classification == "mild"
    assert not np.isfinite(rough.classical_res)
    assert rough.mild_res <= 1e-8
    smooth = solve_power(1.75)
    assert smooth.classification == "classical"


def test_blow_up_at_zero_keeps_the_residual_scale(nilpotent_pencil):
    """x ~ t^{-1/4} reads inf at t = 0 only in the component that carries
    it; that entry must not scale the residuals of a wrong trajectory down
    to zero."""
    kr = restrict_to_kernel(nilpotent_pencil)
    f = Signal.from_terms([([1.0, 0.5], 0.75, 0.0)])
    x = solve_kernel_inhomogeneity(
        kr, f.apply(kr.basis_Z_ker.basis.conj().T)) \
        .apply(kr.basis_X_ker.basis)
    from daesemi.solver import _from_signal
    ts = np.linspace(0.0, 2.0, 21)
    good = _from_signal(nilpotent_pencil, x, ts, f)
    assert np.isinf(good.values[0]).sum() == 1
    assert good.classification == "mild"
    wrong = _from_signal(nilpotent_pencil, x + Signal.constant([0.0, 1e-3]),
                         ts, f)
    assert wrong.mild_res > 1e-4
    assert wrong.classification == "none"
