"""Solver routes against the closed-form structural oracle."""

import numpy as np
import pytest

from daesemi import (Pencil, Signal, bromwich_invert, build_evaluator,
                     contour_for, cross_check, make_weierstrass,
                     restrict_to_kernel, solve_full, solve_homogeneous,
                     solve_inhomogeneous_ran, solve_kernel_inhomogeneity,
                     verify_properties)
from daesemi.errors import (ClosedFormUnavailable, InconsistentInitialValue,
                            LiftFailed, SolverMismatch)

TS = np.linspace(0.0, 5.0, 41)


def _ran_x0(ev, rng):
    c = rng.normal(size=ev.rank) + 1j * rng.normal(size=ev.rank)
    return ev.V @ c


def test_homogeneous_decomp_matches_oracle():
    rng = np.random.default_rng(0)
    p, orc = make_weierstrass(3, 2, 2, seed=30)
    ev = build_evaluator(p)
    x0 = _ran_x0(ev, rng)
    traj = solve_homogeneous(p, x0, TS, evaluator=ev)
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

    Inverting the oracle's exact transform on the same nodes gives the
    quadrature's own error; what the contour trajectory adds on top of it
    comes from sampling (lam E - A)^{-1} E x0.
    """
    ts = np.array([0.5, 1.0, 1.5])
    for n in (16, 32):
        for seed in range(4):
            p, orc = make_weierstrass(n // 2, n // 2, k, seed=seed)
            rng = np.random.default_rng(seed)
            x0 = orc.consistent_x0(rng.normal(size=n) + 1j * rng.normal(size=n))
            ev = build_evaluator(p, backend="contour")
            traj = solve_homogeneous(p, x0, ts, method="contour", evaluator=ev)
            exact = orc.solve(x0)
            ref = exact(ts)
            quad = np.array([bromwich_invert(exact.laplace, t,
                                             contour_for(t, ev.omega))
                             for t in ts])
            scale = np.max(np.abs(ref))
            sampling = np.max(np.abs(traj.values - quad)) / scale
            floor = np.max(np.abs(quad - ref)) / scale
            oracle = np.max(np.abs(traj.values - ref)) / scale
            assert sampling <= CONTOUR_SAMPLING_BOUND[k], (n, seed, sampling)
            assert oracle <= floor + CONTOUR_SAMPLING_BOUND[k], (n, seed, oracle)


@pytest.mark.parametrize("method", ["decomp", "contour"])
def test_default_shift_moves_off_a_finite_eigenvalue(method):
    # the finite eigenvalue 2 sits at the default shift omega_hint + 2
    p = Pencil(np.diag([1.0, 0.0]), np.diag([2.0, 1.0]), omega_hint=0.0)
    ev = build_evaluator(p, backend="closed_form" if method == "decomp"
                         else "contour")
    assert (ev.p, ev.rank) == (2, 1)
    assert ev.mu == pytest.approx(4.0) and ev.omega == pytest.approx(2.0)
    ts = np.linspace(0.0, 1.0, 11)
    traj = solve_homogeneous(p, [1.0, 0.0], ts, method=method, evaluator=ev)
    exact = np.column_stack([np.exp(2.0 * ts), np.zeros_like(ts)])
    assert np.max(np.abs(traj.values - exact)) < 1e-8 * np.exp(2.0)
    if method == "decomp":
        assert traj.classification == "classical"


def test_homogeneous_rejects_inadmissible_x0():
    p, _ = make_weierstrass(1, 2, 2, seed=32)
    bad = build_evaluator(p).decomposition.X_ker.basis[:, 0]
    with pytest.raises(InconsistentInitialValue):
        solve_homogeneous(p, bad, TS)


_SINGULAR = np.array([[0.0, 1.0], [0.0, 0.0]])


@pytest.mark.parametrize("call, error", [
    (lambda p, ev: solve_homogeneous(p, ev.V[:, 0], TS, method="decomp",
                                     evaluator=ev), ClosedFormUnavailable),
    (lambda p, ev: solve_inhomogeneous_ran(p, ev.V[:, 0], Signal.zero(p.n_z),
                                           TS, evaluator=ev),
     ClosedFormUnavailable),
    # refused before an evaluator is built, which would raise
    # SingularAtLambda on this pencil
    (lambda p, ev: solve_homogeneous(Pencil(_SINGULAR, _SINGULAR), [1.0, 0.0],
                                     TS, method="bogus"), ValueError),
], ids=["decomp", "convolution", "unknown-method"])
def test_unusable_route_raises_typed_error(call, error):
    p, _ = make_weierstrass(3, 2, 2, seed=30)
    ev = build_evaluator(p, backend="contour")
    with pytest.raises(error):
        call(p, ev)


def test_convolution_route_matches_oracle():
    rng = np.random.default_rng(2)
    p, orc = make_weierstrass(3, 2, 2, seed=33)
    ev = build_evaluator(p)
    x0 = _ran_x0(ev, rng)
    # inhomogeneity valued in the dynamic constraint directions
    Pz = ev.decomposition.Z_ran.projector()
    f = Signal.from_terms([(Pz @ rng.normal(size=p.n_z), 1, -0.5),
                           (Pz @ rng.normal(size=p.n_z), 0, 0.4j)])
    traj = solve_inhomogeneous_ran(p, x0, f, TS, evaluator=ev)
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
        solve_inhomogeneous_ran(p, np.zeros(p.n_x), f, TS, evaluator=ev)


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


def test_full_route_with_finite_eigenvalue_at_twice_the_shift():
    # the leading block is an ODE in its own right; it needs no second shift,
    # so an eigenvalue at mu + 2 (here 4 with mu = 2) must not matter
    p = Pencil(np.diag([1.0, 0.0]), np.diag([4.0, 1.0]))
    ts = np.linspace(0.0, 1.0, 11)
    traj = solve_full(p, [1.0, -1.0], Signal.constant([1.0, 1.0]), ts, mu=2.0)
    exact = np.column_stack([1.25 * np.exp(4.0 * ts) - 0.25, -np.ones_like(ts)])
    assert np.max(np.abs(traj.values - exact)) < 1e-10
    assert traj.classification == "classical"


def test_full_route_homogeneous_agrees_with_semigroup():
    p, orc = make_weierstrass(2, 1, 1, seed=50)
    ev = build_evaluator(p)
    x0 = _ran_x0(ev, np.random.default_rng(3))
    t_full = solve_full(p, x0, Signal.zero(p.n_z), TS)
    t_dec = solve_homogeneous(p, x0, TS, evaluator=ev)
    assert cross_check(p, t_full, t_dec) < 1e-6


def test_kernel_route_agrees_with_full():
    p, orc = make_weierstrass(0, 2, 2, seed=60)
    rng = np.random.default_rng(4)
    f = Signal.from_terms([(rng.normal(size=2), 2, -0.25)])
    kr = restrict_to_kernel(p, 2.0, p_int=3)
    x_ker = solve_kernel_inhomogeneity(
        kr, f.apply(kr.basis_Z_ker.basis.conj().T), p_int=3) \
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


def test_smoothness_ladder_on_nilpotent_pencil(nilpotent_pencil):
    """Fractional inhomogeneities across the solvability boundary.

    With resolvent growth exponent 2, data vanishing to order 1 with a
    fractional profile forces an unbounded state component (integrable, so
    the integrated form still certifies); one order smoother data gives a
    solution classified classical.
    """
    kr = restrict_to_kernel(nilpotent_pencil, 2.0, p_int=3)
    ts = np.linspace(0.0, 2.0, 21)
    from daesemi.solver import _from_signal

    def solve_power(beta):
        f = Signal.from_terms([([1.0, 0.5], beta, 0.0)])
        f_loc = f.apply(kr.basis_Z_ker.basis.conj().T)
        x = solve_kernel_inhomogeneity(kr, f_loc, p_int=3) \
            .apply(kr.basis_X_ker.basis)
        return _from_signal(nilpotent_pencil, x, ts, f)

    rough = solve_power(0.75)          # x ~ t^{-1/4}: not classical
    assert rough.classification == "mild"
    assert not np.isfinite(rough.classical_res)
    assert rough.mild_res <= 1e-8
    smooth = solve_power(1.75)
    assert smooth.classification == "classical"
