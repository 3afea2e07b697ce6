"""Acceptance gate: the eight end-to-end requirements for the package.

Each test prints exactly one PASS/FAIL line on the terminal (bypassing
capture) and then asserts, so the summary stays readable in any pytest
output mode.
"""

import time

import numpy as np
import pytest

from daesemi import (Pencil, Signal, build_evaluator, chain_index,
                     cp_semigroup, estimate_resolvent_index,
                     hilbert_decomposition, intersection_dim,
                     make_hamiltonian, make_transport, make_weierstrass,
                     principal_angles, resolvent, restrict_to_kernel,
                     solve_full, solve_homogeneous, solve_inhomogeneous_ran,
                     solve_kernel_inhomogeneity, verify_properties)
from daesemi.laplace import contour_for, forward_laplace
from daesemi.semigroup import eval_S_r
from daesemi.subspaces import SubspaceBasis

# (n_smooth, n_nilpotent, k) shapes with n <= 8, used for the seeded batches
_SHAPES_10 = [(2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 2), (3, 3, 3),
              (1, 1, 1), (4, 2, 2), (2, 3, 3), (3, 1, 1), (4, 4, 2)]
_SHAPES_ORACLE = [(2, 1, 1), (1, 2, 2), (2, 2, 2), (3, 2, 1), (2, 3, 3)]


def _report(capsys, num: int, name: str, ok: bool) -> None:
    with capsys.disabled():
        print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}")


def _diag_pencil() -> Pencil:
    p, _ = make_weierstrass(1, 1, 1, seed=0, trivial_transforms=True)
    return p


def _relerr(vals: np.ndarray, ref: np.ndarray) -> float:
    scale = max(1.0, float(np.max(np.abs(ref))))
    return float(np.max(np.abs(vals - ref))) / scale


def test_criterion_1_laplace_representation(capsys):
    """lam^p * L[S_r(.) x0](lam) equals R_r(lam) x0 on the contour."""
    start = time.perf_counter()
    pencils = [_diag_pencil()]
    pencils += [make_weierstrass(*shape, seed=s)[0]
                for s, shape in enumerate(_SHAPES_10)]
    rng = np.random.default_rng(0)
    worst = 0.0
    for pen in pencils:
        ev = build_evaluator(pen)
        if ev.rank == 0:
            continue
        c = rng.normal(size=ev.rank) + 1j * rng.normal(size=ev.rank)
        x0 = ev.V @ c
        x0 = x0 / np.linalg.norm(x0)
        sig = ev.S_coord.matvec(ev.V.conj().T @ x0).apply(ev.V)
        cfg = contour_for(1.0, omega=ev.decomposition.omega)
        lams = [cfg.sigma + 1j * np.pi * j for j in range(5)]
        for lam in lams:
            lhs = lam ** ev.p * sig.laplace(lam)
            rhs = resolvent(pen, lam) @ (pen.E @ x0)
            worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    # independent quadrature route on the smallest instance
    pen = _diag_pencil()
    ev = build_evaluator(pen)
    x0 = ev.V @ np.ones(ev.rank)
    x0 = x0 / np.linalg.norm(x0)
    lam = 12.0 + 2.0j
    quad = forward_laplace(lambda t: eval_S_r(ev, t, x0), lam, T=40.0, n=64,
                           omega=ev.decomposition.omega)
    rhs = resolvent(pen, lam) @ (pen.E @ x0)
    worst = max(worst, float(np.linalg.norm(lam ** ev.p * quad - rhs)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5 and elapsed < 10.0
    _report(capsys, 1, "Laplace representation of S_r", ok)
    assert worst <= 1e-5, f"worst transform defect {worst:.2e}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_identity_suite(capsys):
    """Identities (a)-(d), (f) of the integrated semigroup on all pencils."""
    start = time.perf_counter()
    pencils = [_diag_pencil()]
    pencils += [make_weierstrass(*shape, seed=s)[0]
                for s, shape in enumerate(_SHAPES_10)]
    pencils += [make_hamiltonian(6, 4, seed=1), make_hamiltonian(5, 3, seed=3)]
    worst = 0.0
    for pen in pencils:
        rep = verify_properties(build_evaluator(pen))
        assert rep.grid == (0.1, 0.5, 1.0, 2.0) and rep.tol == 1e-6
        worst = max(worst, max(rep.residuals.values()))
        assert rep.all_passed, f"{pen.name}: {rep.residuals}"
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 20.0
    _report(capsys, 2, "integrated-semigroup identity suite", ok)
    assert worst <= 1e-6, f"worst identity residual {worst:.2e}"
    assert elapsed < 20.0, f"took {elapsed:.1f}s"


def test_criterion_3_oracle_equivalence(capsys):
    """Every solver path agrees with the closed-form oracle on 50 pencils."""
    start = time.perf_counter()
    ts = np.linspace(0.0, 5.0, 26)
    ts_contour = np.array([0.0, 0.5, 1.0, 2.0, 3.5, 5.0])
    rng = np.random.default_rng(7)
    worst = dict.fromkeys(
        ("decomp", "contour", "convolution", "kernel", "full"), 0.0)
    for seed in range(50):
        ns, nn, k = _SHAPES_ORACLE[seed % len(_SHAPES_ORACLE)]
        pen, orc = make_weierstrass(ns, nn, k, seed=seed)
        n = ns + nn
        ev = build_evaluator(pen)
        est = estimate_resolvent_index(pen)

        # homogeneous, propagated on the range space and by contour inversion
        c = rng.normal(size=ev.rank) + 1j * rng.normal(size=ev.rank)
        x0 = ev.V @ (c / np.linalg.norm(c))
        ref = orc.solve(x0)
        tr = solve_homogeneous(pen, x0, ts, method="decomp")
        worst["decomp"] = max(worst["decomp"], _relerr(tr.values, ref(ts)))
        tr = solve_homogeneous(pen, x0, ts_contour, method="contour")
        worst["contour"] = max(worst["contour"],
                               _relerr(tr.values, ref(ts_contour)))

        # convolution route: inhomogeneity valued in E(X_ran)
        fc = Signal.from_terms(
            [(rng.normal(size=ev.rank), 1, -0.4),
             (rng.normal(size=ev.rank), 0, 0.2j)])
        f_ran = fc.apply(pen.E @ ev.V)
        ref = orc.solve(x0, f_ran)
        tr = solve_inhomogeneous_ran(pen, x0, f_ran, ts)
        worst["convolution"] = max(worst["convolution"],
                                   _relerr(tr.values, ref(ts)))

        # kernel formula: inhomogeneity valued in the stabilized kernel
        kr = restrict_to_kernel(pen)
        if kr.dim:
            fk = Signal.from_terms([(rng.normal(size=kr.dim), 2, -0.5),
                                    (rng.normal(size=kr.dim), 0, 0.3j)])
            f_ker = fk.apply(kr.basis_Z_ker.basis)
            xk = solve_kernel_inhomogeneity(kr, fk) \
                .apply(kr.basis_X_ker.basis)
            ref = orc.solve(np.zeros(n), f_ker)
            worst["kernel"] = max(worst["kernel"], _relerr(xk(ts), ref(ts)))

        # full back-substitution with a general inhomogeneity
        f = Signal.from_terms(
            [(rng.normal(size=n) + 1j * rng.normal(size=n), 1, -0.3),
             (rng.normal(size=n), 0, 0.4j)])
        x0f = orc.consistent_x0(x0, f)
        ref = orc.solve(x0f, f)
        tr = solve_full(pen, x0f, f, ts)
        worst["full"] = max(worst["full"], _relerr(tr.values, ref(ts)))
    elapsed = time.perf_counter() - start
    ok = max(worst.values()) <= 1e-6 and elapsed < 60.0
    _report(capsys, 3, "solver paths match the closed-form oracle", ok)
    assert max(worst.values()) <= 1e-6, f"path errors {worst}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_4_index_consistency(capsys):
    """Resolvent-growth and chain indices agree with the construction."""
    instances = []
    for k in range(1, 5):
        pen, _ = make_weierstrass(0, k, k, seed=k)
        instances.append((pen, k))
    for shape, seed in [((2, 2, 2), 1), ((3, 2, 1), 2), ((2, 3, 3), 3)]:
        pen, _ = make_weierstrass(*shape, seed=seed)
        instances.append((pen, shape[2]))
    ok = True
    for pen, k in instances:
        est = estimate_resolvent_index(pen)
        ck = chain_index(pen)[0]
        pure = pen.name.startswith("weierstrass(0")
        if pure:
            ok &= est.p_res == k
            assert est.p_res == k, f"{pen.name}: p_res {est.p_res} != {k}"
        ok &= ck == k
        assert ck == k, f"{pen.name}: chain index {ck} != {k}"
        kr = restrict_to_kernel(pen)
        ok &= kr.nilpotency_degree <= est.p_res + 1
        assert kr.nilpotency_degree <= est.p_res + 1, pen.name
    _report(capsys, 4, "index consistency on constructed pencils", ok)


def test_criterion_5_transport_structure(capsys):
    """The rectangular transport pencil reproduces the expected spaces."""
    start = time.perf_counter()
    n = m = 32
    pen = make_transport(n, m)
    est = estimate_resolvent_index(pen)
    rep = hilbert_decomposition(pen)

    second_block = np.zeros((n + m, m), dtype=complex)
    second_block[n:, :] = np.eye(m)
    first_block = np.zeros((n + m + 2, n), dtype=complex)
    first_block[:n, :] = np.eye(n)

    xker_angles = principal_angles(rep.X_ker,
                                   SubspaceBasis(second_block, n + m))
    zran_angles = principal_angles(rep.Z_ran,
                                   SubspaceBasis(first_block, n + m + 2))
    # the transport line and the stationary constraint nearly intersect at
    # mesh scale: the smallest principal angle behaves like 1/sqrt(m)
    dim_x = intersection_dim(rep.X_ran, rep.X_ker,
                             angle_tol=2.0 / np.sqrt(m))
    dim_z = intersection_dim(rep.Z_ran, rep.Z_ker)
    elapsed = time.perf_counter() - start

    ok = (est.p_res <= 1 and rep.X_ker.rank == m
          and float(np.max(xker_angles)) <= 1e-8
          and rep.Z_ran.rank == n and float(np.max(zran_angles)) <= 1e-8
          and dim_x >= 1 and dim_z == 0 and elapsed < 10.0)
    _report(capsys, 5, "transport discretization structure", ok)
    assert est.p_res <= 1
    assert rep.X_ker.rank == m
    assert float(np.max(xker_angles)) <= 1e-8
    assert rep.Z_ran.rank == n
    assert float(np.max(zran_angles)) <= 1e-8
    assert dim_x >= 1, "range and kernel spaces should nearly intersect"
    assert dim_z == 0
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_6_extracted_semigroup(capsys):
    """On dissipative pencils the extracted propagator is a C0 semigroup."""
    rng = np.random.default_rng(11)
    ok = True
    for n, r, seed in [(6, 4, 1), (5, 3, 3), (8, 5, 7)]:
        pen = make_hamiltonian(n, r, seed=seed)
        ev = build_evaluator(pen)
        P = ev.V @ ev.V.conj().T
        # semigroup law and the identity at t = 0
        law = 0.0
        for t in (0.1, 0.5, 1.0):
            for s in (0.1, 0.5, 1.0):
                law = max(law, float(np.linalg.norm(
                    cp_semigroup(ev, t + s)
                    - cp_semigroup(ev, t) @ cp_semigroup(ev, s), 2)))
        at_zero = float(np.linalg.norm(cp_semigroup(ev, 0.0) - P, 2))
        ok &= law <= 1e-8 and at_zero <= 1e-10
        assert law <= 1e-8, f"{pen.name}: law defect {law:.2e}"
        assert at_zero <= 1e-10, f"{pen.name}: value at 0 off by {at_zero:.2e}"
        # strong continuity from above: errors shrink monotonically
        for _ in range(3):
            c = rng.normal(size=ev.rank) + 1j * rng.normal(size=ev.rank)
            x = ev.V @ (c / np.linalg.norm(c))
            hs = [2.0 ** -j for j in range(7)]
            errs = [float(np.linalg.norm(cp_semigroup(ev, h) @ x - x))
                    for h in hs]
            mono = all(b < a for a, b in zip(errs, errs[1:]))
            ok &= mono
            assert mono, f"{pen.name}: approach errors {errs}"
    _report(capsys, 6, "extracted C0 semigroup on dissipative pencils", ok)


def test_criterion_7_kernel_formula_worked_instance(capsys):
    """f = (t, t^2) on the purely algebraic pencil gives x = (-3t, -t^2)."""
    E = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    pen = Pencil(E, np.eye(2, dtype=complex), name="algebraic")
    kr = restrict_to_kernel(pen)
    f = Signal.from_terms([(np.array([1.0, 0.0]), 1, 0.0),
                           (np.array([0.0, 1.0]), 2, 0.0)])
    fk = f.apply(kr.basis_Z_ker.basis.conj().T)
    x = solve_kernel_inhomogeneity(kr, fk).apply(kr.basis_X_ker.basis)
    ts = np.linspace(0.0, 3.0, 13)
    expected = np.stack([-3.0 * ts, -ts ** 2], axis=1)
    sol_err = float(np.max(np.abs(x(ts) - expected)))
    res = x.derivative().apply(pen.E) - x.apply(pen.A) - f
    res_err = float(np.max(np.abs(res(ts))))
    ok = sol_err <= 1e-12 and res_err <= 1e-12
    _report(capsys, 7, "kernel formula worked instance", ok)
    assert sol_err <= 1e-12, f"solution off by {sol_err:.2e}"
    assert res_err <= 1e-12, f"residual {res_err:.2e}"


def test_criterion_8_mild_vs_classical_ladder(capsys):
    """Vanishing order p_res should give mild-only, p_res + 1 classical.

    The second clause holds.  The first cannot hold for matrix pencils:
    every solution route applies at most p_res - 1 derivatives of f to the
    state in the components that reach it, so data vanishing to order
    p_res already produces a pointwise-differentiable solution and the
    classical residual is tiny rather than large.  The genuine mild-only
    boundary sits at fractional data of vanishing order p_res - 1 and is
    exercised in test_solver.py::test_smoothness_ladder_on_nilpotent_pencil.
    This test states the requirement literally and is expected to fail on
    the first clause.
    """
    E = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    pen = Pencil(E, np.eye(2, dtype=complex), name="algebraic")
    p_res = estimate_resolvent_index(pen).p_res
    ts = np.linspace(0.0, 2.0, 21)
    v = np.array([1.0, 0.5])

    f_mild = Signal.from_terms([(v, p_res, 0.0)])
    assert f_mild.vanishing_order() == p_res
    tr_mild = solve_full(pen, np.zeros(2), f_mild, ts)

    f_classical = Signal.from_terms([(v, p_res + 1, 0.0)])
    assert f_classical.vanishing_order() == p_res + 1
    tr_classical = solve_full(pen, np.zeros(2), f_classical, ts)

    clause1 = (tr_mild.classification == "mild"
               and tr_mild.mild_res <= 1e-8
               and tr_mild.classical_res > 1e-4)
    clause2 = tr_classical.classification == "classical"
    _report(capsys, 8, "mild-vs-classical smoothness ladder",
            clause1 and clause2)
    assert clause2, f"smooth data classified {tr_classical.classification}"
    assert clause1, (
        "data of vanishing order p_res yields a genuinely classical "
        f"solution (classification {tr_mild.classification!r}, classical "
        f"residual {tr_mild.classical_res:.2e}); a mild-only outcome is "
        "not attainable for finite-dimensional pencils")
