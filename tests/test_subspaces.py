"""Wong's split, the left chains and levels, and block structure."""

import json

import numpy as np
import pytest

from daesemi import (Pencil, Signal, SubspaceBasis, build_evaluator,
                     check_disjointness, cp_semigroup, hilbert_decomposition,
                     intersection_dim, make_hamiltonian, make_transport,
                     make_weierstrass, principal_angles, restrict_to_kernel,
                     solve_full, solve_homogeneous, verify_properties)
from daesemi import solver, subspaces
from daesemi import pencil as pencil_module
from daesemi.cli import _levels, main
from daesemi.errors import SingularAtLambda
from daesemi.fileio import write_pencil
from daesemi.pencil import svd_split
from daesemi.subspaces import (block_left_resolvent, complement_in,
                               decomposition_basis)

from conftest import mixed_transport, nilpotent_of_index

_rng = np.random.default_rng(0)
SPLIT_CASES = {
    # (matrix, rank)
    "square": (_rng.normal(size=(5, 5)) @ np.diag([1, 1, 1, 0, 0])
               @ _rng.normal(size=(5, 5)), 3),
    # a thin SVD of a wide matrix keeps only 3 of the 5 right vectors
    "wide": (_rng.normal(size=(3, 5)), 3),
    "tall": (_rng.normal(size=(5, 3)), 3),
    "zero": (np.zeros((4, 4)), 0),
    "no-columns": (np.zeros((4, 0)), 0),
}


@pytest.mark.parametrize("case", SPLIT_CASES)
def test_orth_and_null_are_complementary(case):
    M, rank = SPLIT_CASES[case]
    ran, ker, norm, coran = svd_split(M)
    assert ran.rank == rank and ran.ambient_dim == M.shape[0]
    # the coimage completes the kernel to an orthonormal basis of C^n
    assert coran.rank == rank and coran.ambient_dim == M.shape[1]
    T = np.hstack([coran.basis, ker.basis])
    assert np.allclose(T.conj().T @ T, np.eye(M.shape[1]), atol=1e-12)
    assert np.isclose(norm, np.linalg.svd(M, compute_uv=False).max(
        initial=0.0))
    assert ran.rank + ker.rank == M.shape[1] == ker.ambient_dim
    assert np.allclose(M @ ker.basis, 0, atol=1e-10)
    assert np.allclose(ran.basis.conj().T @ ran.basis, np.eye(rank),
                       atol=1e-12)
    assert np.allclose(ker.basis.conj().T @ ker.basis, np.eye(ker.rank),
                       atol=1e-12)


def test_principal_angles_orthogonal_planes():
    U = SubspaceBasis(np.eye(4)[:, :2].astype(complex), 4)
    V = SubspaceBasis(np.eye(4)[:, 2:].astype(complex), 4)
    ang = principal_angles(U, V)
    assert np.allclose(ang, np.pi / 2)
    assert intersection_dim(U, V) == 0
    assert intersection_dim(U, U) == 2


def test_principal_angles_small_angles_resolved():
    # the sine-based route resolves angles far below sqrt(eps)
    eps = 1e-12
    U = SubspaceBasis(np.array([[1.0], [0.0]], dtype=complex), 2)
    v = np.array([[1.0], [eps]], dtype=complex)
    V = SubspaceBasis(v / np.linalg.norm(v), 2)
    ang = principal_angles(U, V)
    assert abs(ang[0] - eps) < 1e-14


def test_complement_in():
    outer = SubspaceBasis(np.eye(3, dtype=complex), 3)
    inner = SubspaceBasis(np.eye(3, dtype=complex)[:, :1], 3)
    comp = complement_in(outer, inner)
    assert comp.rank == 2
    assert np.allclose(inner.basis.conj().T @ comp.basis, 0, atol=1e-10)


def test_chains_diag(diag_pencil):
    rep = hilbert_decomposition(diag_pencil)
    assert rep.X_ran.rank == 2 and rep.X_ker.rank == 0
    assert rep.stagnation_k == 0


@pytest.mark.parametrize("k", [2, 3])
def test_chains_pure_nilpotent(k):
    rep = hilbert_decomposition(nilpotent_of_index(k))
    assert rep.X_ran.rank == 0 and rep.X_ker.rank == k
    assert rep.stagnation_k == k
    assert [w.rank for w in rep.W_Z] == [1] * k
    # the level complements tile the whole space with the stagnated range
    assert rep.Z_ran.rank + sum(w.rank for w in rep.W_Z) == k
    # analyze's X levels are the rank drops of the X chain
    assert _levels(rep.X_chain) == [1] * k


def test_decomposition_mixed():
    p, orc = make_weierstrass(2, 2, 2, seed=1)
    rep = hilbert_decomposition(p)
    assert rep.X_ran.rank == 2 and rep.X_ker.rank == 2
    flags = check_disjointness(rep, p)
    assert flags.dim_Xran_cap_Xker == 0
    assert flags.dim_Zran_cap_Zker == 0


@pytest.mark.parametrize("n,k", [pytest.param(16, k, id=str(k))
                                 for k in range(1, 9)]
                         + [pytest.param(128, k, id=f"n128-{k}")
                            for k in range(1, 5)])
def test_stabilized_kernel_at_high_index(n, k):
    # a floor of ||R||^k on R^k swamps the invertible part of R^k at k = 6
    # and 8 on n = 16 and made the kernel all of C^16
    m = n // 2
    p, orc = make_weierstrass(m, m, k, seed=0)
    rep = hilbert_decomposition(p)
    w_star = np.linalg.qr(np.linalg.inv(orc.S)[:, m:])[0]
    assert rep.X_ker.rank == rep.Z_ker.rank == m
    assert principal_angles(rep.X_ker, SubspaceBasis(w_star, n)).max() < 1e-8
    flags = check_disjointness(rep, p)
    assert flags.disjoint_kernel and flags.dim_Xran_cap_Xker == 0
    assert restrict_to_kernel(p).dim == m


CHAIN_CASES = {
    **{f"weierstrass-8-8-{k}-seed{s}":
       (lambda k=k, s=s: make_weierstrass(8, 8, k, seed=s)[0])
       for k in range(1, 9) for s in range(3)},
    "hamiltonian-8-4": lambda: make_hamiltonian(8, 4),
    **{f"transport-{n}-{m}": (lambda n=n, m=m: make_transport(n, m))
       for n, m in [(2, 2), (3, 3), (4, 4), (8, 8), (16, 16), (24, 24),
                    (4, 2), (2, 4), (8, 3)]},
    **{f"mixed-transport-24-24-seed{s}":
       (lambda s=s: mixed_transport(24, 24, s)) for s in range(3)},
}


@pytest.mark.parametrize("case", CHAIN_CASES)
def test_left_chain_ranks_match_the_right(case):
    """rank Z_j = rank X_j for j >= 1 on every generator pencil (on a
    square one Z_{j+1} = E X_j, and in Weierstrass coordinates E X_j and
    X_{j+1} both have dimension n_s + rank N^{j+1}), and the X chain ends
    one step past stagnation_k."""
    rep = hilbert_decomposition(CHAIN_CASES[case]())
    assert ([z.rank for z in rep.Z_chain[1:]]
            == [x.rank for x in rep.X_chain[1:]])
    assert len(rep.X_chain) == rep.stagnation_k + 2


def _mixed(E, A, seed=0):
    """(T E S, T A S) for seeded random T and S."""
    rng = np.random.default_rng(seed)
    T, S = rng.normal(size=(2,) + E.shape)
    return Pencil(T @ E @ S, T @ A @ S)


SINGULAR_CASES = {
    # a zero row and a zero column: (ran E)^perp A has a zero row
    "diag(0,1)": Pencil(np.diag([0.0, 1.0]), np.diag([0.0, 1.0])),
    "E=A=N": Pencil(np.array([[0.0, 1.0], [0.0, 0.0]]),
                    np.array([[0.0, 1.0], [0.0, 0.0]])),
    # Kronecker blocks L_1 + L_1^T, mixed: the first step passes, and A
    # maps W_2 (all of L_1's columns) onto one row
    "L1+L1T": _mixed(np.array([[1.0, 0, 0], [0, 0, 1], [0, 0, 0]]),
                     np.array([[0.0, 1, 0], [0, 0, 0], [0, 0, 1]])),
}


@pytest.mark.parametrize("case", SINGULAR_CASES)
def test_singular_pencils_refused_by_the_split(case):
    """The split refuses a singular pencil by itself: no resolvent is
    formed first to do it."""
    p = SINGULAR_CASES[case]
    with pytest.raises(SingularAtLambda, match="lost rank"):
        hilbert_decomposition(p)
    with pytest.raises(SingularAtLambda, match="lost rank"):
        solve_full(p, np.ones(p.n_x), Signal.zero(p.n_z), [0.0, 1.0])


def test_step_that_changes_nothing_is_refused(monkeypatch):
    """Were the disjointness test never to pass, the first step past the
    index changes neither sequence, and the split raises instead of
    looping."""
    monkeypatch.setattr(subspaces, "_disjoint", lambda V, C: False)
    with pytest.raises(SingularAtLambda, match="stagnate"):
        hilbert_decomposition(make_weierstrass(2, 3, 3, seed=0)[0])


def test_tall_pencil_left_chain_one_power_later():
    """On a tall pencil Z_0 = C^{n_z} is larger than every later Z_j, so
    the left chain may stagnate one power after the right one."""
    p = Pencil(np.vstack([np.eye(3), np.zeros((2, 3))]),
               np.vstack([-np.eye(3), np.ones((2, 3))]))
    rep = hilbert_decomposition(p)
    assert rep.stagnation_k == 0
    assert [x.rank for x in rep.X_chain] == [3, 3]
    assert [z.rank for z in rep.Z_chain] == [5, 3, 3]
    assert (rep.X_ker.rank, rep.Z_ker.rank) == (0, 2)
    assert [w.rank for w in rep.W_Z] == [2]
    U = decomposition_basis(rep)
    assert np.allclose(U.conj().T @ U, np.eye(5), atol=1e-10)


def test_block_left_resolvent_structure():
    p, _ = make_weierstrass(2, 3, 3, seed=2)
    rep = hilbert_decomposition(p)
    B, slices = block_left_resolvent(rep)
    assert len(slices) == rep.stagnation_k + 1
    # rows below the first block row vanish on and left of the diagonal
    for i in range(1, len(slices)):
        for j in range(i + 1):
            assert np.linalg.norm(B[slices[i], slices[j]]) < 1e-8
    U = decomposition_basis(rep)
    assert np.allclose(U.conj().T @ U, np.eye(p.n_z), atol=1e-10)


def test_transport_structure():
    n, m = 8, 8
    p = make_transport(n, m)
    rep = hilbert_decomposition(p)
    # algebraic directions are exactly the second segment
    ref = np.zeros((n + m, m), dtype=complex)
    ref[n:, :] = np.eye(m)
    ang = principal_angles(rep.X_ker, SubspaceBasis(ref, n + m))
    assert rep.X_ker.rank == m
    assert ang.max() < 1e-10
    # dynamic constraint directions are the first block of coordinates
    refz = np.zeros((n + m + 2, n), dtype=complex)
    refz[:n, :n] = np.eye(n)
    angz = principal_angles(rep.Z_ran, SubspaceBasis(refz, n + m + 2))
    assert rep.Z_ran.rank == n
    assert angz.max() < 1e-8


def test_resolvent_and_left_side_built_only_when_read(monkeypatch, tmp_path,
                                                     capsys):
    """On a square pencil the split forms no resolvent: solve_full, both
    solve_homogeneous methods, build_evaluator and cp_semigroup make no
    resolvent call and build no left side.  The identity suite forms
    R(mu) once, for (a) and S_l, and reads Z_ran; analyze builds the left
    side once and takes the level ranks from the chains' rank drops."""
    calls = dict.fromkeys(("resolvent", "Z_chain", "Z_ker", "complement_in",
                           "svd"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    resolvent = counted("resolvent", pencil_module.resolvent)
    for module in (pencil_module, solver):
        monkeypatch.setattr(module, "resolvent", resolvent)
    for name in ("Z_chain", "Z_ker"):
        prop = vars(subspaces.DecompositionReport)[name]
        monkeypatch.setattr(prop, "func", counted(name, prop.func))
    monkeypatch.setattr(subspaces, "complement_in",
                        counted("complement_in", subspaces.complement_in))
    p, orc = make_weierstrass(3, 3, 2, seed=3)
    x0 = orc.consistent_x0(np.arange(1.0, 7.0))
    f = Signal.from_terms([(np.ones(6), 1, -0.5)])
    solve_full(p, x0, f, [0.0, 1.0])
    for method in ("decomp", "contour"):
        solve_homogeneous(p, x0, [0.0, 0.5, 1.0], method=method)
    cp_semigroup(build_evaluator(p), 0.5)
    assert (calls["resolvent"], calls["Z_chain"], calls["Z_ker"]) == (0, 0, 0)
    verify_properties(build_evaluator(p))
    assert (calls["resolvent"], calls["Z_chain"], calls["Z_ker"]) == (1, 1, 0)

    path = str(tmp_path / "w.json")
    write_pencil(path, p)
    assert main(["analyze", path]) == 0
    dec = json.loads(capsys.readouterr().out)["decomposition"]
    assert (dec["stagnation_k"], dec["dim_X_ran"], dec["dim_Z_ran"],
            dec["dim_X_ker"], dec["dim_Z_ker"]) == (2, 3, 3, 3, 3)
    assert dec["levels_X"] == dec["levels_Z"] == [2, 1]
    # analyze's mu, one left chain and kernel, and no level complement
    assert (calls["resolvent"], calls["Z_chain"], calls["Z_ker"],
            calls["complement_in"]) == (2, 2, 1, 0)

    # at index 1 solve_full takes four SVDs, all in the split: that of E
    # (both first steps), the first V step's, the first W step's and the
    # disjointness test at j = 1
    p1, orc1 = make_weierstrass(3, 3, 1, seed=3)
    x1 = orc1.consistent_x0(np.arange(1.0, 7.0))
    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    solve_full(p1, x1, f, [0.0, 1.0])
    assert calls["svd"] == 4 and calls["resolvent"] == 2
