"""Stabilized range chains, decomposition levels and block structure."""

import json

import numpy as np
import pytest

from daesemi import (Pencil, SubspaceBasis, build_evaluator,
                     check_disjointness, hilbert_decomposition,
                     intersection_dim, make_transport, make_weierstrass,
                     principal_angles, restrict_to_kernel,
                     solve_homogeneous, verify_properties)
from daesemi import pencil as pencil_module
from daesemi import subspaces
from daesemi.cli import _levels, main
from daesemi.fileio import write_pencil
from daesemi.pencil import svd_split
from daesemi.subspaces import (block_left_resolvent, complement_in,
                               decomposition_basis)

from conftest import nilpotent_of_index

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
    ran, ker, norm = svd_split(M)
    assert ran.rank == rank and ran.ambient_dim == M.shape[0]
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


@pytest.mark.parametrize("k", [6, 8])
def test_stabilized_kernel_at_high_index(k):
    # a floor of ||R||^k on R^k swamps the invertible part of R^k here and
    # made the kernel all of C^16
    p, orc = make_weierstrass(8, 8, k, seed=0)
    rep = hilbert_decomposition(p)
    w_star = np.linalg.qr(np.linalg.inv(orc.S)[:, 8:])[0]
    assert rep.X_ker.rank == rep.Z_ker.rank == 8
    assert principal_angles(rep.X_ker, SubspaceBasis(w_star, 16)).max() < 1e-8
    flags = check_disjointness(rep, p)
    assert flags.disjoint_kernel and flags.dim_Xran_cap_Xker == 0
    assert restrict_to_kernel(p).dim == 8


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


def test_kernels_and_levels_built_only_when_read(monkeypatch, tmp_path,
                                                 capsys):
    """The contour solve and the identity suite read neither the stabilized
    kernels nor the levels, so they build neither; analyze reads the
    kernels and takes the level ranks from the chains' rank drops."""
    calls = {"complement_in": 0, "power_kernel": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(subspaces, "complement_in",
                        counted("complement_in", subspaces.complement_in))
    power_kernel = counted("power_kernel", pencil_module.power_kernel)
    for module in (pencil_module, subspaces):
        monkeypatch.setattr(module, "power_kernel", power_kernel)
    p, orc = make_weierstrass(3, 3, 2, seed=3)
    x0 = orc.consistent_x0(np.arange(1.0, 7.0))
    solve_homogeneous(p, x0, [0.0, 0.5, 1.0], method="contour")
    verify_properties(build_evaluator(p))
    assert calls == {"complement_in": 0, "power_kernel": 0}

    path = str(tmp_path / "w.json")
    write_pencil(path, p)
    assert main(["analyze", path]) == 0
    dec = json.loads(capsys.readouterr().out)["decomposition"]
    assert (dec["stagnation_k"], dec["dim_X_ran"], dec["dim_Z_ran"],
            dec["dim_X_ker"], dec["dim_Z_ker"]) == (2, 3, 3, 3, 3)
    assert dec["levels_X"] == dec["levels_Z"] == [2, 1]
    # one kernel per side, and no level complement
    assert calls == {"complement_in": 0, "power_kernel": 2}
