"""Kernel restriction and the derivative-sum solution of the algebraic part."""

import numpy as np
import pytest
import scipy.linalg

from daesemi import (Pencil, Signal, make_weierstrass, restrict_to_kernel,
                     solve_kernel_inhomogeneity)
from daesemi import kernel
from daesemi.errors import AKerSingular, DimensionMismatch
from daesemi.pencil import SubspaceBasis

from conftest import nilpotent_of_index

def test_worked_instance_exact(nilpotent_pencil):
    """f = (t, t^2) on E=[[0,1],[0,0]], A=I gives x = (-3t, -t^2) exactly."""
    k = restrict_to_kernel(nilpotent_pencil)
    assert k.dim == 2
    f_amb = Signal.from_terms([([1.0, 0.0], 1, 0.0), ([0.0, 1.0], 2, 0.0)])
    f_loc = f_amb.apply(k.basis_Z_ker.basis.conj().T)
    x_loc = solve_kernel_inhomogeneity(k, f_loc)
    x = x_loc.apply(k.basis_X_ker.basis)
    ts = np.linspace(0.0, 4.0, 17)
    expect = np.stack([-3.0 * ts, -ts ** 2], axis=1)
    assert np.max(np.abs(x(ts) - expect)) <= 1e-12
    # exact residual of the equation itself
    res = x.derivative().apply(nilpotent_pencil.E) \
        - x.apply(nilpotent_pencil.A) - f_amb
    assert np.max(np.abs(res(ts))) <= 1e-12


@pytest.mark.parametrize("k", [1, 2, 3])
def test_nilpotency_degree_matches_index(k):
    p = nilpotent_of_index(k)
    kr = restrict_to_kernel(p)
    assert kr.dim == k
    assert kr.nilpotency_degree == k
    Npow = np.linalg.matrix_power(kr.N, kr.nilpotency_degree)
    assert np.linalg.norm(Npow) <= 1e-10


def test_restriction_on_transformed_pencil():
    p, orc = make_weierstrass(2, 3, 2, seed=4)
    kr = restrict_to_kernel(p)
    assert kr.dim == 3
    assert kr.nilpotency_degree == 2
    # A maps X_ker bijectively onto Z_ker
    assert np.linalg.cond(kr.A_ker) < 1e6


def test_empty_kernel(diag_pencil):
    kr = restrict_to_kernel(diag_pencil)
    assert kr.dim == 0
    out = solve_kernel_inhomogeneity(kr, Signal.zero(0))
    assert out.shape == (0,)


def test_homogeneous_kernel_part_is_zero(nilpotent_pencil):
    kr = restrict_to_kernel(nilpotent_pencil)
    out = solve_kernel_inhomogeneity(kr, Signal.zero(2))
    assert len(out.terms) == 0


def test_kernel_solution_matches_oracle():
    p, orc = make_weierstrass(0, 3, 3, seed=9)
    kr = restrict_to_kernel(p)
    rng = np.random.default_rng(2)
    f = Signal.from_terms([(rng.normal(size=3), 2, -0.4),
                           (rng.normal(size=3), 0, 0.3j)])
    f_loc = f.apply(kr.basis_Z_ker.basis.conj().T)
    x = solve_kernel_inhomogeneity(kr, f_loc) \
        .apply(kr.basis_X_ker.basis)
    ts = np.linspace(0, 3, 13)
    ref = orc.solve(np.zeros(3), f)
    assert np.max(np.abs(x(ts) - ref(ts))) <= 1e-8


def test_dimension_mismatch(nilpotent_pencil):
    kr = restrict_to_kernel(nilpotent_pencil)
    with pytest.raises(DimensionMismatch):
        solve_kernel_inhomogeneity(kr, Signal.zero(5))


def test_singular_pencil_rejected():
    # lam*E - A is singular for every lam: the restriction cannot start
    from daesemi.errors import SingularAtLambda
    p = Pencil(np.diag([0.0, 1.0]), np.diag([0.0, 1.0]))
    with pytest.raises(SingularAtLambda):
        restrict_to_kernel(p)


def test_numerically_singular_A_ker_rejected(monkeypatch):
    """A Z_ker with a direction orthogonal to A X_ker leaves A_ker with a
    zero row up to round-off: its gated inverse raises AKerSingular."""
    p, _ = make_weierstrass(2, 2, 2, seed=0)
    rep = kernel.hilbert_decomposition(p)
    AX = p.A @ rep.X_ker.basis
    Q = scipy.linalg.qr(AX)[0]
    rep.Z_ker = SubspaceBasis(np.column_stack([Q[:, 0], Q[:, -1]]), 4)
    monkeypatch.setattr(kernel, "hilbert_decomposition", lambda _: rep)
    with pytest.raises(AKerSingular, match="numerically singular"):
        restrict_to_kernel(p)
