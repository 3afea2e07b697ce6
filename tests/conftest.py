import numpy as np
import pytest
import scipy.linalg

from daesemi import Pencil, WeierstrassOracle, make_transport, make_weierstrass


@pytest.fixture
def diag_pencil() -> Pencil:
    return Pencil(np.eye(2), np.diag([-1.0, -2.0]), omega_hint=-1.0,
                  name="diag")


@pytest.fixture
def nilpotent_pencil() -> Pencil:
    E = np.array([[0.0, 1.0], [0.0, 0.0]])
    return Pencil(E, np.eye(2), name="nilpotent2")


def nilpotent_of_index(k: int) -> Pencil:
    E = np.diag(np.ones(k - 1), 1) if k > 1 else np.zeros((1, 1))
    return Pencil(E, np.eye(max(k, 1)), name=f"nilpotent{k}")


def weierstrass_with_mode(n_s: int, n_n: int, k: int, seed: int,
                          mode: complex):
    """make_weierstrass(n_s, n_n, k, seed) with its pinned eigenvalue -1 of
    J moved to ``mode``: the pencil (growth hint 0, so the default shift is
    2) and its WeierstrassOracle, built from the same T, S, J, N."""
    _, orc = make_weierstrass(n_s, n_n, k, seed=seed)
    w, Q = np.linalg.eig(orc.J)
    w[np.argmin(np.abs(w + 1.0))] = mode
    J = Q @ np.diag(w) @ np.linalg.inv(Q)
    orc = WeierstrassOracle(orc.T, orc.S, J, orc.N, k)
    E = orc.T @ scipy.linalg.block_diag(np.eye(n_s), orc.N) @ orc.S
    A = orc.T @ scipy.linalg.block_diag(J, np.eye(n_n)) @ orc.S
    return Pencil(E, A, omega_hint=0.0, name=f"mode({n_s},{n_n},{k})"), orc


def mixed_transport(n: int, m: int, seed: int) -> Pencil:
    """make_transport(n, m) with its rows mixed by a seeded unitary, as the
    benchmark draws it: the same solutions and singular values of
    lam E - A, but no zero or identity block left in E."""
    base = make_transport(n, m)
    nz = base.n_z
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(nz, nz))
                        + 1j * rng.normal(size=(nz, nz)))
    return Pencil(Q @ base.E, Q @ base.A, omega_hint=base.omega_hint,
                  name=base.name)
