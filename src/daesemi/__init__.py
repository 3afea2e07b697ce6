"""daesemi: linear DAE analysis and solvers via integrated semigroups.

The package treats the equation d/dt(E x) = A x + f through the matrix
pencil (E, A): resolvent-index estimation, Wong-type subspace
decompositions, closed-form solution of the nilpotent kernel part,
construction and verification of the p-times integrated semigroup, and
contour-inversion / convolution / quasi-Weierstrass-split solvers with
residual certification.
"""

from .errors import DaesemiError
from .generators import (WeierstrassOracle, make_hamiltonian, make_transport,
                         make_weierstrass)
from .kernel import (KernelRestriction, restrict_to_kernel,
                     solve_kernel_inhomogeneity)
from .laplace import (ContourConfig, bromwich_invert, contour_for,
                      forward_laplace)
from .pencil import (Chain, IndexReport, Pencil, SubspaceBasis, chain_index,
                     estimate_resolvent_index, left_resolvent, resolvent,
                     right_resolvent)
from .semigroup import (PropertyReport, SemigroupEvaluator, build_evaluator,
                        cp_semigroup, eval_S_l, eval_S_r, f_norm,
                        verify_properties)
from .signals import Signal, Term
from .solver import (Trajectory, cross_check, residual, solve_full,
                     solve_homogeneous, solve_inhomogeneous_ran)
from .subspaces import (DecompositionReport, DisjointnessFlags,
                        check_disjointness, hilbert_decomposition,
                        intersection_dim, principal_angles)

__version__ = "0.1.0"

__all__ = [
    "Chain", "ContourConfig", "DaesemiError", "DecompositionReport",
    "DisjointnessFlags", "IndexReport", "KernelRestriction", "Pencil",
    "PropertyReport", "SemigroupEvaluator", "Signal", "SubspaceBasis",
    "Term", "Trajectory", "WeierstrassOracle", "bromwich_invert",
    "build_evaluator", "chain_index", "check_disjointness", "contour_for",
    "cp_semigroup", "cross_check", "estimate_resolvent_index", "eval_S_l",
    "eval_S_r", "f_norm", "forward_laplace", "hilbert_decomposition",
    "intersection_dim", "left_resolvent", "make_hamiltonian",
    "make_transport", "make_weierstrass", "principal_angles", "residual",
    "resolvent", "restrict_to_kernel", "right_resolvent",
    "solve_full", "solve_homogeneous", "solve_inhomogeneous_ran",
    "solve_kernel_inhomogeneity", "verify_properties",
]
