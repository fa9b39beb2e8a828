"""Exact residue recursion for type-A singularity free energies.

Computes the genus-by-genus free energies of the x^(N+1)/(N+1) singularity
over exact cyclotomic arithmetic, and machine-verifies the combinatorial
identities behind the recursion's reformulation as symmetric-state
constraints.
"""

from .exactnum import CycContext, CycScalar, NotRationalError, Rat, cyc_context, cyclotomic_poly
from .series import LambdaSeries, SparsePoly, Var, YPoly
from .rootsys import RootData, SymState, cbracket_state, chi, elem_sym_state, pairing, vandermonde_coeff
from .combinatorics import (
    c_bracket,
    c_const,
    sym_c,
    verify_cbracket_generating,
    verify_remove_n,
    verify_symc_generating,
)
from .genus0 import PotentialG0, Profile, euler_check, rhs_residue, solve, split_n_a0, wdvv_check
from .recursion import DescendantSolver, PotentialTable, propagator, solve_recursion, w_residual

__version__ = "0.1.0"
