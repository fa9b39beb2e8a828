"""Weighted homogeneity of both residue engines and the slice rule built on it.

With x_{m,a} of weight (a+1)/h - m, every monomial of F_g weighs
(2 + 2/h)(1 - g).  Both engines skip, on a memo miss, every slice that this
forces to zero; these tests check the rule against engines that run without
it, and the engines' own output against the theorem.
"""

from fractions import Fraction

import pytest

from anrec import genus0, recursion
from anrec.genus0 import G0Solver, Profile, _weight_allows, euler_weight, solve
from anrec.recursion import solve_recursion, w_residual
from anrec.rootsys import RootData
from anrec.series import SparsePoly, Var

# (N, genus cap, degree cap, m_in): ranks 1..4, genus <= 3, m_in <= 2
LADDER = [(1, 3, 10, 2), (2, 3, 7, 1), (2, 1, 6, 2), (3, 2, 6, 1), (4, 2, 5, 0), (4, 1, 4, 1)]


def x(m, a):
    return SparsePoly.variable(Var(m, a))


def _solve_both(N, genus_cap, degree, m_in):
    """(memo, output) of the higher-genus engine, then of the genus-zero engine."""
    table = solve_recursion(RootData(N), genus_cap, degree, m_in=m_in)
    profile = Profile(N=N, m_in=m_in, D=table.degree_caps[0])
    g0 = G0Solver(RootData(N), profile)
    ptable = {Var(m, a): g0.p_poly(m, a) for m in range(m_in + 1) for a in range(1, N + 1)}
    pot = solve(RootData(N), profile)
    return [(dict(table.solver._w), table.potentials),
            (dict(g0._slices), (pot.F, ptable))]


def _allow_all(N, m_in, g, dirs, d):
    return True


@pytest.mark.parametrize("N,genus_cap,degree,m_in", LADDER)
def test_weight_rule_hides_no_nonzero_slice(monkeypatch, N, genus_cap, degree, m_in):
    # the same solves with the rule switched off in both engines: every slice
    # the rule skipped is zero there, every slice it kept is equal, and so
    # are the potentials
    ruled = _solve_both(N, genus_cap, degree, m_in)
    monkeypatch.setattr(genus0, "_weight_allows", _allow_all)
    monkeypatch.setattr(recursion, "_weight_allows", _allow_all)
    full = _solve_both(N, genus_cap, degree, m_in)
    for (ruled_memo, ruled_out), (full_memo, full_out) in zip(ruled, full):
        assert all(full_memo.get(key) == value for key, value in ruled_memo.items())
        skipped = full_memo.keys() - ruled_memo.keys()
        assert skipped
        assert all(full_memo[key].is_zero() for key in skipped)
        assert ruled_out == full_out


@pytest.mark.parametrize("N,genus_cap,degree,m_in", LADDER)
def test_engine_slices_are_weighted_homogeneous(N, genus_cap, degree, m_in):
    # every monomial the engines store, in a slice at any genus or in a
    # potential, weighs (2 + 2/h)(1 - g) together with its directions
    h = N + 1
    (w_memo, potentials), (p_memo, _) = _solve_both(N, genus_cap, degree, m_in)
    slices = [(g, dirs, d, poly) for (g, dirs, d), poly in w_memo.items()]
    slices += [(0, (Var(m, a),), d, poly) for (m, a, d), poly in p_memo.items()]
    slices += [(g, (), None, poly) for g, poly in potentials.items()]
    checked = 0
    for g, dirs, d, poly in slices:
        target = Fraction(2 * h + 2, h) * (1 - g) - sum(euler_weight(h, v) for v in dirs)
        for mono in poly.terms:
            weight = sum((euler_weight(h, v) * e for v, e in mono), Fraction(0))
            assert weight == target, (g, dirs, d, mono)
            assert d is None or sum(e for _, e in mono) == d
            checked += 1
        # the rule let through every slice the engines stored
        assert d is None or _weight_allows(N, m_in, g, dirs, d)
    assert checked


def test_perturb_on_a_weight_ruled_key_is_read_back():
    # the rule runs after the memo read, so a corrupted slice the rule would
    # skip is still what later lookups, and the residuals, see
    table = solve_recursion(RootData(2), 1, 5)
    solver = table.solver
    # on the primary window F_1 has no monomial of weight 0 to hold
    key = (1, (Var(0, 1),), 1)
    assert not _weight_allows(2, 0, *key)
    assert key not in solver._w
    assert all(p.is_zero() for res in (w_residual(table, a, 0, cap=3) for a in (1, 2))
               for p in res.values())
    delta = x(0, 2).scale(Fraction(3, 7))
    solver.perturb(*key, delta)
    assert solver.w_slice(*key) == delta
    assert any(not p.is_zero() for res in (w_residual(table, a, 0, cap=3) for a in (1, 2))
               for p in res.values())
