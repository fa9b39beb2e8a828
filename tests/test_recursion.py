"""Higher-genus engine: propagators, pairings, correlators, residuals."""

from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct

import pytest

from kdv_oracle import free_energy_coefficient, psi_correlator

from anrec.genus0 import Profile, solve
from anrec.recursion import (
    ConsistencyError,
    DescendantSolver,
    _block_plans,
    _level_vectors,
    _pair_sets,
    _set_partitions,
    _w_min_degree,
    gamma_propagator,
    propagator,
    solve_recursion,
    w_residual,
)
from anrec.rootsys import RootData
from anrec.series import SparsePoly, Var


def x(m, a):
    return SparsePoly.variable(Var(m, a))


# -- propagators and pairings ---------------------------------------------------

def test_propagator_values():
    rd = RootData(1)
    assert propagator(rd, 1, 2) == rd.ctx.from_rat(Fraction(-1, 4))
    rd4 = RootData(3)
    assert propagator(rd4, 1, 3) == rd4.ctx.from_rat(Fraction(-1, 4))
    for (i, j) in [(1, 2), (2, 4), (1, 4)]:
        assert propagator(rd4, i, j) == propagator(rd4, j, i)
    with pytest.raises(ValueError):
        propagator(rd4, 2, 2)


def test_gamma_propagator_expands_to_label_propagator():
    # bilinear expansion over chi = sum eta^(-ia) gamma_a matches the
    # closed-form label propagator
    for N in (1, 2, 3, 4):
        rd = RootData(N)
        for i in range(1, rd.h + 1):
            for j in range(1, rd.h + 1):
                if i == j:
                    continue
                acc = rd.ctx.zero
                for a in range(1, rd.N + 1):
                    for b in range(1, rd.N + 1):
                        q = gamma_propagator(rd, a, b)
                        if not q.is_zero():
                            acc = acc + rd.eta(-i * a - j * b) * q
                assert acc == propagator(rd, i, j)


def _pair_count(r: int) -> int:
    # telephone numbers: involutions of r labels
    import math
    total = 0
    for s in range(r // 2 + 1):
        total += math.factorial(r) // (math.factorial(s) * 2 ** s
                                       * math.factorial(r - 2 * s))
    return total


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_wick_term_counts(r):
    # the cluster expansion's pairing enumerator gives one Wick term per
    # set of disjoint pairs of the r slots
    pair_sets = _pair_sets(tuple(range(1, r + 1)))
    assert len(pair_sets) == _pair_count(r)
    assert sum(1 for pairs in pair_sets if not pairs) == 1
    if r >= 2:
        assert sum(1 for pairs in pair_sets if len(pairs) == 1) \
            == r * (r - 1) // 2


# -- correlators ---------------------------------------------------------------

def test_w_slices_match_genus0_engine():
    from anrec.genus0 import norm_factor
    for N in (1, 2, 3):
        rd = RootData(N)
        s = DescendantSolver(rd, m_in=0)
        pot = solve(rd, Profile(N=N, m_in=0, D=5), m_out=2)
        for (m, a) in [(0, 1), (1, 1), (2, min(2, N))]:
            for d in (2, 3, 4):
                got = s.w_slice(0, (Var(m, a),), d).scale(
                    Fraction(norm_factor(rd.h, m, a)))
                assert got == pot.ptable[Var(m, a)].homo_part(d)


def test_w_slice_mixed_partial_symmetry():
    rd = RootData(2)
    s = DescendantSolver(rd, m_in=1)
    v, w = Var(0, 1), Var(1, 2)
    for d in (1, 2, 3):
        assert s.w_slice(0, (v,), d + 1).diff(w) == s.w_slice(0, (w,), d + 1).diff(v)
    # derivative of a one-point slice in a tracked direction equals the
    # two-point slice
    got = s.w_slice(0, (v, w), 2)
    assert got == s.w_slice(0, (v,), 3).diff(w)


def test_genus1_anchor_one_twentyfourth():
    rd = RootData(1)
    s = DescendantSolver(rd, m_in=0)
    assert s.w_slice(1, (Var(1, 1),), 0) == SparsePoly.constant(Fraction(1, 24))


def test_solve_matches_direct_engine_and_a1_cubic():
    table = solve_recursion(RootData(1), 0, 5, m_in=0)
    assert table.potentials[0] == (x(0, 1) ** 3).scale(Fraction(1, 6))
    # solve_recursion compares the engines at genus 0; exercise N = 2, 3 too
    for N in (2, 3):
        solve_recursion(RootData(N), 0, 5, m_in=0)


def test_a1_descendant_free_energies_match_oracle():
    table = solve_recursion(RootData(1), 1, 5, m_in=2)
    f0, f1 = table.potentials[0], table.potentials[1]
    # genus zero through degree 5, all monomials in levels <= 2
    for mono, coeff in f0.terms.items():
        exps = {v.m: e for v, e in mono}
        assert coeff == free_energy_coefficient(0, exps), mono
    # and the oracle finds nothing the engine missed
    assert f0.coefficient(((Var(0, 1), 3),)) == Fraction(1, 6)
    assert f0.coefficient(((Var(0, 1), 4), (Var(2, 1), 1))) == Fraction(1, 8)
    # genus one through degree 3
    expected = {
        ((Var(1, 1), 1),): Fraction(1, 24),
        ((Var(1, 1), 2),): Fraction(1, 48),
        ((Var(0, 1), 1), (Var(2, 1), 1)): Fraction(1, 8),
        ((Var(1, 1), 3),): Fraction(1, 72),
        ((Var(0, 1), 1), (Var(1, 1), 1), (Var(2, 1), 1)): Fraction(1, 4),
    }
    assert f1.terms == expected
    for mono, coeff in expected.items():
        exps = {v.m: e for v, e in mono}
        assert free_energy_coefficient(1, exps) == coeff


def test_oracle_sanity():
    assert psi_correlator(0, (0, 0, 0)) == 1
    assert psi_correlator(0, (0, 0, 0, 1)) == 1
    assert psi_correlator(1, (1,)) == Fraction(1, 24)
    assert psi_correlator(1, (0, 2)) == Fraction(1, 24)
    assert psi_correlator(1, (1, 1)) == Fraction(1, 24)
    assert psi_correlator(1, (0, 1, 2)) == Fraction(1, 12)
    assert psi_correlator(1, (1, 1, 1)) == Fraction(1, 12)


# -- constraint residuals --------------------------------------------------------

@pytest.fixture(scope="module")
def a2_table():
    return solve_recursion(RootData(2), 1, 6, m_in=1)


def test_residuals_vanish_a2(a2_table):
    for a in (1, 2):
        for m in (0, 1, 2):
            res = w_residual(a2_table, a, m, cap=3, genus_cap=1)
            assert set(res) == {0, 1}
            assert all(p.is_zero() for p in res.values()), (a, m)


def test_residual_gamma_route_agrees(a2_table):
    for a in (1, 2):
        res = w_residual(a2_table, a, 0, cap=3, genus_cap=1, basis="gamma")
        assert all(p.is_zero() for p in res.values())


def test_residual_negative_control():
    table = solve_recursion(RootData(2), 0, 5, m_in=0)
    delta = (x(0, 1) * x(0, 2)).scale(Fraction(1, 7))
    table.solver.perturb(0, (Var(0, 2),), 2, delta)
    res = w_residual(table, 2, 0, cap=3, genus_cap=0)
    assert not all(p.is_zero() for p in res.values())


def test_residual_report_shape(a2_table):
    from anrec.recursion import wconstraint_report
    rep = wconstraint_report(a2_table, 1, 0, 3)
    assert rep["pass"] and rep["residual_terms"] == []
    assert rep["N"] == 2 and rep["cap"] == 3


def test_table_json(a2_table):
    data = a2_table.to_json()
    assert data["n"] == 2 and "1" in data["potentials"]
    assert any("constant term undetermined" in note for note in data["notes"])


def test_genus2_classical_values():
    # one- and two-point psi-class intersection numbers at genus two,
    # scaled by the level factors (2k-1)!! of the variable dictionary:
    # <tau4> = 1/1152, <tau5 tau0> = 1/1152, <tau4 tau1> = 1/384,
    # <tau3 tau2> = 29/5760
    s = DescendantSolver(RootData(1), m_in=0)
    assert s.w_slice(2, (Var(4, 1),), 0) == SparsePoly.constant(Fraction(35, 384))
    assert s.w_slice(2, (Var(0, 1), Var(5, 1)), 0) \
        == SparsePoly.constant(Fraction(105, 128))
    assert s.w_slice(2, (Var(1, 1), Var(4, 1)), 0) \
        == SparsePoly.constant(Fraction(35, 128))
    assert s.w_slice(2, (Var(2, 1), Var(3, 1)), 0) \
        == SparsePoly.constant(Fraction(29, 128))


def _corr(s, ks):
    # correlator extracted from a constant multi-derivative slice, undoing
    # the (2k-1)!! variable dictionary
    from kdv_oracle import double_factorial_odd
    dirs = tuple(Var(k, 1) for k in ks)
    poly = s.w_slice(2, dirs, 0)
    val = poly.coefficient(())
    for k in ks:
        val /= double_factorial_odd(k)
    return val


def test_genus2_string_and_dilaton_axioms():
    s = DescendantSolver(RootData(1), m_in=0)
    # string: <tau_0 tau_3 tau_3> = 2 <tau_2 tau_3>
    assert _corr(s, (0, 3, 3)) == 2 * _corr(s, (2, 3))
    # string: <tau_0 tau_2 tau_4> = <tau_1 tau_4> + <tau_2 tau_3>
    assert _corr(s, (0, 2, 4)) == _corr(s, (1, 4)) + _corr(s, (2, 3))
    # dilaton: <tau_1 X> = (2g - 2 + n) <X> at g = 2
    assert _corr(s, (1, 2, 3)) == 4 * _corr(s, (2, 3))
    assert _corr(s, (1, 4)) == 3 * _corr(s, (4,))
    # genus-2 window in tau_0, tau_1 alone is empty by dimension count
    table = solve_recursion(RootData(1), 2, 8, m_in=1)
    assert table.potentials[2].is_zero()


def test_residuals_vanish_a3():
    table = solve_recursion(RootData(3), 1, 5, m_in=0)
    for a in (1, 2, 3):  # states of degree 4, 3, 2
        res = w_residual(table, a, 0, cap=3, genus_cap=1)
        assert all(p.is_zero() for p in res.values()), a


def test_genus2_residuals_vanish():
    table = solve_recursion(RootData(1), 2, 8, m_in=1)
    for m in (0, 1, 2):
        res = w_residual(table, 1, m, cap=2, genus_cap=2)
        assert all(p.is_zero() for p in res.values()), m


def test_negative_genus_cap_rejected():
    with pytest.raises(ValueError):
        solve_recursion(RootData(2), -1, 5)


def test_mixed_basis_pairing_rejected():
    rd = RootData(2)
    s = DescendantSolver(rd)
    with pytest.raises(ConsistencyError):
        s._pair_value(("chi", 1), ("gamma", 1))


# -- pruned cluster enumeration ------------------------------------------------------

def _full_product(self, choice_lists, max_inputs, q_residue, closed):
    return iproduct(*choice_lists)


@pytest.mark.parametrize("N, degree, m_in", [(1, 8, 1), (2, 6, 1), (3, 5, 0)])
def test_slot_pruning_changes_no_output(monkeypatch, N, degree, m_in):
    # the pruned slot product must leave the W-slice memo and every residual
    # (dilaton insertion on, both bases) exactly as the full product does,
    # while handing fewer configurations to _finish, none whose exponent
    # budget leaves a derivative mode a negative level, and no derivative-free
    # one that _finish rejects; residuals are
    # compared on the solved table and again after corrupting one genus-zero
    # slice, where they no longer vanish
    finish = DescendantSolver._finish
    seen = [0]
    short = [0]
    dfree_rejected = [0]

    def counted(self, combo, pair_scalar, q_pairs, pool, g_rem, q_target, d_target):
        seen[0] += 1
        h = self.rd.h
        slack = sum(dq - h * (kind == "d") for kind, _, _, dq, _ in combo)
        short[0] += slack < q_target - q_pairs
        out = finish(self, combo, pair_scalar, q_pairs, pool, g_rem, q_target, d_target)
        if all(kind != "d" for kind, *_ in combo):
            out = list(out)
            dfree_rejected[0] += not out
        return out

    monkeypatch.setattr(DescendantSolver, "_finish", counted)

    def residuals(table):
        return {(basis, a, m): w_residual(table, a, m, cap=2, basis=basis)
                for basis in ("chi", "gamma")
                for a in range(1, N + 1) for m in (0, 1)}

    def solve():
        seen[0] = short[0] = dfree_rejected[0] = 0
        table = solve_recursion(RootData(N), 2, degree, m_in=m_in)
        memo = dict(table.solver._w)
        clean = residuals(table)
        table.solver.perturb(0, (Var(0, N),), 2, (x(0, 1) * x(0, N)).scale(Fraction(1, 7)))
        return memo, clean, residuals(table), seen[0], short[0], dfree_rejected[0]

    memo, clean, perturbed, pruned_count, pruned_short, pruned_dfree = solve()
    monkeypatch.setattr(DescendantSolver, "_slot_combos", _full_product)
    *full, full_count, full_short, full_dfree = solve()
    assert full == [memo, clean, perturbed]
    assert full_count > pruned_count
    assert pruned_short == 0 < full_short
    # no configuration without a derivative mode reaches _finish only to be
    # rejected there
    assert pruned_dfree == 0 < full_dfree
    assert any(not p.is_zero() for res in perturbed.values() for p in res.values())


# -- derivative-block plans -------------------------------------------------------

@lru_cache(maxsize=None)
def _lex_compositions(total, parts, minimum):
    # every tuple of `parts` integers >= minimum summing to total, in
    # lexicographic order
    return [c for c in iproduct(range(minimum, max(total, 0) + 1), repeat=parts)
            if sum(c) == total]


def _nested_plans(u_d, n_pool, g_rem, rem_deg):
    # the five nested loops _finish ran for every configuration before the
    # plans were memoised, with the minimum-degree filter applied after the
    # degree vector was generated
    out = []
    for partition in _set_partitions(tuple(range(u_d))):
        nb = len(partition)
        genus_total = g_rem - u_d + nb
        if genus_total < 0:
            continue
        for pool_assign in iproduct(range(nb), repeat=n_pool):
            sizes = [len(block) + pool_assign.count(b) for b, block in enumerate(partition)]
            for gvec in _lex_compositions(genus_total, nb, 0):
                min_deg = [_w_min_degree(gb, sz) for gb, sz in zip(gvec, sizes)]
                if sum(min_deg) > rem_deg:
                    continue
                for dvec in _lex_compositions(rem_deg, nb, 0):
                    if any(db < md for db, md in zip(dvec, min_deg)):
                        continue
                    out.append((partition, pool_assign, gvec, dvec))
    return out


def test_block_plans_match_nested_loops():
    nonempty = 0
    for u_d in range(5):
        for total_lv in range(9):
            want = [tuple(c - 1 for c in comp)
                    for comp in _lex_compositions(total_lv, u_d, 1)]
            assert list(_level_vectors(total_lv, u_d)) == want, (total_lv, u_d)
        for n_pool in range(3):
            for g_rem in range(5):
                for rem_deg in range(7):
                    want = _nested_plans(u_d, n_pool, g_rem, rem_deg)
                    got = list(_block_plans(u_d, n_pool, g_rem, rem_deg))
                    assert got == want, (u_d, n_pool, g_rem, rem_deg)
                    nonempty += bool(want)
    assert nonempty > 100
