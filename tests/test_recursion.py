"""Higher-genus engine: propagators, pairings, correlators, residuals."""

import gc
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from itertools import product as iproduct

import pytest

from kdv_oracle import free_energy_coefficient, psi_correlator

from anrec.genus0 import G0Solver, Profile, norm_factor
from anrec.recursion import (
    _MODE_SHIFT,
    _SIGN_SHIFT,
    DescendantSolver,
    _block_plans,
    _level_vectors,
    _pair_sets,
    _set_partitions,
    _w_min_degree,
    propagator,
    solve_recursion,
    w_residual,
)
from anrec.rootsys import RootData
from anrec.series import SparsePoly, Var, _unpack, weighted_sum


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


@pytest.mark.parametrize("N", range(1, 9))
def test_propagator_matches_literal_definition(N):
    # the inverse-free eta^d * D_d^2 against eta^(i+j) / (eta^i - eta^j)^2
    rd = RootData(N)
    for i in range(1, rd.h + 1):
        for j in range(1, rd.h + 1):
            if i != j:
                diff = rd.eta(i) - rd.eta(j)
                assert propagator(rd, i, j) == rd.eta(i + j) / (diff * diff), (N, i, j)


def test_propagator_rejects_labels_equal_mod_h():
    rd = RootData(3)  # h = 4
    for i, j in [(1, 5), (5, 1), (4, 8)]:
        with pytest.raises(ValueError, match=f"labels {i} and {j}"):
            propagator(rd, i, j)


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
        g0 = G0Solver(rd, Profile(N=N, m_in=0, D=5))
        for (m, a) in [(0, 1), (1, 1), (2, min(2, N))]:
            for d in (2, 3, 4):
                got = s.w_slice(0, (Var(m, a),), d).scale(
                    Fraction(norm_factor(rd.h, m, a)))
                assert got == g0.p_poly(m, a).homo_part(d)


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


def test_corrupted_genus0_slice_fails_the_cross_check(monkeypatch):
    # a consistent corruption of the top slice the potential reads: x_v^4
    # added to p_v keeps the mixed partials equal, so only the comparison
    # of the two genus-0 potentials can catch it
    from anrec.genus0 import G0Solver
    from anrec.recursion import ConsistencyError
    N, degree = 2, 5
    p_slice = G0Solver.p_slice
    key = (0, N, degree - 1)

    def corrupted(self, m, a, d):
        out = p_slice(self, m, a, d)
        return out + x(0, N) ** (degree - 1) if (m, a, d) == key else out

    monkeypatch.setattr(G0Solver, "p_slice", corrupted)
    with pytest.raises(ConsistencyError, match="genus-zero output disagrees"):
        solve_recursion(RootData(N), 0, degree, m_in=0)


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


def test_residual_negative_control():
    table = solve_recursion(RootData(2), 0, 5, m_in=0)
    delta = (x(0, 1) * x(0, 2)).scale(Fraction(1, 7))
    table.solver.perturb(0, (Var(0, 2),), 2, delta)
    res = w_residual(table, 2, 0, cap=3, genus_cap=0)
    assert not all(p.is_zero() for p in res.values())


def test_residual_report_shape(a2_table):
    from anrec.recursion import wconstraint_report
    rep = wconstraint_report(a2_table, 1, 0, 3)
    assert rep.passed and rep.witness is None
    assert rep.to_json() == {"claim": "constraint residual a=1 m=0", "lhs": None,
                             "rhs": None, "pass": True}


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


# -- the fused cluster walk ------------------------------------------------------

_SEEN = Counter()  # what the reference walk examined


def _reference_walk(self, units, grades, inputs):
    # the records of the full product of each unit's slot rows, with the
    # definition of a kept configuration applied at the leaf: the exponent
    # budget span = q - q_target is a multiple of h that leaves every
    # derivative mode a level >= 0, and one without derivative modes closes
    # on the spot (span 0, no pending direction, its pair count a grade in
    # range); the input count lies in `inputs`
    h, N = self.rd.h, self.rd.N
    lo, hi = inputs
    found = {}
    for q_target, (p, pool, rows, _, _, _, scalar, _) in units:
        for combo in iproduct(*rows):
            slack = sum(row[0] for row in combo)
            n = sum(row[1] for row in combo)
            tag = sum(row[2] for row in combo)
            dslots = tuple(b for b in range(1, N + 1)
                           for _ in range((tag >> (_MODE_SHIFT + 8 * b)) % 256))
            span = slack + h * len(dslots) - 2 * h * p - q_target
            if dslots:
                kept = span >= h * len(dslots)
            else:
                kept = span == 0 and not pool and p >= grades[0]
            kept = kept and lo <= n <= hi and span % h == 0
            _SEEN["examined"] += 1
            _SEEN["short"] += span < h * len(dslots)
            _SEEN["derivative-free rejected"] += not dslots and not kept
            if kept:
                sign = (-1) ** ((tag >> _SIGN_SHIFT) % (1 << 16))
                term = (scalar.rotate(tag % (1 << 16)), sign)
                monos = found.setdefault((len(dslots), len(pool), p, n), {}).setdefault(
                    (dslots, span // h, pool), {}).setdefault(term, Counter())
                monos[_unpack(tag >> self._key_shift)] += 1
    return {shape: {entry: {term: SparsePoly(None, monos) for term, monos in terms.items()}
                    for entry, terms in entries.items()}
            for shape, entries in found.items()}


def _kept(records):
    # how many configurations the records hold: every input count is 1 per
    # configuration, so the coefficients of the input sums add up to them
    return sum(sum(poly.num.values()) for entries in records.values()
               for terms in entries.values() for poly in terms.values())


@pytest.mark.parametrize("N, degree, m_in", [(1, 8, 1), (2, 6, 1), (3, 5, 0)])
def test_slot_pruning_changes_no_output(monkeypatch, N, degree, m_in):
    # the fused, pruned walk must leave the W-slice memo and every residual
    # (dilaton insertion on) exactly as the full product does, while keeping
    # fewer configurations than the full product examines, none whose
    # exponent budget leaves a derivative mode a negative level, and no
    # derivative-free one that misses its exponent target; residuals are
    # compared on the solved table and again after corrupting one genus-zero
    # slice, where they no longer vanish
    walk = DescendantSolver._walk
    kept = Counter()

    def counted(self, units, grades, inputs):
        records = walk(self, units, grades, inputs)
        kept["kept"] += _kept(records)
        for (u_d, _, _, _), entries in records.items():
            for (dslots, total_lv, pool), terms in entries.items():
                n = sum(sum(poly.num.values()) for poly in terms.values())
                kept["short"] += n * (total_lv < u_d)
                kept["derivative-free rejected"] += n * (not u_d and bool(total_lv or pool))
        return records

    monkeypatch.setattr(DescendantSolver, "_walk", counted)

    def residuals(table):
        return {(a, m): w_residual(table, a, m, cap=2)
                for a in range(1, N + 1) for m in (0, 1)}

    def solve(counts):
        counts.clear()
        table = solve_recursion(RootData(N), 2, degree, m_in=m_in)
        memo = dict(table.solver._w)
        clean = residuals(table)
        table.solver.perturb(0, (Var(0, N),), 2, (x(0, 1) * x(0, N)).scale(Fraction(1, 7)))
        return memo, clean, residuals(table), dict(counts)

    memo, clean, perturbed, pruned = solve(kept)
    monkeypatch.setattr(DescendantSolver, "_walk", _reference_walk)
    *full, seen = solve(_SEEN)
    assert full == [memo, clean, perturbed]
    assert seen["examined"] > pruned["kept"]
    assert pruned["short"] == 0 < seen["short"]
    # no kept configuration without a derivative mode misses its exponent
    # target or carries a pending direction
    assert pruned["derivative-free rejected"] == 0 < seen["derivative-free rejected"]
    assert any(not p.is_zero() for res in perturbed.values() for p in res.values())


@pytest.mark.parametrize("N, genus, degree, m_in",
                         [(1, 4, 10, 3), (2, 2, 6, 1), (3, 2, 5, 0), (4, 1, 4, 1)])
def test_fused_walk_matches_full_product(N, genus, degree, m_in):
    # the records of the fused walk equal those of the full product of the
    # slot rows, for every W-slice group's units over its first walk and over
    # an extension, and for the residual units of every label set; at rank 4
    # only units of at most three unpaired slots (12-13 rows each), and
    # groups over the extension alone, to keep the full products small
    table = solve_recursion(RootData(N), genus, degree, m_in=m_in)
    solver = table.solver
    cap = 3
    for a in range(1, N + 1):
        for m in (0, 1):
            w_residual(table, a, m, cap=cap)
    small = 3 if N == 4 else N + 1
    compared = Counter()
    for (g, dirs), (walked, _, units, _) in list(solver._groups.items()):
        units = [(q, unit) for q, unit in units if len(unit[2]) <= small]
        for inputs in ((0, walked), (walked // 2 + 1, walked))[N == 4:]:
            want = _reference_walk(solver, units, (g, g), inputs)
            assert solver._walk(units, (g, g), inputs) == want, (g, dirs, inputs)
            compared["group"] += _kept(want)
    residual_units = [(labels, units) for (labels, _, _, shift, _), units
                      in list(solver._cluster_units.items()) if shift]
    assert len(residual_units) == sum(math.comb(N + 1, r) for r in range(2, N + 2))
    for labels, units in residual_units:
        units = [unit for unit in units if len(unit[2]) <= small]
        for m in (0, 1):
            q_units = [(-(N + 1) * (1 + m), unit) for unit in units]
            want = _reference_walk(solver, q_units, (0, genus), (0, cap))
            assert solver._walk(q_units, (0, genus), (0, cap)) == want, (labels, m)
            compared["residual"] += _kept(want)
    assert compared["group"] > 0 and compared["residual"] > 0


def test_walk_leaves_no_reference_cycle():
    # every walk frees what it built as soon as it returns: with the cycle
    # collector off, a solve leaves nothing for it to find
    gc.disable()
    try:
        gc.collect()
        solve_recursion(RootData(3), 1, 5, m_in=1)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _singleton_parts(solver, units, g, d):
    # the parts of one walk and closing at the single grade g and degree d
    parts = []
    for grade, *part in solver._close(solver._walk(units, (g, g), (0, d)), (g, g), (d, d)):
        assert grade == g
        parts.append(part)
    return parts


def _residual_by_singletons(solver, a, m, cap, genus_cap):
    # the residual as one singleton-range walk per label set, grade and
    # degree, summed grade by grade
    rd = solver.rd
    h = rd.h
    out = {}
    for g in range(genus_cap + 1):
        parts = []
        for labels in combinations(range(1, h + 1), h + 1 - a):
            units = [(-h - m * h, unit)
                     for unit in solver._units(labels, g, (), True, rd.ctx.one)]
            for d in range(cap + 1):
                parts += _singleton_parts(solver, units, g, d)
        out[g] = weighted_sum(rd.ctx, parts)
    return out


@pytest.mark.parametrize("N, degree, m_in", [(1, 8, 1), (2, 6, 1), (3, 5, 0)])
def test_residual_walk_matches_singleton_sum(N, degree, m_in):
    # one walk over all grades and degrees gives, grade by grade, the sum of
    # the singleton-range walks, on the solved table and after corrupting one
    # slice per genus; there the residual is nonzero at every grade and at
    # both ends of the degree range
    cap = 3
    table = solve_recursion(RootData(N), 2, degree, m_in=m_in)
    solver = table.solver

    def compare():
        reached = set()
        for a in range(1, N + 1):
            for m in (0, 1):
                want = _residual_by_singletons(solver, a, m, cap, 2)
                for genus_cap in range(3):
                    got = solver.constraint_residual(a, m, cap, genus_cap)
                    assert got == {g: want[g] for g in range(genus_cap + 1)}, (a, m, genus_cap)
                for g, poly in want.items():
                    for mono in poly.terms:
                        reached.add(("grade", g))
                        reached.add(("degree", sum(e for _, e in mono)))
        return reached

    assert compare() == set()
    solver.perturb(0, (Var(0, N),), 2, (x(0, 1) * x(0, N)).scale(Fraction(1, 7)))
    solver.perturb(1, (Var(0, N),), 1, x(0, 1).scale(Fraction(1, 3)))
    solver.perturb(2, (Var(0, N),), 0, SparsePoly.constant(Fraction(1, 5)))
    reached = compare()
    assert {("grade", 0), ("grade", 1), ("grade", 2), ("degree", 0), ("degree", cap)} <= reached


# -- the per-group walk memo --------------------------------------------------------

def _slice_by_singletons(solver, g, dirs, d):
    # the W-slice as one singleton-range walk per label set, with nothing
    # kept between degrees
    rd = solver.rd
    h = rd.h
    m, a = dirs[0]
    parts = []
    for size in range(2, h + 1):
        q_target = -h - (h * (m + 1) - (a + size - 1))
        for labels in combinations(range(1, h + 1), size):
            ks = solver._kernel_scalar(labels, a)
            units = [(q_target, unit) for unit in solver._units(labels, g, dirs[1:], False, ks)]
            parts += _singleton_parts(solver, units, g, d)
    return weighted_sum(rd.ctx, parts).scale(Fraction(-1, h * norm_factor(h, m, a)))


_MEMO_CASES = [(1, 4, 10, 3), (2, 2, 6, 1), (3, 2, 5, 0)]


@pytest.mark.parametrize("N, genus, degree, m_in", _MEMO_CASES)
def test_group_memo_matches_singleton_walks(N, genus, degree, m_in):
    # every slice the incremental group walk filled equals the sum of the
    # singleton-range walks of its label sets
    from collections import Counter
    solver = solve_recursion(RootData(N), genus, degree, m_in=m_in).solver
    # some group's walk was extended at least twice
    assert max(Counter((g, dirs) for g, dirs, _ in solver._w).values()) >= 3
    for (g, dirs, d), value in list(solver._w.items()):
        assert value == _slice_by_singletons(solver, g, dirs, d), (g, dirs, d)


@pytest.mark.parametrize("N, genus, degree, m_in", _MEMO_CASES)
def test_group_memo_does_not_depend_on_request_order(monkeypatch, N, genus, degree, m_in):
    # the same keys asked in descending degree order, or shuffled, fill the
    # same memo; and in every order each group walks each of its
    # configurations once, so as many are kept as by the solve
    import random
    walk = DescendantSolver._walk
    kept = [0]

    def counted(self, *args):
        records = walk(self, *args)
        kept[0] += _kept(records)
        return records

    monkeypatch.setattr(DescendantSolver, "_walk", counted)
    memo = solve_recursion(RootData(N), genus, degree, m_in=m_in).solver._w
    walked = kept[0]
    descending = sorted(memo, key=lambda key: (-key[2], key))
    shuffled = sorted(memo)
    random.Random(19).shuffle(shuffled)
    for keys in (descending, shuffled):
        kept[0] = 0
        fresh = DescendantSolver(RootData(N), m_in=m_in)
        for key in keys:
            fresh.w_slice(*key)
        assert fresh._w == memo
        assert kept[0] == walked


def test_slices_filled_after_a_perturbation_read_it():
    # the walk of the group (1, (x_{0,2},)) is kept from degree 2 on; the
    # slices filled at higher degree after perturbing degree 2 read the new
    # value, as a walk from scratch does, and so differ from a clean solver's
    N, g, dirs = 2, 1, (Var(0, 2),)
    clean = DescendantSolver(RootData(N), m_in=1)
    solver = DescendantSolver(RootData(N), m_in=1)
    for d in range(3):
        solver.w_slice(g, dirs, d)
    solver.perturb(g, dirs, 2, (x(0, 2) ** 2).scale(Fraction(1, 7)))
    for d in range(3, 6):
        got = solver.w_slice(g, dirs, d)
        assert got == _slice_by_singletons(solver, g, dirs, d), d
        assert got != clean.w_slice(g, dirs, d), d


@pytest.mark.parametrize("m_in", [0, 1])
def test_fills_read_their_own_group_only_at_lower_degree(monkeypatch, m_in):
    # a closing of (g, dirs, d) reads (g, dirs, d') through the weight-zero
    # input x_{1,N} at m_in >= 1, always at d' < d; such a read may fill a
    # slice of the group while the outer closing iterates its records
    filling = []
    reads = {"lower": 0, "not lower": 0}
    w_rhs, w_slice = DescendantSolver._w_rhs, DescendantSolver.w_slice

    def traced_rhs(self, g, dirs, d):
        filling.append((g, dirs, d))
        try:
            return w_rhs(self, g, dirs, d)
        finally:
            filling.pop()

    def traced_slice(self, g, dirs, d):
        if filling and filling[-1][:2] == (g, tuple(sorted(dirs))):
            reads["lower" if d < filling[-1][2] else "not lower"] += 1
        return w_slice(self, g, dirs, d)

    monkeypatch.setattr(DescendantSolver, "_w_rhs", traced_rhs)
    monkeypatch.setattr(DescendantSolver, "w_slice", traced_slice)
    solve_recursion(RootData(2), 2, 6, m_in=m_in)
    assert reads["not lower"] == 0
    assert (reads["lower"] > 0) == (m_in > 0)


# -- derivative-block plans -------------------------------------------------------

@lru_cache(maxsize=None)
def _lex_compositions(total, parts, minimum):
    # every tuple of `parts` integers >= minimum summing to total, in
    # lexicographic order
    return [c for c in iproduct(range(minimum, max(total, 0) + 1), repeat=parts)
            if sum(c) == total]


def _nested_plans(u_d, n_pool, g_rem, rem_deg):
    # the five nested loops that closed every configuration before the
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
