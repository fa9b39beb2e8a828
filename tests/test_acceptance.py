"""Acceptance suite: one test per criterion, exact equality throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion with its runtime.  Every comparison is exact (zero tolerance);
the stated time limits are asserted.
"""

import random
import time
from fractions import Fraction
from itertools import product as iproduct

import pytest

from kdv_oracle import free_energy_coefficient

from anrec.combinatorics import (
    c_bracket,
    c_const,
    verify_cbracket_generating,
    verify_remove_n,
    verify_symc_generating,
)
from anrec.genus0 import Profile, euler_check, solve, wdvv_check
from anrec.recursion import DescendantSolver, solve_recursion, w_residual
from anrec.rootsys import RootData, cbracket_state, elem_sym_state, vandermonde_coeff
from anrec.series import SparsePoly, Var


def _report(number: int, name: str, t0: float, limit: float | None = None):
    elapsed = time.time() - t0
    print(f"ACCEPTANCE {number:2d} {name}: PASS ({elapsed:.2f}s)")
    if limit is not None:
        assert elapsed < limit, f"criterion {number} exceeded {limit}s"


def x(m, a):
    return SparsePoly.variable(Var(m, a))


def test_criterion_01_constants_golden():
    t0 = time.time()
    rd = RootData(3)
    ctx = rd.ctx
    eta = ctx.eta_pow(1)
    half = Fraction(1, 2)
    assert c_const(rd, (1, 1)) == ctx.zero
    assert c_const(rd, (2, 2)) == ctx.zero
    assert c_const(rd, (1, 2)) == ctx.from_rat(half)
    assert c_const(rd, (2, 1)) == ctx.from_rat(half)
    assert c_const(rd, (1, 3)) == (eta - 1) * half
    assert c_const(rd, (3, 1)) == (-eta - 1) * half
    assert c_const(rd, (1, 1, 1)) == ctx.from_rat(Fraction(-1, 4))
    _report(1, "constants golden h=4", t0, limit=1.0)


def test_criterion_02_a3_golden():
    t0 = time.time()
    pot = solve(RootData(3), Profile(N=3, m_in=0, D=5))
    t1, t2, t3 = x(0, 1), x(0, 2), x(0, 3)
    assert pot.ptable[Var(0, 3)] == t1 * t3 + (t2 ** 2).scale(Fraction(1, 2))
    assert pot.ptable[Var(0, 2)] == (t2 * t3).scale(2) - t1 ** 2 * t2
    assert pot.ptable[Var(0, 1)] == (t1 * t2 ** 2).scale(Fraction(-3, 2)) \
        + (t3 ** 2).scale(Fraction(3, 2)) + (t1 ** 4).scale(Fraction(1, 4))
    assert pot.F == (t1 * t3 ** 2 + t2 ** 2 * t3).scale(Fraction(1, 2)) \
        - (t1 ** 2 * t2 ** 2).scale(Fraction(1, 4)) \
        + (t1 ** 5).scale(Fraction(1, 60))
    _report(2, "A3 table and potential golden", t0, limit=10.0)


def test_criterion_03_state_bridge():
    t0 = time.time()
    for N in range(1, 6):  # h = 2 .. 6
        rd = RootData(N)
        assert elem_sym_state(rd, 1).is_zero()
        for r in range(2, rd.h + 1):
            assert cbracket_state(rd, r) == elem_sym_state(rd, r), (rd.h, r)
    _report(3, "bracket state equals elementary state, h = 2..6", t0, limit=60.0)


def test_criterion_04_remove_top_index():
    t0 = time.time()
    for N in range(2, 8):  # h = 3 .. 8
        rd = RootData(N)
        rng = random.Random(1000 + rd.h)
        seen_boundary = seen_vanishing = False
        for _ in range(200):
            blen = rng.randint(1, min(3, rd.N - 1))
            b = tuple(sorted(rng.randint(1, rd.N - 1) for _ in range(blen)))
            bound = sum(b) % rd.h
            m = rng.choice([rng.randint(0, bound + 2), bound, bound + 1])
            seen_boundary |= m == bound
            seen_vanishing |= m > bound
            rep = verify_remove_n(rd, b, m)
            assert rep.passed, rep.claim
            if m > bound:
                assert c_bracket(rd, b + (rd.N,) * m).is_zero()
        assert seen_boundary and seen_vanishing
    _report(4, "remove-top-index identity, 200 cases per h = 3..8", t0)


def test_criterion_05_generating_identities():
    t0 = time.time()
    for N in range(2, 6):  # h = 3 .. 6
        rd = RootData(N)
        for r in (1, 2, 3):
            for tup in iproduct(range(1, rd.N), repeat=r):
                rep = verify_symc_generating(rd, tup)
                assert rep.passed, rep.claim
                rep = verify_cbracket_generating(rd, tuple(sorted(tup)))
                assert rep.passed, rep.claim
    _report(5, "generating identities, tuples of length <= 3, h = 3..6", t0)


def test_criterion_06_vandermonde():
    t0 = time.time()
    for N in range(1, 12):  # h = 2 .. 12
        rd = RootData(N)
        rng = random.Random(2000 + rd.h)
        for _ in range(100):
            r = rng.randint(1, rd.h)
            idx = tuple(sorted(rng.sample(range(1, rd.h + 1), r)))
            assert vandermonde_coeff(rd, idx) == rd.ctx.one, (rd.h, idx)
    _report(6, "vandermonde coefficient = 1, 100 cases per h = 2..12", t0)


def test_criterion_07_structural_checks():
    t0 = time.time()
    pots = {}
    for N, D in ((2, 6), (3, 5), (4, 6)):
        pot = solve(RootData(N), Profile(N=N, m_in=0, D=D))
        assert pot.checks["wdvv"].passed, N
        assert pot.checks["euler"].passed, N
        pots[N] = (pot, D)
    # negative controls on the quintic potential
    pot3, D3 = pots[3]
    doubled = SparsePoly(None, dict(pot3.F.terms))
    key = ((Var(0, 1), 2), (Var(0, 2), 2))
    doubled = doubled + SparsePoly(None, {key: pot3.F.terms[key]})
    assert euler_check(3, doubled).passed  # still homogeneous
    assert not wdvv_check(3, doubled, D3).passed
    assert not euler_check(3, pot3.F + x(0, 2) ** 3).passed
    _report(7, "wdvv and euler pass, N = 2..4; controls fail", t0)


def test_criterion_08_cross_path_genus0():
    t0 = time.time()
    for N in (1, 2, 3):
        rd = RootData(N)
        table = solve_recursion(rd, 0, 5, m_in=0)
        direct = solve(rd, Profile(N=N, m_in=0, D=5))
        assert table.potentials[0] == direct.F, N
    a1 = solve_recursion(RootData(1), 0, 5, m_in=0)
    assert a1.potentials[0] == (x(0, 1) ** 3).scale(Fraction(1, 6))
    _report(8, "two genus-0 engines agree, N <= 3, D <= 5", t0)


def test_criterion_09_a1_genus1_vs_oracle():
    t0 = time.time()
    table = solve_recursion(RootData(1), 1, 5, m_in=2)
    # x_k relates to the tau-function time T_k by T_k = (2k-1)!! x_k,
    # the level rescaling of the one-variable slot family; the genus-0
    # coefficients calibrate it and genus 1 is then a parameter-free match.
    for g in (0, 1):
        poly = table.potentials[g]
        assert not poly.is_zero()
        for mono, coeff in poly.terms.items():
            exps = {v.m: e for v, e in mono}
            assert coeff == free_energy_coefficient(g, exps), (g, mono)
    # spot values, frozen: <tau_1>_1 = 1/24 and the dilaton square 1/48
    f1 = table.potentials[1]
    assert f1.coefficient(((Var(1, 1), 1),)) == Fraction(1, 24)
    assert f1.coefficient(((Var(1, 1), 2),)) == Fraction(1, 48)
    # oracle side confirms nothing is missing at low order
    assert free_energy_coefficient(1, {0: 1, 2: 1}) == \
        f1.coefficient(((Var(0, 1), 1), (Var(2, 1), 1)))
    _report(9, "A1 genus-1 matches string/dilaton oracle", t0, limit=300.0)


def test_criterion_10_constraint_residuals():
    t0 = time.time()
    table = solve_recursion(RootData(2), 1, 6, m_in=1)
    for a in (1, 2):
        for m in (0, 1, 2):
            res = w_residual(table, a, m, cap=4, genus_cap=1)
            for g, poly in res.items():
                assert poly.is_zero(), (a, m, g, str(poly))
    # perturbed table: corrupt one genus-0 slice and watch a residual appear
    bad = solve_recursion(RootData(2), 1, 6, m_in=1)
    bad.solver.perturb(0, (Var(0, 2),), 2,
                       (x(0, 1) * x(0, 2)).scale(Fraction(1, 7)))
    res = w_residual(bad, 2, 0, cap=4, genus_cap=1)
    assert not all(p.is_zero() for p in res.values())
    _report(10, "constraint residuals vanish, N=2, m <= 2, genus <= 1", t0,
            limit=300.0)
