"""Genus-zero engine: golden potentials, structural checks, negative controls."""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anrec.combinatorics import sym_c
from anrec.genus0 import (
    G0Solver,
    Profile,
    euler_check,
    euler_potential,
    mixed_partials,
    solve,
    split_n_a0,
    wdvv_check,
)
from anrec.rootsys import RootData
from anrec.series import SparsePoly, Var


def x(m, a):
    return SparsePoly.variable(Var(m, a))


def test_split_examples():
    assert split_n_a0(2, 1, (1,)) == (-2, 1)
    assert split_n_a0(4, 3, (2,)) == (-2, 2)
    assert split_n_a0(4, 2, (1, 1)) == (-2, 2)
    assert split_n_a0(4, 3, (1, 2, 2)) == (-3, 1)
    # a0 = 0 exactly when a + r + sum is divisible by h
    for a in (1, 2, 3):
        for tup in [(1,), (2,), (1, 1), (3, 3)]:
            n, a0 = split_n_a0(4, a, tup)
            assert (a0 == 0) == ((a + len(tup) + sum(tup)) % 4 == 0)
            assert 0 <= a0 <= 3
            assert n * 4 + a0 == -(a + len(tup) + sum(tup))


@pytest.fixture(scope="module")
def a3_potential():
    return solve(RootData(3), Profile(N=3, m_in=0, D=5))


def test_a3_golden_table(a3_potential):
    t1, t2, t3 = x(0, 1), x(0, 2), x(0, 3)
    pot = a3_potential
    assert pot.ptable[Var(0, 3)] == t1 * t3 + (t2 * t2).scale(Fraction(1, 2))
    assert pot.ptable[Var(0, 2)] == (t2 * t3).scale(2) - t1 * t1 * t2
    assert pot.ptable[Var(0, 1)] == (t1 * t2 * t2).scale(Fraction(-3, 2)) \
        + (t3 * t3).scale(Fraction(3, 2)) + (t1 * t1 * t1 * t1).scale(Fraction(1, 4))


def test_a3_golden_potential(a3_potential):
    t1, t2, t3 = x(0, 1), x(0, 2), x(0, 3)
    expect = (t1 * t3 * t3 + t2 * t2 * t3).scale(Fraction(1, 2)) \
        - (t1 * t1 * t2 * t2).scale(Fraction(1, 4)) \
        + (t1 * t1 * t1 * t1 * t1).scale(Fraction(1, 60))
    assert a3_potential.F == expect
    assert a3_potential.checks["wdvv"].passed
    assert a3_potential.checks["euler"].passed


def test_a1_potential_is_cubic():
    pot = solve(RootData(1), Profile(N=1, m_in=0, D=6))
    assert pot.F == (x(0, 1) * x(0, 1) * x(0, 1)).scale(Fraction(1, 6))


def test_a2_matches_unfolding_oracle():
    # residue pairing of the cubic unfolding x^3/3 + s1 x + s2 gives
    # F_111 = -t1, F_122 = 1, all other third derivatives 0 at the origin
    pot = solve(RootData(2), Profile(N=2, m_in=0, D=4))
    t1, t2 = x(0, 1), x(0, 2)
    expect = (t1 * t2 * t2).scale(Fraction(1, 2)) \
        - (t1 * t1 * t1 * t1).scale(Fraction(1, 24))
    assert pot.F == expect


def test_phi0_primary_shape():
    rd = RootData(3)
    profile = Profile(3, 0, 5)
    pot = solve(rd, profile)
    solver = G0Solver(rd, profile)
    for a in (1, 2, 3):
        series = solver._phi(a, 0, profile.D)
        assert series.coefficient(0) == x(0, a)
        assert series.coefficient(-rd.h) == pot.ptable[Var(0, rd.h - a)]
    # below degree 2 no table slice exists: the pure input part is left
    bare = solver._phi(2, 0, 1)
    assert list(bare.terms) == [0]


def _full_slot_product(solver, key):
    # the fields multiplied in every lambda slot, then the slot _rhs reads
    slots, tail_max, factor_cap, prod_cap = key
    factors = [solver._phi(a, tail_max, factor_cap) for a in slots]
    prod = factors[0]
    for f in factors[1:]:
        prod = prod.mul_capped(f, prod_cap)
    q_t = -(tail_max + 1 - (len(slots) - 1) * solver.profile.m_in) * solver.rd.h
    return prod.coefficient(q_t).homo_part(prod_cap)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
@pytest.mark.parametrize("m_in", [0, 1, 2])
def test_windowed_slot_products_match_full_products(N, m_in):
    # every memoised slot product equals the full product read at q_t; the
    # right side is read again from the same memo, so the comparison with the
    # table only shows that re-reading a solved slice gives the stored one
    rd = RootData(N)
    profile = Profile(N=N, m_in=m_in, D=5)
    solver = G0Solver(rd, profile)
    table = {Var(m, a): solver.p_poly(m, a)
             for m in range(m_in + 2) for a in range(1, N + 1)}
    for m in range(m_in + 1):
        for a in range(1, N + 1):
            for d in range(2, 6):
                assert solver._rhs(m, a, d) == table[Var(m, a)].homo_part(d)
    assert solver._products
    for key, part in solver._products.items():
        assert part == _full_slot_product(solver, key), key
    assert any(not part.is_zero() for part in solver._products.values())


# -- the potential assembly both engines share ----------------------------------

_VARS = [Var(0, 1), Var(0, 2), Var(1, 1)]


def _potentials():
    # rational polynomials of degree 1..5 in three slots, no constant term
    mono = st.lists(st.tuples(st.sampled_from(_VARS), st.integers(1, 2)),
                    min_size=1, max_size=3)
    rat = st.fractions(min_value=-3, max_value=3, max_denominator=4)

    def build(items):
        monos = []
        for factors, c in items:
            exps: dict = {}
            for v, e in factors:
                exps[v] = exps.get(v, 0) + e
            monos.append((tuple(sorted(exps.items())), c))
        return SparsePoly.from_terms(None, monos)
    return st.lists(st.tuples(mono, rat), max_size=6).map(build)


@settings(max_examples=80, deadline=None)
@given(F=_potentials(), cap=st.integers(0, 7))
def test_euler_potential_inverts_the_gradient(F, cap):
    def one_point(v, d):
        return F.diff(v).homo_part(d)
    assert euler_potential(_VARS, one_point, cap) == F.up_to_degree(cap)
    assert mixed_partials(_VARS, one_point, cap).passed


def test_mixed_partials_names_the_failing_pair_and_degree():
    # x_{0,2} * t1 is no gradient: d/dx_{0,2} of the t1 slice is t1, but
    # d/dt1 of the x_{0,2} slice is 0
    v, w = Var(0, 1), Var(0, 2)
    family = {v: x(0, 1) * x(0, 2), w: SparsePoly.zero(), Var(1, 1): SparsePoly.zero()}

    def one_point(u, d):
        return family[u].homo_part(d)
    rep = mixed_partials(_VARS, one_point, 3)
    assert not rep.passed
    # the degree is that of the disagreeing second derivatives
    assert rep.witness == {"pair": [[0, 1], [0, 2]], "degree": 1}
    assert rep.lhs == x(0, 1).to_json()
    assert rep.rhs == SparsePoly.zero().to_json()
    # a cap of 2 compares the degree-0 second derivatives only
    assert mixed_partials(_VARS, one_point, 2).passed


def _brute_sym_c(ctx, h, mu):
    # sum over distinct arrangements of mu and increasing j_1 < ... < j_r of
    # prod eta^(-j_s a_s) / (1 - eta^(j_s)), straight from the definition
    total = ctx.zero
    for arr in set(permutations(mu)):
        for js in combinations(range(1, h), len(mu)):
            term = ctx.one
            for j, a in zip(js, arr):
                term = term * ctx.eta_pow(-j * a) / (ctx.one - ctx.eta_pow(j))
            total = total + term
    return total


@pytest.mark.parametrize("h", [2, 3, 4, 5, 6])
def test_multiset_weights_are_symc(h):
    rd = RootData(h - 1)
    weights = G0Solver(rd, Profile(h - 1, 0, 3)).multiset_weights()
    seen = 0
    for r in range(1, h):
        for mu in combinations_with_replacement(range(1, h), r):
            brute = _brute_sym_c(rd.ctx, h, mu)
            if brute.is_zero():
                assert mu not in weights
                continue
            seen += 1
            assert weights[mu] == brute == sym_c(rd, mu)
    # nothing else: every key is a sorted multiset of size 1..h-1
    assert len(weights) == seen


def test_descendant_profile_lowest_orders():
    # with one descendant level on, the table gains level-weighted terms
    pot = solve(RootData(1), Profile(N=1, m_in=1, D=4), m_out=1)
    t, s = x(0, 1), x(1, 1)
    # dF/dx_0 slice: t^2/2 plus descendant dressing t^2 s/couplings
    p0 = pot.ptable[Var(0, 1)]
    assert p0.homo_part(2) == (t * t).scale(Fraction(1, 2))
    # tau_1 dilaton dressing: <tau_0^3 tau_1> = 1 gives F ~ t^3 s / 6
    assert pot.F.homo_part(4).coefficient(((Var(0, 1), 3), (Var(1, 1), 1))) \
        == Fraction(1, 6)


def test_wdvv_negative_control(a3_potential):
    # rescale the quartic coupling: Euler-homogeneous but not associative
    bad = SparsePoly.zero()
    for mono, c in a3_potential.F.terms.items():
        if mono == ((Var(0, 1), 2), (Var(0, 2), 2)):
            c = c * 2
        bad = bad + SparsePoly(None, {mono: c})
    assert euler_check(3, bad).passed
    assert not wdvv_check(3, bad, 5).passed


def test_euler_negative_control(a3_potential):
    bad = a3_potential.F + x(0, 2) ** 3
    rep = euler_check(3, bad)
    assert not rep.passed
    assert rep.witness  # offending monomial is reported


def test_euler_weights_of_golden_monomials(a3_potential):
    # every monomial of the quintic potential has weight 5/2
    rep = euler_check(3, a3_potential.F)
    assert rep.passed


def test_wdvv_vacuous_for_rank_one():
    pot = solve(RootData(1), Profile(N=1, m_in=0, D=5))
    assert wdvv_check(1, pot.F, 5).passed


def test_potential_json_round_trip(a3_potential):
    data = a3_potential.to_json()
    assert data["n"] == 3 and data["degree"] == 5
    back = SparsePoly.from_json(data["f"])
    assert back == a3_potential.F


def test_potential_derivatives_reproduce_table(a3_potential):
    from anrec.genus0 import norm_factor
    for v, p in a3_potential.ptable.items():
        got = a3_potential.F.diff(v).scale(Fraction(norm_factor(4, v.m, v.a)))
        assert got == p.up_to_degree(4)
