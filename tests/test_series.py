"""Polynomial, Laurent-object, and Y-polynomial tests."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anrec.exactnum import cyc_context
from anrec.series import LambdaSeries, SparsePoly, Var, YPoly, weighted_sum
from truncation import up_to_degree


def V(m, a):
    return Var(m, a)


def x(m, a):
    return SparsePoly.variable(Var(m, a))


def test_poly_mul_basics():
    t = x(0, 1)
    assert t * t == SparsePoly(None, {((V(0, 1), 2),): Fraction(1)})
    assert (t * SparsePoly.zero()).is_zero()
    t1, t2 = x(0, 1), x(0, 2)
    assert (t1 + t2) * (t1 - t2) == t1 * t1 - t2 * t2


def test_poly_diff():
    t = x(0, 1)
    cube = t * t * t
    assert cube.diff(V(0, 1)) == (t * t).scale(3)
    assert x(0, 2).diff(V(0, 1)).is_zero()
    p = x(0, 1) * x(1, 2)
    assert p.diff(V(1, 2)) == x(0, 1)


def _rand_polys():
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    mono = st.lists(
        st.tuples(st.integers(0, 1), st.integers(1, 2), st.integers(1, 2)),
        min_size=0, max_size=3)
    def build(items):
        terms = []
        for m, a, e in items:
            terms.append(((Var(m, a), e),))
        return terms
    return st.lists(st.tuples(mono.map(build), coeff), min_size=0, max_size=4).map(
        lambda items: _assemble(items))


def _assemble(items):
    acc = SparsePoly.zero()
    for monos, c in items:
        for mono in monos:
            acc = acc + SparsePoly(None, {tuple(sorted(mono)): Fraction(1)}).scale(c)
    return acc


@settings(max_examples=40, deadline=None)
@given(p=_rand_polys(), q=_rand_polys())
def test_leibniz_rule(p, q):
    v = Var(0, 1)
    lhs = (p * q).diff(v)
    rhs = p.diff(v) * q + p * q.diff(v)
    assert lhs == rhs


def test_lambda_series_mul_and_residue():
    h = 4
    one = SparsePoly.constant(Fraction(1))
    f = LambdaSeries(h, None, {1: one})    # lambda^(1/h)
    g = LambdaSeries(h, None, {-1: one})   # lambda^(-1/h)
    assert f.mul_capped(g).coefficient(0) == one
    assert f.mul_capped(LambdaSeries(h, None, {})).is_zero()
    # residue slot is exactly q = -h
    assert LambdaSeries(h, None, {-h: one}).coefficient(-h) == one
    assert LambdaSeries(h, None, {-1: one}).coefficient(-h).is_zero()
    two_slots = LambdaSeries(h, None, {-2 * h: one.scale(7), -h: one.scale(9)})
    assert two_slots.coefficient(-h) == one.scale(9)


def test_lambda_series_binomial():
    h = 2
    t = x(0, 1)
    p = x(1, 1)  # stand-in coefficient for the lambda^(-1) tail
    phi = LambdaSeries(h, None, {0: t, -h: p})
    sq = phi.mul_capped(phi)
    assert sq.coefficient(0) == t * t
    assert sq.coefficient(-h) == (t * p).scale(2)
    assert sq.coefficient(-2 * h) == p * p


def test_poly_serialization_round_trip():
    p = (x(0, 1) * x(1, 2)).scale(Fraction(-7, 3)) + x(0, 2).scale(2)
    assert SparsePoly.from_json(p.to_json()) == p
    ctx = cyc_context(4)
    q = weighted_sum(ctx, [(ctx.eta_pow(1), p)])
    assert SparsePoly.from_json(q.to_json()) == q


def test_lambda_series_mismatch_errors():
    from anrec.series import DomainMismatchError
    one = SparsePoly.constant(Fraction(1))
    with pytest.raises(DomainMismatchError):
        LambdaSeries(2, None, {0: one}).mul_capped(LambdaSeries(3, None, {0: one}))


def test_ypoly_ops():
    ctx = cyc_context(4)
    one_minus = YPoly(ctx, [ctx.one, -ctx.one])
    sq = one_minus * one_minus
    assert sq.coeff(0) == ctx.one
    assert sq.coeff(1) == ctx.from_rat(-2)
    assert sq.coeff(2) == ctx.one
    assert sum(YPoly.y_power(ctx, 5).coeffs, ctx.zero) == ctx.one
    geometric = YPoly(ctx, [ctx.one] * 4)  # (1 - Y^4)/(1 - Y)
    assert geometric.coeff(2) == ctx.one


# -- the degree-capped product ------------------------------------------------

_CTX = cyc_context(5)


def _mixed_polys(domain):
    # monomials of degree 0..6 in three slots, so caps fall inside the support
    mono = st.lists(st.tuples(st.sampled_from([Var(0, 1), Var(0, 2), Var(1, 1)]),
                              st.integers(1, 2)), max_size=3)
    rat = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    if domain is None:
        coeff = rat
    else:
        coeff = st.tuples(rat, st.integers(0, 4)).map(
            lambda t: domain.from_rat(t[0]) * domain.eta_pow(t[1]))

    def build(items):
        monos = []
        for factors, c in items:
            exps: dict = {}
            for v, e in factors:
                exps[v] = exps.get(v, 0) + e
            monos.append((tuple(sorted(exps.items())), c))
        return SparsePoly.from_terms(domain, monos)
    return st.lists(st.tuples(mono, coeff), max_size=5).map(build)


_CAPS = st.one_of(st.none(), st.integers(-2, 8))


@pytest.mark.parametrize("domain", [None, _CTX], ids=["Q", "Q(eta)"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_capped_product_is_truncated_product(domain, data):
    p, q = data.draw(_mixed_polys(domain)), data.draw(_mixed_polys(domain))
    cap = data.draw(_CAPS)
    full = p * q
    assert p.mul_capped(q, cap) == (full if cap is None else up_to_degree(full, cap))
    # (p + q)(p - q): the cross terms cancel exactly under every cap
    lhs = (p + q).mul_capped(p - q, cap)
    assert lhs == p.mul_capped(p, cap) - q.mul_capped(q, cap)
    zero = Fraction(0) if domain is None else domain.zero
    assert zero not in lhs.terms.values()


def test_capped_product_edges():
    one = SparsePoly.constant(Fraction(1))
    t1, t2 = x(0, 1), x(0, 2)
    p = t1 * t2 + t2 * t2 * t2
    # a cap below the lowest degree of the product leaves nothing
    assert p.mul_capped(p, 3).is_zero()
    assert p.mul_capped(p, -1).is_zero()
    assert one.mul_capped(one, -1).is_zero()
    assert one.mul_capped(one, 0) == one
    # the cap is inclusive
    assert p.mul_capped(p, 4) == t1 * t1 * t2 * t2
    # the degree-1 terms cancel exactly and leave no zero entry behind
    got = (one + t1).mul_capped(one - t1, 1)
    assert got == one and list(got.terms) == [()]
    # no cap is the plain product
    assert p.mul_capped(p) == p * p


@settings(max_examples=40, deadline=None)
@given(p=_mixed_polys(None), q=_mixed_polys(None), r=_mixed_polys(None),
       cap=_CAPS)
def test_lambda_capped_product_truncates_every_coefficient(p, q, r, cap):
    h = 3
    a = LambdaSeries(h, None, {0: p, -h: q, 1: r})
    b = LambdaSeries(h, None, {h: q, 0: r, -2: p})
    full = a.mul_capped(b)
    expect = full if cap is None else LambdaSeries(
        h, None, {k: up_to_degree(poly, cap) for k, poly in full.terms.items()})
    assert a.mul_capped(b, cap) == expect


# -- the exponent-windowed lambda product ----------------------------------------

def _lambda_series(domain, h):
    return st.dictionaries(st.integers(-2 * h, h), _mixed_polys(domain),
                           max_size=4).map(lambda terms: LambdaSeries(h, domain, terms))


@pytest.mark.parametrize("domain", [None, _CTX], ids=["Q", "Q(eta)"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_windowed_lambda_product_is_restricted_product(domain, data):
    h = _CTX.h
    a, b = data.draw(_lambda_series(domain, h)), data.draw(_lambda_series(domain, h))
    cap = data.draw(_CAPS)
    # lo > hi is the empty window
    lo, hi = data.draw(st.integers(-4 * h, 2 * h)), data.draw(st.integers(-4 * h, 2 * h))
    full = a.mul_capped(b, cap)
    expect = LambdaSeries(h, domain, {q: p for q, p in full.terms.items() if lo <= q <= hi})
    assert a.mul_capped(b, cap, (lo, hi)) == expect


def test_windowed_lambda_product_edges(monkeypatch):
    h = 3
    t1, t2 = x(0, 1), x(0, 2)
    a = LambdaSeries(h, None, {0: t1, -h: t2})
    b = LambdaSeries(h, None, {h: t2, -2: t1})
    full = a.mul_capped(b)  # slots h, -2, 0 and -h-2
    assert sorted(full.terms) == [-h - 2, -2, 0, h]
    only = LambdaSeries(h, None, {-2: t1 * t1})
    formed = [0]
    mul = SparsePoly._mul

    def counted(self, other, cap):
        formed[0] += 1
        return mul(self, other, cap)

    monkeypatch.setattr(SparsePoly, "_mul", counted)
    # a one-slot window forms the one pair that lands there
    assert a.mul_capped(b, None, (-2, -2)) == only
    assert formed[0] == 1
    # the empty window, and windows that miss every slot, form nothing
    for window in [(1, 0), (-1, -1), (h + 1, 3 * h), (-5 * h, -h - 3)]:
        assert a.mul_capped(b, None, window).is_zero()
    assert formed[0] == 1
    # a window over every slot is the plain product, and the degree cap still applies
    assert a.mul_capped(b, 1, (-h - 2, h)).is_zero()
    assert a.mul_capped(b, None, (-h - 2, h)) == full


# -- the one accumulate loop stores no zero ----------------------------------------

def _no_stored_zero(poly):
    return all(not (c == 0 if poly.domain is None else c.is_zero())
               for c in poly.terms.values())


@pytest.mark.parametrize("domain", [None, _CTX], ids=["Q", "Q(eta)"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_no_user_of_the_shared_sum_stores_a_zero(domain, data):
    from anrec.genus0 import G0Solver, Profile
    from anrec.rootsys import RootData, cbracket_state, elem_sym_state

    p, q = data.draw(_mixed_polys(domain)), data.draw(_mixed_polys(domain))
    cap = data.draw(_CAPS)
    assert (p + (-p)).terms == {}
    # (p + q)(p - q): the cross terms p*q and -q*p cancel
    for prod in ((p + q) * (p - q), (p + q).mul_capped(p - q, cap)):
        assert _no_stored_zero(prod)
    r, s = data.draw(_mixed_polys(None)), data.draw(_mixed_polys(None))
    w = _CTX.from_rat(data.draw(st.fractions(min_value=-2, max_value=2, max_denominator=3)))
    w = w * _CTX.eta_pow(data.draw(st.integers(0, 4)))
    assert weighted_sum(_CTX, [(w, r), (-w, r)]).terms == {}
    assert _no_stored_zero(weighted_sum(_CTX, [(w, r), (-w, s)]))
    # slot 0 of (p L^0 + L^(1/h)) (L^0 - p L^(-1/h)) is p - p
    h = _CTX.h
    one = SparsePoly.constant(Fraction(1) if domain is None else domain.one, domain)
    a = LambdaSeries(h, domain, {0: p, 1: one})
    b = LambdaSeries(h, domain, {0: one, -1: -p})
    prod = a.mul_capped(b, cap)
    assert 0 not in prod.terms
    assert all(not poly.is_zero() and _no_stored_zero(poly) for poly in prod.terms.values())
    # the symmetric states and the genus-0 slices and slot products sum
    # through the same loop
    rd = RootData(data.draw(st.integers(1, 4)))
    assert elem_sym_state(rd, 1).terms == {}
    for k in range(2, rd.h + 1):
        for state in (elem_sym_state(rd, k), cbracket_state(rd, k)):
            assert all(not c.is_zero() for c in state.terms.values())
    solver = G0Solver(rd, Profile(rd.N, 0, 4))
    for a in range(1, rd.h):
        solver.p_poly(0, a)
    assert all(_no_stored_zero(poly) for poly in solver._slices.values())
    assert all(_no_stored_zero(poly) for poly in solver._products.values())
