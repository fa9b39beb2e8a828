"""Polynomial, Laurent-object, and Y-polynomial tests."""

import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anrec.exactnum import ContextMismatchError, NotRationalError, cyc_context
from anrec.series import LambdaSeries, SparsePoly, Var, YPoly, weighted_sum
from truncation import mono_degree, up_to_degree


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
    f = LambdaSeries(h, {1: one})    # lambda^(1/h)
    g = LambdaSeries(h, {-1: one})   # lambda^(-1/h)
    assert f.mul_capped(g).coefficient(0) == one
    assert f.mul_capped(LambdaSeries(h, {})).is_zero()
    # residue slot is exactly q = -h
    assert LambdaSeries(h, {-h: one}).coefficient(-h) == one
    assert LambdaSeries(h, {-1: one}).coefficient(-h).is_zero()
    two_slots = LambdaSeries(h, {-2 * h: one.scale(7), -h: one.scale(9)})
    assert two_slots.coefficient(-h) == one.scale(9)


def test_lambda_series_binomial():
    h = 2
    t = x(0, 1)
    p = x(1, 1)  # stand-in coefficient for the lambda^(-1) tail
    phi = LambdaSeries(h, {0: t, -h: p})
    sq = phi.mul_capped(phi)
    assert sq.coefficient(0) == t * t
    assert sq.coefficient(-h) == (t * p).scale(2)
    assert sq.coefficient(-2 * h) == p * p


def test_poly_serialization_round_trip():
    p = (x(0, 1) * x(1, 2)).scale(Fraction(-7, 3)) + x(0, 2).scale(2)
    assert SparsePoly.from_json(p.to_json()) == p


def test_lambda_series_mismatch_errors():
    from anrec.series import DomainMismatchError
    one = SparsePoly.constant(Fraction(1))
    with pytest.raises(DomainMismatchError):
        LambdaSeries(2, {0: one}).mul_capped(LambdaSeries(3, {0: one}))


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


_RAT = st.fractions(min_value=-2, max_value=2, max_denominator=3)


def _mixed_polys(coeff=_RAT):
    # monomials of degree 0..6 in three slots, so caps fall inside the support
    mono = st.lists(st.tuples(st.sampled_from([Var(0, 1), Var(0, 2), Var(1, 1)]),
                              st.integers(1, 2)), max_size=3)

    def build(items):
        monos = []
        for factors, c in items:
            exps: dict = {}
            for v, e in factors:
                exps[v] = exps.get(v, 0) + e
            monos.append((tuple(sorted(exps.items())), c))
        return SparsePoly.from_terms(monos)
    return st.lists(st.tuples(mono, coeff), max_size=5).map(build)


_CAPS = st.one_of(st.none(), st.integers(-2, 8))



def _over_q(coeff):
    # the strategy of rational coefficients; the test id names their field
    return pytest.mark.parametrize("coeff", [coeff], ids=["Q"])


@_over_q(_RAT)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_capped_product_is_truncated_product(coeff, data):
    p, q = data.draw(_mixed_polys(coeff)), data.draw(_mixed_polys(coeff))
    cap = data.draw(_CAPS)
    full = p * q
    assert p.mul_capped(q, cap) == (full if cap is None else up_to_degree(full, cap))
    # (p + q)(p - q): the cross terms cancel exactly under every cap
    lhs = (p + q).mul_capped(p - q, cap)
    assert lhs == p.mul_capped(p, cap) - q.mul_capped(q, cap)
    assert 0 not in lhs.terms.values()


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
@given(p=_mixed_polys(), q=_mixed_polys(), r=_mixed_polys(), cap=_CAPS)
def test_lambda_capped_product_truncates_every_coefficient(p, q, r, cap):
    h = 3
    a = LambdaSeries(h, {0: p, -h: q, 1: r})
    b = LambdaSeries(h, {h: q, 0: r, -2: p})
    full = a.mul_capped(b)
    expect = full if cap is None else LambdaSeries(
        h, {k: up_to_degree(poly, cap) for k, poly in full.terms.items()})
    assert a.mul_capped(b, cap) == expect


# -- the exponent-windowed lambda product ----------------------------------------

def _lambda_series(coeff, h):
    return st.dictionaries(st.integers(-2 * h, h), _mixed_polys(coeff),
                           max_size=4).map(lambda terms: LambdaSeries(h, terms))


@_over_q(_RAT)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_windowed_lambda_product_is_restricted_product(coeff, data):
    h = _CTX.h
    a, b = data.draw(_lambda_series(coeff, h)), data.draw(_lambda_series(coeff, h))
    cap = data.draw(_CAPS)
    # lo > hi is the empty window
    lo, hi = data.draw(st.integers(-4 * h, 2 * h)), data.draw(st.integers(-4 * h, 2 * h))
    full = a.mul_capped(b, cap)
    expect = LambdaSeries(h, {q: p for q, p in full.terms.items() if lo <= q <= hi})
    assert a.mul_capped(b, cap, (lo, hi)) == expect


class _CountedInt(int):
    """An int numerator that counts the products it takes part in."""

    products = 0

    def __mul__(self, other):
        _CountedInt.products += 1
        return int(self) * int(other)

    __rmul__ = __mul__


def _counted(series):
    # the same series with numerators that count every product they enter
    series.slots = {q: {k: _CountedInt(c) for k, c in num.items()}
                    for q, num in series.slots.items()}
    return series


def test_windowed_lambda_product_edges():
    h = 3
    t1, t2 = x(0, 1), x(0, 2)
    a = _counted(LambdaSeries(h, {0: t1, -h: t2}))
    b = _counted(LambdaSeries(h, {h: t2, -2: t1}))
    full = a.mul_capped(b)  # slots h, -2, 0 and -h-2
    assert sorted(full.terms) == [-h - 2, -2, 0, h]
    only = LambdaSeries(h, {-2: t1 * t1})
    _CountedInt.products = 0
    # a one-slot window multiplies the one pair of slots that lands there
    assert a.mul_capped(b, None, (-2, -2)) == only
    assert _CountedInt.products == 1
    # the empty window, and windows that miss every slot, multiply nothing
    for window in [(1, 0), (-1, -1), (h + 1, 3 * h), (-5 * h, -h - 3)]:
        assert a.mul_capped(b, None, window).is_zero()
    assert _CountedInt.products == 1
    # so does a degree cap below every pair, even over every slot
    assert a.mul_capped(b, 1, (-h - 2, h)).is_zero()
    assert _CountedInt.products == 1
    # a window over every slot is the plain product
    assert a.mul_capped(b, None, (-h - 2, h)) == full
    # the read of one coefficient multiplies only the pairs that close it
    _CountedInt.products = 0
    assert a.slot_part(b, -2, 2) == t1 * t1
    assert _CountedInt.products == 1
    assert a.slot_part(b, -2, 3).is_zero() and a.slot_part(b, 1, 2).is_zero()
    assert _CountedInt.products == 1


@_over_q(_RAT)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_slot_part_is_one_coefficient_of_the_product(coeff, data):
    h = _CTX.h
    a, b = data.draw(_lambda_series(coeff, h)), data.draw(_lambda_series(coeff, h))
    q, d = data.draw(st.integers(-4 * h, 2 * h)), data.draw(st.integers(-1, 13))
    assert a.slot_part(b, q, d) == a.mul_capped(b).coefficient(q).homo_part(d)


# -- the one accumulate loop stores no zero ----------------------------------------

def _no_stored_zero(poly):
    return all(c != 0 for c in poly.terms.values())


@_over_q(_RAT)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_no_user_of_the_shared_sum_stores_a_zero(coeff, data):
    from anrec.genus0 import G0Solver, Profile
    from anrec.rootsys import RootData, cbracket_state, elem_sym_state

    p, q = data.draw(_mixed_polys(coeff)), data.draw(_mixed_polys(coeff))
    cap = data.draw(_CAPS)
    assert (p + (-p)).terms == {}
    # (p + q)(p - q): the cross terms p*q and -q*p cancel
    for prod in ((p + q) * (p - q), (p + q).mul_capped(p - q, cap)):
        assert _no_stored_zero(prod)
    r, s = data.draw(_mixed_polys()), data.draw(_mixed_polys())
    w = _CTX.from_rat(data.draw(st.fractions(min_value=-2, max_value=2, max_denominator=3)))
    w = w * _CTX.eta_pow(data.draw(st.integers(0, 4)))
    u = _CTX.from_rat(data.draw(_RAT))
    assert weighted_sum(_CTX, [(w, 1, r), (-w, 1, r)]).terms == {}
    # the eta-parts cancel and u * (r - s) is left
    assert _no_stored_zero(weighted_sum(_CTX, [(w + u, 1, r), (-w, 1, r), (-u, 1, s)]))
    # slot 0 of (p L^0 + L^(1/h)) (L^0 - p L^(-1/h)) is p - p
    h = _CTX.h
    one = SparsePoly.constant(Fraction(1))
    a = LambdaSeries(h, {0: p, 1: one})
    b = LambdaSeries(h, {0: one, -1: -p})
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


# -- the packed kernel against a reference on decoded terms ------------------------
#
# The reference works on ``.terms`` only: monomials merge through ``Counter``
# and coefficients add as ``Fraction``s, so it shares no loop with the packed
# kernel.

_KVARS = [Var(m, a) for m in range(3) for a in range(1, 4)]
_KRAT = st.fractions(min_value=-5, max_value=5, max_denominator=12)


def _kernel_polys(coeff=_KRAT):
    mono = st.dictionaries(st.sampled_from(_KVARS), st.integers(1, 6), max_size=3).map(
        lambda exps: tuple(sorted(exps.items())))
    # repeated monomials are summed by the constructor
    return st.lists(st.tuples(mono, coeff), max_size=6).map(SparsePoly.from_terms)


def _ref_sum(pairs):
    acc = {}
    for mono, c in pairs:
        acc[mono] = acc.get(mono, Fraction(0)) + c
    return {mono: c for mono, c in acc.items() if c != 0}


def _merge(*monos):
    total = Counter()
    for mono in monos:
        total.update(dict(mono))
    return tuple(sorted((v, e) for v, e in total.items() if e))


def _ref_mul(p, q, cap=None):
    return _ref_sum(((_merge(m1, m2), c1 * c2) for m1, c1 in p.terms.items()
                     for m2, c2 in q.terms.items()
                     if cap is None or mono_degree(m1) + mono_degree(m2) <= cap))


def _ref_diff(p, v):
    out = {}
    for mono, c in p.terms.items():
        e = dict(mono).get(v, 0)
        if e:
            out[_merge(mono, ((v, -1),))] = c * e
    return out


def _assert_canonical(p):
    # byte 0 of every key is the sum of its exponent bytes
    for key in p.num:
        rest, deg = key >> 8, 0
        while rest:
            deg, rest = deg + (rest & 255), rest >> 8
        assert key & 255 == deg
    assert p.den > 0 and all(isinstance(c, int) and c for c in p.num.values())
    assert math.gcd(p.den, *p.num.values()) == 1
    assert SparsePoly(None, p.terms) == p


def _check(got, want_terms):
    _assert_canonical(got)
    assert dict(got.terms) == want_terms
    assert got == SparsePoly(None, want_terms)


@_over_q(_KRAT)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_packed_kernel_matches_reference(coeff, data):
    p, q = data.draw(_kernel_polys(coeff)), data.draw(_kernel_polys(coeff))
    cap = data.draw(st.integers(-1, 30))
    v = data.draw(st.sampled_from(_KVARS))
    c = data.draw(_KRAT)
    d = data.draw(st.integers(0, 18))
    vs = data.draw(st.lists(st.sampled_from(_KVARS), max_size=8))
    _assert_canonical(p)
    _check(p * q, _ref_mul(p, q))
    _check(p.mul_capped(q, cap), _ref_mul(p, q, cap))
    _check(p + q, _ref_sum(list(p.terms.items()) + list(q.terms.items())))
    _check(p - q, _ref_sum(list(p.terms.items()) + [(m, -x) for m, x in q.terms.items()]))
    _check(p.scale(c), _ref_sum((m, x * c) for m, x in p.terms.items()))
    _check(p.diff(v), _ref_diff(p, v))
    _check(p.homo_part(d), {m: x for m, x in p.terms.items() if mono_degree(m) == d})
    for mono in list(p.terms) + list(q.terms):
        assert p.coefficient(mono) == p.terms.get(mono, 0)
    _check(SparsePoly.monomial(vs), {tuple(sorted(Counter(vs).items())): Fraction(1)})


def test_degree_limit_of_packed_monomials():
    t = x(0, 1)
    top = t ** 255
    assert top.terms == {((V(0, 1), 255),): 1}
    assert SparsePoly.monomial([V(0, 1)] * 255) == top
    with pytest.raises(OverflowError):
        SparsePoly.monomial([V(0, 1)] * 256)
    with pytest.raises(OverflowError):
        SparsePoly.monomial([V(0, 1)] * 128 + [V(0, 2)] * 128)
    with pytest.raises(OverflowError):
        top * t
    with pytest.raises(OverflowError):
        (t ** 200).mul_capped(t ** 100, 300)
    with pytest.raises(OverflowError):
        SparsePoly(None, {((V(0, 1), 200), (V(0, 2), 56)): Fraction(1)})
    # the two lowest degrees pass the cap: zero, formed before any byte could carry
    assert (t ** 200).mul_capped(t ** 100, 250).is_zero()


# -- the Q(eta)-weighted sum --------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(parts=st.lists(st.tuples(_KRAT, _KRAT, st.integers(1, _CTX.h - 1),
                                _kernel_polys()), max_size=4))
def test_weighted_sum_with_cancelling_eta_parts_is_the_fraction_sum(parts):
    ctx = _CTX
    weighted = []
    for r, a, k, p in parts:
        eta_part = ctx.from_rat(a) * ctx.eta_pow(k)
        weighted += [(ctx.from_rat(r) + eta_part, 1, p), (-eta_part, 1, p)]
    want = _ref_sum((m, r * c) for r, _, _, p in parts for m, c in p.terms.items())
    _check(weighted_sum(ctx, weighted), want)


@settings(max_examples=40, deadline=None)
@given(parts=st.lists(st.tuples(_KRAT, _KRAT, st.integers(1, _CTX.h - 1),
                                st.integers(-60, 60), _kernel_polys()), max_size=4))
def test_weighted_sum_int_factor_is_the_field_product(parts):
    # an int factor beside the scalar gives the sum of (scalar * factor) * poly;
    # each eta-part cancels against its negation under the same factor
    ctx = _CTX
    triples = [(ctx.from_rat(r) + ctx.from_rat(a) * ctx.eta_pow(k), f, p)
               for r, a, k, f, p in parts]
    triples += [(-ctx.from_rat(a) * ctx.eta_pow(k), f, p) for r, a, k, f, p in parts]
    want = weighted_sum(ctx, [(s * f, 1, p) for s, f, p in triples])
    _check(weighted_sum(ctx, triples), dict(want.terms))


@settings(max_examples=40, deadline=None)
@given(parts=st.lists(st.tuples(_KRAT, _KRAT, st.integers(1, _CTX.h - 1), st.integers(-9, 9),
                                _kernel_polys(), _kernel_polys()), max_size=3))
def test_weighted_sum_multiplies_blocks_in_the_sum(parts):
    # a fourth item multiplies the part's polynomial inside the one sum: the
    # same as the triple of poly * blocks, and None the same as no fourth item
    ctx = _CTX
    fused, triples = [], []
    for r, a, k, f, p, b in parts:
        eta_part = ctx.from_rat(a) * ctx.eta_pow(k)
        for s in (ctx.from_rat(r) + eta_part, -eta_part):
            fused += [(s, f, p, b), (s, f, p, None)]
            triples += [(s, f, p * b), (s, f, p)]
    _check(weighted_sum(ctx, fused), dict(weighted_sum(ctx, triples).terms))


def test_weighted_sum_blocks_keep_the_degree_limit():
    # a product in the sum past degree 255 raises where poly * blocks raises:
    # whatever the scalar, but not when either polynomial is zero
    ctx = _CTX
    t, u = x(0, 1), x(1, 2)
    low, high = t ** 200 + u, t ** 56 + u
    with pytest.raises(OverflowError):
        low * high
    for s in (ctx.one, ctx.zero):
        with pytest.raises(OverflowError):
            weighted_sum(ctx, [(s, 1, low, high)])
    assert weighted_sum(ctx, [(ctx.one, 1, low, SparsePoly.zero())]).is_zero()
    assert weighted_sum(ctx, [(ctx.one, 1, SparsePoly.zero(), high)]).is_zero()
    top = t ** 55 + u
    assert weighted_sum(ctx, [(ctx.one, 3, low, top)]) == (low * top).scale(3)


def test_weighted_sum_checks_its_scalars():
    ctx = _CTX
    p = (x(0, 1) * x(1, 2)).scale(Fraction(1, 3)) + x(2, 3).scale(Fraction(5, 7))
    with pytest.raises(NotRationalError):
        weighted_sum(ctx, [(ctx.eta_pow(1), 1, p), (ctx.one, 1, p)])
    with pytest.raises(ContextMismatchError):
        weighted_sum(ctx, [(ctx.one, 1, p), (cyc_context(4).one, 1, p)])


def test_weighted_sum_rejects_a_single_irrational_monomial():
    # the eta-parts cancel on two of three monomials; the third keeps one
    ctx = _CTX
    t1, t2, t3 = x(0, 1), x(0, 2), x(1, 3)
    eta = ctx.eta_pow(1)
    parts = [(eta, 1, t1 + t2), (-eta, 1, t1 + t2), (ctx.one, 1, t1 - t2)]
    assert weighted_sum(ctx, parts) == t1 - t2
    with pytest.raises(NotRationalError) as exc:
        weighted_sum(ctx, parts + [(eta, 1, t3.scale(Fraction(2, 3)))])
    assert exc.value.scalar == eta * ctx.from_rat(Fraction(2, 3))


def test_constructor_takes_only_rational_coefficients():
    terms = {((V(0, 1), 1),): Fraction(1, 2)}
    assert SparsePoly(None, terms) == x(0, 1).scale(Fraction(1, 2))
    with pytest.raises(ValueError):
        SparsePoly(_CTX, terms)
