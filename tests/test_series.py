"""Polynomial, Laurent-object, and Y-polynomial tests."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anrec.exactnum import cyc_context
from anrec.series import LambdaSeries, SparsePoly, Var, YPoly


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
    f = LambdaSeries.monomial(h, 1, one)    # lambda^(1/h)
    g = LambdaSeries.monomial(h, -1, one)   # lambda^(-1/h)
    assert (f * g).coefficient(0) == one
    assert (f * LambdaSeries.zero(h)).is_zero()
    # residue slot is exactly q = -h
    assert LambdaSeries.monomial(h, -h, one).residue() == one
    assert LambdaSeries.monomial(h, -1, one).residue().is_zero()
    two_slots = LambdaSeries(h, None, {-2 * h: one.scale(7), -h: one.scale(9)})
    assert two_slots.residue() == one.scale(9)


def test_lambda_series_binomial():
    h = 2
    t = x(0, 1)
    p = x(1, 1)  # stand-in coefficient for the lambda^(-1) tail
    phi = LambdaSeries(h, None, {0: t, -h: p})
    sq = phi * phi
    assert sq.coefficient(0) == t * t
    assert sq.coefficient(-h) == (t * p).scale(2)
    assert sq.coefficient(-2 * h) == p * p


@settings(max_examples=25, deadline=None)
@given(p=_rand_polys(), q=_rand_polys(), shift=st.integers(-2, 2))
def test_residue_of_shifted_product(p, q, shift):
    # residue picks the (-h - shift) slot of the unshifted product
    h = 3
    f = LambdaSeries(h, None, {0: p, -h: q})
    g = LambdaSeries(h, None, {h: q, 0: p})
    prod = (f * g).shift(shift * h)
    direct = SparsePoly.zero()
    for q1, p1 in f.terms.items():
        for q2, p2 in g.terms.items():
            if q1 + q2 + shift * h == -h:
                direct = direct + p1 * p2
    assert prod.residue() == direct


def test_poly_serialization_round_trip():
    p = (x(0, 1) * x(1, 2)).scale(Fraction(-7, 3)) + x(0, 2).scale(2)
    assert SparsePoly.from_json(p.to_json()) == p
    ctx = cyc_context(4)
    q = p.lift(ctx).scale(ctx.eta_pow(1))
    assert SparsePoly.from_json(q.to_json()) == q


def test_lambda_series_mismatch_errors():
    from anrec.series import DomainMismatchError
    one = SparsePoly.constant(Fraction(1))
    with pytest.raises(DomainMismatchError):
        LambdaSeries.monomial(2, 0, one) * LambdaSeries.monomial(3, 0, one)


def test_ypoly_ops():
    ctx = cyc_context(4)
    one_minus = YPoly(ctx, [ctx.one, -ctx.one])
    sq = one_minus * one_minus
    assert sq.coeff(0) == ctx.one
    assert sq.coeff(1) == ctx.from_rat(-2)
    assert sq.coeff(2) == ctx.one
    assert YPoly.y_power(ctx, 5).eval_at_one() == ctx.one
    geometric = YPoly(ctx, [ctx.one] * 4)  # (1 - Y^4)/(1 - Y)
    assert geometric.coeff(2) == ctx.one
