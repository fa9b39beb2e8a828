"""Scalar-domain tests: cyclotomic polynomials, field axioms, demotion."""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anrec.exactnum import (
    CycScalar,
    NotRationalError,
    cyc_context,
    cyclotomic_poly,
    parse_rat,
    rat_str,
)


def _phi_numeric(h: int) -> tuple[int, ...]:
    # independent oracle: expand prod (x - r) over primitive h-th roots
    roots = [cmath.exp(2j * cmath.pi * k / h)
             for k in range(1, h + 1) if math.gcd(k, h) == 1]
    poly = [1.0 + 0j]
    for r in roots:
        new = [0j] * (len(poly) + 1)
        for i, c in enumerate(poly):
            new[i + 1] += c
            new[i] -= r * c
        poly = new
    return tuple(round(c.real) for c in poly)


@pytest.mark.parametrize("h,expected", [
    (1, (-1, 1)),
    (2, (1, 1)),
    (3, (1, 1, 1)),
    (4, (1, 0, 1)),
    (6, (1, -1, 1)),
    (12, (1, 0, -1, 0, 1)),
])
def test_cyclotomic_poly_small(h, expected):
    assert cyclotomic_poly(h) == expected


@pytest.mark.parametrize("h", range(2, 13))
def test_cyclotomic_poly_matches_numeric_product(h):
    assert cyclotomic_poly(h) == _phi_numeric(h)


def test_eta_power_reduction():
    ctx = cyc_context(4)
    assert ctx.eta_pow(0) == ctx.one
    assert ctx.eta_pow(4) == ctx.one
    # eta^2 = -1 forces eta^3 = -eta
    assert ctx.eta_pow(3) == -ctx.eta_pow(1)


def test_root_of_unity_sums():
    for h in range(2, 13):
        ctx = cyc_context(h)
        total = ctx.zero
        for k in range(h):
            total = total + ctx.eta_pow(k)
        assert total.is_zero()
        assert ctx.eta_pow(1) ** h == ctx.one


def test_product_reduction_example():
    ctx = cyc_context(4)
    eta = ctx.eta_pow(1)
    assert (ctx.one - eta) * (ctx.one + eta) == ctx.from_rat(2)
    assert eta * ctx.eta_pow(3) == ctx.one


def test_inverse_examples():
    ctx = cyc_context(4)
    assert ctx.one.inv() == ctx.one
    assert ctx.eta_pow(1).inv() == ctx.eta_pow(3)
    ctx2 = cyc_context(2)
    assert (ctx2.one - ctx2.eta_pow(1)).inv() == ctx2.from_rat(Fraction(1, 2))
    with pytest.raises(ZeroDivisionError):
        ctx.zero.inv()


def test_to_rational():
    ctx = cyc_context(4)
    eta = ctx.eta_pow(1)
    assert ctx.from_rat(Fraction(3, 2)).to_rational() == Fraction(3, 2)
    with pytest.raises(NotRationalError):
        eta.to_rational()
    # (eta - 1)/2 + (-eta - 1)/2 = -1
    val = (eta - 1) * Fraction(1, 2) + (-eta - 1) * Fraction(1, 2)
    assert val.to_rational() == -1


def test_context_mismatch_raises():
    from anrec.exactnum import ContextMismatchError
    a = cyc_context(4).one
    b = cyc_context(6).one
    with pytest.raises(ContextMismatchError):
        a + b


def test_approx_diagnostic():
    ctx = cyc_context(4)
    eta = ctx.eta_pow(1)
    assert abs(eta.approx() - 1j) < 1e-10
    s = ctx.zero
    for k in range(4):
        s = s + ctx.eta_pow(k)
    assert abs(s.approx()) < 1e-10


def _scalars(h: int):
    rats = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    deg = cyc_context(h).deg
    return st.lists(rats, min_size=deg, max_size=deg).map(
        lambda cs: CycScalar(cyc_context(h), tuple(Fraction(c) for c in cs)))


@settings(max_examples=40, deadline=None)
@given(h=st.integers(min_value=2, max_value=12), data=st.data())
def test_field_axioms(h, data):
    a = data.draw(_scalars(h))
    b = data.draw(_scalars(h))
    c = data.draw(_scalars(h))
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@settings(max_examples=40, deadline=None)
@given(h=st.integers(min_value=2, max_value=12), data=st.data())
def test_inverse_axiom(h, data):
    a = data.draw(_scalars(h))
    if a.is_zero():
        return
    assert a.inv() * a == cyc_context(h).one


@settings(max_examples=30, deadline=None)
@given(h=st.integers(min_value=2, max_value=10), data=st.data())
def test_rational_demotion_matches_approx(h, data):
    a = data.draw(_scalars(h))
    try:
        q = a.to_rational()
    except NotRationalError:
        return
    assert abs(a.approx() - float(q)) < 1e-10


def test_serialization_round_trip():
    ctx = cyc_context(6)
    a = ctx.eta_pow(1) * Fraction(3, 7) - ctx.from_rat(Fraction(1, 2))
    assert CycScalar.from_json(a.to_json()) == a
    assert parse_rat(rat_str(Fraction(-9, 4))) == Fraction(-9, 4)


# ---------------------------------------------------------------------------
# Independent reference for the field kernel: a hard-coded Phi_h table and
# schoolbook Fraction arithmetic with long-division remainder.  Shares no
# code with cyclotomic_poly or CycContext.
# ---------------------------------------------------------------------------

_PHI = {
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    7: (1, 1, 1, 1, 1, 1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    10: (1, -1, 1, -1, 1),
    11: (1,) * 11,
    12: (1, 0, -1, 0, 1),
}


def _ref_rem(h, coeffs):
    """Remainder of a Fraction coefficient list on division by Phi_h."""
    phi = _PHI[h]
    d = len(phi) - 1
    rem = [Fraction(c) for c in coeffs]
    for top in range(len(rem) - 1, d - 1, -1):
        t = rem[top]
        if t:
            for j, p in enumerate(phi):
                rem[top - d + j] -= t * p
    return tuple(rem[:d]) + (Fraction(0),) * (d - len(rem))


def _ref_mul(h, a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref_rem(h, out)


def _assert_canonical(x):
    assert x.den > 0
    assert math.gcd(x.den, *x.num) == 1


_RATS = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@settings(max_examples=60, deadline=None)
@given(h=st.integers(min_value=2, max_value=12), data=st.data())
def test_kernel_matches_reference(h, data):
    a = data.draw(_scalars(h))
    b = data.draw(_scalars(h))
    q = data.draw(_RATS)
    assert len(_PHI[h]) - 1 == cyc_context(h).deg
    cases = [
        (a * b, _ref_mul(h, a.coeffs, b.coeffs)),
        (a + b, tuple(x + y for x, y in zip(a.coeffs, b.coeffs))),
        (a - b, tuple(x - y for x, y in zip(a.coeffs, b.coeffs))),
        (a * q, tuple(x * q for x in a.coeffs)),
        (q * a, tuple(x * q for x in a.coeffs)),
    ]
    if not a.is_zero():
        one = (Fraction(1),) + (Fraction(0),) * (cyc_context(h).deg - 1)
        cases.append((a.inv() * a, one))
        assert _ref_mul(h, a.inv().coeffs, a.coeffs) == one
    for got, want in cases:
        assert got.coeffs == want
        _assert_canonical(got)


@settings(max_examples=40, deadline=None)
@given(h=st.integers(min_value=2, max_value=12), data=st.data())
def test_canonical_form_is_route_independent(h, data):
    ctx = cyc_context(h)
    a = data.draw(_scalars(h))
    b = data.draw(_scalars(h))
    routes = [a, CycScalar(ctx, a.coeffs), CycScalar.from_json(a.to_json()),
              a + ctx.zero, (a - b) + b, a * Fraction(3, 3)]
    if not b.is_zero():
        routes.append(a * b * b.inv())
    for other in routes:
        _assert_canonical(other)
        assert other == a
        assert hash(other) == hash(a)
        assert other.to_json() == a.to_json()


def test_canonical_form_of_rationals_and_zero():
    ctx = cyc_context(6)
    half = ctx.from_rat(Fraction(2, 4))
    routes = [half, CycScalar(ctx, (Fraction(1, 2), Fraction(0))),
              ctx.from_rat(Fraction(1, 4)) * 2, ctx.one / 2,
              ctx.from_rat(Fraction(1, 6)) + ctx.from_rat(Fraction(1, 3))]
    for x in routes:
        assert (x.num, x.den) == ((1, 0), 2)
        assert x == Fraction(1, 2) and hash(x) == hash(half)
    zeros = [ctx.zero, half - half, ctx.eta_pow(1) * 0, half * Fraction(0),
             CycScalar(ctx, (Fraction(0, 5), Fraction(0)))]
    for z in zeros:
        assert (z.num, z.den) == ((0, 0), 1)
        assert z == ctx.zero and hash(z) == hash(ctx.zero) and z == 0


def test_mixed_denominators_serialise_reduced():
    ctx = cyc_context(3)
    x = CycScalar(ctx, (Fraction(1, 2), Fraction(1, 3)))
    assert x.to_json() == {"h": 3, "coeffs": ["1/2", "1/3"]}
    assert x.coeffs == (Fraction(1, 2), Fraction(1, 3))
    assert repr(x) == "1/2 + 1/3*eta"
    y = x + ctx.from_rat(Fraction(1, 2))
    assert y.to_json() == {"h": 3, "coeffs": ["1", "1/3"]}


def _coeffs_by_fraction(x):
    return [rat_str(c) for c in x.coeffs]


def test_to_json_writes_coefficients_as_rat_str():
    ctx = cyc_context(5)
    # negative, zero and whole numerators over one denominator
    x = CycScalar(ctx, (Fraction(-3, 4), Fraction(0), Fraction(1, 6), Fraction(-2)))
    assert x.to_json() == {"h": 5, "coeffs": _coeffs_by_fraction(x)} == \
        {"h": 5, "coeffs": ["-3/4", "0", "1/6", "-2"]}
    assert ctx.zero.to_json()["coeffs"] == ["0"] * 4
    assert (-ctx.one).to_json()["coeffs"] == ["-1", "0", "0", "0"]


@settings(max_examples=60, deadline=None)
@given(h=st.integers(min_value=2, max_value=12), data=st.data())
def test_to_json_matches_rat_str_of_coeffs(h, data):
    x = data.draw(_scalars(h))
    assert x.to_json() == {"h": h, "coeffs": _coeffs_by_fraction(x)}


def test_division_by_rational_multiplies_by_reciprocal(monkeypatch):
    ctx = cyc_context(5)
    x = ctx.eta_pow(2) * Fraction(3, 7) - ctx.from_rat(1)

    def no_inverse(self):
        raise AssertionError("division by a rational took an inverse")

    monkeypatch.setattr(CycScalar, "inv", no_inverse)
    assert x / Fraction(-3, 2) == x * Fraction(-2, 3)
    assert x / 4 == x * Fraction(1, 4)
    with pytest.raises(ZeroDivisionError):
        x / 0
    with pytest.raises(ZeroDivisionError):
        x / Fraction(0)


def test_float_operands_are_rejected():
    x = cyc_context(4).eta_pow(1)
    for op in (lambda: x + 0.5, lambda: 0.5 + x, lambda: x - 0.5, lambda: 0.5 - x,
               lambda: x * 0.5, lambda: 0.5 * x, lambda: x / 0.5):
        with pytest.raises(TypeError):
            op()


# ---------------------------------------------------------------------------
# The rotation x * eta^k and the one-pass sum, against the reference above
# and against the general operators.
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(h=st.integers(min_value=2, max_value=12), data=st.data())
def test_rotate_is_product_by_eta_power(h, data):
    ctx = cyc_context(h)
    a = data.draw(_scalars(h))
    for k in range(-2 * h, 2 * h + 1):
        got = a.rotate(k)
        eta_k = _ref_rem(h, [0] * (k % h) + [1])
        assert got == a * ctx.eta_pow(k), k
        assert got.coeffs == _ref_mul(h, a.coeffs, eta_k), k
        _assert_canonical(got)
        assert got.den == a.den


@settings(max_examples=60, deadline=None)
@given(h=st.integers(min_value=2, max_value=12), data=st.data())
def test_sum_is_chained_addition(h, data):
    ctx = cyc_context(h)
    xs = data.draw(st.lists(_scalars(h), min_size=0, max_size=8))
    if data.draw(st.booleans()):
        # cancel a prefix, interleaved, so partial sums are not zero
        cut = data.draw(st.integers(min_value=0, max_value=len(xs)))
        xs = xs + [-x for x in xs[:cut]]
        xs = data.draw(st.permutations(xs))
    chained = ctx.zero
    for x in xs:
        chained = chained + x
    got = ctx.sum(xs)
    assert got == chained
    _assert_canonical(got)
    if got.is_zero():
        assert (got.num, got.den) == ((0,) * ctx.deg, 1)


def test_sum_reduces_and_cancels_to_canonical_zero():
    ctx = cyc_context(6)
    half = ctx.from_rat(Fraction(1, 2))
    third = ctx.eta_pow(1) * Fraction(1, 3)
    one = ctx.sum([half, half])
    assert (one.num, one.den) == ((1, 0), 1)
    assert ctx.sum([third, half, -third]) == half
    zero = ctx.sum([third, half, -half, -third])
    assert (zero.num, zero.den) == ((0, 0), 1)
    assert ctx.sum([]) == ctx.zero


def test_sum_rejects_another_context():
    from anrec.exactnum import ContextMismatchError
    with pytest.raises(ContextMismatchError):
        cyc_context(5).sum([cyc_context(5).one, cyc_context(7).one])
