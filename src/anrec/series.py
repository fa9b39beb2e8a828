"""Sparse exact polynomials, Laurent objects in a fractional power, and Y-polynomials.

Polynomial variables are descendant slots ``Var(m, a)``: level m >= 0 and
flat index 1 <= a <= N.  The level-0 slots are the primary variables, so
``Var(0, a)`` prints as ``t_a``.  Laurent objects store exponents of
lambda^(1/h) as plain integers q, which makes the residue slot exactly
q = -h and avoids rational exponent arithmetic.

A :class:`SparsePoly` stores each monomial as one packed ``int``: byte 0 is
the total degree and byte i + 1 the exponent of the i-th ``Var`` of a
registry owned by this module, which gives a ``Var`` its byte on first use
and never moves it.  Keys therefore depend on the order in which a process
first meets its variables; everything that leaves the module decodes them
and sorts.  A monomial product is one integer addition, the degree of a key
is ``key & 255``, and a derivative subtracts the variable's byte and one
degree.  Degrees are limited to ``MAX_DEGREE`` = 255, so no byte ever
carries into the next; a monomial or product past it raises
``OverflowError``.
Over Q the coefficients are ``int`` numerators over one positive
denominator, in lowest terms (zero is no terms over 1), so ``==`` compares
the stored integers and no ``Fraction`` is formed by a product, sum or
derivative.  Over Q(eta) they are :class:`CycScalar` values over 1.
``SparsePoly(domain, {mono: c})`` takes tuple monomials, and ``.terms`` is a
read-only decoded view in the same form, for tests and output.

No stored coefficient is ever zero: every sparse sum in the package, here
and in ``rootsys`` and ``genus0``, goes through the one loop
:func:`_accumulate`, which drops a key as soon as its sum is exactly zero.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import not_
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Union

from .exactnum import (
    ContextMismatchError,
    CycContext,
    CycScalar,
    NotRationalError,
    Rat,
    _norm,
    parse_rat,
    rat_str,
)


class Var(NamedTuple):
    """A descendant variable slot: level m, flat index a."""

    m: int
    a: int

    def __str__(self) -> str:
        return f"t{self.a}" if self.m == 0 else f"x{self.m}_{self.a}"


# A monomial is a tuple of (Var, positive exponent) pairs sorted by Var.
Mono = tuple[tuple[Var, int], ...]

Scalar = Union[Rat, CycScalar]
# domain None means Q; a CycContext means Q(eta) for that h.
Domain = Union[None, CycContext]

MAX_DEGREE = 255

# the Var registry of the packed monomials: the exponent of _VARS[i] is the
# byte at bit offset _SHIFT[_VARS[i]] = 8 * (i + 1)
_VARS: list[Var] = []
_SHIFT: dict[Var, int] = {}


class DomainMismatchError(ValueError):
    pass


def _accumulate(terms: dict, items: Iterable[tuple], is_zero: Callable[[object], bool]) -> dict:
    """Add each (key, value) into ``terms``, dropping a key whose sum is exactly zero."""
    for key, c in items:
        acc = terms.get(key)
        c = c if acc is None else acc + c
        if is_zero(c):
            terms.pop(key, None)
        else:
            terms[key] = c
    return terms


def _zero_test(domain: Domain) -> Callable[[Scalar], bool]:
    # looked up per call, so a wrapper installed on CycScalar.is_zero is seen
    return not_ if domain is None else CycScalar.is_zero


def _degree_error(d: int) -> OverflowError:
    return OverflowError(f"monomial degree {d} exceeds the limit {MAX_DEGREE}")


def _shift(v: Var) -> int:
    """The bit offset of the exponent byte of v, assigned on first use."""
    s = _SHIFT.get(v)
    if s is None:
        _VARS.append(v)
        s = _SHIFT[v] = 8 * len(_VARS)
    return s


def _pack(mono: Mono) -> int:
    key = deg = 0
    for v, e in mono:
        if e < 0:
            raise ValueError(f"negative exponent {e} of {v}")
        key += e << _shift(v)
        deg += e
    if deg > MAX_DEGREE:
        raise _degree_error(deg)
    return key + deg


def _unpack(key: int) -> Mono:
    out = []
    for v in _VARS:
        key >>= 8
        if not key:
            break
        if key & 255:
            out.append((v, key & 255))
    return tuple(sorted(out))


def _poly(domain: Domain, num: dict, den: int = 1) -> "SparsePoly":
    """A polynomial from packed terms already in canonical form."""
    p = object.__new__(SparsePoly)
    p.domain = domain
    p.num = num
    p.den = den
    return p


def _make(domain: Domain, num: dict, den: int) -> "SparsePoly":
    """A polynomial from packed terms with no zero value; over Q, put in lowest terms."""
    if domain is None and den != 1:
        g = math.gcd(den, *num.values())
        if g != 1:
            den //= g
            num = {k: c // g for k, c in num.items()}
    return _poly(domain, num, den)


class SparsePoly:
    """Multivariate polynomial with exact scalar coefficients.

    Instances are immutable by convention: no method mutates ``num`` after
    construction, so values are safe to share.  ``domain`` is ``None`` for
    rational coefficients or a :class:`CycContext` for cyclotomic ones;
    operations require matching domains.  ``num`` maps packed monomials to
    numerators over the one denominator ``den`` (always 1 over Q(eta)).
    """

    __slots__ = ("domain", "num", "den")

    def __init__(self, domain: Domain, terms: Mapping[Mono, Scalar]):
        p = SparsePoly.from_terms(domain, terms.items())
        self.domain, self.num, self.den = domain, p.num, p.den

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(domain: Domain = None) -> "SparsePoly":
        return _poly(domain, {})

    @staticmethod
    def constant(c: Scalar, domain: Domain = None) -> "SparsePoly":
        return SparsePoly.from_terms(domain, [((), c)])

    @staticmethod
    def variable(v: Var, domain: Domain = None) -> "SparsePoly":
        return SparsePoly.monomial((v,), domain)

    @staticmethod
    def monomial(vs: Iterable[Var], domain: Domain = None) -> "SparsePoly":
        """The product of the variables ``vs``, which may repeat, with coefficient 1."""
        vs = tuple(vs)
        if len(vs) > MAX_DEGREE:
            raise _degree_error(len(vs))
        return _poly(domain, {sum((1 << _shift(v)) + 1 for v in vs):
                              1 if domain is None else domain.one})

    @staticmethod
    def from_terms(domain: Domain, items: Iterable[tuple[Mono, Scalar]]) -> "SparsePoly":
        terms = _accumulate({}, ((_pack(m), c) for m, c in items), _zero_test(domain))
        if domain is not None:
            return _poly(domain, terms)
        den = math.lcm(*(c.denominator for c in terms.values()))
        return _poly(None, {k: c.numerator * (den // c.denominator) for k, c in terms.items()},
                     den)

    # -- ring operations -----------------------------------------------------

    def _chk(self, other: "SparsePoly") -> None:
        if self.domain is not other.domain:
            raise DomainMismatchError("polynomials over different scalar domains")

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        self._chk(other)
        den = math.lcm(self.den, other.den)
        ua, ub = den // self.den, den // other.den
        num = {k: c * ua for k, c in self.num.items()} if ua != 1 else dict(self.num)
        items = other.num.items() if ub == 1 else ((k, c * ub) for k, c in other.num.items())
        return _make(self.domain, _accumulate(num, items, _zero_test(self.domain)), den)

    def __neg__(self) -> "SparsePoly":
        return _poly(self.domain, {k: -c for k, c in self.num.items()}, self.den)

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + (-other)

    def __mul__(self, other: "SparsePoly") -> "SparsePoly":
        return self._mul(other, None)

    def mul_capped(self, other: "SparsePoly", deg_cap: int | None = None) -> "SparsePoly":
        """Product truncated to total degree <= deg_cap; dropped terms are never formed."""
        return self._mul(other, deg_cap)

    def _mul(self, other: "SparsePoly", deg_cap: int | None) -> "SparsePoly":
        # the one product loop: with a cap, a monomial pair whose degrees
        # sum past it is skipped before its coefficients are multiplied
        self._chk(other)
        a, b = self.num, other.num
        if not a or not b:
            return _poly(self.domain, {})
        if deg_cap is None or deg_cap > MAX_DEGREE:
            # a cap above the degree limit does not lift it
            top = max(k & 255 for k in a) + max(k & 255 for k in b)
            if top > MAX_DEGREE:
                raise _degree_error(top)
            items = ((k1 + k2, c1 * c2) for k1, c1 in a.items() for k2, c2 in b.items())
        else:
            right = [(k, c, k & 255) for k, c in b.items()]
            low = min(d for _, _, d in right)
            left = [(k, c, r) for k, c in a.items() if (r := deg_cap - (k & 255)) >= low]
            if not left:  # the two lowest degrees already pass the cap
                return _poly(self.domain, {})
            items = ((k1 + k2, c1 * c2) for k1, c1, room in left
                     for k2, c2, d2 in right if d2 <= room)
        return _make(self.domain, _accumulate({}, items, _zero_test(self.domain)),
                     self.den * other.den)

    def scale(self, c: Scalar) -> "SparsePoly":
        # c may be a plain rational even when the domain is cyclotomic
        if c == 0:
            return _poly(self.domain, {})
        if self.domain is None:
            p = c.numerator
            return _make(None, {k: v * p for k, v in self.num.items()}, self.den * c.denominator)
        return _poly(self.domain, {k: v * c for k, v in self.num.items()})

    def __pow__(self, n: int) -> "SparsePoly":
        if n < 0:
            raise ValueError("polynomials only take nonnegative powers")
        out = SparsePoly.constant(1 if self.domain is None else self.domain.one, self.domain)
        for _ in range(n):
            out = out * self
        return out

    def diff(self, v: Var) -> "SparsePoly":
        """Exact partial derivative with respect to one variable slot."""
        s = _shift(v)
        step = (1 << s) + 1
        return _make(self.domain, {k - step: c * e for k, c in self.num.items()
                                   if (e := (k >> s) & 255)}, self.den)

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def homo_part(self, d: int) -> "SparsePoly":
        return _make(self.domain, {k: c for k, c in self.num.items() if k & 255 == d}, self.den)

    def coefficient(self, mono: Mono) -> Scalar:
        c = self.num.get(_pack(mono))
        if self.domain is not None:
            return self.domain.zero if c is None else c
        return Fraction(0 if c is None else c, self.den)

    def variables(self) -> list[Var]:
        bits = 0
        for k in self.num:
            bits |= k
        return sorted(v for v in _VARS if (bits >> _SHIFT[v]) & 255)

    @property
    def terms(self) -> Mapping[Mono, Scalar]:
        """The terms decoded to tuple monomials and ``Fraction``/``CycScalar`` values."""
        if self.domain is not None:
            return MappingProxyType({_unpack(k): c for k, c in self.num.items()})
        den = self.den
        return MappingProxyType({_unpack(k): Fraction(c, den) for k, c in self.num.items()})

    # -- domain moves ----------------------------------------------------------

    def demote(self) -> "SparsePoly":
        """Checked demotion Q(eta) -> Q; raises if any eta-part survives."""
        if self.domain is None:
            return self
        for c in self.num.values():
            if not c.is_rational():
                raise NotRationalError(c)
        den = math.lcm(*(c.den for c in self.num.values()))
        return _poly(None, {k: c.num[0] * (den // c.den) for k, c in self.num.items()}, den)

    # -- value semantics ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.domain is other.domain and self.den == other.den and self.num == other.num

    def __repr__(self) -> str:
        if not self.num:
            return "0"
        parts = []
        for mono, c in sorted(self.terms.items()):
            factors = "*".join(
                str(v) if e == 1 else f"{v}^{e}" for v, e in mono)
            cs = rat_str(c) if isinstance(c, Fraction) else f"({c})"
            parts.append(cs if not factors else
                         factors if cs == "1" else
                         f"-{factors}" if cs == "-1" else f"{cs}*{factors}")
        return " + ".join(parts).replace("+ -", "- ")

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        vars_ = self.variables()
        index = {v: i for i, v in enumerate(vars_)}
        terms = []
        for mono, c in sorted(self.terms.items()):
            coeff = rat_str(c) if isinstance(c, Fraction) else c.to_json()
            terms.append({"exps": [[index[v], e] for v, e in mono], "coeff": coeff})
        out = {"vars": [[v.m, v.a] for v in vars_], "terms": terms}
        if self.domain is not None:
            out["scalar"] = {"h": self.domain.h}
        return out

    @staticmethod
    def from_json(data: dict) -> "SparsePoly":
        from .exactnum import cyc_context

        domain: Domain = None
        if "scalar" in data:
            domain = cyc_context(int(data["scalar"]["h"]))
        vars_ = [Var(int(m), int(a)) for m, a in data["vars"]]
        items = []
        for t in data["terms"]:
            mono = tuple(sorted((vars_[i], int(e)) for i, e in t["exps"]))
            coeff = (parse_rat(t["coeff"]) if isinstance(t["coeff"], str)
                     else CycScalar.from_json(t["coeff"]))
            items.append((mono, coeff))
        return SparsePoly.from_terms(domain, items)


def weighted_sum(ctx: CycContext, parts: Iterable[tuple[CycScalar, SparsePoly]]) -> SparsePoly:
    """sum of scalar * poly over Q(eta), for (scalar, rational poly) pairs ``parts``.

    Integer numerators are summed per (monomial, eta-power) key, grouped by
    the denominator ``scalar.den * poly.den``; the groups meet over one lcm,
    and each monomial becomes one scalar in lowest terms.
    """
    d = ctx.deg
    groups: dict[int, dict[int, int]] = {}
    for s, poly in parts:
        if s.ctx is not ctx:
            raise ContextMismatchError(f"mixed cyclotomic contexts h={ctx.h} and h={s.ctx.h}")
        if poly.domain is not None:
            raise DomainMismatchError("weighted_sum takes rational polynomials")
        acc = groups.get(s.den * poly.den)
        if acc is None:
            acc = groups[s.den * poly.den] = {}
        row = [(i, x) for i, x in enumerate(s.num) if x]
        _accumulate(acc, ((k * d + i, c * x) for k, c in poly.num.items() for i, x in row), not_)
    den = math.lcm(*groups)
    total: dict[int, int] = {}
    for gden, acc in groups.items():
        up = den // gden
        _accumulate(total, acc.items() if up == 1 else ((k, c * up) for k, c in acc.items()),
                    not_)
    vecs: dict[int, list[int]] = {}
    for key, c in total.items():
        k, i = divmod(key, d)
        vec = vecs.get(k)
        if vec is None:
            vec = vecs[k] = [0] * d
        vec[i] = c
    return _poly(ctx, {k: _norm(ctx, vec, den) for k, vec in vecs.items()})


class LambdaSeries:
    """Finite Laurent object in lambda^(1/h) with polynomial coefficients.

    ``terms`` maps the integer q to the coefficient of lambda^(q/h).  The
    residue is the coefficient at q = -h, i.e. of lambda^(-1); fractional
    slots never carry residue.
    """

    __slots__ = ("h", "domain", "terms")

    def __init__(self, h: int, domain: Domain, terms: dict[int, SparsePoly]):
        self.h = h
        self.domain = domain
        self.terms = {q: p for q, p in terms.items() if not p.is_zero()}

    def _chk(self, other: "LambdaSeries") -> None:
        if self.h != other.h:
            raise DomainMismatchError("lambda-series with different h")
        if self.domain is not other.domain:
            raise DomainMismatchError("lambda-series over different scalar domains")

    def mul_capped(self, other: "LambdaSeries", deg_cap: int | None = None,
                   window: tuple[int, int] | None = None) -> "LambdaSeries":
        """Convolution of lambda-exponents; optional total-degree cap and exponent window.

        With ``window = (lo, hi)`` only the slots lo <= q <= hi are formed: a
        pair of slots whose exponents sum outside the window is skipped before
        its polynomial product is taken, as the degree cap skips monomial pairs.
        """
        self._chk(other)
        prods = ((q1 + q2, p1._mul(p2, deg_cap)) for q1, p1 in self.terms.items()
                 for q2, p2 in other.terms.items()
                 if window is None or window[0] <= q1 + q2 <= window[1])
        return LambdaSeries(self.h, self.domain, _accumulate({}, prods, SparsePoly.is_zero))

    def coefficient(self, q: int) -> SparsePoly:
        return self.terms.get(q, SparsePoly.zero(self.domain))

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, LambdaSeries):
            return NotImplemented
        return self.h == other.h and self.domain is other.domain and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for q in sorted(self.terms, reverse=True):
            parts.append(f"({self.terms[q]})*L^({q}/{self.h})")
        return " + ".join(parts)


class YPoly:
    """Univariate polynomial in the bookkeeping variable Y over Q(eta)."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: CycContext, coeffs: Iterable[CycScalar]):
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        self.ctx = ctx
        self.coeffs = tuple(cs)

    @staticmethod
    def zero(ctx: CycContext) -> "YPoly":
        return YPoly(ctx, [])

    @staticmethod
    def y_power(ctx: CycContext, k: int, c: CycScalar | None = None) -> "YPoly":
        c = ctx.one if c is None else c
        return YPoly(ctx, [ctx.zero] * k + [c])

    def coeff(self, k: int) -> CycScalar:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else self.ctx.zero

    def __mul__(self, other: "YPoly") -> "YPoly":
        if not self.coeffs or not other.coeffs:
            return YPoly.zero(self.ctx)
        a, b = self.coeffs, other.coeffs
        nb = len(b)
        # one field sum per output coefficient
        return YPoly(self.ctx, [
            self.ctx.sum(a[i] * b[k - i] for i in range(max(0, k - nb + 1), min(k, len(a) - 1) + 1)
                         if not a[i].is_zero())
            for k in range(len(a) + nb - 1)])

    def scale(self, c) -> "YPoly":
        return YPoly(self.ctx, [a * c for a in self.coeffs])

    def truncate(self, deg: int) -> "YPoly":
        return YPoly(self.ctx, self.coeffs[: deg + 1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, YPoly):
            return NotImplemented
        return self.ctx is other.ctx and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(f"({c})*Y^{k}" if k else f"({c})"
                          for k, c in enumerate(self.coeffs) if not c.is_zero())

    def to_json(self) -> list:
        return [c.to_json() for c in self.coeffs]
