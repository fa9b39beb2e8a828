"""Sparse rational polynomials, Laurent objects in a fractional power, and Y-polynomials.

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
carries into the next; a monomial past it raises ``OverflowError``, and so
does a product with no cap within the limit whose top degrees sum past it
(the one rule :func:`_degree_limit`, for every product).
Coefficients are rational: ``int`` numerators over one positive
denominator, in lowest terms (zero is no terms over 1), so ``==`` compares
the stored integers and no ``Fraction`` is formed by a product, sum or
derivative.  Q(eta) enters only through :func:`weighted_sum`, which adds
cyclotomic multiples of rational polynomials and returns the rational sum,
raising :class:`NotRationalError` if an eta-part survives.
``SparsePoly(None, {mono: c})`` takes tuple monomials, and ``.terms`` is a
read-only decoded view in the same form, for tests and output.

A :class:`LambdaSeries` keeps the same packed monomials and ``int``
numerators per lambda slot, over one denominator for the whole series: a
product multiplies every pair of slots in one loop and runs one gcd, and
:meth:`LambdaSeries.slot_part` forms one homogeneous part of one slot alone.

No stored coefficient is ever zero: every sparse sum in the package, here
and in ``rootsys``, goes through the one loop :func:`_accumulate`, and
every capped product through its form for ``int`` numerators,
:func:`_add_products`; both drop a key as soon as its sum is exactly zero,
as does the exact-degree pair loop of :meth:`LambdaSeries.slot_part`.
:func:`poly_sum` adds integer multiples of polynomials over one lcm.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import not_
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple

from .exactnum import (
    ContextMismatchError,
    CycContext,
    CycScalar,
    NotRationalError,
    Rat,
    _norm,
    _ratio_str,
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


def _add_products(acc: dict, left: list, right: list) -> dict:
    """Add c1 * c2 at k1 + k2 into ``acc`` for each left (k1, c1, room) and right
    (k2, c2, degree) whose degree fits the room; a zero sum drops its key.

    The pair loop of the capped products: :func:`_accumulate` for ``int``
    numerators, with no (key, value) pair formed per product.
    """
    get = acc.get
    for k1, c1, room in left:
        for k2, c2, d2 in right:
            if d2 <= room:
                k = k1 + k2
                c = get(k, 0) + c1 * c2
                if c:
                    acc[k] = c
                else:
                    del acc[k]
    return acc


def _degree_error(d: int) -> OverflowError:
    return OverflowError(f"monomial degree {d} exceeds the limit {MAX_DEGREE}")


def _degree_limit(left: Iterable[int], right: Iterable[int]) -> int:
    """``MAX_DEGREE``, the cap of a product of the packed keys ``left`` and ``right``
    that has no cap of its own or one above the limit, which does not lift it.

    A product whose top degrees sum past the limit raises ``OverflowError``.
    """
    top = max((k & 255 for k in left), default=0) + max((k & 255 for k in right), default=0)
    if top > MAX_DEGREE:
        raise _degree_error(top)
    return MAX_DEGREE


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


def _mono_key(vs: tuple[Var, ...]) -> int:
    """The packed key of the product of ``vs``, which may repeat."""
    if len(vs) > MAX_DEGREE:
        raise _degree_error(len(vs))
    return sum((1 << _shift(v)) + 1 for v in vs)


def _unpack(key: int) -> Mono:
    out = []
    for v in _VARS:
        key >>= 8
        if not key:
            break
        if key & 255:
            out.append((v, key & 255))
    return tuple(sorted(out))


def _poly(num: dict, den: int = 1) -> "SparsePoly":
    """A polynomial from packed terms already in canonical form."""
    p = object.__new__(SparsePoly)
    p.num = num
    p.den = den
    return p


def _make(num: dict, den: int) -> "SparsePoly":
    """A polynomial from packed nonzero numerators over ``den``, put in lowest terms."""
    if den != 1:
        g = math.gcd(den, *num.values())
        if g != 1:
            den //= g
            num = {k: c // g for k, c in num.items()}
    return _poly(num, den)


class SparsePoly:
    """Multivariate polynomial with rational coefficients.

    Instances are immutable by convention: no method mutates ``num`` after
    construction, so values are safe to share.  ``num`` maps packed
    monomials to ``int`` numerators over the one denominator ``den``.  The
    constructor's first argument names the coefficient field and must be
    ``None``, the rationals.
    """

    __slots__ = ("num", "den")

    def __init__(self, domain: None, terms: Mapping[Mono, Rat]):
        if domain is not None:
            raise ValueError(f"polynomial coefficients are rational, not over {domain!r}")
        p = SparsePoly.from_terms(terms.items())
        self.num, self.den = p.num, p.den

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero() -> "SparsePoly":
        return _poly({})

    @staticmethod
    def constant(c: Rat) -> "SparsePoly":
        return SparsePoly.from_terms([((), c)])

    @staticmethod
    def variable(v: Var) -> "SparsePoly":
        return SparsePoly.monomial((v,))

    @staticmethod
    def monomial(vs: Iterable[Var]) -> "SparsePoly":
        """The product of the variables ``vs``, which may repeat, with coefficient 1."""
        return _poly({_mono_key(tuple(vs)): 1})

    @staticmethod
    def from_terms(items: Iterable[tuple[Mono, Rat]]) -> "SparsePoly":
        terms = _accumulate({}, ((_pack(m), c) for m, c in items), not_)
        den = math.lcm(*(c.denominator for c in terms.values()))
        return _poly({k: c.numerator * (den // c.denominator) for k, c in terms.items()}, den)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        return poly_sum(((1, self), (1, other)))

    def __neg__(self) -> "SparsePoly":
        return _poly({k: -c for k, c in self.num.items()}, self.den)

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return poly_sum(((1, self), (-1, other)))

    def mul_capped(self, other: "SparsePoly", deg_cap: int | None = None) -> "SparsePoly":
        """Product truncated to total degree <= deg_cap; dropped terms are never formed."""
        a, b = self.num, other.num
        if not a or not b:
            return _poly({})
        if deg_cap is None or deg_cap > MAX_DEGREE:
            deg_cap = _degree_limit(a, b)
        right = [(k, c, k & 255) for k, c in b.items()]
        low = min(d for _, _, d in right)
        left = [(k, c, r) for k, c in a.items() if (r := deg_cap - (k & 255)) >= low]
        return _make(_add_products({}, left, right), self.den * other.den)

    __mul__ = mul_capped

    def scale(self, c: Rat) -> "SparsePoly":
        if c == 0:
            return _poly({})
        p = c.numerator
        return _make({k: v * p for k, v in self.num.items()}, self.den * c.denominator)

    def __pow__(self, n: int) -> "SparsePoly":
        if n < 0:
            raise ValueError("polynomials only take nonnegative powers")
        out = SparsePoly.constant(1)
        for _ in range(n):
            out = out * self
        return out

    def diff(self, v: Var) -> "SparsePoly":
        """Exact partial derivative with respect to one variable slot."""
        s = _shift(v)
        step = (1 << s) + 1
        return _make({k - step: c * e for k, c in self.num.items()
                      if (e := (k >> s) & 255)}, self.den)

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def homo_part(self, d: int) -> "SparsePoly":
        return _make({k: c for k, c in self.num.items() if k & 255 == d}, self.den)

    def coefficient(self, mono: Mono) -> Rat:
        return Fraction(self.num.get(_pack(mono), 0), self.den)

    def variables(self) -> list[Var]:
        bits = 0
        for k in self.num:
            bits |= k
        return sorted(v for v in _VARS if (bits >> _SHIFT[v]) & 255)

    @property
    def terms(self) -> Mapping[Mono, Rat]:
        """The terms decoded to tuple monomials and ``Fraction`` values."""
        den = self.den
        return MappingProxyType({_unpack(k): Fraction(c, den) for k, c in self.num.items()})

    # -- value semantics ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __repr__(self) -> str:
        if not self.num:
            return "0"
        parts = []
        for mono, c in sorted(self.terms.items()):
            factors = "*".join(
                str(v) if e == 1 else f"{v}^{e}" for v, e in mono)
            cs = rat_str(c)
            parts.append(cs if not factors else
                         factors if cs == "1" else
                         f"-{factors}" if cs == "-1" else f"{cs}*{factors}")
        return " + ".join(parts).replace("+ -", "- ")

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        vars_ = self.variables()
        index = {v: i for i, v in enumerate(vars_)}
        den = self.den
        terms = []
        for mono, c in sorted((_unpack(k), c) for k, c in self.num.items()):
            terms.append({"exps": [[index[v], e] for v, e in mono],
                          "coeff": _ratio_str(c, den)})
        return {"vars": [[v.m, v.a] for v in vars_], "terms": terms}

    @staticmethod
    def from_json(data: dict) -> "SparsePoly":
        vars_ = [Var(int(m), int(a)) for m, a in data["vars"]]
        items = []
        for t in data["terms"]:
            mono = tuple(sorted((vars_[i], int(e)) for i, e in t["exps"]))
            items.append((mono, parse_rat(t["coeff"])))
        return SparsePoly.from_terms(items)


def poly_sum(parts: Iterable[tuple[int, SparsePoly]]) -> SparsePoly:
    """The sum of c * poly over the ``(c, poly)`` parts, ``int`` c, over one lcm."""
    parts = [(c, p) for c, p in parts if p.num]
    den = math.lcm(*(p.den for _, p in parts))
    num: dict[int, int] = {}
    for c, p in parts:
        up = c * (den // p.den)
        items = p.num.items() if up == 1 else ((k, x * up) for k, x in p.num.items())
        num = _accumulate(num, items, not_) if num else dict(items)
    return _make(num, den)


def weighted_sum(ctx: CycContext, parts: Iterable[tuple]) -> SparsePoly:
    """The rational polynomial sum of scalar * factor * poly [* blocks] over ``parts``.

    Each part is a Q(eta) scalar, an ``int`` factor and a rational
    polynomial, optionally followed by a second polynomial ``blocks`` (or
    ``None``) that multiplies it.  The factor multiplies the scalar's integer
    numerators, so no field product is formed per part, and ``poly * blocks``
    is never formed either: the scalar row is folded into the monomials of
    ``poly`` and each monomial of ``blocks`` adds that row into the sum.  A
    product whose degree would pass ``MAX_DEGREE`` raises ``OverflowError``,
    as ``poly * blocks`` does.  Integer numerators are summed per (monomial,
    eta-power) key, grouped by the part's denominator, and the groups meet
    over one lcm.  Every eta-part must cancel: a monomial whose coefficient
    keeps one raises :class:`NotRationalError` with that coefficient.
    """
    d = ctx.deg
    groups: dict[int, dict[int, int]] = {}
    for s, f, poly, *rest in parts:
        if s.ctx is not ctx:
            raise ContextMismatchError(f"mixed cyclotomic contexts h={ctx.h} and h={s.ctx.h}")
        blocks = rest[0] if rest else None
        den = s.den * poly.den
        row = [(i, x * f) for i, x in enumerate(s.num) if x]
        items = [(k * d + i, c * x) for k, c in poly.num.items() for i, x in row]
        if blocks is not None:
            _degree_limit(poly.num, blocks.num)
            den *= blocks.den
            folded = items  # the scalar row times each monomial of poly
            items = ((k * d + j, c * y) for k, c in blocks.num.items() for j, y in folded)
        acc = groups.get(den)
        if acc is None:
            acc = groups[den] = {}
        _accumulate(acc, items, not_)
    den = math.lcm(*groups)
    total: dict[int, int] = {}
    for gden, acc in groups.items():
        up = den // gden
        _accumulate(total, acc.items() if up == 1 else ((k, c * up) for k, c in acc.items()),
                    not_)
    num: dict[int, int] = {}
    for key, c in total.items():
        k, i = divmod(key, d)
        if i:
            raise NotRationalError(_norm(ctx, [total.get(k * d + j, 0) for j in range(d)], den))
        num[k] = c
    return _make(num, den)


class LambdaSeries:
    """Finite Laurent object in lambda^(1/h) with rational polynomial coefficients.

    ``terms`` maps the integer q to the coefficient of lambda^(q/h).  The
    residue is the coefficient at q = -h, i.e. of lambda^(-1); fractional
    slots never carry residue.

    The series is stored as ``slots``, which maps each q with a nonzero
    coefficient to packed monomial keys and ``int`` numerators over the one
    positive denominator ``den`` of the whole series, in lowest terms.  A
    product therefore forms no :class:`SparsePoly` per pair of slots and runs
    one gcd; ``terms`` and :meth:`coefficient` put a slot in lowest terms of
    its own when they decode it.
    """

    __slots__ = ("h", "slots", "den")

    def __init__(self, h: int, terms: Mapping[int, SparsePoly]):
        # each coefficient is in lowest terms, so over their lcm the series is too
        terms = [(q, p) for q, p in terms.items() if p.num]
        den = math.lcm(*(p.den for _, p in terms))
        self.h, self.den = h, den
        self.slots = {q: {k: c * (den // p.den) for k, c in p.num.items()} for q, p in terms}

    @property
    def terms(self) -> dict[int, SparsePoly]:
        den = self.den
        return {q: _make(num, den) for q, num in self.slots.items()}

    def mul_capped(self, other: "LambdaSeries", deg_cap: int | None = None,
                   window: tuple[int, int] | None = None) -> "LambdaSeries":
        """Convolution of lambda-exponents; optional total-degree cap and exponent window.

        With ``window = (lo, hi)`` only the slots lo <= q <= hi are formed: a
        pair of slots whose exponents sum outside the window is skipped before
        any of its coefficients is multiplied, as the degree cap skips monomial
        pairs.  All pairs of slots meet in one loop over one denominator.
        """
        if self.h != other.h:
            raise DomainMismatchError("lambda-series with different h")
        a, b = self.slots, other.slots
        if deg_cap is None or deg_cap > MAX_DEGREE:
            deg_cap = _degree_limit((k for num in a.values() for k in num),
                                    (k for num in b.values() for k in num))
        lo, hi = window if window is not None else (-math.inf, math.inf)
        rows = {q2: [(k, c, k & 255) for k, c in num2.items()] for q2, num2 in b.items()}
        out: dict[int, dict[int, int]] = {}
        for q1, num1 in a.items():
            left = [(k, c, deg_cap - (k & 255)) for k, c in num1.items()]
            for q2, right in rows.items():
                q = q1 + q2
                if lo <= q <= hi:
                    _add_products(out.setdefault(q, {}), left, right)
        # one gcd over every numerator of every slot puts the product in lowest terms
        out = {q: num for q, num in out.items() if num}
        den = self.den * other.den
        g = math.gcd(den, *(c for num in out.values() for c in num.values()))
        s = object.__new__(LambdaSeries)
        s.h, s.den = self.h, den // g
        s.slots = out if g == 1 else {q: {k: c // g for k, c in num.items()}
                                      for q, num in out.items()}
        return s

    def slot_part(self, other: "LambdaSeries", q: int, d: int) -> SparsePoly:
        """The degree-d part of the lambda^(q/h) coefficient of ``self * other``.

        Only that one coefficient is formed: each monomial of a slot q1 of
        ``self`` meets the monomials of degree exactly d minus its own in slot
        q - q1 of ``other``, and nothing else is multiplied.
        """
        if self.h != other.h:
            raise DomainMismatchError("lambda-series with different h")
        b = other.slots
        num: dict[int, int] = {}
        for q1, num1 in self.slots.items():
            num2 = b.get(q - q1)
            if num2 is None:
                continue
            by_degree: dict[int, list[tuple[int, int]]] = {}
            for k2, c2 in num2.items():
                by_degree.setdefault(k2 & 255, []).append((k2, c2))
            get = num.get
            for k1, c1 in num1.items():
                for k2, c2 in by_degree.get(d - (k1 & 255), ()):
                    k = k1 + k2
                    c = get(k, 0) + c1 * c2
                    if c:
                        num[k] = c
                    else:
                        del num[k]
        return _make(num, self.den * other.den)

    def coefficient(self, q: int) -> SparsePoly:
        num = self.slots.get(q)
        return SparsePoly.zero() if num is None else _make(num, self.den)

    def is_zero(self) -> bool:
        return not self.slots

    def __eq__(self, other) -> bool:
        if not isinstance(other, LambdaSeries):
            return NotImplemented
        return self.h == other.h and self.den == other.den and self.slots == other.slots

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
