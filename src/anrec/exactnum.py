"""Exact scalars: arbitrary-precision rationals and cyclotomic field elements.

Every pipeline coefficient in this package lives in Q or in Q(eta) with
eta = exp(2*pi*i/h).  Q(eta) is realised as Q[x]/(Phi_h(x)) for the h-th
cyclotomic polynomial Phi_h, which keeps it an honest field even for
composite h (Q[x]/(x^h - 1) has zero divisors), so constants of the form
1/(1 - eta^j) are available exactly.

A :class:`CycScalar` in the power basis 1, eta, ..., eta^(d-1), d = phi(h),
is stored as a tuple of d Python ``int`` numerators over one positive
``int`` denominator, always in lowest terms: the gcd of the numerators and
the denominator is 1, and zero is all zeros over 1.  Every value therefore
has exactly one stored form, so ``==`` and ``hash`` compare the stored
integers.  Phi_h is monic over Z, so reduction modulo Phi_h maps integer
vectors to integer vectors: a product is one integer convolution, one
integer reduction through precomputed rows and one gcd pass, and a sum of
scalars over equal denominators adds numerators only.  Two cheaper routes
skip the general product and the per-step gcd:

* ``x.rotate(k)`` is ``x * eta^k`` as one pass over the numerators through
  the sparse rows of x^p mod Phi_h (p < h).  eta^k is a unit of Z[eta], so
  the map is a Z-automorphism of the numerator lattice: it keeps the
  content of the numerators, hence lowest terms, and the denominator is
  kept as it is with no gcd.
* ``ctx.sum(xs)`` adds many scalars in one pass, accumulating integer
  numerators over a running lcm of the denominators, and puts the result
  in lowest terms once at the end.

An inverse is the product of the other Galois conjugates (eta -> eta^k,
k a unit mod h) divided by the norm, a nonzero integer.
``CycScalar.coeffs`` gives the coefficients as ``Fraction``s for display;
``to_json`` writes them from the numerators and the denominator directly.

Complex floating evaluation exists only as a diagnostic
(:meth:`CycScalar.approx`) and is never fed back into exact arithmetic.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from collections.abc import Iterable, Sequence
from fractions import Fraction

Rat = Fraction


class NotRationalError(ValueError):
    """A cyclotomic scalar with a genuine eta-part was asked for as a rational."""

    def __init__(self, scalar: "CycScalar"):
        self.scalar = scalar
        super().__init__(f"scalar is not rational: {scalar}")


class ContextMismatchError(ValueError):
    """Two scalars from different cyclotomic fields were combined."""


def rat_str(q: Rat) -> str:
    """Render p/q, or just p when the denominator is 1."""
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _ratio_str(num: int, den: int) -> str:
    """num/den over a positive den in lowest terms, as :func:`rat_str` writes it."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def parse_rat(s: str) -> Rat:
    return Fraction(s)


# ---------------------------------------------------------------------------
# Dense integer polynomials, constant term first.  Only what Phi_h needs.
# ---------------------------------------------------------------------------

def _ztrim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _zdivmod_exact(n: tuple[int, ...], d: tuple[int, ...]) -> tuple[int, ...]:
    """Quotient of n by d over Z; requires the division to be exact."""
    n_ = list(n)
    q = [0] * (len(n) - len(d) + 1)
    lead = d[-1]
    for k in range(len(n_) - len(d), -1, -1):
        c = n_[k + len(d) - 1]
        if c % lead:
            raise ArithmeticError("inexact polynomial division")
        t = c // lead
        q[k] = t
        if t:
            for j, dj in enumerate(d):
                n_[k + j] -= t * dj
    if any(n_):
        raise ArithmeticError("nonzero remainder in exact division")
    return _ztrim(q)


@functools.lru_cache(maxsize=None)
def cyclotomic_poly(h: int) -> tuple[int, ...]:
    """The h-th cyclotomic polynomial as a dense coefficient tuple.

    Computed by dividing x^h - 1 by the product of the cyclotomic
    polynomials of all proper divisors of h.

    >>> cyclotomic_poly(1)
    (-1, 1)
    >>> cyclotomic_poly(2)
    (1, 1)
    >>> cyclotomic_poly(12)
    (1, 0, -1, 0, 1)
    """
    if h < 1:
        raise ValueError("h must be >= 1")
    num: tuple[int, ...] = tuple([-1] + [0] * (h - 1) + [1])  # x^h - 1
    for d in range(1, h):
        if h % d == 0:
            num = _zdivmod_exact(num, cyclotomic_poly(d))
    return num


class CycContext:
    """Shared, immutable data of the field Q(eta), eta = exp(2*pi*i/h).

    Holds Phi_h, the integer reduction rows for x^k with k >= deg(Phi_h),
    the table of eta powers and the units mod h that index the Galois
    conjugations.  Obtain instances through :func:`cyc_context`; they are
    cached and compared by identity.
    """

    __slots__ = ("h", "phi", "deg", "_rows", "_eta_rows", "_eta", "_units", "zero", "one")

    def __init__(self, h: int):
        if h < 2:
            raise ValueError("h must be >= 2")
        self.h = h
        self.phi = cyclotomic_poly(h)
        self.deg = d = len(self.phi) - 1
        # x^k mod Phi_h for k < max(h, 2d - 1); Phi_h is monic over Z, so
        # every power is an integer vector
        powers: list[tuple[int, ...]] = []
        cur = [1] + [0] * (d - 1)
        for _ in range(max(h, 2 * d - 1)):
            powers.append(tuple(cur))
            top = cur[-1]
            cur = [0] + cur[:-1]
            if top:
                for j in range(d):
                    cur[j] -= top * self.phi[j]
        # the product kernel reads x^d .. x^(2d-2) as sparse (index, coefficient) rows
        sparse = [tuple((j, c) for j, c in enumerate(row) if c) for row in powers]
        self._rows = tuple(sparse[d:2 * d - 1])
        # rotations and conjugations read x^p, p < h, as sparse rows as well
        self._eta_rows = tuple(sparse[:h])
        self._eta = tuple(_raw(self, num, 1) for num in powers[:h])
        self._units = tuple(k for k in range(2, h) if math.gcd(k, h) == 1)
        self.zero = _raw(self, (0,) * d, 1)
        self.one = self._eta[0]

    def _mul(self, a: Sequence[int], b: Sequence[int]) -> list[int]:
        """Product of two integer vectors, reduced modulo Phi_h."""
        d = self.deg
        out = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for k, bk in enumerate(b, i):
                    out[k] += ai * bk
        res = out[:d]
        for c, row in zip(out[d:], self._rows):
            if c:
                for j, r in row:
                    res[j] += c * r
        return res

    def _conj(self, a: tuple[int, ...], k: int) -> list[int]:
        """The Galois conjugate eta -> eta^k of an integer vector."""
        out = [0] * self.deg
        h, rows = self.h, self._eta_rows
        for i, ai in enumerate(a):
            if ai:
                for j, e in rows[i * k % h]:
                    out[j] += ai * e
        return out

    def sum(self, scalars: Iterable["CycScalar"]) -> "CycScalar":
        """The exact sum of scalars of this field, in lowest terms.

        Accumulates integer numerators over a running lcm of the
        denominators and reduces once, instead of one gcd and one new
        scalar per addition.  A scalar of another field raises
        :class:`ContextMismatchError`, as ``+`` does.
        """
        num = [0] * self.deg
        den = 1
        for x in scalars:
            if x.ctx is not self:
                raise ContextMismatchError(
                    f"mixed cyclotomic contexts h={self.h} and h={x.ctx.h}")
            xd = x.den
            if xd == den:
                num = list(map(operator.add, num, x.num))
                continue
            if den % xd:
                up = xd // math.gcd(den, xd)
                num = [a * up for a in num]
                den *= up
            up = den // xd
            num = [a + b * up for a, b in zip(num, x.num)]
        return _norm(self, num, den)

    def eta_pow(self, k: int) -> "CycScalar":
        """eta^k reduced modulo Phi_h (k taken mod h)."""
        return self._eta[k % self.h]

    def from_rat(self, q) -> "CycScalar":
        if not isinstance(q, (int, Fraction)):
            q = Fraction(q)
        return _raw(self, (q.numerator,) + (0,) * (self.deg - 1), q.denominator)

    def __repr__(self) -> str:
        return f"CycContext(h={self.h})"


@functools.lru_cache(maxsize=None)
def cyc_context(h: int) -> CycContext:
    return CycContext(h)


class CycScalar:
    """An element of Q(eta) in the power basis 1, eta, ..., eta^(phi(h)-1).

    Stored as integer numerators ``num`` over one positive integer ``den``
    in lowest terms; ``coeffs`` gives the same value as ``Fraction``s.
    Values are immutable; arithmetic returns new scalars reduced mod Phi_h.
    """

    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx: CycContext, coeffs: tuple[Rat, ...]):
        den = math.lcm(*(c.denominator for c in coeffs))
        self.ctx = ctx
        self.num = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        self.den = den

    @property
    def coeffs(self) -> tuple[Rat, ...]:
        den = self.den
        return tuple(Fraction(n, den) for n in self.num)

    # -- ring structure ----------------------------------------------------

    def _chk(self, other: "CycScalar") -> None:
        if self.ctx is not other.ctx:
            raise ContextMismatchError(
                f"mixed cyclotomic contexts h={self.ctx.h} and h={other.ctx.h}")

    def _combine(self, other, op) -> "CycScalar":
        """self op other for op = operator.add or operator.sub."""
        if not isinstance(other, CycScalar):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.ctx.from_rat(other)
        self._chk(other)
        ad, bd = self.den, other.den
        if ad == bd:
            return _norm(self.ctx, list(map(op, self.num, other.num)), ad)
        g = math.gcd(ad, bd)
        sa, sb = bd // g, ad // g
        return _norm(self.ctx, list(map(op, [x * sa for x in self.num],
                                        [y * sb for y in other.num])), ad * sa)

    def __add__(self, other):
        return self._combine(other, operator.add)

    __radd__ = __add__

    def __neg__(self):
        return _raw(self.ctx, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, CycScalar):
            self._chk(other)
            return _norm(self.ctx, self.ctx._mul(self.num, other.num), self.den * other.den)
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            return _norm(self.ctx, [a * p for a in self.num], self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def rotate(self, k: int) -> "CycScalar":
        """self * eta^k without a field product.

        Sends each numerator at eta^i to the row of eta^((i + k) mod h).
        Multiplication by the unit eta^k preserves the content of the
        numerators, so the result is in lowest terms over the same
        denominator.
        """
        ctx = self.ctx
        h, rows = ctx.h, ctx._eta_rows
        k %= h
        out = [0] * ctx.deg
        for i, a in enumerate(self.num, k):
            if a:
                for j, r in rows[i % h]:
                    out[j] += a * r
        return _raw(ctx, tuple(out), self.den)

    def inv(self) -> "CycScalar":
        """Multiplicative inverse: the other Galois conjugates over the norm.

        For the integer vector a = den * self, the product of the conjugates
        eta -> eta^k over the units k != 1 mod h, times a, is the norm of a,
        a nonzero integer; so 1/self = den * prod / norm.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic scalar")
        ctx = self.ctx
        prod = ctx.one.num
        for k in ctx._units:
            prod = ctx._mul(prod, ctx._conj(self.num, k))
        norm = ctx._mul(self.num, prod)[0]
        scale = self.den if norm > 0 else -self.den
        return _norm(ctx, [c * scale for c in prod], abs(norm))

    def __truediv__(self, other):
        if isinstance(other, CycScalar):
            return self * other.inv()
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        out = self.ctx.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- predicates and conversions ----------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def to_rational(self) -> Rat:
        if not self.is_rational():
            raise NotRationalError(self)
        return Fraction(self.num[0], self.den)

    def approx(self) -> complex:
        """Numeric value at eta = exp(2*pi*i/h) in double precision; diagnostic only."""
        eta = cmath.exp(2j * cmath.pi / self.ctx.h)
        return sum(float(c) * eta ** k for k, c in enumerate(self.coeffs))

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, CycScalar):
            return self.ctx is other.ctx and self.den == other.den and self.num == other.num
        if isinstance(other, (int, Fraction)):
            return (self.is_rational() and self.num[0] == other.numerator
                    and self.den == other.denominator)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ctx.h, self.num, self.den))

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(rat_str(c))
            else:
                mono = "eta" if k == 1 else f"eta^{k}"
                parts.append(mono if c == 1 else f"-{mono}" if c == -1 else f"{rat_str(c)}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    def to_json(self) -> dict:
        den = self.den
        return {"h": self.ctx.h, "coeffs": [_ratio_str(n, den) for n in self.num]}

    @staticmethod
    def from_json(data: dict) -> "CycScalar":
        ctx = cyc_context(int(data["h"]))
        coeffs = tuple(parse_rat(s) for s in data["coeffs"])
        if len(coeffs) != ctx.deg:
            raise ValueError("coefficient vector length does not match phi(h)")
        return CycScalar(ctx, coeffs)


_new_scalar = object.__new__


def _raw(ctx: CycContext, num: tuple[int, ...], den: int) -> CycScalar:
    """A scalar from numerators and a positive denominator already in lowest terms."""
    s = _new_scalar(CycScalar)
    s.ctx = ctx
    s.num = num
    s.den = den
    return s


def _norm(ctx: CycContext, num: list[int], den: int) -> CycScalar:
    """A scalar from numerators over a positive denominator, put in lowest terms."""
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            den //= g
            num = [a // g for a in num]
    return _raw(ctx, tuple(num), den)

