"""Exact scalars: arbitrary-precision rationals and cyclotomic field elements.

Every pipeline coefficient in this package lives in Q or in Q(eta) with
eta = exp(2*pi*i/h).  Q(eta) is realised as Q[x]/(Phi_h(x)) for the h-th
cyclotomic polynomial Phi_h, which keeps it an honest field even for
composite h (Q[x]/(x^h - 1) has zero divisors), so constants of the form
1/(1 - eta^j) are available exactly.  Inverses come from the extended
Euclidean algorithm against Phi_h.

Complex floating evaluation exists only as a diagnostic
(:meth:`CycScalar.approx`) and is never fed back into exact arithmetic.
"""

from __future__ import annotations

import cmath
import functools
from fractions import Fraction

Rat = Fraction


class NotRationalError(ValueError):
    """A cyclotomic scalar with a genuine eta-part was demoted to Q."""

    def __init__(self, scalar: "CycScalar"):
        self.scalar = scalar
        super().__init__(f"scalar is not rational: {scalar}")


class ContextMismatchError(ValueError):
    """Two scalars from different cyclotomic fields were combined."""


def rat_str(q: Rat) -> str:
    """Render p/q, or just p when the denominator is 1."""
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


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


# ---------------------------------------------------------------------------
# Fraction-coefficient polynomial helpers for the extended Euclid in Q[x].
# ---------------------------------------------------------------------------

def _ftrim(c: list[Rat]) -> list[Rat]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _fdivmod(n: list[Rat], d: list[Rat]) -> tuple[list[Rat], list[Rat]]:
    n_ = list(n)
    if len(n_) < len(d):
        return [], n_
    q = [Fraction(0)] * (len(n_) - len(d) + 1)
    lead = d[-1]
    for k in range(len(n_) - len(d), -1, -1):
        t = n_[k + len(d) - 1] / lead
        q[k] = t
        if t:
            for j, dj in enumerate(d):
                n_[k + j] -= t * dj
    return _ftrim(q), _ftrim(n_)


def _fmul(a: list[Rat], b: list[Rat]) -> list[Rat]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ci in enumerate(a):
        if ci:
            for j, cj in enumerate(b):
                out[i + j] += ci * cj
    return _ftrim(out)


def _fsub(a: list[Rat], b: list[Rat]) -> list[Rat]:
    out = list(a) + [Fraction(0)] * max(0, len(b) - len(a))
    for j, cj in enumerate(b):
        out[j] -= cj
    return _ftrim(out)


class CycContext:
    """Shared, immutable data of the field Q(eta), eta = exp(2*pi*i/h).

    Holds Phi_h, the reduction rows for x^k with k >= deg(Phi_h), and the
    table of eta powers.  Obtain instances through :func:`cyc_context`; they
    are cached and compared by identity.
    """

    __slots__ = ("h", "phi", "deg", "_rows", "_eta", "zero", "one")

    def __init__(self, h: int):
        if h < 2:
            raise ValueError("h must be >= 2")
        self.h = h
        self.phi = cyclotomic_poly(h)
        self.deg = len(self.phi) - 1
        d = self.deg
        # rows[k - d] = coefficients of x^k mod Phi_h, for k = d .. 2d - 2 + h
        rows: list[tuple[Rat, ...]] = []
        cur = [Fraction(-c) for c in self.phi[:d]]  # x^d mod Phi (monic)
        rows.append(tuple(cur))
        for _ in range(d - 2 + self.h):
            top = cur[-1]
            cur = [Fraction(0)] + cur[:-1]
            if top:
                for j in range(d):
                    cur[j] += top * -self.phi[j]
            rows.append(tuple(cur))
        self._rows = rows
        eta: list[CycScalar] = []
        for k in range(h):
            coeffs = [Fraction(0)] * d
            if k < d:
                coeffs[k] = Fraction(1)
            else:
                coeffs = list(rows[k - d])
            eta.append(CycScalar(self, tuple(coeffs)))
        self._eta = eta
        self.zero = CycScalar(self, (Fraction(0),) * d)
        self.one = self._eta[0]

    def reduce(self, coeffs: list[Rat]) -> tuple[Rat, ...]:
        """Reduce a coefficient list of length <= 2*deg - 1 modulo Phi_h."""
        d = self.deg
        out = list(coeffs[:d]) + [Fraction(0)] * max(0, d - len(coeffs))
        for k in range(d, len(coeffs)):
            c = coeffs[k]
            if c:
                row = self._rows[k - d]
                for j in range(d):
                    out[j] += c * row[j]
        return tuple(out)

    def eta_pow(self, k: int) -> "CycScalar":
        return self._eta[k % self.h]

    def from_rat(self, q) -> "CycScalar":
        q = Fraction(q)
        return CycScalar(self, (q,) + (Fraction(0),) * (self.deg - 1))

    def __repr__(self) -> str:
        return f"CycContext(h={self.h})"


@functools.lru_cache(maxsize=None)
def cyc_context(h: int) -> CycContext:
    return CycContext(h)


class CycScalar:
    """An element of Q(eta) in the power basis 1, eta, ..., eta^(phi(h)-1).

    Values are immutable; arithmetic returns new scalars reduced mod Phi_h.
    """

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: CycContext, coeffs: tuple[Rat, ...]):
        self.ctx = ctx
        self.coeffs = coeffs

    # -- ring structure ----------------------------------------------------

    def _chk(self, other: "CycScalar") -> None:
        if self.ctx is not other.ctx:
            raise ContextMismatchError(
                f"mixed cyclotomic contexts h={self.ctx.h} and h={other.ctx.h}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.from_rat(other)
        self._chk(other)
        return CycScalar(self.ctx, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycScalar(self.ctx, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.from_rat(other)
        self._chk(other)
        return CycScalar(self.ctx, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return CycScalar(self.ctx, tuple(a * q for a in self.coeffs))
        self._chk(other)
        a, b = self.coeffs, other.coeffs
        out = [Fraction(0)] * (2 * len(a) - 1)
        for i, ci in enumerate(a):
            if ci:
                for j, cj in enumerate(b):
                    if cj:
                        out[i + j] += ci * cj
        return CycScalar(self.ctx, self.ctx.reduce(out))

    __rmul__ = __mul__

    def inv(self) -> "CycScalar":
        """Multiplicative inverse via extended Euclid against Phi_h."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic scalar")
        phi = [Fraction(c) for c in self.ctx.phi]
        r0, r1 = phi, _ftrim(list(self.coeffs))
        t0: list[Rat] = []
        t1: list[Rat] = [Fraction(1)]
        while r1:
            q, r = _fdivmod(r0, r1)
            r0, r1 = r1, r
            t0, t1 = t1, _fsub(t0, _fmul(q, t1))
        # r0 is a nonzero constant gcd since Phi_h is irreducible over Q
        g = r0[0]
        inv_coeffs = [c / g for c in t0]
        return CycScalar(self.ctx, self.ctx.reduce(inv_coeffs + [Fraction(0)]))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * Fraction(1, 1) / self.ctx.from_rat(other)
        return self * other.inv()

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
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def to_rational(self) -> Rat:
        if not self.is_rational():
            raise NotRationalError(self)
        return self.coeffs[0]

    def approx(self, digits: int = 10) -> complex:
        """Numeric value at eta = exp(2*pi*i/h); diagnostic only.

        Double precision supports digits <= 12 for the coefficient sizes
        appearing here.
        """
        if digits < 1 or digits > 12:
            raise ValueError("digits must lie in 1..12")
        eta = cmath.exp(2j * cmath.pi / self.ctx.h)
        return sum(float(c) * eta ** k for k, c in enumerate(self.coeffs))

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, CycScalar):
            return NotImplemented
        return self.ctx is other.ctx and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.ctx.h, self.coeffs))

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
        return {"h": self.ctx.h, "coeffs": [rat_str(c) for c in self.coeffs]}

    @staticmethod
    def from_json(data: dict) -> "CycScalar":
        ctx = cyc_context(int(data["h"]))
        coeffs = tuple(parse_rat(s) for s in data["coeffs"])
        if len(coeffs) != ctx.deg:
            raise ValueError("coefficient vector length does not match phi(h)")
        return CycScalar(ctx, coeffs)


def eta_pow(ctx: CycContext, k: int) -> CycScalar:
    """eta^k reduced modulo Phi_h (k taken mod h)."""
    return ctx.eta_pow(k)
