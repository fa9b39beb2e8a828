"""Sparse exact polynomials, Laurent objects in a fractional power, and Y-polynomials.

Polynomial variables are descendant slots ``Var(m, a)``: level m >= 0 and
flat index 1 <= a <= N.  The level-0 slots are the primary variables, so
``Var(0, a)`` prints as ``t_a``.  Laurent objects store exponents of
lambda^(1/h) as plain integers q, which makes the residue slot exactly
q = -h and avoids rational exponent arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Union

from .exactnum import (
    CycContext,
    CycScalar,
    Rat,
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


class DomainMismatchError(ValueError):
    pass


def _mono_mul(a: Mono, b: Mono) -> Mono:
    out: list[tuple[Var, int]] = []
    i = j = 0
    while i < len(a) and j < len(b):
        va, ea = a[i]
        vb, eb = b[j]
        if va == vb:
            out.append((va, ea + eb))
            i += 1
            j += 1
        elif va < vb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def mono_degree(mono: Mono) -> int:
    return sum(e for _, e in mono)


class SparsePoly:
    """Multivariate polynomial with exact scalar coefficients.

    Instances are immutable by convention: no method mutates ``terms`` after
    construction, so values are safe to share.  ``domain`` is ``None`` for
    rational coefficients or a :class:`CycContext` for cyclotomic ones;
    operations require matching domains.
    """

    __slots__ = ("domain", "terms")

    def __init__(self, domain: Domain, terms: dict[Mono, Scalar]):
        self.domain = domain
        self.terms = terms

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(domain: Domain = None) -> "SparsePoly":
        return SparsePoly(domain, {})

    @staticmethod
    def constant(c: Scalar, domain: Domain = None) -> "SparsePoly":
        p = SparsePoly(domain, {})
        if not _is_zero(c, domain):
            p.terms[()] = c
        return p

    @staticmethod
    def variable(v: Var, domain: Domain = None) -> "SparsePoly":
        one = Fraction(1) if domain is None else domain.one
        return SparsePoly(domain, {((v, 1),): one})

    @staticmethod
    def from_terms(domain: Domain, items: Iterable[tuple[Mono, Scalar]]) -> "SparsePoly":
        terms: dict[Mono, Scalar] = {}
        for mono, c in items:
            acc = terms.get(mono)
            c = c if acc is None else acc + c
            if _is_zero(c, domain):
                terms.pop(mono, None)
            else:
                terms[mono] = c
        return SparsePoly(domain, terms)

    # -- ring operations -----------------------------------------------------

    def _chk(self, other: "SparsePoly") -> None:
        if self.domain is not other.domain:
            raise DomainMismatchError("polynomials over different scalar domains")

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        self._chk(other)
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            acc = terms.get(mono)
            c = c if acc is None else acc + c
            if _is_zero(c, self.domain):
                terms.pop(mono, None)
            else:
                terms[mono] = c
        return SparsePoly(self.domain, terms)

    def __neg__(self) -> "SparsePoly":
        return SparsePoly(self.domain, {m: -c for m, c in self.terms.items()})

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
        right = list(other.terms.items())
        if deg_cap is not None:
            right_deg = [mono_degree(m) for m, _ in right]
        terms: dict[Mono, Scalar] = {}
        for m1, c1 in self.terms.items():
            cols = right
            if deg_cap is not None:
                room = deg_cap - mono_degree(m1)
                cols = [t for t, d2 in zip(right, right_deg) if d2 <= room]
            for m2, c2 in cols:
                mono = _mono_mul(m1, m2)
                c = c1 * c2
                acc = terms.get(mono)
                c = c if acc is None else acc + c
                if _is_zero(c, self.domain):
                    terms.pop(mono, None)
                else:
                    terms[mono] = c
        return SparsePoly(self.domain, terms)

    def scale(self, c: Scalar) -> "SparsePoly":
        # c may be a plain rational even when the domain is cyclotomic
        if c == 0:
            return SparsePoly.zero(self.domain)
        return SparsePoly(self.domain, {m: v * c for m, v in self.terms.items()})

    def __pow__(self, n: int) -> "SparsePoly":
        if n < 0:
            raise ValueError("polynomials only take nonnegative powers")
        one = Fraction(1) if self.domain is None else self.domain.one
        out = SparsePoly.constant(one, self.domain)
        for _ in range(n):
            out = out * self
        return out

    def diff(self, v: Var) -> "SparsePoly":
        """Exact partial derivative with respect to one variable slot."""
        terms: dict[Mono, Scalar] = {}
        for mono, c in self.terms.items():
            for idx, (var, e) in enumerate(mono):
                if var == v:
                    new = mono[:idx] + ((var, e - 1),) if e > 1 else mono[:idx]
                    new = new + mono[idx + 1:]
                    terms[new] = c * e
                    break
        return SparsePoly(self.domain, terms)

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def homo_part(self, d: int) -> "SparsePoly":
        return SparsePoly(self.domain,
                          {m: c for m, c in self.terms.items() if mono_degree(m) == d})

    def up_to_degree(self, d: int) -> "SparsePoly":
        return SparsePoly(self.domain,
                          {m: c for m, c in self.terms.items() if mono_degree(m) <= d})

    def coefficient(self, mono: Mono) -> Scalar:
        c = self.terms.get(mono)
        if c is not None:
            return c
        return Fraction(0) if self.domain is None else self.domain.zero

    def variables(self) -> list[Var]:
        vs = {v for mono in self.terms for v, _ in mono}
        return sorted(vs)

    # -- domain moves ----------------------------------------------------------

    def demote(self) -> "SparsePoly":
        """Checked demotion Q(eta) -> Q; raises if any eta-part survives."""
        if self.domain is None:
            return self
        terms: dict[Mono, Scalar] = {}
        for m, c in self.terms.items():
            q = c.to_rational()  # raises NotRationalError with the offender
            if q != 0:
                terms[m] = q
        return SparsePoly(None, terms)

    # -- value semantics ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.domain is other.domain and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms):
            c = self.terms[mono]
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
        for mono in sorted(self.terms):
            c = self.terms[mono]
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


def _is_zero(c: Scalar, domain: Domain) -> bool:
    return c == 0 if domain is None else c.is_zero()


def weighted_sum(ctx: CycContext, parts: Iterable[tuple[CycScalar, SparsePoly]]) -> SparsePoly:
    """sum of scalar * poly over Q(eta), for (scalar, rational poly) pairs ``parts``."""
    return SparsePoly.from_terms(ctx, ((mono, s * c) for s, poly in parts
                                       for mono, c in poly.terms.items()))


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

    def __mul__(self, other: "LambdaSeries") -> "LambdaSeries":
        return self.mul_capped(other)

    def mul_capped(self, other: "LambdaSeries", deg_cap: int | None = None,
                   window: tuple[int, int] | None = None) -> "LambdaSeries":
        """Convolution of lambda-exponents; optional total-degree cap and exponent window.

        With ``window = (lo, hi)`` only the slots lo <= q <= hi are formed: a
        pair of slots whose exponents sum outside the window is skipped before
        its polynomial product is taken, as the degree cap skips monomial pairs.
        """
        self._chk(other)
        terms: dict[int, SparsePoly] = {}
        for q1, p1 in self.terms.items():
            for q2, p2 in other.terms.items():
                q = q1 + q2
                if window is not None and not window[0] <= q <= window[1]:
                    continue
                prod = p1._mul(p2, deg_cap)
                if prod.is_zero():
                    continue
                s = terms.get(q)
                s = prod if s is None else s + prod
                if s.is_zero():
                    terms.pop(q, None)
                else:
                    terms[q] = s
        return LambdaSeries(self.h, self.domain, terms)

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
    def constant(ctx: CycContext, c: CycScalar) -> "YPoly":
        return YPoly(ctx, [c])

    @staticmethod
    def y_power(ctx: CycContext, k: int, c: CycScalar | None = None) -> "YPoly":
        c = ctx.one if c is None else c
        return YPoly(ctx, [ctx.zero] * k + [c])

    def coeff(self, k: int) -> CycScalar:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else self.ctx.zero

    def __add__(self, other: "YPoly") -> "YPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return YPoly(self.ctx, [self.coeff(k) + other.coeff(k) for k in range(n)])

    def __mul__(self, other: "YPoly") -> "YPoly":
        if not self.coeffs or not other.coeffs:
            return YPoly.zero(self.ctx)
        out = [self.ctx.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a.is_zero():
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
        return YPoly(self.ctx, out)

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
