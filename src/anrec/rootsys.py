"""Type-A root system data at the origin of the deformation space.

The rank-N lattice comes with two bases: the vanishing-cycle coordinates
chi_1, ..., chi_h (h = N + 1, linearly dependent through sum(chi) = 0) and
the gamma-basis gamma_1, ..., gamma_N with chi_i = sum_a eta^(-i*a) gamma_a.
States of the symmetric algebra are stored in the gamma-basis, which avoids
quotienting by the chi-relation; chi-expansion is a conversion only.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement

from .exactnum import CycScalar, cyc_context


class RootData:
    """Rank, Coxeter number h = N + 1 and cyclotomic context.

    Holds no caches.  Modules that memoise per root system key their tables
    weakly by the instance, so a table lives exactly as long as its
    ``RootData``.
    """

    __slots__ = ("N", "h", "ctx", "__weakref__")

    def __init__(self, N: int):
        if N < 1:
            raise ValueError("rank must be >= 1")
        self.N = N
        self.h = N + 1
        self.ctx = cyc_context(self.h)

    def eta(self, k: int) -> CycScalar:
        return self.ctx.eta_pow(k)

    def __repr__(self) -> str:
        return f"RootData(N={self.N})"


class SymState:
    """Element of the symmetric algebra on the gamma-basis.

    Keys are weakly increasing tuples of gamma-indices; values are nonzero
    cyclotomic coefficients.
    """

    __slots__ = ("rd", "terms")

    def __init__(self, rd: RootData, terms: dict[tuple[int, ...], CycScalar] | None = None):
        self.rd = rd
        self.terms = {k: v for k, v in (terms or {}).items() if not v.is_zero()}

    def add_term(self, key: tuple[int, ...], c: CycScalar) -> None:
        acc = self.terms.get(key)
        c = c if acc is None else acc + c
        if c.is_zero():
            self.terms.pop(key, None)
        else:
            self.terms[key] = c

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymState):
            return NotImplemented
        return self.rd.h == other.rd.h and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"({c})*g{''.join(str(a) for a in k)}"
                          for k, c in sorted(self.terms.items()))

    def to_json(self) -> dict:
        return {"h": self.rd.h,
                "terms": [{"gammas": list(k), "coeff": c.to_json()}
                          for k, c in sorted(self.terms.items())]}


def elem_sym_state(rd: RootData, r: int) -> SymState:
    """The degree-r elementary symmetric polynomial in chi_1..chi_h,
    expanded into gamma-monomials.
    """
    if not 1 <= r <= rd.h:
        raise ValueError(f"r = {r} out of range 1..{rd.h}")
    out = SymState(rd)
    for subset in combinations(range(1, rd.h + 1), r):
        # multiply the chi_i factors one by one, tracking sorted multisets
        acc = SymState(rd, {(): rd.ctx.one})
        for i in subset:
            new = SymState(rd)
            for key, c in acc.terms.items():
                for b in range(1, rd.N + 1):
                    new.add_term(tuple(sorted(key + (b,))), c * rd.eta(-i * b))
            acc = new
        for key, c in acc.terms.items():
            out.add_term(key, c)
    return out


def cbracket_state(rd: RootData, r: int) -> SymState:
    """The bracket-coefficient expansion of the same state.

    Sums h * C[b_1..b_r] gamma_{b_1}...gamma_{b_r} over weakly increasing
    tuples with sum(b) = 0 mod h.  The factor h is the lattice-averaging
    constant that relates gamma-monomial sums to chi-monomial sums; with it
    the result coincides exactly with :func:`elem_sym_state`.
    """
    if not 2 <= r <= rd.h:
        raise ValueError(f"r = {r} out of range 2..{rd.h}")
    from .combinatorics import c_bracket

    out = SymState(rd)
    for tup in combinations_with_replacement(range(1, rd.N + 1), r):
        if sum(tup) % rd.h:
            continue
        out.add_term(tup, c_bracket(rd, tup) * rd.h)
    return out


def divided_difference(rd: RootData, nodes: tuple[int, ...], k: int) -> CycScalar:
    """sum_i eta^(i k) / prod_{j != i} (eta^i - eta^j) over distinct labels.

    The divided difference of z^(k mod h) at the nodes eta^i: the complete
    homogeneous symmetric polynomial of degree (k mod h) - r + 1 in the r
    nodes, and 0 when that degree is negative.
    """
    acc = rd.ctx.zero
    for i in nodes:
        denom = rd.ctx.one
        for j in nodes:
            if j != i:
                denom = denom * (rd.eta(i) - rd.eta(j))
        acc = acc + rd.eta(i * k) * denom.inv()
    return acc


def vandermonde_coeff(rd: RootData, indices: tuple[int, ...]) -> CycScalar:
    """sum_s eta^(i_s (r-1)) / prod_{t != s} (eta^(i_s) - eta^(i_t)).

    The cofactor expansion of a Vandermonde determinant in the roots of
    unity; the value is 1 for every strictly increasing index tuple.
    """
    if len(set(indices)) != len(indices):
        raise ValueError("indices must be distinct")
    return divided_difference(rd, indices, len(indices) - 1)
