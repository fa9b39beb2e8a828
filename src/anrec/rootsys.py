"""Type-A root system data at the origin of the deformation space.

The rank-N lattice comes with two bases: the vanishing-cycle coordinates
chi_1, ..., chi_h (h = N + 1, linearly dependent through sum(chi) = 0) and
the gamma-basis gamma_1, ..., gamma_N with chi_i = sum_a eta^(-i*a) gamma_a.
States of the symmetric algebra are stored in the gamma-basis, which avoids
quotienting by the chi-relation; chi-expansion is a conversion only.

Every cyclotomic denominator in the package is a rotated subset product

    eta^s * D_J,    D_J = prod_{j in J} 1 / (1 - eta^j),

for a set J of indices in 1..h-1 (see :func:`subset_product`).  This module
memoises them per root system: D_J is built prefix by prefix, one field
product per new index set and one inverse per singleton, and a rotation
eta^s is formed the first time it is asked for.  The tuple constants C of
:mod:`anrec.combinatorics`, the divided differences of the Vandermonde
identity and the recursion kernel, and the propagators all read this memo,
since eta^i - eta^j = eta^i (1 - eta^(j-i)).
"""

from __future__ import annotations

import weakref
from itertools import combinations_with_replacement

from .exactnum import CycScalar, cyc_context
from .series import _accumulate


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

    Built in one pass over the factors by the recurrence

        e_k(chi_1..chi_i) = e_k(chi_1..chi_(i-1)) + chi_i * e_(k-1)(chi_1..chi_(i-1)),

    with chi_i * gamma-monomial expanded as sum_b eta^(-i b) times the
    monomial with gamma_b added.  k runs downwards, so e_(k-1) is read
    before factor i enters it; only the degrees that can still reach r
    after the remaining factors are formed, and none above r.
    """
    if not 1 <= r <= rd.h:
        raise ValueError(f"r = {r} out of range 1..{rd.h}")
    h, N = rd.h, rd.N
    is_zero = CycScalar.is_zero
    e: list[dict[tuple[int, ...], CycScalar]] = [{(): rd.ctx.one}] + [{} for _ in range(r)]
    for i in range(1, h + 1):
        for k in range(min(i, r), max(1, r - h + i) - 1, -1):
            _accumulate(e[k], ((tuple(sorted(key + (b,))), c.rotate(-i * b))
                               for key, c in e[k - 1].items()
                               for b in range(1, N + 1)), is_zero)
    return SymState(rd, e[r])


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

    return SymState(rd, {tup: c_bracket(rd, tup) * rd.h
                         for tup in combinations_with_replacement(range(1, rd.N + 1), r)
                         if sum(tup) % rd.h == 0})


# per root system: index set J (strictly increasing, in 1..h-1) -> the h
# rotations eta^s * D_J, each formed on first use; keyed weakly, so a table
# is dropped together with its RootData
_SUBSETS: "weakref.WeakKeyDictionary[RootData, dict]" = weakref.WeakKeyDictionary()


def _subset_table(rd: RootData) -> dict[tuple[int, ...], list[CycScalar | None]]:
    got = _SUBSETS.get(rd)
    if got is None:
        got = _SUBSETS[rd] = {}
    return got


def _rotated(rd: RootData, table: dict[tuple[int, ...], list[CycScalar | None]],
             js: tuple[int, ...], s: int) -> CycScalar:
    # eta^s * D_J for 0 <= s < h, with D_J = D_(J minus its largest index) *
    # D_(largest index); a rotation is formed the first time a tuple asks for
    # it, so a lone query at large h does not pay for all h of them
    row = table.get(js)
    if row is None:
        if len(js) > 1:
            base = _rotated(rd, table, js[:-1], 0) * _rotated(rd, table, js[-1:], 0)
        elif js:
            base = (rd.ctx.one - rd.eta(js[0])).inv()
        else:
            base = rd.ctx.one
        row = table[js] = [base] + [None] * (rd.h - 1)
    got = row[s]
    if got is None:
        got = row[s] = row[0].rotate(s)
    return got


def subset_product(rd: RootData, js: tuple[int, ...], s: int = 0) -> CycScalar:
    """eta^s * prod_{j in J} 1 / (1 - eta^j) for strictly increasing J in 1..h-1.

    Memoised per root system; the empty set gives eta^s.
    """
    js = tuple(js)
    if any(not 1 <= j <= rd.h - 1 for j in js) or any(
            a >= b for a, b in zip(js, js[1:])):
        raise ValueError(f"index set {list(js)} must increase strictly within 1..{rd.h - 1}")
    return _rotated(rd, _subset_table(rd), js, s % rd.h)


def divided_difference(rd: RootData, nodes: tuple[int, ...], k: int) -> CycScalar:
    """sum_i eta^(i k) / prod_{j != i} (eta^i - eta^j) over labels distinct mod h.

    The divided difference of z^(k mod h) at the nodes eta^i: the complete
    homogeneous symmetric polynomial of degree (k mod h) - r + 1 in the r
    nodes, and 0 when that degree is negative.  Since
    eta^i - eta^j = eta^i (1 - eta^(j-i)), the term of node i is the subset
    product eta^(i (k - r + 1)) * D_(J_i), J_i = {(j - i) mod h : j != i},
    read from the memo with no field product or inverse once it is warm.
    """
    h = rd.h
    res = [i % h for i in nodes]
    if len(set(res)) != len(res):
        raise ValueError(f"labels {list(nodes)} repeat modulo h = {h}")
    table = _subset_table(rd)
    shift = k - len(res) + 1
    # the sorted differences start with the node's own 0, which is dropped
    return rd.ctx.sum(_rotated(rd, table, tuple(sorted((j - i) % h for j in res))[1:],
                               i * shift % h)
                      for i in res)


def vandermonde_coeff(rd: RootData, indices: tuple[int, ...]) -> CycScalar:
    """sum_s eta^(i_s (r-1)) / prod_{t != s} (eta^(i_s) - eta^(i_t)).

    The cofactor expansion of a Vandermonde determinant in the roots of
    unity; the value is 1 for every strictly increasing index tuple.
    """
    return divided_difference(rd, indices, len(indices) - 1)
