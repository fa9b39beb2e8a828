"""Cyclotomic tuple constants and their combinatorial identities.

The basic quantity is

    C(a_1, ..., a_r) = sum over 1 <= j_1 < ... < j_r <= h-1 of
                       prod_s eta^(-j_s a_s) / (1 - eta^(j_s)),

an order-dependent sum over strictly increasing index tuples (empty tuple
gives 1, and the value is 0 once r > h - 1).  Each product factorises as

    prod_s eta^(-j_s a_s) / (1 - eta^(j_s)) = eta^(-<J, a>) * D_J,
    D_J = prod_{j in J} 1 / (1 - eta^j),

where J = {j_1 < ... < j_r} and <J, a> = sum_s j_s a_s.  D_J depends on the
index set alone, and eta^(-<J, a>) only on <J, a> mod h, so every term of C
is a rotated subset product eta^s * D_J, s = -<J, a> mod h.  One table per
root system and size r lists every r-subset J of 1..h-1 with D_J, read from
the memo of :mod:`anrec.rootsys` (:func:`anrec.rootsys.subset_product`), and
its rotations as integer numerators over L_r, the lcm of the denominators
of all D_J, each formed the first time a tuple asks for it.  C is then one
pass that adds integer rows and normalises once, with no scalar per term.

SymC symmetrises C over the distinct permutations of a multiset, and the
bracket constant C[...] removes one copy of each distinct value:

    C[b] = 1,   C[a_0, ..., a_r] = sum over distinct values v of
                                   SymC(tuple minus one copy of v).

The verifiers in this module machine-check three identities satisfied by
these constants: the removal rule for trailing top-index entries, and two
generating-function identities in an auxiliary variable Y.
"""

from __future__ import annotations

import math
import operator
import weakref
from fractions import Fraction
from itertools import combinations, permutations

from .exactnum import CycScalar, _norm
from .reporting import CheckReport
from .rootsys import RootData, _rotated, _subset_table
from .series import YPoly


class _Memo:
    """What this module keeps for one root system."""

    __slots__ = ("sym", "bracket", "sizes")

    def __init__(self):
        self.sym: dict[tuple[int, ...], CycScalar] = {}
        self.bracket: dict[tuple[int, ...], CycScalar] = {}
        # size r -> (L_r, [(J, D_J, its h rotations as numerators over L_r)])
        self.sizes: dict[int, tuple[int, list]] = {}


# keyed weakly, so each memo is dropped together with its RootData
_MEMOS: "weakref.WeakKeyDictionary[RootData, _Memo]" = weakref.WeakKeyDictionary()


def _memo(rd: RootData) -> _Memo:
    got = _MEMOS.get(rd)
    if got is None:
        got = _MEMOS[rd] = _Memo()
    return got


def _check_entries(rd: RootData, tup: tuple[int, ...]) -> None:
    for a in tup:
        if not 1 <= a <= rd.h - 1:
            raise ValueError(f"tuple entry {a} out of range 1..{rd.h - 1}")


def _size_table(rd: RootData, r: int):
    sizes = _memo(rd).sizes
    got = sizes.get(r)
    if got is None:
        table = _subset_table(rd)
        sets = [(js, _rotated(rd, table, js, 0)) for js in combinations(range(1, rd.h), r)]
        got = sizes[r] = (math.lcm(*(d.den for _, d in sets)),
                          [(js, d, [None] * rd.h) for js, d in sets])
    return got


def c_const(rd: RootData, tup: tuple[int, ...]) -> CycScalar:
    """The ordered tuple constant C(a_1, ..., a_r).

    Sums the rotated subset product eta^(-<J, a>) * D_J over the index sets
    J as integer rows of the per-size table (see the module docstring).
    This is the definition of C that the ``verify_*`` identities and the
    brute-force tests read.  The values are not memoised, only the table:
    its callers, the genus-zero multiset weights and the memoised
    :func:`sym_c`, ask for each ordered tuple once.
    """
    tup = tuple(tup)
    _check_entries(rd, tup)
    r = len(tup)
    if r == 0:
        return rd.ctx.one
    h = rd.h
    if r > h - 1:
        return rd.ctx.zero  # no strictly increasing index tuples exist
    den, entries = _size_table(rd, r)
    rows = []
    for js, d, rotations in entries:
        s = -sum(map(operator.mul, js, tup)) % h
        row = rotations[s]
        if row is None:
            up = den // d.den
            row = rotations[s] = tuple(a * up for a in d.rotate(s).num)
        rows.append(row)
    return _norm(rd.ctx, [sum(col) for col in zip(*rows)], den)


def _distinct_permutations(tup: tuple[int, ...]):
    # the distinct arrangements in lexicographic order: step from the sorted
    # one to the next larger one until the arrangement is non-increasing
    p = sorted(tup)
    n = len(p)
    while True:
        yield tuple(p)
        i = n - 2
        while i >= 0 and p[i] >= p[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while p[j] <= p[i]:
            j -= 1
        p[i], p[j] = p[j], p[i]
        p[i + 1:] = reversed(p[i + 1:])


def sym_c(rd: RootData, tup: tuple[int, ...]) -> CycScalar:
    """Symmetrised constant: the sum of C over distinct arrangements.

    Equals the 1/|Aut|-normalised sum over the full symmetric group.
    """
    key = tuple(sorted(tup))
    memo = _memo(rd).sym
    got = memo.get(key)
    if got is not None:
        return got
    _check_entries(rd, key)
    if len(key) > rd.h - 1:
        value = rd.ctx.zero
    else:
        value = rd.ctx.sum(c_const(rd, p) for p in _distinct_permutations(key))
    memo[key] = value
    return value


def c_bracket(rd: RootData, tup: tuple[int, ...]) -> CycScalar:
    """The bracket constant over a weakly increasing tuple."""
    tup = tuple(tup)
    if any(tup[i] > tup[i + 1] for i in range(len(tup) - 1)):
        raise ValueError("bracket tuple must be weakly increasing")
    if not tup:
        raise ValueError("bracket tuple must be non-empty")
    for a in tup:
        if not 1 <= a <= rd.N:
            raise ValueError(f"entry {a} out of range 1..{rd.N}")
    memo = _memo(rd).bracket
    got = memo.get(tup)
    if got is not None:
        return got
    if len(tup) > rd.h:
        value = rd.ctx.zero
    elif len(tup) == 1:
        value = rd.ctx.one
    else:
        # dropping the first copy of each distinct value keeps the rest sorted
        value = rd.ctx.sum(sym_c(rd, tup[:i] + tup[i + 1:])
                           for i, v in enumerate(tup) if i == 0 or tup[i - 1] != v)
    memo[tup] = value
    return value


# ---------------------------------------------------------------------------
# Identity verifiers.  Each evaluates both sides exactly and reports.
# ---------------------------------------------------------------------------

def verify_remove_n(rd: RootData, b: tuple[int, ...], m: int) -> CheckReport:
    """Removal rule for m trailing copies of the top index N:

        C[b..., N^m] = (-1)^m * binom(sum(b) mod h, m) * C[b...]
    """
    b = tuple(b)
    if any(not 1 <= x <= rd.N - 1 for x in b):
        raise ValueError("entries must lie in 1..N-1")
    lhs = c_bracket(rd, tuple(sorted(b)) + (rd.N,) * m)
    res = sum(b) % rd.h
    coeff = Fraction((-1) ** m) * math.comb(res, m) if m <= res else Fraction(0)
    rhs = c_bracket(rd, tuple(sorted(b))) * coeff
    return CheckReport(
        claim=f"remove-top-index h={rd.h} b={list(b)} m={m}",
        passed=lhs == rhs, lhs=lhs.to_json(), rhs=rhs.to_json())


def _geometric_y(rd: RootData) -> YPoly:
    # (1 - Y^h) / (1 - Y) = 1 + Y + ... + Y^(h-1)
    return YPoly(rd.ctx, [rd.ctx.one] * rd.h)


def _in_one_minus_y(rd: RootData, values: list[CycScalar]) -> YPoly:
    # sum_m values[m] (1-Y)^m, one field sum per coefficient: by the binomial
    # theorem the Y^k coefficient is sum_{m >= k} (-1)^k binom(m, k) values[m]
    return YPoly(rd.ctx, [
        rd.ctx.sum(v * ((-1) ** k * math.comb(m, k))
                   for m, v in enumerate(values[k:], k) if not v.is_zero())
        for k in range(len(values))])


def verify_symc_generating(rd: RootData, a: tuple[int, ...]) -> CheckReport:
    """Generating identity for SymC with trailing top-index entries:

        |Aut(a)| * sum_m SymC(a..., N^m) (1-Y)^m
          = (1+Y+...+Y^(h-1))/h * sum over k >= 0 and ordered distinct
            index sequences I of length r in 1..N of
            prod_j eta^(-i_j (a_j - k_j)) * Y^(k_1+...+k_r).

    The right side sums ordered index sequences, which counts each matching
    of repeated entries of ``a`` once per arrangement, hence the |Aut(a)|
    multiplicity on the left.  The left side is a polynomial (SymC dies once
    the tuple outgrows h-1); the right side is compared as a truncated
    Y-series up to ycap = r + h + 2, which exceeds the left side's degree,
    certifying the degree bound too.
    """
    a = tuple(a)
    r = len(a)
    if r < 1 or any(not 1 <= x <= rd.N - 1 for x in a):
        raise ValueError("entries must lie in 1..N-1, tuple non-empty")
    ycap = r + rd.h + 2

    aut = 1
    for v in set(a):
        aut *= math.factorial(a.count(v))
    key = tuple(sorted(a))
    # SymC vanishes for total length > h-1
    lhs = _in_one_minus_y(rd, [sym_c(rd, key + (rd.N,) * m) * aut for m in range(rd.h - r)])

    # sum over k-tuples factorises per slot into the geometric series
    # sum_k eta^(i k) Y^k = 1 / (1 - eta^i Y), so the Y-series of an index
    # sequence is a product over its index set: one truncated division per
    # index, c_s += eta^i c_(s-1) in increasing s, shared by every ordering
    # of the set.  Each ordering then adds the series rotated by its own
    # prefactor eta^(-sum_j i_j a_j).
    terms: list[list[CycScalar]] = [[] for _ in range(ycap + 1)]
    for iset in combinations(range(1, rd.N + 1), r):
        series = [rd.ctx.one] + [rd.ctx.zero] * ycap
        for i in iset:
            for s in range(1, ycap + 1):
                series[s] = series[s] + series[s - 1].rotate(i)
        for iseq in permutations(iset):
            shift = -sum(map(operator.mul, iseq, a))
            for s, c in enumerate(series):
                terms[s].append(c.rotate(shift))
    coeffs = [rd.ctx.sum(ts) for ts in terms]
    rhs = (_geometric_y(rd) * YPoly(rd.ctx, coeffs)).truncate(ycap)
    rhs = rhs.scale(Fraction(1, rd.h))

    lhs_t = lhs.truncate(ycap)
    return CheckReport(
        claim=f"symc-generating h={rd.h} a={list(a)} ycap={ycap}",
        passed=lhs_t == rhs, lhs=lhs_t.to_json(), rhs=rhs.to_json())


def verify_cbracket_generating(rd: RootData, a: tuple[int, ...]) -> CheckReport:
    """Generating identity for the bracket constant:

        sum_m C[a..., N^m] (1-Y)^m = Y^(sum(a) mod h) * C[a...]
    """
    a = tuple(a)
    if not a or any(not 1 <= x <= rd.N - 1 for x in a):
        raise ValueError("entries must lie in 1..N-1, tuple non-empty")
    key = tuple(sorted(a))
    # the bracket dies past length h
    lhs = _in_one_minus_y(rd, [c_bracket(rd, key + (rd.N,) * m)
                               for m in range(rd.h - len(a) + 1)])
    rhs = YPoly.y_power(rd.ctx, sum(a) % rd.h, c_bracket(rd, key))
    return CheckReport(
        claim=f"cbracket-generating h={rd.h} a={list(a)}",
        passed=lhs == rhs, lhs=lhs.to_json(), rhs=rhs.to_json())
