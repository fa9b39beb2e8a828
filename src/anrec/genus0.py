"""Genus-zero residue recursion: the one-point tables p_{m,a} and their potential.

The recursion determines p_{m,a} degree slice by degree slice: every
right-hand-side term is a product of at least two field factors, each of
degree >= 1, so a degree-d slice only consumes strictly lower slices.  The
potential is integrated back from the one-point slices dF/dx_{m,a} =
p_{m,a} / (-a + (m+1)h) with an exactness check on the mixed partials; the
higher-genus engine assembles its free energies with the same two functions,
:func:`euler_potential` and :func:`mixed_partials`, and cross-checks its
genus-zero potential against :func:`exact_potential`, which runs both on a
genus-zero solver.  The primary potential of :func:`solve` is stamped with
associativity (WDVV) and Euler-homogeneity reports.

The SymC weights live in Q(eta) and the slot products in Q; each slice
is their :func:`anrec.series.weighted_sum`, which fails loudly if any
eta-part survives.

Terms that cannot reach the output are never formed.  The right side sums
over multisets of slot indices with SymC weights, not over ordered tuples,
so each slot product and residue is taken once per multiset.  A multiset of
size r has r + 1 field factors, each of degree >= 1, so a degree-d slice
visits only sizes r <= d - 1.  SymC(mu) is summed from C on demand, only
for a multiset whose slot product is nonzero, and memoised per solver; a
vanishing weight is skipped.  A multiset whose product cannot reach the
lambda slot -(m+n+2)h that the residue reads (every field tops out at
lambda^(m_in)) is skipped before any key is built.  Of each slot product
only that one coefficient is formed, at degree d: the prefix products skip
every pair of lambda slots, and every monomial pair, from which the
factors still to come cannot reach it (the degree-capped, windowed
:meth:`~anrec.series.LambdaSeries.mul_capped`, one loop and one gcd per
product), a prefix that comes out zero ends the chain, and the last factor
is read only where it closes the coefficient, each monomial against those
of the complementary degree (:meth:`~anrec.series.LambdaSeries.slot_part`).
The third-derivative products of the WDVV check go through the degree-capped
polynomial product, and each WDVV equation is one sum of its two sides'
difference over one lcm; the sides are formed only to report a failure.

Slices that weighted homogeneity forces to zero are never computed.  With
x_{m,a} of weight (a+1)/h - m (:func:`euler_weight`), every monomial of the
genus-g free energy F_g weighs (2 + 2/h)(1 - g), so a degree-d slice of a
derivative of F_g can be nonzero only if some d input variables make up the
weight the derivative leaves (:func:`_weight_allows`).  Both engines test
this on every memo miss, after the memo read, before any work.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement

from .combinatorics import _distinct_permutations, c_const
from .exactnum import CycScalar, Rat, rat_str
from .reporting import CheckReport
from .rootsys import RootData
from .series import LambdaSeries, SparsePoly, Var, poly_sum, weighted_sum


def norm_factor(h: int, m: int, a: int) -> int:
    """The slot normalisation -a + (m+1)h relating p_{m,a} to a derivative."""
    return -a + (m + 1) * h


class WellFoundednessError(RuntimeError):
    """A degree slice tried to consume a slice of the same or higher degree."""


@dataclass(frozen=True)
class Profile:
    """Input window: which descendant slots are switched on.

    ``m_in`` is the highest active level; every active slot x_{m,a} with
    m <= m_in carries its own variable, and every higher slot is zero.
    ``D`` is the degree cap of the solve.
    """

    N: int
    m_in: int = 0
    D: int = 6

    def vars(self) -> list[Var]:
        return [Var(m, a) for m in range(self.m_in + 1)
                for a in range(1, self.N + 1)]


def split_n_a0(h: int, a: int, tup: tuple[int, ...]) -> tuple[int, int]:
    """Euclidean split -(a + r + sum(tup)) = n*h + a0 with 0 <= a0 < h."""
    s = -(a + len(tup) + sum(tup))
    a0 = s % h
    return (s - a0) // h, a0


class G0Solver:
    """Memoised slice-by-slice solver for the genus-zero recursion."""

    def __init__(self, rd: RootData, profile: Profile):
        if rd.N != profile.N:
            raise ValueError("profile rank does not match root data")
        self.rd = rd
        self.profile = profile
        self._slices: dict[tuple[int, int, int], SparsePoly] = {}
        self._stack: set[tuple[int, int, int]] = set()
        self._products: dict = {}
        self._fields: dict[tuple[int, int, int], LambdaSeries] = {}
        self._weights: dict[tuple[int, ...], CycScalar] = {}

    # -- the recursion -------------------------------------------------------

    def p_slice(self, m: int, a: int, d: int) -> SparsePoly:
        """Degree-d homogeneous slice of p_{m,a}, over Q.

        A key missing from the memo whose slice weighted homogeneity forces
        to zero is answered with zero, neither computed nor stored.
        """
        if d < 2:
            return SparsePoly.zero()
        key = (m, a, d)
        got = self._slices.get(key)
        if got is not None:
            return got
        if not _weight_allows(self.rd.N, self.profile.m_in, 0, (Var(m, a),), d):
            return SparsePoly.zero()
        if key in self._stack:
            raise WellFoundednessError(f"slice {key} depends on itself")
        self._stack.add(key)
        try:
            value = self._rhs(m, a, d)
        finally:
            self._stack.discard(key)
        self._slices[key] = value
        return value

    def _weight(self, mu: tuple[int, ...]) -> CycScalar:
        """SymC(mu) for a sorted multiset mu: C summed over its distinct arrangements.

        Memoised per solver and asked for only by :meth:`_rhs`, once the slot
        product it weights is known to be nonzero.
        """
        got = self._weights.get(mu)
        if got is None:
            rd = self.rd
            got = self._weights[mu] = rd.ctx.sum(
                c_const(rd, arr) for arr in _distinct_permutations(mu))
        return got

    def _rhs(self, m: int, a: int, d: int) -> SparsePoly:
        # the split (n, a0) and the slot product depend on the tuple only
        # through its multiset, so the ordered sum of C collapses to SymC; a
        # multiset of size r has r + 1 factors, each of degree >= 1, so only
        # r <= d - 1 can reach degree d
        rd = self.rd
        h = rd.h
        m_in = self.profile.m_in
        parts = []
        for r in range(1, min(h - 1, d - 1) + 1):
            for mu in combinations_with_replacement(range(1, h), r):
                n, a0 = split_n_a0(h, a, mu)
                # the residue reads the product at lambda^(-(m+n+2)), and no
                # product of r + 1 fields reaches above lambda^((r+1)*m_in)
                if a0 == 0 or m + n + 2 + (r + 1) * m_in < 0:
                    continue
                # one tail at level m' needs -(m'+1)h >= -(m+n+2)h - r*m_in*h
                tail_max = m + n + 1 + r * m_in
                # residue of (product * lambda^(m+n+1))
                part = self._slot_product((a0,) + mu, tail_max, d)
                if part.is_zero():
                    continue
                weight = self._weight(mu)
                if not weight.is_zero():
                    parts.append((weight, 1, part))
        return -weighted_sum(rd.ctx, parts)

    def _slot_product(self, slots: tuple[int, ...], tail_max: int,
                      prod_cap: int) -> SparsePoly:
        """Degree-prod_cap part of the lambda^(q_t/h) coefficient of the fields' product.

        The key fixes the one slot :meth:`_rhs` reads,
        q_t = -(tail_max + 1 - r*m_in)h with r + 1 factors, each formed up
        to degree prod_cap - r.  Each prefix product is formed only in the
        exponents from which the factors still to come can reach q_t, and
        only up to the degree they leave: every nonzero term of a field has
        degree >= 1.  The last factor only closes the degree-prod_cap part
        of q_t; no other lambda slot or degree of the product is ever formed.
        """
        key = (tuple(sorted(slots)), tail_max, prod_cap)
        got = self._products.get(key)
        if got is not None:
            return got
        r = len(slots) - 1
        factors = [self._phi(a, tail_max, prod_cap - r) for a in key[0]]
        q_t = -(tail_max + 1 - r * self.profile.m_in) * self.rd.h
        # the exponent span of the factors after the i-th; an empty factor
        # zeroes the product, whatever its window
        top, low = [0] * (r + 1), [0] * (r + 1)
        for i in range(r - 1, 0, -1):
            slots_after = factors[i + 1].slots
            top[i] = top[i + 1] + max(slots_after, default=0)
            low[i] = low[i + 1] + min(slots_after, default=0)
        prod = factors[0]
        for i in range(1, r):
            if prod.is_zero():  # so is every longer prefix
                break
            prod = prod.mul_capped(factors[i], prod_cap - (r - i),
                                   (q_t - top[i], q_t - low[i]))
        part = self._products[key] = prod.slot_part(factors[r], q_t, prod_cap)
        return part

    def _phi(self, a: int, tail_max: int, deg_cap: int) -> LambdaSeries:
        """The genus-zero field: input slots at lambda^m, table tails at lambda^(-m-1).

        Only tail levels up to ``tail_max`` and degrees up to ``deg_cap`` are
        formed; callers pick both from the residue they are about to extract.
        A tail slot is the sum of its homogeneous slices over one lcm.
        """
        # slices are write-once, so a field built from them never changes
        key = (a, tail_max, deg_cap)
        got = self._fields.get(key)
        if got is not None:
            return got
        h = self.rd.h
        terms: dict[int, SparsePoly] = {}
        if deg_cap >= 1:  # an input slot is a variable, of degree 1
            for k in range(self.profile.m_in + 1):
                terms[k * h] = SparsePoly.variable(Var(k, a))
        for mp in range(tail_max + 1):
            terms[-(mp + 1) * h] = poly_sum((1, self.p_slice(mp, h - a, d))
                                            for d in range(2, deg_cap + 1))
        got = self._fields[key] = LambdaSeries(h, terms)
        return got

    # -- outputs ---------------------------------------------------------------

    def p_poly(self, m: int, a: int) -> SparsePoly:
        return poly_sum((1, self.p_slice(m, a, d)) for d in range(2, self.profile.D + 1))


@dataclass
class PotentialG0:
    """Solved genus-zero data: potential, table, and verification stamps."""

    rd: RootData
    profile: Profile
    F: SparsePoly
    ptable: dict
    checks: dict

    def to_json(self) -> dict:
        return {
            "n": self.rd.N,
            "h": self.rd.h,
            "genus": 0,
            "degree": self.profile.D,
            "m_in": self.profile.m_in,
            "f": self.F.to_json(),
            "p": {f"{v.m},{v.a}": poly.to_json()
                  for v, poly in sorted(self.ptable.items())},
            "checks": {name: rep.to_json() for name, rep in self.checks.items()},
        }


def exact_potential(solver: G0Solver) -> tuple[SparsePoly, CheckReport]:
    """The potential through the profile's degree cap and its passing exactness report.

    Only the one-point slices of degree < D, and the slices they consume,
    are solved; no table, WDVV or Euler report is formed.  Mixed partials
    that disagree raise :class:`WellFoundednessError`.
    """
    h = solver.rd.h
    profile = solver.profile
    vs = profile.vars()

    def one_point(v: Var, d: int) -> SparsePoly:
        return solver.p_slice(v.m, v.a, d).scale(Fraction(1, norm_factor(h, v.m, v.a)))

    F = euler_potential(vs, one_point, profile.D)
    exactness = mixed_partials(vs, one_point, profile.D)
    if not exactness.passed:
        raise WellFoundednessError("mixed partials disagree; table is inconsistent")
    return F, exactness


def solve(rd: RootData, profile: Profile) -> PotentialG0:
    """Run the recursion up to the profile's degree cap and integrate."""
    solver = G0Solver(rd, profile)
    F, exactness = exact_potential(solver)
    ptable: dict[Var, SparsePoly] = {}
    for m in range(profile.m_in + 1):
        for a in range(1, rd.N + 1):
            ptable[Var(m, a)] = solver.p_poly(m, a)
    checks = {"exactness": exactness}
    if profile.m_in == 0:
        checks["wdvv"] = wdvv_check(rd.N, F, profile.D)
        checks["euler"] = euler_check(rd.N, F)
    return PotentialG0(rd=rd, profile=profile, F=F, ptable=ptable, checks=checks)


# ---------------------------------------------------------------------------
# Potential assembly from one-point slices, shared by both engines.
# ---------------------------------------------------------------------------

def euler_potential(vs: list[Var], one_point, deg_cap: int) -> SparsePoly:
    """The potential through degree ``deg_cap`` from its one-point slices.

    ``one_point(v, d)`` is the degree-d slice of dF/dx_v.  Homogeneous of
    degree d: F_d = (1/d) sum_v x_v dF/dx_v, valid because every variable in
    ``vs`` carries its own slot; F has no constant term.
    """
    acc = SparsePoly.zero()
    for d in range(1, deg_cap + 1):
        part = poly_sum((1, SparsePoly.variable(v) * sl) for v in vs
                        if not (sl := one_point(v, d - 1)).is_zero())
        acc = acc + part.scale(Fraction(1, d))
    return acc


def mixed_partials(vs: list[Var], one_point, deg_cap: int) -> CheckReport:
    """One-point slices are the gradient of one potential: their mixed partials agree.

    Every pair of variables in ``vs`` is compared slice by slice through
    degree ``deg_cap - 2``; a failure names the pair and the degree.
    """
    for i, v in enumerate(vs):
        for w in vs[i + 1:]:
            for d in range(deg_cap - 1):
                left = one_point(v, d + 1).diff(w)
                right = one_point(w, d + 1).diff(v)
                if left != right:
                    return CheckReport(
                        claim="mixed-partials", passed=False,
                        witness={"pair": [list(v), list(w)], "degree": d},
                        lhs=left.to_json(), rhs=right.to_json())
    return CheckReport(claim="mixed-partials", passed=True)


# ---------------------------------------------------------------------------
# Structural checks on primary potentials.
# ---------------------------------------------------------------------------

def wdvv_check(N: int, F: SparsePoly, complete_to: int) -> CheckReport:
    """Associativity of the multiplication defined by third derivatives.

    Indices are raised with the flat pairing g_{ab} = delta_{a+b,N+1}; both
    sides are compared exactly through degree ``complete_to - 3``, which is
    the range the truncated potential determines.
    """
    h = N + 1
    dmax = complete_to - 3

    @lru_cache(maxsize=None)
    def t3(key: tuple[int, int, int]) -> SparsePoly:
        return F.diff(Var(0, key[0])).diff(Var(0, key[1])).diff(Var(0, key[2]))

    @lru_cache(maxsize=None)
    def capped(p: tuple[int, int, int], q: tuple[int, int, int]) -> SparsePoly:
        return t3(p).mul_capped(t3(q), dmax)

    def t3t3(p: tuple[int, ...], q: tuple[int, ...]) -> SparsePoly:
        # formed once per unordered pair of sorted index triples
        return capped(*sorted((tuple(sorted(p)), tuple(sorted(q)))))

    # equation (d, b, c, a) is equation (a, b, c, d) with its sides swapped
    # (substitute e -> h - e): one with d = a holds identically, d > a covers
    # every other, and the lexicographically first failure has a < d
    for a in range(1, N + 1):
        for b in range(1, N + 1):
            for c in range(b + 1, N + 1):
                for d in range(a + 1, N + 1):
                    # h - e is the dual index of e under the flat pairing
                    lhs = [t3t3((a, b, e), (h - e, c, d)) for e in range(1, N + 1)]
                    rhs = [t3t3((a, c, e), (h - e, b, d)) for e in range(1, N + 1)]
                    # one sum of lhs - rhs; the two sides are formed only to report a failure
                    if not poly_sum([(1, p) for p in lhs] + [(-1, p) for p in rhs]).is_zero():
                        return CheckReport(
                            claim=f"wdvv N={N}", passed=False,
                            witness={"indices": [a, b, c, d]},
                            lhs=poly_sum((1, p) for p in lhs).to_json(),
                            rhs=poly_sum((1, p) for p in rhs).to_json())
    return CheckReport(claim=f"wdvv N={N}", passed=True)


def euler_weight(h: int, v: Var) -> Rat:
    """Weight (a+1)/h - m of the variable x_{m,a}.

    Every monomial of the genus-g free energy weighs (2 + 2/h)(1 - g); on the
    primary window (m = 0) this is the Euler homogeneity of :func:`euler_check`.

    >>> euler_weight(4, Var(0, 3)), euler_weight(2, Var(1, 1))
    (Fraction(1, 1), Fraction(0, 1))
    """
    return Fraction(_scaled_weight(h, v), h)


def _scaled_weight(h: int, v: Var) -> int:
    # h times the Euler weight, an integer
    return v.a + 1 - v.m * h


@lru_cache(maxsize=None)
def _input_weights(N: int, m_in: int, d: int) -> frozenset[int]:
    """h times the weight of each degree-d monomial in the inputs x_{k,b}, k <= m_in."""
    if d == 0:
        return frozenset((0,))
    h = N + 1
    steps = {_scaled_weight(h, v) for v in Profile(N, m_in).vars()}
    return frozenset(s + w for s in _input_weights(N, m_in, d - 1) for w in steps)


def _weight_allows(N: int, m_in: int, g: int, dirs: tuple[Var, ...], d: int) -> bool:
    """Whether weighted homogeneity lets the degree-d slice of W_g[dirs] be nonzero.

    W_g[dirs] is the derivative of F_g along ``dirs``, restricted to the
    window of inputs x_{k,b} with k <= ``m_in``.  Its monomials weigh
    (2 + 2/h)(1 - g) minus the weights of ``dirs``; in units of 1/h that is
    an integer, which some d inputs must add up to.

    >>> _weight_allows(1, 0, 0, (Var(0, 1),), 2), _weight_allows(1, 0, 1, (Var(0, 1),), 2)
    (True, False)
    """
    h = N + 1
    target = (2 * h + 2) * (1 - g) - sum(_scaled_weight(h, v) for v in dirs)
    return target in _input_weights(N, m_in, d)


def euler_check(N: int, F: SparsePoly) -> CheckReport:
    """Weighted homogeneity: every monomial has total weight 2 + 2/h."""
    h = N + 1
    target = Fraction(2 * h + 2, h)
    bad = []
    for mono in sorted(F.terms):
        w = sum((euler_weight(h, v) * e for v, e in mono), Fraction(0))
        if w != target:
            bad.append({"monomial": [[list(v), e] for v, e in mono],
                        "weight": rat_str(w)})
    return CheckReport(claim=f"euler N={N} target={rat_str(target)}",
                       passed=not bad, witness=bad or None)
