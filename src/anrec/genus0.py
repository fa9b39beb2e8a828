"""Genus-zero residue recursion: the one-point tables p_{m,a} and their potential.

The recursion determines p_{m,a} degree slice by degree slice: every
right-hand-side term is a product of at least two field factors, each of
degree >= 1, so a degree-d slice only consumes strictly lower slices.  The
potential is integrated back from the one-point slices dF/dx_{m,a} =
p_{m,a} / (-a + (m+1)h) with an exactness check on the mixed partials; the
higher-genus engine assembles its free energies with the same two functions,
:func:`euler_potential` and :func:`mixed_partials`.  The primary potential
is stamped with associativity (WDVV) and Euler-homogeneity reports.

All intermediate arithmetic happens in Q(eta); each finished slice is
demoted to Q, which fails loudly if any eta-part survives.

Terms that cannot reach the output are never formed.  The right side sums
over multisets of slot indices with SymC weights, not over ordered tuples,
so each slot product and residue is taken once per multiset, and multisets
whose weight vanishes are skipped.  Of each slot product only the one
coefficient the right side reads is formed: the degree-d part of the
lambda slot -(m+n+2)h.  Every other lambda slot, and every prefix slot from
which the factors still to come cannot reach that one, is skipped before
its polynomial product is taken.  Slot products, and the third-derivative
products of the WDVV check, go through the degree-capped polynomial
product, which skips every monomial pair whose degrees sum past the cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct

from .combinatorics import c_const
from .exactnum import CycScalar, Rat, rat_str
from .reporting import CheckReport
from .rootsys import RootData
from .series import LambdaSeries, SparsePoly, Var, weighted_sum


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
        self._weights: dict[tuple[int, ...], CycScalar] | None = None

    # -- the recursion -------------------------------------------------------

    def p_slice(self, m: int, a: int, d: int) -> SparsePoly:
        """Degree-d homogeneous slice of p_{m,a}, over Q."""
        if d < 2:
            return SparsePoly.zero()
        key = (m, a, d)
        got = self._slices.get(key)
        if got is not None:
            return got
        if key in self._stack:
            raise WellFoundednessError(f"slice {key} depends on itself")
        self._stack.add(key)
        try:
            value = self._rhs(m, a, d)
        finally:
            self._stack.discard(key)
        self._slices[key] = value
        return value

    def multiset_weights(self) -> dict[tuple[int, ...], CycScalar]:
        """SymC(mu) for every multiset mu of 1..h-1 of size 1..h-1, zeros dropped.

        Built once per solver, the first time it is asked for, by summing C
        over the ordered tuples that sort to each multiset.
        """
        if self._weights is None:
            rd = self.rd
            sums: dict[tuple[int, ...], CycScalar] = {}
            for r in range(1, rd.h):
                for tup in iproduct(range(1, rd.h), repeat=r):
                    mu = tuple(sorted(tup))
                    c = c_const(rd, tup)
                    got = sums.get(mu)
                    sums[mu] = c if got is None else got + c
            self._weights = {mu: w for mu, w in sums.items() if not w.is_zero()}
        return self._weights

    def _rhs(self, m: int, a: int, d: int) -> SparsePoly:
        # the split (n, a0) and the slot product depend on the tuple only
        # through its multiset, so the ordered sum of C collapses to SymC
        rd = self.rd
        h = rd.h
        parts = []
        for mu, weight in self.multiset_weights().items():
            n, a0 = split_n_a0(h, a, mu)
            if a0 == 0:
                continue
            r = len(mu)
            # one tail at level m' needs -(m'+1)h >= -(m+n+2)h - r*m_in*h
            tail_max = m + n + 1 + r * self.profile.m_in
            # residue of (product * lambda^(m+n+1))
            parts.append((weight, self._slot_product((a0,) + mu, tail_max, d - r, d)))
        return (-weighted_sum(rd.ctx, parts)).demote()

    def _slot_product(self, slots: tuple[int, ...], tail_max: int,
                      factor_cap: int, prod_cap: int) -> SparsePoly:
        """Degree-prod_cap part of the lambda^(q_t/h) coefficient of the fields' product.

        The key fixes the one slot :meth:`_rhs` reads,
        q_t = -(tail_max + 1 - r*m_in)h with r + 1 factors.  Each prefix
        product is formed only in the exponents from which the factors still
        to come can reach q_t, and only up to the degree they leave: every
        nonzero term of a field has degree >= 1.  The last product forms q_t
        alone; no other lambda slot is ever formed.
        """
        key = (tuple(sorted(slots)), tail_max, factor_cap, prod_cap)
        got = self._products.get(key)
        if got is not None:
            return got
        factors = [self._phi(a, tail_max, factor_cap) for a in key[0]]
        q_t = -(tail_max + 1 - (len(slots) - 1) * self.profile.m_in) * self.rd.h
        prod = factors[0]
        for i in range(1, len(factors)):
            later = factors[i + 1:]
            # an empty factor zeroes the product, whatever its window
            window = (q_t - sum(max(f.terms, default=0) for f in later),
                      q_t - sum(min(f.terms, default=0) for f in later))
            prod = prod.mul_capped(factors[i], prod_cap - len(later), window)
        part = prod.coefficient(q_t).homo_part(prod_cap)
        self._products[key] = part
        return part

    def _phi(self, a: int, tail_max: int, deg_cap: int) -> LambdaSeries:
        """The genus-zero field: input slots at lambda^m, table tails at lambda^(-m-1).

        Only tail levels up to ``tail_max`` and degrees up to ``deg_cap`` are
        formed; callers pick both from the residue they are about to extract.
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
            acc = SparsePoly.zero()
            for d in range(2, deg_cap + 1):
                acc = acc + self.p_slice(mp, h - a, d)
            if not acc.is_zero():
                terms[-(mp + 1) * h] = acc
        got = self._fields[key] = LambdaSeries(h, None, terms)
        return got

    # -- outputs ---------------------------------------------------------------

    def p_poly(self, m: int, a: int) -> SparsePoly:
        acc = SparsePoly.zero()
        for d in range(2, self.profile.D + 1):
            acc = acc + self.p_slice(m, a, d)
        return acc


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


def solve(rd: RootData, profile: Profile, m_out: int = 0) -> PotentialG0:
    """Run the recursion up to the profile's degree cap and integrate."""
    solver = G0Solver(rd, profile)
    ptable: dict[Var, SparsePoly] = {}
    for m in range(max(m_out, profile.m_in) + 1):
        for a in range(1, rd.N + 1):
            ptable[Var(m, a)] = solver.p_poly(m, a)
    vs = profile.vars()

    def one_point(v: Var, d: int) -> SparsePoly:
        return solver.p_slice(v.m, v.a, d).scale(
            Fraction(1, norm_factor(rd.h, v.m, v.a)))

    F = euler_potential(vs, one_point, profile.D)
    checks = {"exactness": mixed_partials(vs, one_point, profile.D)}
    if not checks["exactness"].passed:
        raise WellFoundednessError("mixed partials disagree; table is inconsistent")
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
        part = SparsePoly.zero()
        for v in vs:
            sl = one_point(v, d - 1)
            if not sl.is_zero():
                part = part + SparsePoly.variable(v) * sl
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
    third: dict[tuple[int, int, int], SparsePoly] = {}

    def t3(a: int, b: int, c: int) -> SparsePoly:
        key = tuple(sorted((a, b, c)))
        got = third.get(key)
        if got is None:
            got = F.diff(Var(0, key[0])).diff(Var(0, key[1])).diff(Var(0, key[2]))
            third[key] = got
        return got

    for a in range(1, N + 1):
        for b in range(1, N + 1):
            for c in range(b + 1, N + 1):
                for d in range(1, N + 1):
                    lhs = SparsePoly.zero()
                    rhs = SparsePoly.zero()
                    for e in range(1, N + 1):
                        f = h - e  # dual index under the flat pairing
                        lhs = lhs + t3(a, b, e).mul_capped(t3(f, c, d), dmax)
                        rhs = rhs + t3(a, c, e).mul_capped(t3(f, b, d), dmax)
                    if lhs != rhs:
                        return CheckReport(
                            claim=f"wdvv N={N}", passed=False,
                            witness={"indices": [a, b, c, d]},
                            lhs=lhs.to_json(), rhs=rhs.to_json())
    return CheckReport(claim=f"wdvv N={N}", passed=True)


def euler_weight(h: int, v: Var) -> Rat:
    """Weight (a+1)/h of a primary variable."""
    if v.m != 0:
        raise ValueError("Euler weights are defined on the primary window")
    return Fraction(v.a + 1, h)


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
