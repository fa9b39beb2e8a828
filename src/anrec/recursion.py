"""Higher-genus residue recursion and symmetric-state constraint residuals.

The engine computes restricted multi-derivatives of the genus-g free
energies,

    W_g[S](x) = (d^|S| F_g / prod_{(m,a) in S} d x_{m,a}) restricted to the
                input window,

by a cluster expansion of normal-ordered field products: every field slot
either contributes an input variable, absorbs one requested derivative
direction, or differentiates one lower-order free energy, while disjoint
slot pairs contract to propagators.  The hbar-grading never becomes a
number; the integer grade g = #pairs + #derivative-slots + sum(g_B - 1)
selects which configurations contribute at genus g.

The slot walk hands on only configurations that can contribute: the
exponent budget must leave every derivative mode a level >= 0, and one with
no derivative mode must close on the spot (no pending direction, no genus
left after the pairs, the exponent target and the input count hit exactly).
How the derivative modes then split into levels and into blocks with their
genera and degrees depends on a few integers alone, so those enumerations
are built once per shape (:func:`_level_vectors`, :func:`_block_plans`) and
each configuration only looks up W-slices and multiplies.

Two field bases drive the same engine: the vanishing-cycle labels with
propagator eta^(i+j)/(eta^i - eta^j)^2 and the gamma-basis with the diagonal
propagator delta_{a+b,h} * a(h-a)/(2h), both sitting in the lambda^(-2)
slot.  Constraint residuals are evaluated in the unshifted frame: the
dilaton shift of the level-one top slot turns into finitely many constant
field insertions of weight lambda^(1/h) per slot, so no shifted series is
ever materialised.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from itertools import product as iproduct

from . import genus0
from .combinatorics import c_bracket
from .exactnum import CycScalar
from .genus0 import Profile, WellFoundednessError, euler_potential, mixed_partials, norm_factor
from .rootsys import RootData, divided_difference
from .series import SparsePoly, Var, weighted_sum


class ConsistencyError(RuntimeError):
    """Two code paths that must agree produced different exact values."""


# ---------------------------------------------------------------------------
# Propagators and pairings.
# ---------------------------------------------------------------------------

def propagator(rd: RootData, i: int, j: int) -> CycScalar:
    """eta^(i+j) / (eta^i - eta^j)^2 in the lambda^(-2) slot."""
    if i == j:
        raise ValueError("propagator labels must differ")
    diff = rd.eta(i) - rd.eta(j)
    return rd.eta(i + j) * (diff * diff).inv()


def gamma_propagator(rd: RootData, a: int, b: int) -> CycScalar:
    """The same pairing on the gamma-basis: delta_{a+b,h} * a(h-a) / (2h)."""
    if a + b != rd.h:
        return rd.ctx.zero
    return rd.ctx.from_rat(Fraction(a * (rd.h - a), 2 * rd.h))


def _pair_sets(items: tuple) -> list[tuple]:
    """All sets of disjoint unordered pairs drawn from ``items``."""
    if len(items) < 2:
        return [()]
    first, rest = items[0], items[1:]
    out = list(_pair_sets(rest))  # first stays unpaired
    for k, other in enumerate(rest):
        sub = rest[:k] + rest[k + 1:]
        for tail in _pair_sets(sub):
            out.append(((first, other),) + tail)
    return out


# ---------------------------------------------------------------------------
# Helpers for the cluster enumeration.
# ---------------------------------------------------------------------------

def _compositions(total: int, parts: int, minimum: int = 0):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(minimum, total - minimum * (parts - 1) + 1):
        for rest in _compositions(total - first, parts - 1, minimum):
            yield (first,) + rest


def _set_partitions(items: tuple):
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield ((first,),) + part
        for k in range(len(part)):
            yield part[:k] + ((first,) + part[k],) + part[k + 1:]


def _w_min_degree(g: int, size: int) -> int:
    # free energies start cubic at genus zero
    if g == 0 and size == 1:
        return 2
    if g == 0 and size == 2:
        return 1
    return 0


@lru_cache(maxsize=None)
def _level_vectors(total_lv: int, u_d: int) -> tuple[tuple[int, ...], ...]:
    """The levels (each >= 0) of u_d derivative modes whose level + 1 sum to total_lv."""
    return tuple(tuple(c - 1 for c in comp)
                 for comp in _compositions(total_lv, u_d, minimum=1))


@lru_cache(maxsize=None)
def _block_plans(u_d: int, n_pool: int, g_rem: int, rem_deg: int) -> tuple[tuple, ...]:
    """Every way to close u_d derivative modes into free-energy blocks.

    A plan is (partition, pool_assign, gvec, dvec): a set partition of the
    modes 0..u_d-1 into blocks, the block each of the n_pool pending
    directions joins, and the genus and degree of each block.  The genera sum
    to g_rem - u_d + #blocks and the degrees to rem_deg, and no degree falls
    below the block's :func:`_w_min_degree`.  Plans depend on these four
    integers alone.
    """
    out = []
    for partition in _set_partitions(tuple(range(u_d))):
        nb = len(partition)
        genus_total = g_rem - u_d + nb
        if genus_total < 0:
            continue
        for pool_assign in iproduct(range(nb), repeat=n_pool):
            sizes = [len(block) for block in partition]
            for t in pool_assign:
                sizes[t] += 1
            for gvec in _compositions(genus_total, nb):
                min_deg = [_w_min_degree(gb, sz) for gb, sz in zip(gvec, sizes)]
                for extra in _compositions(rem_deg - sum(min_deg), nb):
                    dvec = tuple(e + md for e, md in zip(extra, min_deg))
                    out.append((partition, pool_assign, gvec, dvec))
    return tuple(out)


def _input_monomial(vs: list[Var]) -> SparsePoly:
    """The product of the input variables ``vs``, with coefficient 1."""
    return SparsePoly(None, {tuple(sorted(Counter(vs).items())): Fraction(1)})


# Slot descriptors for the two field bases.
# ('chi', label) expands over all flat indices with eta weights;
# ('gamma', b) is a fixed flat index with unit weight.
Slot = tuple[str, int]


class DescendantSolver:
    """Memoised engine for restricted multi-derivatives of the free energies."""

    def __init__(self, rd: RootData, m_in: int = 0):
        self.rd = rd
        self.m_in = m_in
        self._w: dict[tuple, SparsePoly] = {}
        self._stack: set[tuple] = set()
        self._prop: dict[tuple[int, int], CycScalar] = {}
        self._kernel: dict[tuple[tuple[int, ...], int], CycScalar] = {}

    # -- scalar caches -------------------------------------------------------

    def _pair_value(self, s1: Slot, s2: Slot) -> CycScalar:
        kind1, v1 = s1
        kind2, v2 = s2
        if kind1 != kind2:
            raise ConsistencyError("cannot pair slots from different bases")
        if kind1 == "gamma":
            return gamma_propagator(self.rd, v1, v2)
        key = (min(v1, v2), max(v1, v2))
        got = self._prop.get(key)
        if got is None:
            got = propagator(self.rd, key[0], key[1])
            self._prop[key] = got
        return got

    def _kernel_scalar(self, labels: tuple[int, ...], a: int) -> CycScalar:
        """sum over i in L of eta^(-i a) / prod_{j in L, j != i} (eta^i - eta^j)."""
        key = (labels, a)
        got = self._kernel.get(key)
        if got is None:
            got = self._kernel[key] = divided_difference(self.rd, labels, -a)
        return got

    # -- the recursion ---------------------------------------------------------

    def w_slice(self, g: int, dirs: tuple[Var, ...], d: int) -> SparsePoly:
        """Degree-d slice of the restricted multi-derivative W_g[dirs]."""
        if d < 0 or g < 0:
            return SparsePoly.zero()
        dirs = tuple(sorted(dirs))
        if not dirs:
            raise ValueError("at least one derivative direction is required")
        if g == 0 and len(dirs) == 1 and d <= 1:
            return SparsePoly.zero()  # potential starts cubic
        if g == 0 and len(dirs) == 2 and d == 0:
            return SparsePoly.zero()
        key = (g, dirs, d)
        got = self._w.get(key)
        if got is not None:
            return got
        if key in self._stack:
            raise WellFoundednessError(f"W-slice {key} depends on itself")
        self._stack.add(key)
        try:
            value = self._w_rhs(g, dirs, d)
        finally:
            self._stack.discard(key)
        self._w[key] = value
        return value

    def _w_rhs(self, g: int, dirs: tuple[Var, ...], d: int) -> SparsePoly:
        rd = self.rd
        h = rd.h
        m, a = dirs[0]
        ext = dirs[1:]

        def parts():
            for size in range(2, h + 1):
                r = size - 1
                q_target = -h - (h * (m + 1) - (a + r))
                for labels in combinations(range(1, h + 1), size):
                    ks = self._kernel_scalar(labels, a)
                    if ks.is_zero():
                        continue
                    slots = tuple(("chi", l) for l in labels)
                    for scalar, poly in self._cluster(slots, g, ext, q_target, d, False):
                        yield ks * scalar, poly

        total = weighted_sum(rd.ctx, parts()).scale(Fraction(-1, h)).demote()
        return total.scale(Fraction(1, norm_factor(h, m, a)))

    # -- the cluster expansion ---------------------------------------------------

    def _cluster(self, slots: tuple[Slot, ...], g: int, externals: tuple[Var, ...],
                 q_target: int, d_target: int, shift: bool):
        """Yield (scalar, rational polynomial) for every contributing configuration.

        ``externals`` are pending derivative directions: each lands either on
        an input mode of one slot or inside one derivative block.  ``shift``
        enables the constant insertion that realises the dilaton shift of the
        level-one top slot.
        """
        rd = self.rd
        h = rd.h
        positions = tuple(range(len(slots)))
        for pairs in _pair_sets(positions):
            p = len(pairs)
            if p > g:
                continue
            pair_scalar = rd.ctx.one
            for (s1, s2) in pairs:
                pair_scalar = pair_scalar * self._pair_value(slots[s1], slots[s2])
            if pair_scalar.is_zero():
                continue
            paired = {x for pr in pairs for x in pr}
            rest = tuple(i for i in positions if i not in paired)
            q_pairs = -2 * h * p
            u = len(rest)
            for assign in iproduct(range(u + 1), repeat=len(externals)):
                slot_ext: list[Var | None] = [None] * u
                pool: list[Var] = []
                ok = True
                for v, target in zip(externals, assign):
                    if target == u:
                        pool.append(v)
                    elif slot_ext[target] is None:
                        slot_ext[target] = v
                    else:
                        ok = False  # twice on one variable factor: zero
                        break
                if not ok:
                    continue
                choice_lists = [self._slot_choices(slots[i], slot_ext[k], shift)
                                for k, i in enumerate(rest)]
                if any(not cl for cl in choice_lists):
                    continue
                for combo in self._slot_combos(choice_lists, d_target,
                                               q_target - q_pairs,
                                               not pool and p == g):
                    yield from self._finish(combo, pair_scalar, q_pairs,
                                            tuple(pool), g - p, q_target, d_target)

    def _slot_combos(self, choice_lists: list[list[tuple]], max_inputs: int,
                     q_residue: int, closed: bool):
        """The slot-choice product, pruned to what :meth:`_finish` can keep.

        Each option has the slack dq - h*[kind == 'd']; a configuration
        survives :meth:`_finish` only if its slacks sum to at least
        ``q_residue`` (leaving every derivative mode a level >= 0) and to
        ``q_residue`` mod h.  One without derivative modes closes no block,
        so it survives only when it is ``closed`` (no pending directions and
        no genus left after the pairs), its slacks sum to ``q_residue``
        exactly and it carries exactly ``max_inputs`` input variables.
        A branch is dropped once it carries more than ``max_inputs`` input
        variables, or once the largest slack the remaining slots can add
        cannot reach ``q_residue``; the last slot keeps only the options that
        close the gap, mod h and in size, and that meet the rule above.
        Every configuration the full product adds beyond these fails the
        same checks in :meth:`_finish`.
        """
        h = self.rd.h
        if not choice_lists:
            # all slots paired: the pairs alone must close the configuration
            if closed and q_residue == 0 and max_inputs == 0:
                yield ()
            return
        slack = [[opt[3] - h * (opt[0] == "d") for opt in opts] for opts in choice_lists]
        # reach[i]: the largest slack slots i.. can still add
        reach = [0] * (len(choice_lists) + 1)
        for i in range(len(choice_lists) - 1, -1, -1):
            reach[i] = reach[i + 1] + max(slack[i])
        *head, last = choice_lists
        by_residue: dict[int, list[tuple]] = {}
        for opt, sl in zip(last, slack[-1]):
            by_residue.setdefault(sl % h, []).append((opt, sl))

        def walk(i: int, s: int, inputs: int, has_d: bool, prefix: tuple):
            if i == len(head):
                for opt, sl in by_residue.get((q_residue - s) % h, ()):
                    n = inputs + (opt[0] == "x")
                    if n > max_inputs or s + sl < q_residue:
                        continue
                    if (has_d or opt[0] == "d"
                            or (closed and s + sl == q_residue and n == max_inputs)):
                        yield prefix + (opt,)
                return
            for opt, sl in zip(head[i], slack[i]):
                n = inputs + (opt[0] == "x")
                if n <= max_inputs and s + sl + reach[i + 1] >= q_residue:
                    yield from walk(i + 1, s + sl, n, has_d or opt[0] == "d",
                                    prefix + (opt,))

        yield from walk(0, 0, 0, False, ())

    def _slot_choices(self, slot: Slot, ext: Var | None, shift: bool) -> list[tuple]:
        """Mode options for one unpaired slot.

        Each option is (kind, sign, k, q, payload) with slot weight
        sign * eta^k: kind 'x' carries an input variable, 'c' a constant
        factor (a consumed external or the dilaton insertion), 'd' a
        derivative mode whose level is fixed later by the exponent budget.
        """
        rd = self.rd
        kind, val = slot
        out: list[tuple] = []
        if kind == "chi":
            l = val
            if ext is not None:
                out.append(("c", 1, -l * ext.a, ext.m * rd.h - ext.a, None))
                return out
            for b in range(1, rd.N + 1):
                for k in range(self.m_in + 1):
                    out.append(("x", 1, -l * b, k * rd.h - b, Var(k, b)))
                out.append(("d", 1, -l * b, -b, b))
            if shift:
                out.append(("c", -1, -l * rd.N, 1, None))
            return out
        b = val
        if ext is not None:
            if ext.a != b:
                return []
            out.append(("c", 1, 0, ext.m * rd.h - b, None))
            return out
        for k in range(self.m_in + 1):
            out.append(("x", 1, 0, k * rd.h - b, Var(k, b)))
        out.append(("d", 1, 0, -b, b))
        if shift and b == rd.N:
            out.append(("c", -1, 0, 1, None))
        return out

    def _finish(self, combo, pair_scalar: CycScalar, q_pairs: int,
                pool: tuple[Var, ...], g_rem: int, q_target: int, d_target: int):
        """Fix derivative levels, block structure, genera, and degree splits.

        Every exponent, degree and genus check runs before any field
        arithmetic.  The levels come from :func:`_level_vectors` and the
        blocks, genera and degrees from :func:`_block_plans`, both memoised
        on integers, so here only directions are built, W-slices looked up
        and products formed.  The level factor prod (b + k*h) stays an int;
        the configuration scalar pair_scalar * sign * eta^k is formed once,
        at the first contribution.
        """
        rd = self.rd
        h = rd.h
        sign = 1
        k_sum = 0
        q = q_pairs
        xt_vars: list[Var] = []
        dslots: list[int] = []  # flat indices b of derivative modes
        for kind, s, k, dq, payload in combo:
            sign *= s
            k_sum += k
            q += dq
            if kind == "x":
                xt_vars.append(payload)
            elif kind == "d":
                dslots.append(payload)
        u_d = len(dslots)
        rem_deg = d_target - len(xt_vars)
        if rem_deg < 0:
            return
        if u_d == 0:
            if pool or g_rem != 0 or q != q_target or rem_deg != 0:
                return
            scalar = pair_scalar * rd.eta(k_sum)
            yield (scalar if sign > 0 else -scalar), _input_monomial(xt_vars)
            return
        span = q - q_target
        if span < u_d * h or span % h:
            return
        total_lv = span // h  # sum of (level + 1) over derivative modes
        plans = _block_plans(u_d, len(pool), g_rem, rem_deg)
        if not plans:
            return
        base = None  # the input monomial, built at the first product formed
        scalar = None
        for levels in _level_vectors(total_lv, u_d):
            factor = sign
            dirs: list[Var] = []
            for b, k in zip(dslots, levels):
                factor *= b + k * h
                dirs.append(Var(k, h - b))
            for partition, pool_assign, gvec, dvec in plans:
                block_dirs: list[list[Var]] = [
                    [dirs[i] for i in block] for block in partition]
                for v, t in zip(pool, pool_assign):
                    block_dirs[t].append(v)
                poly = None
                for gb, bd, db in zip(gvec, block_dirs, dvec):
                    w = self.w_slice(gb, tuple(bd), db)
                    if w.is_zero():
                        poly = None
                        break
                    if poly is not None:
                        poly = poly * w
                    elif xt_vars:
                        if base is None:
                            base = _input_monomial(xt_vars)
                        poly = base * w
                    else:
                        poly = w
                if poly is None:
                    continue
                if scalar is None:
                    scalar = pair_scalar * rd.eta(k_sum)
                yield scalar * factor, poly

    # -- exposed evaluations ------------------------------------------------------

    def constraint_residual(self, a: int, m: int, cap: int, genus_cap: int,
                            basis: str = "chi") -> dict[int, SparsePoly]:
        """Residue of lambda^m against the degree-(h+1-a) symmetric state,
        applied in the unshifted frame; returns one polynomial per grade.

        A grade-g component is exact once the memoised table is complete
        through genus g, and the contract is that every component vanishes
        identically on tables produced by the recursion itself.
        """
        rd = self.rd
        h = rd.h
        if not 1 <= a <= rd.N:
            raise ValueError("constraint index out of range")
        r = h + 1 - a
        q_target = -h - m * h
        out: dict[int, SparsePoly] = {}
        for g in range(genus_cap + 1):
            out[g] = weighted_sum(rd.ctx, (
                (coeff * scalar, poly)
                for coeff, members in self._state_slots(r, basis)
                for d in range(cap + 1)
                for scalar, poly in self._cluster(members, g, (), q_target, d, True)
            )).demote()
        return out

    def _state_slots(self, r: int, basis: str):
        """Slot tuples (with scalar weights) expanding the degree-r state."""
        rd = self.rd
        if basis == "chi":
            for labels in combinations(range(1, rd.h + 1), r):
                yield rd.ctx.one, tuple(("chi", l) for l in labels)
        elif basis == "gamma":
            for tup in combinations_with_replacement(range(1, rd.N + 1), r):
                if sum(tup) % rd.h:
                    continue
                coeff = c_bracket(rd, tup) * rd.h
                if not coeff.is_zero():
                    yield coeff, tuple(("gamma", b) for b in tup)
        else:
            raise ValueError("basis must be 'chi' or 'gamma'")

    def perturb(self, g: int, dirs: tuple[Var, ...], d: int,
                delta: SparsePoly) -> None:
        """Corrupt one memoised slice; negative controls only."""
        dirs = tuple(sorted(dirs))
        current = self.w_slice(g, dirs, d)
        self._w[(g, dirs, d)] = current + delta


@dataclass
class PotentialTable:
    """Free energies per genus with their truncation data.

    Constant terms at genus >= 1 are not determined by the derivative form
    of the recursion; they are stored as zero and flagged in ``notes``.
    """

    rd: RootData
    m_in: int
    potentials: dict[int, SparsePoly]
    degree_caps: dict[int, int]
    solver: DescendantSolver
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "n": self.rd.N,
            "h": self.rd.h,
            "m_in": self.m_in,
            "degree_caps": {str(g): d for g, d in sorted(self.degree_caps.items())},
            "potentials": {str(g): p.to_json()
                           for g, p in sorted(self.potentials.items())},
            "notes": list(self.notes),
        }


def solve_recursion(rd: RootData, genus_cap: int, degree_cap: int,
                    m_in: int = 0) -> PotentialTable:
    """Fill the free energies genus by genus from the residue recursion.

    The degree cap drops by two per genus.  At genus zero the result is
    compared exactly against the independent genus-zero engine;
    disagreement raises :class:`ConsistencyError`.
    """
    if genus_cap < 0:
        raise ValueError(f"genus cap must be >= 0, got {genus_cap}")
    solver = DescendantSolver(rd, m_in=m_in)
    vs = Profile(N=rd.N, m_in=m_in).vars()
    pots: dict[int, SparsePoly] = {}
    caps: dict[int, int] = {}
    notes: list[str] = []
    for g in range(genus_cap + 1):
        cap = max(degree_cap - 2 * g, 0)
        caps[g] = cap

        def one_point(v: Var, d: int) -> SparsePoly:
            return solver.w_slice(g, (v,), d)

        pots[g] = euler_potential(vs, one_point, cap)
        if not mixed_partials(vs, one_point, cap).passed:
            raise ConsistencyError(f"mixed partials disagree at genus {g}")
        if g >= 1:
            notes.append(f"genus {g}: constant term undetermined, stored as 0")
    direct = genus0.solve(rd, Profile(N=rd.N, m_in=m_in, D=caps[0]), m_out=m_in)
    if direct.F != pots[0]:
        raise ConsistencyError(
            "genus-zero output disagrees with the direct residue engine")
    return PotentialTable(rd=rd, m_in=m_in, potentials=pots,
                          degree_caps=caps, solver=solver, notes=notes)


def w_residual(table: PotentialTable, a: int, m: int, cap: int,
               genus_cap: int | None = None, basis: str = "chi") -> dict[int, SparsePoly]:
    """Constraint residual per grade on a solved table (zero is the contract)."""
    if genus_cap is None:
        genus_cap = max(table.potentials)
    return table.solver.constraint_residual(a, m, cap, genus_cap, basis=basis)


def wconstraint_report(table: PotentialTable, a: int, m: int, cap: int,
                       genus_cap: int | None = None) -> dict:
    res = w_residual(table, a, m, cap, genus_cap)
    terms = []
    for g, poly in sorted(res.items()):
        if not poly.is_zero():
            terms.append({"grade": g, "poly": poly.to_json()})
    return {"N": table.rd.N, "a": a, "m": m, "cap": cap,
            "residual_terms": terms, "pass": not terms}
