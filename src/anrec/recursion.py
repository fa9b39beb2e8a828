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

One walk over the pair sets and slot options of a label set serves a range
of grades and of degrees: each configuration is found once and closed at
every (grade, degree) in range that its blocks can reach.  A constraint
residual asks for every grade and degree it reports in one walk per label
set.  A W-slice group (g, dirs) keeps its walk instead: the first slice
asked walks the group's label sets up to its degree, and a slice asked at a
higher degree extends that walk only over configurations with more input
variables.  The configurations are kept as records, grouped by shape
(#derivative modes, #pending directions, g - #pairs, #inputs) and, within a
shape, by derivative modes, level total and pending directions, with their
input monomials summed per scalar; a degree-d slice closes every record
whose shape has a block plan at degree d - #inputs.  At m_in >= 1 the input
x_{1,N} (the dilaton direction) weighs zero, so the closing of (g, dirs, d)
reads slices (g, dirs, d') of its own group, always at d' < d.  Such a
read may fill a slice of the group while the outer closing iterates its
records, so closing is re-entrant: a fill never changes a record map handed
out before, and an extension builds a new one.
The slot walk hands on only configurations that can contribute: the
exponent budget must leave every derivative mode a level >= 0, and one with
no derivative mode must close on the spot (no pending direction, its pair
count a grade in range, the exponent target hit exactly and its input count
a degree in range).
How the derivative modes then split into levels and into blocks with their
genera and degrees depends on a few integers alone, so those enumerations
are built once per shape (:func:`_level_vectors`, :func:`_block_plans`) and
each record only looks up W-slices and multiplies.  The level
factor stays an int beside the configuration scalar down to
:func:`anrec.series.weighted_sum`.  A W-slice that
weighted homogeneity forces to zero is never expanded: with x_{m,a} of
weight (a+1)/h - m, every monomial of F_g weighs (2 + 2/h)(1 - g), and
:func:`anrec.genus0._weight_allows` tells whether some d input variables
can make up the weight a degree-d slice needs.

Field slots are the vanishing-cycle labels 1..h; two of them contract to
the propagator eta^(i+j)/(eta^i - eta^j)^2 in the lambda^(-2) slot.
Constraint residuals are evaluated in the unshifted frame: the
dilaton shift of the level-one top slot turns into finitely many constant
field insertions of weight lambda^(1/h) per slot, so no shifted series is
ever materialised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from itertools import product as iproduct

from .exactnum import CycScalar
from .genus0 import (
    G0Solver,
    Profile,
    WellFoundednessError,
    _weight_allows,
    euler_potential,
    exact_potential,
    mixed_partials,
    norm_factor,
)
from .rootsys import RootData, divided_difference, subset_product
from .series import SparsePoly, Var, weighted_sum


class ConsistencyError(RuntimeError):
    """Two code paths that must agree produced different exact values."""


# ---------------------------------------------------------------------------
# Propagators and pairings.
# ---------------------------------------------------------------------------

def propagator(rd: RootData, i: int, j: int) -> CycScalar:
    """eta^(i+j) / (eta^i - eta^j)^2 in the lambda^(-2) slot.

    With d = (j - i) mod h this is eta^d * D_d^2, D_d = 1 / (1 - eta^d) the
    memoised singleton subset product: one field product and no inverse.
    """
    d = (j - i) % rd.h
    if not d:
        raise ValueError(f"propagator labels {i} and {j} are equal modulo h = {rd.h}")
    base = subset_product(rd, (d,))
    return (base * base).rotate(d)


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


class DescendantSolver:
    """Memoised engine for restricted multi-derivatives of the free energies."""

    def __init__(self, rd: RootData, m_in: int = 0):
        self.rd = rd
        self.m_in = m_in
        self._w: dict[tuple, SparsePoly] = {}
        # (g, dirs) -> (input count walked, records, walk units): see _group_records
        self._groups: dict[tuple, tuple[int, dict, list]] = {}
        self._stack: set[tuple] = set()
        self._prop: dict[tuple[int, int], CycScalar] = {}
        self._kernel: dict[tuple[tuple[int, ...], int], CycScalar] = {}
        self._choices: dict[tuple, tuple[tuple, ...]] = {}

    # -- scalar caches -------------------------------------------------------

    def _pair_value(self, i: int, j: int) -> CycScalar:
        key = (min(i, j), max(i, j))
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
        """Degree-d slice of the restricted multi-derivative W_g[dirs].

        A key missing from the memo whose slice weighted homogeneity forces
        to zero is answered with zero, neither expanded nor stored.  The
        memo is read first, so a slice set by :meth:`perturb` is returned
        whatever its key.
        """
        if d < 0 or g < 0:
            return SparsePoly.zero()
        dirs = tuple(sorted(dirs))
        if not dirs:
            raise ValueError("at least one derivative direction is required")
        key = (g, dirs, d)
        got = self._w.get(key)
        if got is not None:
            return got
        if not _weight_allows(self.rd.N, self.m_in, g, dirs, d):
            return SparsePoly.zero()
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
        parts = ((scalar, factor, poly) for _, scalar, factor, poly in self._close(
            self._group_records(g, dirs, d), (g, g), (d, d)))
        return weighted_sum(rd.ctx, parts).scale(Fraction(-1, h * norm_factor(h, m, a)))

    def _group_records(self, g: int, dirs: tuple[Var, ...], d: int) -> dict:
        """The :meth:`_records` of the W-slice group (g, dirs), walked to d input variables.

        The first request lists the group's walk units (label sets, pair
        sets and placements of the other directions) and walks them up to d
        input variables; a later one at a higher degree walks the same units
        again over the configurations with more input variables than walked
        before.  Their records have new shapes only (n grows) and go into a
        new dict: a record map handed out earlier never changes under a
        closing that iterates it.
        """
        walked, records, units = self._groups.get((g, dirs), (-1, {}, None))
        if walked >= d:
            return records
        if units is None:
            h = self.rd.h
            m, a = dirs[0]
            units = []
            for size in range(2, h + 1):
                q_target = -h - (h * (m + 1) - (a + size - 1))
                for labels in combinations(range(1, h + 1), size):
                    ks = self._kernel_scalar(labels, a)
                    if not ks.is_zero():
                        units.extend(self._units(labels, q_target, g, dirs[1:], False, ks))
        inputs = (walked + 1, d)
        records = {**records, **self._records(self._walk(units, (g, g), inputs, inputs[0]))}
        self._groups[(g, dirs)] = (d, records, units)
        return records

    # -- the cluster expansion ---------------------------------------------------

    def _cluster(self, slots: tuple[int, ...], grades: tuple[int, int],
                 externals: tuple[Var, ...], q_target: int, degrees: tuple[int, int],
                 shift: bool, scalar: CycScalar):
        """Yield (grade, scalar, factor, poly) for the configurations of one label set.

        Grades and degrees run over the inclusive ranges ``grades`` and
        ``degrees``; each part is scalar * factor * poly, with ``factor`` an
        int and ``poly`` rational.  One :meth:`_walk` serves the whole range:
        a configuration is found once, and :meth:`_close` closes its record
        at each (grade, degree) its blocks can reach.  The arguments are
        those of :meth:`_units`.
        """
        units = self._units(slots, q_target, grades[1], externals, shift, scalar)
        records = self._records(self._walk(units, grades, (0, degrees[1]), degrees[0]))
        return self._close(records, grades, degrees)

    def _units(self, slots: tuple[int, ...], q_target: int, max_pairs: int,
               externals: tuple[Var, ...], shift: bool, scalar: CycScalar):
        """Yield (q_target, p, pool, choice_lists, scalar, rotated) per walk unit of ``slots``.

        A unit is a set of p <= ``max_pairs`` disjoint slot pairs and a
        placement of the pending derivative directions ``externals``: each
        lands either on an input mode of one unpaired slot, fixing that
        slot's option, or in ``pool``, inside one derivative block.
        ``choice_lists`` are the options of the unpaired slots, ``scalar``
        is the given one times the pairs' propagators, and ``rotated`` caches
        its eta-rotations, shared by the units of one pair set.

        ``slots`` are distinct labels, so no pair of them contracts to zero.
        ``q_target`` is the exponent the configurations of ``slots`` must
        reach, passed on to :meth:`_walk`.  ``shift`` enables the constant
        insertion that realises the dilaton shift of the level-one top slot.
        """
        positions = tuple(range(len(slots)))
        for pairs in _pair_sets(positions):
            p = len(pairs)
            if p > max_pairs:
                continue
            pair_scalar = scalar
            for (s1, s2) in pairs:
                pair_scalar = pair_scalar * self._pair_value(slots[s1], slots[s2])
            rotated: dict[int, CycScalar] = {}  # pair_scalar * eta^k by k mod h
            paired = {x for pr in pairs for x in pr}
            rest = tuple(i for i in positions if i not in paired)
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
                if all(choice_lists):
                    yield q_target, p, tuple(pool), choice_lists, pair_scalar, rotated

    def _walk(self, units, grades: tuple[int, int], inputs: tuple[int, int], floor: int):
        """Yield every configuration of ``units`` with an input count in ``inputs`` that can close.

        ``units`` are :meth:`_units` tuples.
        Each configuration is (p, pool, n, dslots, total_lv, scalar, sign,
        xs): its pair count, the pending directions left to the blocks, its
        input count, the sorted flat indices b of its derivative modes, the
        sum of their level + 1, its scalar (the unit's times eta^k_sum, one
        object per pair set and k mod h), sign and sorted input variables.  A
        configuration without derivative modes closes on the spot, at grade
        p and degree n, so it is found only if it carries no pending
        direction, p is a grade in range and n is at least ``floor``.  Plans
        are left to the caller, which knows the (grade, degree) it closes at.
        """
        g_lo = grades[0]
        h = self.rd.h
        for q_target, p, pool, choice_lists, pair_scalar, rotated in units:
            q_pairs = -2 * h * p
            # a derivative-free closure has grade p, so it needs p in range
            # and no pending direction; otherwise no input count admits one
            least = floor if not pool and p >= g_lo else inputs[1] + 1
            for combo in self._slot_combos(choice_lists, inputs, q_target - q_pairs, least):
                config = self._configuration(combo, q_pairs, q_target, inputs, least)
                if config is None:
                    continue
                n, dslots, total_lv, k, sign, xs = config
                got = rotated.get(k)
                if got is None:
                    got = rotated[k] = pair_scalar.rotate(k)
                yield p, pool, n, dslots, total_lv, got, sign, xs

    def _slot_combos(self, choice_lists: list[tuple[tuple, ...]], inputs: tuple[int, int],
                     q_residue: int, floor: int):
        """The slot-choice product, pruned to what :meth:`_configuration` keeps.

        Each option has the slack dq - h*[kind == 'd']; a configuration
        survives only if its slacks sum to at least ``q_residue`` (leaving
        every derivative mode a level >= 0) and to ``q_residue`` mod h, and
        if its input count lies in the inclusive range ``inputs``.  One
        without derivative modes closes no block, so it survives only when
        its slacks sum to ``q_residue`` exactly and it carries at least
        ``floor`` input variables (a floor above the range admits none).
        A branch is dropped once it carries more input variables than the
        range allows, once the slots left cannot bring it up to the least
        count, or once the largest slack the remaining slots can add cannot
        reach ``q_residue``; the last slot keeps only the options that close
        the gap, mod h and in size, and that meet the rules above.  Every
        configuration the full product adds beyond these fails the same
        checks in :meth:`_configuration`.
        """
        h = self.rd.h
        lo, hi = inputs
        if not choice_lists:
            # all slots paired: the pairs alone must close the configuration
            if q_residue == 0 and max(lo, floor) <= 0:
                yield ()
            return
        # per option: (option, slack, is an input, is a derivative mode)
        rows = [[(opt, opt[3] - h * (opt[0] == "d"), opt[0] == "x", opt[0] == "d")
                 for opt in opts] for opts in choice_lists]
        # reach[i]: the largest slack slots i.. can still add; room[i]: the
        # most input variables they can still add
        reach = [0] * (len(rows) + 1)
        room = [0] * (len(rows) + 1)
        for i in range(len(rows) - 1, -1, -1):
            reach[i] = reach[i + 1] + max(row[1] for row in rows[i])
            room[i] = room[i + 1] + any(row[2] for row in rows[i])
        *head, last = rows
        by_residue: dict[int, list[tuple]] = {}
        for row in last:
            by_residue.setdefault(row[1] % h, []).append(row)

        def walk(i: int, s: int, n: int, has_d: bool, prefix: tuple):
            if i == len(head):
                for opt, sl, x, d in by_residue.get((q_residue - s) % h, ()):
                    if lo <= n + x <= hi and s + sl >= q_residue and (
                            has_d or d or (s + sl == q_residue and n + x >= floor)):
                        yield prefix + (opt,)
                return
            ahead, more = reach[i + 1], room[i + 1]
            for opt, sl, x, d in head[i]:
                if lo <= n + x + more and n + x <= hi and s + sl + ahead >= q_residue:
                    yield from walk(i + 1, s + sl, n + x, has_d or d, prefix + (opt,))

        yield from walk(0, 0, 0, False, ())

    def _slot_choices(self, l: int, ext: Var | None, shift: bool) -> tuple[tuple, ...]:
        """Mode options for one unpaired slot of label l, memoised.

        Each option is (kind, sign, k, q, payload) with slot weight
        sign * eta^k: kind 'x' carries an input variable, 'c' a constant
        factor (a consumed external or the dilaton insertion), 'd' a
        derivative mode whose level is fixed later by the exponent budget.
        """
        key = (l, ext, shift)
        got = self._choices.get(key)
        if got is not None:
            return got
        rd = self.rd
        out: list[tuple] = []
        if ext is not None:
            out.append(("c", 1, -l * ext.a, ext.m * rd.h - ext.a, None))
        else:
            for b in range(1, rd.N + 1):
                for k in range(self.m_in + 1):
                    out.append(("x", 1, -l * b, k * rd.h - b, Var(k, b)))
                out.append(("d", 1, -l * b, -b, b))
            if shift:
                out.append(("c", -1, -l * rd.N, 1, None))
        got = self._choices[key] = tuple(out)
        return got

    def _configuration(self, combo, q_pairs: int, q_target: int,
                       inputs: tuple[int, int], floor: int):
        """(n, dslots, total_lv, k, sign, xs) for one slot combination, or None.

        The signs, the eta exponent k (mod h), the sorted input variables xs
        and their count n, the derivative modes and the exponent check are formed
        here, before any field arithmetic.  A combination is dropped unless n
        lies in ``inputs`` and the exponent budget either leaves every
        derivative mode a level >= 0, with total_lv the sum of level + 1,
        or, without derivative modes, is met exactly by at least ``floor``
        input variables.
        """
        h = self.rd.h
        sign = 1
        k_sum = 0
        q = q_pairs
        xs: list[Var] = []
        dslots: list[int] = []  # flat indices b of derivative modes
        for kind, s, k, dq, payload in combo:
            sign *= s
            k_sum += k
            q += dq
            if kind == "x":
                xs.append(payload)
            elif kind == "d":
                dslots.append(payload)
        n = len(xs)
        span = q - q_target
        lo, hi = inputs
        if not lo <= n <= hi or span % h:
            return None
        if dslots:
            if span < len(dslots) * h:
                return None
        elif span or n < floor:
            return None
        return n, tuple(sorted(dslots)), span // h, k_sum % h, sign, tuple(sorted(xs))

    @staticmethod
    def _records(configurations) -> dict:
        """Configurations from :meth:`_walk` grouped into records for :meth:`_close`.

        The records map a shape (u_d, n_pool, p, n) to entries (dslots,
        total_lv, pool, terms), one per set of derivative modes, level total
        and pool, whose terms (scalar, sign, inputs) sum the input monomials
        of its configurations per scalar and sign.  A configuration without
        derivative modes has the shape (0, 0, p, n).  The configurations of
        one entry close alike, since the sum over level vectors and plans
        does not depend on the order of the derivative modes.
        """
        found: dict[tuple, dict] = {}
        for p, pool, n, dslots, total_lv, scalar, sign, xs in configurations:
            entry = found.setdefault((len(dslots), len(pool), p, n), {}) \
                .setdefault((dslots, total_lv, pool), {}) \
                .setdefault((scalar, sign), {})
            entry[xs] = entry.get(xs, 0) + 1
        return {shape: [(dslots, total_lv, pool,
                         tuple((scalar, sign, SparsePoly.monomial_sum(monos))
                               for (scalar, sign), monos in terms.items()))
                        for (dslots, total_lv, pool), terms in entries.items()]
                for shape, entries in found.items()}

    def _close(self, records: dict, grades: tuple[int, int], degrees: tuple[int, int]):
        """Yield (grade, scalar, factor, poly) for every closing of ``records``.

        A record of shape (u_d, n_pool, p, n) closes at every (g, d) in the
        inclusive ranges with a nonempty :func:`_block_plans` (u_d, n_pool,
        g - p, d - n); one without derivative modes has the single empty
        level vector and plan at g = p and d = n, which close it as its
        inputs alone.  The levels come from :func:`_level_vectors`.  Each
        level vector and plan looks up its W-slices once, and a product of
        them that is not zero is multiplied by the inputs of every term.
        The level factor sign * prod (b + k*h) stays an int beside the
        scalar.  ``records`` is read as it is, so a fill that the W-slice
        lookups start may extend a walk but never changes what is iterated.
        """
        g_lo, g_hi = grades
        d_lo, d_hi = degrees
        h = self.rd.h
        for (u_d, n_pool, p, n), entries in records.items():
            closures = []
            for g in range(max(g_lo, p), g_hi + 1):
                for d in range(max(d_lo, n), d_hi + 1):
                    plans = _block_plans(u_d, n_pool, g - p, d - n)
                    if plans:
                        closures.append((g, plans))
            if not closures:
                continue
            for dslots, total_lv, pool, terms in entries:
                for levels in _level_vectors(total_lv, u_d):
                    factor = 1
                    dirs: list[Var] = []
                    for b, k in zip(dslots, levels):
                        factor *= b + k * h
                        dirs.append(Var(k, h - b))
                    for g, plans in closures:
                        for partition, pool_assign, gvec, dvec in plans:
                            block_dirs: list[list[Var]] = [
                                [dirs[i] for i in block] for block in partition]
                            for v, t in zip(pool, pool_assign):
                                block_dirs[t].append(v)
                            blocks = None  # the product of the block slices so far
                            for gb, bd, db in zip(gvec, block_dirs, dvec):
                                w = self.w_slice(gb, tuple(bd), db)
                                if w.is_zero():
                                    break
                                blocks = w if blocks is None else blocks * w
                            else:
                                for scalar, sign, poly in terms:
                                    yield (g, scalar, sign * factor,
                                           poly if blocks is None else poly * blocks)

    # -- exposed evaluations ------------------------------------------------------

    def constraint_residual(self, a: int, m: int, cap: int,
                            genus_cap: int) -> dict[int, SparsePoly]:
        """Residue of lambda^m against the degree-(h+1-a) symmetric state,
        applied in the unshifted frame; returns one polynomial per grade.

        The degree-r state is the elementary symmetric polynomial in the
        labels: one slot tuple per r-subset of 1..h, each with weight one.
        One cluster walk per label set covers every grade 0..genus_cap and
        degree 0..cap; its parts are bucketed by grade and each grade is one
        :func:`weighted_sum`.

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
        parts: dict[int, list] = {g: [] for g in range(genus_cap + 1)}
        for labels in combinations(range(1, h + 1), r):
            for g, scalar, factor, poly in self._cluster(
                    labels, (0, genus_cap), (), q_target, (0, cap), True, rd.ctx.one):
                parts[g].append((scalar, factor, poly))
        return {g: weighted_sum(rd.ctx, grade_parts) for g, grade_parts in parts.items()}

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
    compared exactly against the potential of the independent genus-zero
    engine (:func:`anrec.genus0.exact_potential`, which forms nothing
    else); disagreement raises :class:`ConsistencyError`.
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
    direct, _ = exact_potential(G0Solver(rd, Profile(N=rd.N, m_in=m_in, D=caps[0])))
    if direct != pots[0]:
        raise ConsistencyError(
            "genus-zero output disagrees with the direct residue engine")
    return PotentialTable(rd=rd, m_in=m_in, potentials=pots,
                          degree_caps=caps, solver=solver, notes=notes)


def w_residual(table: PotentialTable, a: int, m: int, cap: int,
               genus_cap: int | None = None) -> dict[int, SparsePoly]:
    """Constraint residual per grade on a solved table (zero is the contract)."""
    if genus_cap is None:
        genus_cap = max(table.potentials)
    return table.solver.constraint_residual(a, m, cap, genus_cap)


def wconstraint_report(table: PotentialTable, a: int, m: int, cap: int,
                       genus_cap: int | None = None) -> dict:
    res = w_residual(table, a, m, cap, genus_cap)
    terms = []
    for g, poly in sorted(res.items()):
        if not poly.is_zero():
            terms.append({"grade": g, "poly": poly.to_json()})
    return {"N": table.rd.N, "a": a, "m": m, "cap": cap,
            "residual_terms": terms, "pass": not terms}
