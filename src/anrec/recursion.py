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
of grades and degrees: each configuration is found once and closed at every
(grade, degree) in range that its blocks reach.  A constraint residual, like
a W-slice group (g, dirs), lists the walk units of all its label sets (once
per solver), walks them once and closes the records once, so records of
different label sets merge.  A group keeps its walk: a slice asked at a
higher degree extends it only over configurations with more input variables,
if a unit can carry more.  The walk is one pass from slot options to
records: every option is a row (slack, is an input, tag), built once per
solver, whose tag packs the eta exponent, sign, derivative mode and input
monomial into one int, so a configuration is a sum of rows and a count.
The last two slots of a unit form one table bucketed by slack mod h and
input count.  Only configurations that can contribute are kept: every
derivative mode gets a level >= 0 from the exponent budget, and one without
derivative modes closes on the spot (no pending direction, a grade and
degree in range, the exponent target hit exactly).  Records group them by
shape (#derivative modes, #pending directions, #pairs, #inputs), derivative
modes, level total and pending directions, with input monomials summed per
scalar and sign.  A degree-d slice closes each record whose shape has a
block plan at degree d - #inputs; the level and block splits are built once
per shape (:func:`_level_vectors`, :func:`_block_plans`), and
:func:`anrec.series.weighted_sum` multiplies each W-slice product, int level
factor and scalar in its one sum.  At m_in >= 1 the input x_{1,N} weighs
zero, so closing (g, dirs, d) reads (g, dirs, d') of its own group, always
at d' < d, and may fill it mid-iteration: a fill never changes a record map
handed out before.  A W-slice that weighted homogeneity forces to zero is
never expanded: with x_{m,a} of weight (a+1)/h - m, every monomial of F_g
weighs (2 + 2/h)(1 - g), and :func:`anrec.genus0._weight_allows` tells
whether d input variables can make up a degree-d slice's weight.

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
from itertools import accumulate, combinations
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
from .reporting import CheckReport
from .rootsys import RootData, divided_difference, subset_product
from .series import SparsePoly, Var, _mono_key, _poly, weighted_sum


# A walk row's tag packs, from the low bits up: the option's eta exponent mod
# h and a 1 for the sign -1 of the dilaton insertion (16-bit fields whose
# sums stay below h^2; the second's parity is the sign), (1 << 8b) + 1 for a
# derivative mode of flat index b (byte 0 counts modes), and the packed input
# key.  A unit has at most h slots, so no field overflows while h <= 255; a
# larger h is out of reach, as listing its units enumerates every pair set.
_SIGN_SHIFT = 16
_MODE_SHIFT = 32
_FIELD = (1 << _SIGN_SHIFT) - 1


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


@lru_cache(maxsize=None)
def _pair_sets(items: tuple) -> tuple[tuple, ...]:
    """All sets of disjoint unordered pairs drawn from ``items``, memoised."""
    if len(items) < 2:
        return ((),)
    first, rest = items[0], items[1:]
    out = list(_pair_sets(rest))  # first stays unpaired
    for k, other in enumerate(rest):
        sub = rest[:k] + rest[k + 1:]
        for tail in _pair_sets(sub):
            out.append(((first, other),) + tail)
    return tuple(out)


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
def _mode_indices(modes: int, N: int) -> tuple[int, ...]:
    """The sorted flat indices b of the derivative modes that byte b of ``modes`` counts."""
    return tuple(b for b in range(1, N + 1) for _ in range(modes >> 8 * b & 255))


@lru_cache(maxsize=None)
def _fits(lo: int, hi: int) -> tuple[tuple[int, ...], ...]:
    """Entry n: the input counts x of a walk's tail, 0 to 2, with lo <= n + x <= hi."""
    return tuple(tuple(x for x in (0, 1, 2) if lo <= n + x <= hi) for n in range(hi + 1))


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
        # (g, dirs) -> (inputs walked, records, units, most inputs of a unit)
        self._groups: dict[tuple, tuple[int, dict, list, int]] = {}
        self._stack: set[tuple] = set()
        self._prop: dict[tuple[int, int], CycScalar] = {}
        self._kernel: dict[tuple[tuple[int, ...], int], CycScalar] = {}
        self._rows: dict[tuple, tuple[tuple[int, int, int], ...]] = {}
        self._tails: dict[tuple, tuple[dict, ...]] = {}
        self._cluster_units: dict[tuple, list] = {}
        self._key_shift = _MODE_SHIFT + 8 * (rd.N + 1)  # above the mode bytes 0..N

    # -- scalar caches -------------------------------------------------------

    def _pair_value(self, i: int, j: int) -> CycScalar:
        key = (min(i, j), max(i, j))
        got = self._prop.get(key)
        if got is None:
            got = self._prop[key] = propagator(self.rd, *key)
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
        parts = (part[1:] for part in self._close(
            self._group_records(g, dirs, d), (g, g), (d, d)))
        return weighted_sum(rd.ctx, parts).scale(Fraction(-1, h * norm_factor(h, m, a)))

    def _group_records(self, g: int, dirs: tuple[Var, ...], d: int) -> dict:
        """The :meth:`_walk` records of the W-slice group (g, dirs), walked to d input variables.

        The first request lists the group's walk units and walks them up to
        d input variables; a later one at a higher degree walks them again
        over the configurations with more input variables than walked
        before, unless no unit can carry more.  Their records have new
        shapes only (n grows) and go into a new dict, so a record map handed
        out earlier never changes under a closing that iterates it.
        """
        walked, records, units, most = self._groups.get((g, dirs), (-1, {}, None, 0))
        if walked >= d:
            return records
        if units is None:
            h = self.rd.h
            m, a = dirs[0]
            units = []
            for size in range(2, h + 1):
                q_target = -h - (h * (m + 1) - (a + size - 1))
                for labels in combinations(range(1, h + 1), size):
                    if not (ks := self._kernel_scalar(labels, a)).is_zero():
                        units += [(q_target, unit)
                                  for unit in self._units(labels, g, dirs[1:], False, ks)]
            most = max((room[0] for _, (*_, room, _, _) in units), default=0)
        if walked < most:
            inputs = (walked + 1, d)
            records = {**records, **self._walk(units, (g, g), inputs)}
        self._groups[(g, dirs)] = (d, records, units, most)
        return records

    # -- the cluster expansion ---------------------------------------------------

    def _units(self, slots: tuple[int, ...], max_pairs: int, externals: tuple[Var, ...],
               shift: bool, scalar: CycScalar) -> list[tuple]:
        """The walk units (p, pool, rows, tail, reach, room, scalar, rotated) of ``slots``.

        A unit is a set of p <= ``max_pairs`` disjoint slot pairs and a
        placement of the pending directions ``externals``, each on an input
        mode of one unpaired slot (fixing its option) or in ``pool``, inside
        a derivative block.  ``rows`` are the :meth:`_slot_rows` of the
        unpaired slots, ``tail`` the :meth:`_tail` of the last two, reach[i]
        and room[i] the largest slack and most inputs slots i.. can add,
        ``scalar`` the given one times the pairs' propagators, and
        ``rotated`` its eta-rotations, per pair set.  ``slots`` are distinct
        labels; ``shift`` adds the insertion that realises the dilaton shift.
        The list is memoised per solver and serves every ``q_target``: W-slice
        groups whose first directions differ only in m share it.
        """
        key = (slots, max_pairs, externals, shift, scalar)
        units = self._cluster_units.get(key)
        if units is not None:
            return units
        units = self._cluster_units[key] = []
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
                for v, target in zip(externals, assign):
                    if target == u:
                        pool.append(v)
                    elif slot_ext[target] is None:
                        slot_ext[target] = v
                    else:
                        break  # twice on one variable factor: zero
                else:
                    keys = [(slots[i], slot_ext[k], shift) for k, i in enumerate(rest)]
                    rows = [self._slot_rows(*key) for key in keys]
                    reach = [*accumulate((r[0][0] for r in rows[::-1]), initial=0)][::-1]
                    room = [*accumulate((e is None for e in slot_ext[::-1]), initial=0)][::-1]
                    units.append((p, tuple(pool), rows, self._tail(tuple(keys[-2:])),
                                  reach, room, pair_scalar, rotated))
        return units

    def _slot_rows(self, l: int, ext: Var | None, shift: bool) -> tuple[tuple[int, int, int], ...]:
        """The walk rows of one unpaired slot of label l, largest slack first, memoised.

        An option of slot weight sign * eta^k and lambda-exponent dq is an
        input variable, a constant factor (a consumed external or the
        dilaton insertion) or a derivative mode of flat index b, whose level
        the exponent budget fixes later.  Its row is (slack, is an input,
        tag): the slack is dq, less h for a derivative mode, and the tag
        packs the rest (see ``_SIGN_SHIFT``).
        """
        key = (l, ext, shift)
        got = self._rows.get(key)
        if got is not None:
            return got
        rd = self.rd
        h = rd.h
        opts: list[tuple] = []  # (slack, is an input, sign, k, input key, mode index)
        if ext is not None:
            opts.append((ext.m * h - ext.a, 0, 1, -l * ext.a, 0, 0))
        else:
            for b in range(1, rd.N + 1):
                for k in range(self.m_in + 1):
                    opts.append((k * h - b, 1, 1, -l * b, _mono_key((Var(k, b),)), 0))
                opts.append((-b - h, 0, 1, -l * b, 0, b))
            if shift:
                opts.append((1, 0, -1, -l * rd.N, 0, 0))
        got = self._rows[key] = tuple(sorted(
            ((slack, x, k % h + ((sign < 0) << _SIGN_SHIFT)
              + ((b and (1 << 8 * b) + 1) << _MODE_SHIFT) + (mono << self._key_shift))
             for slack, x, sign, k, mono, b in opts), reverse=True))
        return got

    def _tail(self, keys: tuple[tuple, ...]) -> tuple[dict, ...]:
        """The joint rows of the last two slots (or fewer) of a walk, memoised per slot keys.

        Entry x maps a slack residue mod h to the (slack sum, tag sum) of
        each choice of one row per slot with x input variables, largest
        slack first.
        """
        got = self._tails.get(keys)
        if got is None:
            joint = [(0, 0, 0)]
            for key in keys:
                joint = sorted(((s1 + s2, x1 + x2, t1 + t2) for s1, x1, t1 in joint
                                for s2, x2, t2 in self._slot_rows(*key)), reverse=True)
            got = self._tails[keys] = ({}, {}, {})
            for slack, x, tag in joint:
                got[x].setdefault(slack % self.rd.h, []).append((slack, tag))
        return got

    def _walk(self, units, grades: tuple[int, int], inputs: tuple[int, int]) -> dict:
        """Records of every configuration of ``units`` with n in ``inputs`` that can close.

        ``units`` are (q_target, :meth:`_units` tuple) pairs.  Records map a
        shape (u_d, n_pool, p, n) to {(dslots, total_lv, pool): {(scalar,
        sign): inputs}}: the pair count, pending directions and input count,
        the sorted flat indices b of the u_d derivative modes, the sum of
        their level + 1, the unit's scalar times eta^k_sum (one object per
        pair set and k mod h), the sign, and the sum of input monomials.  A
        configuration without derivative modes closes at grade p and degree
        n, so it is kept only with no pending direction and p a grade in
        range.
        """
        h, key_shift = self.rd.h, self._key_shift
        term_mask = (1 << (key_shift + 8)) - 1  # all but the input variables' own bytes
        mode_mask = (1 << (key_shift - _MODE_SHIFT)) - 1
        found: dict[tuple, dict] = {}
        for q_target, (p, pool, rows, tail, reach, room, pair_scalar, rotated) in units:
            q_residue = q_target + 2 * h * p  # what the slots must add to the pairs' -2hp
            closes = not pool and p >= grades[0]
            cells: dict[tuple[int, int], dict] = {}  # the input sums of one record term
            for (tag, slack), count in self._leaves(rows, tail, reach, room, q_residue,
                                                    inputs, closes).items():
                mono = tag >> key_shift
                monos = cells.get((tag & term_mask, slack))
                if monos is None:
                    dslots = _mode_indices(tag >> _MODE_SHIFT & mode_mask, self.rd.N)
                    k = (tag & _FIELD) % h
                    scalar = rotated.get(k)
                    if scalar is None:
                        scalar = rotated[k] = pair_scalar.rotate(k)
                    u_d = len(dslots)
                    monos = cells[(tag & term_mask, slack)] = found.setdefault(
                        (u_d, len(pool), p, mono & 255), {}).setdefault(
                        (dslots, (slack - q_residue) // h + u_d, pool), {}).setdefault(
                        (scalar, -1 if tag >> _SIGN_SHIFT & 1 else 1), {})
                monos[mono] = monos.get(mono, 0) + count
        for entries in found.values():
            for terms in entries.values():
                for term, monos in terms.items():
                    terms[term] = _poly(monos)
        return found

    def _leaves(self, rows: list[tuple], tail: tuple[dict, ...], reach: list[int],
                room: list[int], q_residue: int, inputs: tuple[int, int],
                closes: bool) -> dict[tuple[int, int], int]:
        """{(tag sum, slack sum): count} over the kept configurations of one unit.

        A configuration picks one row per slot of ``rows``.  It is kept if
        its input count lies in the inclusive range ``inputs`` and its
        slacks sum to ``q_residue`` mod h and to at least ``q_residue``
        (every derivative mode a level >= 0); without derivative modes, to
        ``q_residue`` exactly, and only if the unit ``closes``.  The walk
        recurses over the slots before the last two; a branch stops once it
        has too many inputs, or the slots left cannot add enough inputs
        (``room``) or slack (``reach``).  Its base case reads the last two
        slots from ``tail`` where a choice closes the gap mod h and keeps n
        in range, down to the first choice too small to close it.
        """
        lo, hi = inputs
        leaves: dict[tuple[int, int], int] = {}
        if reach[0] < q_residue or room[0] < lo:
            return leaves
        h = self.rd.h
        last = max(len(rows) - 2, 0)  # the slot where the tail begins
        has_modes = 255 << _MODE_SHIFT
        fits = _fits(lo, hi)

        def walk(j: int, s: int, n: int, tag: int) -> None:
            if j < last:
                ahead, more = reach[j + 1], room[j + 1]
                for sl, x, t in rows[j]:
                    if s + sl + ahead < q_residue:
                        break
                    if n + x <= hi and lo <= n + x + more:
                        walk(j + 1, s + sl, n + x, tag + t)
                return
            for x in fits[n]:
                for sl, t in tail[x].get((q_residue - s) % h, ()):
                    s_end = s + sl
                    if s_end < q_residue:
                        break
                    t += tag
                    if t & has_modes or (closes and s_end == q_residue):
                        leaf = (t, s_end)
                        leaves[leaf] = leaves.get(leaf, 0) + 1

        walk(0, 0, 0, 0)
        del walk  # the closure holds itself through its cell: free it now, not at a collection
        return leaves

    def _close(self, records: dict, grades: tuple[int, int], degrees: tuple[int, int]):
        """Yield (grade, scalar, factor, poly, blocks) for every closing of ``records``.

        A record of shape (u_d, n_pool, p, n) closes at every (g, d) in the
        inclusive ranges with a nonempty :func:`_block_plans` (u_d, n_pool,
        g - p, d - n); one without derivative modes only at g = p and d = n,
        as its inputs alone (``blocks`` None).  Each level vector and plan
        looks up its W-slices once, and a product of them that is not zero
        is handed on beside the inputs of every term, with the level factor
        sign * prod (b + k*h) an int beside the scalar.  ``records`` is read
        as it is, so a fill that the lookups start never changes what is
        iterated.
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
            for (dslots, total_lv, pool), terms in entries.items():
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
                                for (scalar, sign), poly in terms.items():
                                    yield g, scalar, sign * factor, poly, blocks

    # -- exposed evaluations ------------------------------------------------------

    def constraint_residual(self, a: int, m: int, cap: int,
                            genus_cap: int) -> dict[int, SparsePoly]:
        """Residue of lambda^m against the degree-(h+1-a) symmetric state,
        applied in the unshifted frame; returns one polynomial per grade.

        The degree-r state is the elementary symmetric polynomial in the
        labels: one slot tuple per r-subset of 1..h, each with weight one.
        The walk units of every r-subset are walked and closed once, over
        every grade 0..genus_cap and degree 0..cap, as a W-slice group's
        are; the parts are bucketed by grade and each grade is one
        :func:`weighted_sum`.

        A grade-g component is exact once the memoised table is complete
        through genus g, and the contract is that every component vanishes
        identically on tables produced by the recursion itself.
        """
        rd = self.rd
        h = rd.h
        if not 1 <= a <= rd.N:
            raise ValueError("constraint index out of range")
        q_target = -h - m * h
        units = [(q_target, unit) for labels in combinations(range(1, h + 1), h + 1 - a)
                 for unit in self._units(labels, genus_cap, (), True, rd.ctx.one)]
        grades, degrees = (0, genus_cap), (0, cap)
        parts: dict[int, list] = {g: [] for g in range(genus_cap + 1)}
        for g, *part in self._close(self._walk(units, grades, degrees), grades, degrees):
            parts[g].append(part)
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


def wconstraint_report(table: PotentialTable, a: int, m: int, cap: int) -> CheckReport:
    """The verdict on one constraint residual: it passes if every grade vanishes."""
    terms = [{"grade": g, "poly": poly.to_json()}
             for g, poly in sorted(w_residual(table, a, m, cap).items()) if not poly.is_zero()]
    return CheckReport(claim=f"constraint residual a={a} m={m}", passed=not terms,
                       witness=terms or None)
