"""Tuple-constant tests: golden values, symmetrisation, identity verifiers."""

import gc
import random
import weakref
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anrec import combinatorics, rootsys
from anrec.combinatorics import (
    c_bracket,
    c_const,
    sym_c,
    verify_cbracket_generating,
    verify_remove_n,
    verify_symc_generating,
)
from anrec.rootsys import RootData, cbracket_state


@pytest.fixture(scope="module")
def rd4():
    return RootData(3)


def test_golden_constants_h4(rd4):
    ctx = rd4.ctx
    eta = ctx.eta_pow(1)
    half = Fraction(1, 2)
    assert c_const(rd4, (1, 1)) == ctx.zero
    assert c_const(rd4, (2, 2)) == ctx.zero
    assert c_const(rd4, (1, 2)) == ctx.from_rat(half)
    assert c_const(rd4, (2, 1)) == ctx.from_rat(half)
    assert c_const(rd4, (1, 3)) == (eta - 1) * half
    assert c_const(rd4, (3, 1)) == (-eta - 1) * half
    assert c_const(rd4, (1, 1, 1)) == ctx.from_rat(Fraction(-1, 4))


def test_c_const_conventions(rd4):
    assert c_const(rd4, ()) == rd4.ctx.one
    # no strictly increasing index tuple once r > h - 1
    assert c_const(rd4, (1, 1, 2, 2)).is_zero()
    assert c_const(rd4, (1,) * 7).is_zero()
    with pytest.raises(ValueError):
        c_const(rd4, (0,))
    with pytest.raises(ValueError):
        c_const(rd4, (4,))


def _c_by_definition(rd, tup):
    # C(a) straight from its defining sum over increasing index tuples,
    # sharing no code with the rotated subset products of c_const
    one = rd.ctx.one
    inv = {j: (one - rd.eta(j)).inv() for j in range(1, rd.h)}
    acc = rd.ctx.zero
    for js in combinations(range(1, rd.h), len(tup)):
        prod = one
        for j, a in zip(js, tup):
            prod = prod * rd.eta(-j * a) * inv[j]
        acc = acc + prod
    return acc


@pytest.mark.parametrize("h", range(2, 7))
def test_c_const_matches_its_definition(h):
    rd = RootData(h - 1)
    for r in range(h):
        for tup in iproduct(range(1, h), repeat=r):
            assert c_const(rd, tup) == _c_by_definition(rd, tup), tup


@st.composite
def _tuples_at_large_h(draw):
    h = draw(st.sampled_from((7, 8, 12)))
    r = draw(st.integers(1, h - 1))
    return h, tuple(draw(st.lists(st.integers(1, h - 1), min_size=r, max_size=r)))


@settings(max_examples=40, deadline=None)
@given(case=_tuples_at_large_h())
def test_c_const_matches_its_definition_at_large_h(case):
    h, tup = case
    rd = RootData(h - 1)
    assert c_const(rd, tup) == _c_by_definition(rd, tup)


def test_lone_query_forms_one_rotation_per_index_set():
    # the per-size table of C forms a rotation only when a tuple asks for it
    rd = RootData(29)
    c_const(rd, (1, 2, 3))
    den, entries = combinatorics._memo(rd).sizes[3]
    assert len(entries) == len(list(combinations(range(1, 30), 3)))
    assert all(sum(row is not None for row in rotations) <= 1
               for _, _, rotations in entries)
    assert all(den % d.den == 0 for _, d, _ in entries)


def test_distinct_permutations_are_the_sorted_distinct_arrangements():
    for r in range(7):
        for multiset in combinations_with_replacement(range(1, 5), r):
            want = sorted(set(permutations(multiset)))
            assert list(combinatorics._distinct_permutations(multiset)) == want
            # the order the entries come in does not matter
            assert list(combinatorics._distinct_permutations(multiset[::-1])) == want


def test_sym_c(rd4):
    assert sym_c(rd4, (1, 2)) == rd4.ctx.one  # C(1,2) + C(2,1) = 1
    assert sym_c(rd4, (3,)) == c_const(rd4, (3,))
    assert sym_c(rd4, (1, 1)).is_zero()
    # permutation invariance through canonicalisation
    rng = random.Random(3)
    for _ in range(10):
        tup = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4)))
        perm = list(tup)
        rng.shuffle(perm)
        assert sym_c(rd4, tup) == sym_c(rd4, tuple(perm))


def test_sym_c_rejects_bad_entries_of_long_tuples():
    rd = RootData(3)
    with pytest.raises(ValueError):
        sym_c(rd, (9, 9, 9, 9))  # longer than h - 1, so C would vanish
    with pytest.raises(ValueError):
        sym_c(rd, (0, 1, 1, 1, 1))
    assert not combinatorics._memo(rd).sym
    assert sym_c(rd, (1, 1, 1, 1)).is_zero()  # a valid long tuple still gives 0


def test_c_bracket_values(rd4):
    assert c_bracket(rd4, (2,)) == rd4.ctx.one
    assert c_bracket(rd4, (1, 3)) == c_const(rd4, (3,)) + c_const(rd4, (1,))
    rd2 = RootData(1)
    assert c_bracket(rd2, (1, 1)) == rd2.ctx.from_rat(Fraction(-1, 2))
    # the normalised state built from these matches the elementary one
    assert cbracket_state(rd2, 2).terms == {(1, 1): -rd2.ctx.one}
    with pytest.raises(ValueError):
        c_bracket(rd4, (2, 1))
    assert c_bracket(rd4, (1,) * (rd4.h + 1)).is_zero()


def test_bracket_matches_state_coefficients():
    # bracket values recomputed from the state coefficients agree
    for N in (2, 3, 4):
        rd = RootData(N)
        for r in range(2, rd.h + 1):
            state = cbracket_state(rd, r)
            for key, coeff in state.terms.items():
                assert coeff == c_bracket(rd, key) * rd.h


def test_remove_n_examples():
    rd = RootData(3)
    # m = 0 is the trivial case
    assert verify_remove_n(rd, (1, 2), 0).passed
    # boundary and vanishing regimes
    b = (1, 1)
    bound = sum(b) % rd.h
    assert verify_remove_n(rd, b, bound).passed
    rep = verify_remove_n(rd, b, bound + 1).passed
    assert rep
    lhs = c_bracket(rd, (1, 1) + (3,) * (bound + 1))
    assert lhs.is_zero()  # vanishing regime really vanishes


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_remove_n_randomised(N):
    rd = RootData(N)
    rng = random.Random(100 + N)
    for _ in range(40):
        blen = rng.randint(1, min(3, rd.N - 1) if rd.N > 1 else 1)
        b = tuple(sorted(rng.randint(1, rd.N - 1) for _ in range(blen)))
        bound = sum(b) % rd.h
        for m in {0, bound, bound + 1, rng.randint(0, bound + 2)}:
            assert verify_remove_n(rd, b, m).passed


@pytest.mark.parametrize("N", [2, 3])
def test_symc_generating_exhaustive_small(N):
    rd = RootData(N)
    for r in (1, 2):
        for tup in iproduct(range(1, rd.N), repeat=r):
            rep = verify_symc_generating(rd, tup)
            assert rep.passed, rep.claim


def test_symc_generating_y_at_one():
    # only the m = 0 term survives at Y = 1
    rd = RootData(3)
    rep = verify_symc_generating(rd, (1, 2))
    assert rep.passed
    from anrec.series import YPoly
    from anrec.exactnum import CycScalar
    lhs = YPoly(rd.ctx, [CycScalar.from_json(c) for c in rep.lhs])
    assert sum(lhs.coeffs, rd.ctx.zero) == sym_c(rd, (1, 2))


@pytest.mark.parametrize("N", [2, 3])
def test_cbracket_generating_exhaustive_small(N):
    rd = RootData(N)
    for r in (1, 2, 3):
        for tup in iproduct(range(1, rd.N), repeat=r):
            rep = verify_cbracket_generating(rd, tuple(sorted(tup)))
            assert rep.passed, rep.claim


def test_report_shape():
    rd = RootData(2)
    rep = verify_remove_n(rd, (1,), 1)
    data = rep.to_json()
    assert set(data) >= {"claim", "lhs", "rhs", "pass"}


def test_constant_approx_diagnostic(rd4):
    # numeric cross-check of an exact value; diagnostics only
    assert abs(c_const(rd4, (1, 2)).approx() - 0.5) < 1e-10


def test_memos_live_and_die_with_their_root_data():
    rd = RootData(3)
    first = (sym_c(rd, (1, 2)), c_bracket(rd, (1, 3)))
    memo = combinatorics._MEMOS[rd]
    # the subset products behind C live in rootsys, the layer below
    subsets = rootsys._SUBSETS[rd]
    # the per-size tables of C live in this module's memo
    sizes = memo.sizes
    assert memo.sym and memo.bracket and sizes and subsets
    ref = weakref.ref(rd)
    del rd
    gc.collect()
    # neither memo keeps its root system alive, and both go with it
    assert ref() is None
    assert all(other is not memo and other.sizes is not sizes
               for other in combinatorics._MEMOS.values())
    assert all(other is not subsets for other in rootsys._SUBSETS.values())
    # a new root system of the same rank starts cold and agrees
    fresh = RootData(3)
    assert fresh not in combinatorics._MEMOS and fresh not in rootsys._SUBSETS
    assert (sym_c(fresh, (1, 2)), c_bracket(fresh, (1, 3))) == first
    assert combinatorics._MEMOS[fresh].sizes.keys() == sizes.keys()


def test_root_data_carries_no_cache():
    assert vars(RootData)["__slots__"] == ("N", "h", "ctx", "__weakref__")
