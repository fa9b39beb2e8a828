"""Root-system data: symmetric states, divided differences."""

import random
import re
from itertools import combinations, combinations_with_replacement

import pytest

from anrec.rootsys import (
    RootData,
    cbracket_state,
    divided_difference,
    elem_sym_state,
    subset_product,
    vandermonde_coeff,
)


@pytest.mark.parametrize("N", range(1, 12))
def test_chi_sum_vanishes(N):
    # e1 is sum_i chi_i expanded into gamma-monomials, chi_i = sum_a eta^(-ia) gamma_a
    rd = RootData(N)
    assert elem_sym_state(rd, 1).is_zero()


def test_elem_sym_state_small():
    rd = RootData(1)  # h = 2
    assert elem_sym_state(rd, 1).is_zero()
    e2 = elem_sym_state(rd, 2)
    assert e2.terms == {(1, 1): -rd.ctx.one}

    rd3 = RootData(2)  # h = 3: e3 = gamma1^3 + gamma2^3
    e3 = elem_sym_state(rd3, 3)
    assert e3.terms == {(1, 1, 1): rd3.ctx.one, (2, 2, 2): rd3.ctx.one}


def test_elem_sym_cross_coefficient_bruteforce():
    # coefficient of gamma1*gamma2 in e2 equals the direct double sum
    rd = RootData(2)
    e2 = elem_sym_state(rd, 2)
    acc = rd.ctx.zero
    for i in range(1, rd.h + 1):
        for j in range(i + 1, rd.h + 1):
            acc = acc + rd.eta(-i) * rd.eta(-2 * j) + rd.eta(-2 * i) * rd.eta(-j)
    got = e2.terms.get((1, 2), rd.ctx.zero)
    assert got == acc


def _chi_product_state(rd, subset):
    # prod_{i in subset} chi_i, chi_i = sum_b eta^(-ib) gamma_b, multiplied out
    # with plain * and + over sorted gamma-multisets
    acc = {(): rd.ctx.one}
    for i in subset:
        nxt = {}
        for key, c in acc.items():
            for b in range(1, rd.N + 1):
                k = tuple(sorted(key + (b,)))
                nxt[k] = nxt.get(k, rd.ctx.zero) + c * rd.eta(-i * b)
        acc = nxt
    return acc


@pytest.mark.parametrize("N", range(1, 7))
def test_elem_sym_state_is_sum_of_subset_products(N):
    rd = RootData(N)
    for r in range(1, rd.h + 1):
        want = {}
        for subset in combinations(range(1, rd.h + 1), r):
            for key, c in _chi_product_state(rd, subset).items():
                want[key] = want.get(key, rd.ctx.zero) + c
        want = {k: c for k, c in want.items() if not c.is_zero()}
        assert elem_sym_state(rd, r).terms == want, (N, r)


@pytest.mark.parametrize("N", range(1, 6))
def test_bracket_state_equals_elementary(N):
    rd = RootData(N)
    for r in range(2, rd.h + 1):
        assert cbracket_state(rd, r) == elem_sym_state(rd, r)


def test_vandermonde_examples():
    rd = RootData(3)
    assert vandermonde_coeff(rd, (2,)) == rd.ctx.one
    assert vandermonde_coeff(rd, (1, 2)) == rd.ctx.one
    rd6 = RootData(5)
    assert vandermonde_coeff(rd6, (1, 3, 5)) == rd6.ctx.one
    with pytest.raises(ValueError):
        vandermonde_coeff(rd, (1, 1))


def _complete_homogeneous(rd, nodes, d):
    # h_d of the nodes eta^i as a plain sum of monomials: no inverses
    acc = rd.ctx.zero
    if d < 0:
        return acc
    for combo in combinations_with_replacement(nodes, d):
        acc = acc + rd.eta(sum(combo))
    return acc


def test_divided_difference_is_complete_homogeneous():
    # the recursion kernel sum_i eta^(-ia) / prod_{j != i} (eta^i - eta^j) is
    # the divided difference of z^(h-a) at the nodes eta^i, i.e. h_(h-a-r+1)
    for N in range(1, 6):
        rd = RootData(N)
        for r in range(1, rd.h + 1):
            for nodes in combinations(range(1, rd.h + 1), r):
                for a in range(rd.h):
                    d = (-a) % rd.h - r + 1
                    assert divided_difference(rd, nodes, -a) \
                        == _complete_homogeneous(rd, nodes, d), (N, nodes, a)


def _literal_divided_difference(rd, nodes, k):
    # the definition as written: r(r-1) field products and r inverses
    terms = []
    for i in nodes:
        denom = rd.ctx.one
        for j in nodes:
            if j != i:
                denom = denom * (rd.eta(i) - rd.eta(j))
        terms.append(denom.inv() * rd.eta(i * k))
    return rd.ctx.sum(terms)


@pytest.mark.parametrize("N", range(1, 8))
def test_divided_difference_matches_literal_definition(N):
    # every node set at h <= 8 and every k mod h
    rd = RootData(N)
    for r in range(1, rd.h + 1):
        for nodes in combinations(range(1, rd.h + 1), r):
            for k in range(rd.h):
                assert divided_difference(rd, nodes, k) \
                    == _literal_divided_difference(rd, nodes, k), (N, nodes, k)


@pytest.mark.parametrize("N", (11, 12))
def test_divided_difference_matches_literal_definition_sampled(N):
    # h = 12 and h = 13: random node sets in random order, labels shifted by
    # multiples of h, and k outside 0..h-1
    rd = RootData(N)
    rng = random.Random(N)
    for _ in range(40):
        r = rng.randint(1, rd.h)
        nodes = tuple(i + rd.h * rng.randint(-1, 1)
                      for i in rng.sample(range(1, rd.h + 1), r))
        k = rng.randint(-2 * rd.h, 2 * rd.h)
        assert divided_difference(rd, nodes, k) \
            == _literal_divided_difference(rd, nodes, k), (N, nodes, k)


@pytest.mark.parametrize("nodes", [(1, 1), (1, 5), (2, 3, 6)])
def test_divided_difference_rejects_labels_repeating_mod_h(nodes):
    rd = RootData(3)  # h = 4
    with pytest.raises(ValueError, match=re.escape(str(list(nodes)))):
        divided_difference(rd, nodes, 2)


@pytest.mark.parametrize("N", range(1, 7))
def test_subset_product_matches_literal_product(N):
    rd = RootData(N)
    for r in range(rd.h):
        for js in combinations(range(1, rd.h), r):
            literal = rd.ctx.one
            for j in js:
                literal = literal * (rd.ctx.one - rd.eta(j)).inv()
            for s in range(-1, rd.h + 1):
                assert subset_product(rd, js, s) == literal * rd.eta(s), (N, js, s)


def test_subset_product_rejects_bad_index_sets():
    rd = RootData(3)
    for js in [(0,), (4,), (2, 1), (1, 1)]:
        with pytest.raises(ValueError):
            subset_product(rd, js)


def test_symstate_serialization():
    rd = RootData(2)
    state = elem_sym_state(rd, 3)
    data = state.to_json()
    assert data["h"] == 3
    assert len(data["terms"]) == 2
