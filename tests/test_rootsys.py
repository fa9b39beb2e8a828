"""Root-system data: chi vectors, pairing, states, divided differences."""

import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest

from anrec.rootsys import (
    RootData,
    cbracket_state,
    chi,
    divided_difference,
    elem_sym_state,
    pairing,
    vandermonde_coeff,
)


def test_chi_examples():
    rd2 = RootData(1)  # h = 2
    assert chi(rd2, 1) == (-rd2.ctx.one,)
    assert chi(rd2, 2) == (rd2.ctx.one,)
    rd4 = RootData(3)
    assert chi(rd4, 4) == (rd4.ctx.one,) * 3  # eta^(-4a) = 1
    with pytest.raises(ValueError):
        chi(rd4, 5)


@pytest.mark.parametrize("N", range(1, 12))
def test_chi_sum_vanishes(N):
    rd = RootData(N)
    total = [rd.ctx.zero] * N
    for i in range(1, rd.h + 1):
        v = chi(rd, i)
        total = [t + c for t, c in zip(total, v)]
    assert all(c.is_zero() for c in total)


def test_pairing_values():
    rd = RootData(3)  # h = 4
    c1, c2 = chi(rd, 1), chi(rd, 2)
    assert pairing(rd, c1, c1) == rd.ctx.from_rat(Fraction(3, 4))
    root = tuple(a - b for a, b in zip(c1, c2))
    assert pairing(rd, root, root) == rd.ctx.from_rat(2)
    rd2 = RootData(1)
    assert pairing(rd2, chi(rd2, 1), chi(rd2, 2)) == rd2.ctx.from_rat(Fraction(-1, 2))


def test_roots_have_square_two_for_all_h():
    for N in range(1, 7):
        rd = RootData(N)
        for i in range(1, rd.h + 1):
            for j in range(i + 1, rd.h + 1):
                root = tuple(a - b for a, b in zip(chi(rd, i), chi(rd, j)))
                assert pairing(rd, root, root) == rd.ctx.from_rat(2)


def test_pairing_symmetric_and_label_invariant():
    # the form is symmetric and unchanged under permuting chi-labels
    rng = random.Random(7)
    rd = RootData(4)
    labels = list(range(1, rd.h + 1))
    for _ in range(25):
        i, j = rng.sample(labels, 2)
        perm = labels[:]
        rng.shuffle(perm)
        u, v = chi(rd, i), chi(rd, j)
        assert pairing(rd, u, v) == pairing(rd, v, u)
        assert pairing(rd, chi(rd, perm[i - 1]), chi(rd, perm[j - 1])) \
            == pairing(rd, u, v)


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


def test_symstate_serialization():
    rd = RootData(2)
    state = elem_sym_state(rd, 3)
    data = state.to_json()
    assert data["h"] == 3
    assert len(data["terms"]) == 2
