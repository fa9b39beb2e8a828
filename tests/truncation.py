"""Truncation reference for the degree-capped products.

The capped products skip monomial pairs before they multiply them; this
reference forms everything and filters afterwards, so the two share no loop.
"""

from anrec.series import SparsePoly


def mono_degree(mono) -> int:
    """Total degree of a tuple monomial ((Var, exponent), ...)."""
    return sum(e for _, e in mono)


def up_to_degree(p: SparsePoly, d: int) -> SparsePoly:
    """The terms of p of total degree <= d."""
    return SparsePoly.from_terms((m, c) for m, c in p.terms.items() if mono_degree(m) <= d)
