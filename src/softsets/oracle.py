"""Naive set-level reference implementations of the algebra and similarity.

Everything here recomputes results straight from the value sets, with
membership tests and set operations only.  No function in this module
reads a bit matrix, and pair labels are re-rendered locally, so an
agreement between an oracle and its matrix-form counterpart is evidence
rather than the same code running twice.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction

from .core import EmptyDenominator, SoftSet, require_same_universe

__all__ = [
    "oracle_complement",
    "oracle_intersection",
    "oracle_product",
    "oracle_similarity",
    "oracle_union",
]


def oracle_complement(s: SoftSet) -> SoftSet:
    x = s.universe_set
    return SoftSet(
        s.universe, s.attributes, {a: x - s.value(a) for a in s.attributes}
    )


def _oracle_pairwise(s: SoftSet, f: SoftSet, op: Callable) -> SoftSet:
    """One value op(s(a), f(b)) per attribute pair, labelled "(a,b)"."""
    require_same_universe(s, f)
    pairs = [(a, b) for a in s.attributes for b in f.attributes]
    values = {f"({a},{b})": op(s.value(a), f.value(b)) for a, b in pairs}
    return SoftSet(s.universe, [f"({a},{b})" for a, b in pairs], values)


def oracle_union(s: SoftSet, f: SoftSet) -> SoftSet:
    return _oracle_pairwise(s, f, frozenset.union)


def oracle_intersection(s: SoftSet, f: SoftSet) -> SoftSet:
    return _oracle_pairwise(s, f, frozenset.intersection)


def oracle_product(s: SoftSet, f: SoftSet) -> SoftSet:
    require_same_universe(s, f)
    universe = tuple(f"({u},{v})" for u in s.universe for v in s.universe)
    attributes = tuple(f"({a},{b})" for a in s.attributes for b in f.attributes)
    values = {
        f"({a},{b})": frozenset(
            f"({u},{v})" for u in s.value(a) for v in f.value(b)
        )
        for a in s.attributes
        for b in f.attributes
    }
    return SoftSet(universe, attributes, values)


def oracle_similarity(s: SoftSet, f: SoftSet) -> Fraction:
    """Cell agreement via membership tests only; positions past an
    operand's width count as non-membership."""
    require_same_universe(s, f)
    m = len(s.universe)
    n = max(len(s.attributes), len(f.attributes))
    if m == 0 or n == 0:
        raise EmptyDenominator(
            "similarity needs a nonempty universe and at least one attribute"
        )
    agree = 0
    for x in s.universe:
        for j in range(n):
            in_s = j < len(s.attributes) and x in s.value(s.attributes[j])
            in_f = j < len(f.attributes) and x in f.value(f.attributes[j])
            if in_s == in_f:
                agree += 1
    return Fraction(agree, m * n)

