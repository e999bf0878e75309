"""Naive set-level reference implementations plus a small-instance generator.

Everything here recomputes results straight from the value sets, with
membership tests and set operations only.  No function in this module
reads a bit matrix, and pair labels are re-rendered locally, so an
agreement between an oracle and its matrix-form counterpart is evidence
rather than the same code running twice.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from fractions import Fraction
from itertools import product as cartesian

from .core import EmptyDenominator, SoftSet, SoftSetError, require_same_universe

__all__ = [
    "MAX_ENUM_ATTRIBUTES",
    "MAX_ENUM_UNIVERSE",
    "BoundExceeded",
    "enumerate_soft_sets",
    "oracle_complement",
    "oracle_intersection",
    "oracle_product",
    "oracle_similarity",
    "oracle_union",
]

MAX_ENUM_UNIVERSE = 4
MAX_ENUM_ATTRIBUTES = 3


class BoundExceeded(SoftSetError):
    """The exhaustive generator is capped at desk scale on purpose."""


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


def enumerate_soft_sets(
    universe: Sequence[str], max_attributes: int
) -> Iterator[SoftSet]:
    """Every soft set over the universe with 1..max_attributes attributes.

    Deterministic order: widths ascending; within a width, value tuples
    in mixed-radix counting order over subsets (subset masks count up,
    bit i is element i, last attribute varies fastest).  Attribute
    names are a1, a2, ...; counts follow sum over k of (2^|X|)^k.
    """
    universe = tuple(universe)
    if len(universe) > MAX_ENUM_UNIVERSE:
        raise BoundExceeded(
            f"universe of {len(universe)} exceeds the enumeration cap of {MAX_ENUM_UNIVERSE}"
        )
    if not 1 <= max_attributes <= MAX_ENUM_ATTRIBUTES:
        raise BoundExceeded(
            f"max_attributes must be between 1 and {MAX_ENUM_ATTRIBUTES}"
        )
    subsets = [
        frozenset(e for i, e in enumerate(universe) if mask >> i & 1)
        for mask in range(1 << len(universe))
    ]
    for width in range(1, max_attributes + 1):
        names = tuple(f"a{k}" for k in range(1, width + 1))
        for combo in cartesian(subsets, repeat=width):
            yield SoftSet(universe, names, dict(zip(names, combo)))
