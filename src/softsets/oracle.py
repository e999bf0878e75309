"""Naive set-level references the library is checked against.

The algebra and similarity oracles recompute results from a soft set's
value sets; the family-level references take families and columns as
frozensets and never touch a SoftSet.  Only membership tests and set
operations are used, no function reads a bit matrix, and pair labels are
re-rendered locally, so an agreement between a reference and its
matrix-form counterpart is evidence rather than the same code running twice.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction

from .core import ApproxKind, EmptyDenominator, SoftSet, _require_same_universe

__all__ = [
    "oracle_best_similarity",
    "oracle_complement",
    "oracle_external",
    "oracle_internal",
    "oracle_intersection",
    "oracle_maximal",
    "oracle_minimal",
    "oracle_product",
    "oracle_relation",
    "oracle_similarity",
    "oracle_union",
]


def oracle_complement(s: SoftSet) -> SoftSet:
    x = frozenset(s.universe)
    return SoftSet(
        s.universe, s.attributes, {a: x - v for a, v in s.values.items()}
    )


def _oracle_pairwise(s: SoftSet, f: SoftSet, op: Callable) -> SoftSet:
    """One value op(s(a), f(b)) per attribute pair, labelled "(a,b)"."""
    _require_same_universe(s, f)
    pairs = [(a, b) for a in s.attributes for b in f.attributes]
    sv, fv = s.values, f.values
    values = {f"({a},{b})": op(sv[a], fv[b]) for a, b in pairs}
    return SoftSet(s.universe, [f"({a},{b})" for a, b in pairs], values)


def oracle_union(s: SoftSet, f: SoftSet) -> SoftSet:
    return _oracle_pairwise(s, f, frozenset.union)


def oracle_intersection(s: SoftSet, f: SoftSet) -> SoftSet:
    return _oracle_pairwise(s, f, frozenset.intersection)


def oracle_product(s: SoftSet, f: SoftSet) -> SoftSet:
    _require_same_universe(s, f)
    universe = tuple(f"({u},{v})" for u in s.universe for v in s.universe)
    attributes = tuple(f"({a},{b})" for a in s.attributes for b in f.attributes)
    sv, fv = s.values, f.values
    values = {
        f"({a},{b})": frozenset(
            f"({u},{v})" for u in sv[a] for v in fv[b]
        )
        for a in s.attributes
        for b in f.attributes
    }
    return SoftSet(universe, attributes, values)


def oracle_similarity(s: SoftSet, f: SoftSet) -> Fraction:
    """Cell agreement via membership tests only; positions past an
    operand's width count as non-membership."""
    _require_same_universe(s, f)
    m = len(s.universe)
    n = max(len(s.attributes), len(f.attributes))
    if m == 0 or n == 0:
        raise EmptyDenominator(
            "similarity needs a nonempty universe and at least one attribute"
        )
    sv, fv = s.values, f.values
    agree = 0
    for x in s.universe:
        for j in range(n):
            in_s = j < len(s.attributes) and x in sv[s.attributes[j]]
            in_f = j < len(f.attributes) and x in fv[f.attributes[j]]
            if in_s == in_f:
                agree += 1
    return Fraction(agree, m * n)


def oracle_internal(tau_s, tau_f):
    """Every nonempty member of tau_f contains a nonempty member of tau_s."""
    return all(any(w and w <= v for w in tau_s) for v in tau_f if v)


def oracle_external(tau_s, tau_f, full):
    """Every non-full member of tau_f sits inside a non-full member of tau_s."""
    return all(any(w != full and v <= w for w in tau_s) for v in tau_f if v != full)


def oracle_relation(kind, tau_s, tau_f, full):
    """Each of the seven kinds spelled out in internal and external."""
    i, i_back = oracle_internal(tau_s, tau_f), oracle_internal(tau_f, tau_s)
    e, e_back = oracle_external(tau_s, tau_f, full), oracle_external(tau_f, tau_s, full)
    return {
        ApproxKind.INTERNAL: i,
        ApproxKind.EXTERNAL: e,
        ApproxKind.STRICT_INTERNAL: i and not i_back,
        ApproxKind.STRICT_EXTERNAL: e and not e_back,
        ApproxKind.INTERNAL_EQUIV: i and i_back,
        ApproxKind.EXTERNAL_EQUIV: e and e_back,
        ApproxKind.WEAK_EQUIV: i and i_back and e and e_back,
    }[kind]


def oracle_minimal(family):
    return {b for b in family if b and not any(c and c < b for c in family)}


def oracle_maximal(family, full):
    return {b for b in family if b != full and not any(c != full and c > b for c in family)}


def oracle_best_similarity(m, wide, narrow):
    """Padded similarity over m elements, maximized over orderings of the p
    narrow columns, which fill the first p wide positions; pads face the
    wide tail.  DP over subsets: best[used] places the last of used at
    position popcount(used) - 1."""
    p = len(narrow)
    agree = [[m - len(x ^ y) for y in narrow] for x in wide[:p]]
    best = [0] * (1 << p)
    for used in range(1, 1 << p):
        j = used.bit_count() - 1
        best[used] = max(best[used ^ 1 << k] + agree[j][k] for k in range(p) if used >> k & 1)
    tail = sum(m - len(x) for x in wide[p:])
    return Fraction(best[-1] + tail, m * len(wide))
