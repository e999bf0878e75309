"""The four operations in matrix form: complement, union, intersection, product.

Binary operations pair every attribute of the left operand with every
attribute of the right one.  Pairing is row-major with the left index
outer, both for derived attribute tuples and for the product universe,
so block k of a union's columns is "left column k against all right
columns" in order.  All computation runs on the column masks, one int
per column; the set-level counterparts live in the oracle module for
cross-checking.
"""

from __future__ import annotations

from itertools import product as pairs, starmap
from operator import and_, mul, or_

from .core import SoftSet, _require_same_universe, check_names

__all__ = ["complement", "intersection", "product", "union"]


def _pair_name(left: str, right: str) -> str:
    """Deterministic rendering for derived pair labels; nests as "((a,b),c)"."""
    return f"({left},{right})"


def _pairwise(s: SoftSet, f: SoftSet, universe, left, right, op) -> SoftSet:
    """Result column (i, j) is op(left[i], right[j]), row-major in i."""
    attributes = tuple(_pair_name(a, b) for a in s.attributes for b in f.attributes)
    return SoftSet._new(universe, attributes, starmap(op, pairs(left, right)))


def complement(s: SoftSet) -> SoftSet:
    """Bitwise NOT; same universe, same attributes, values flipped against X."""
    full = s.full_mask
    return SoftSet._new(s.universe, s.attributes, [full ^ mask for mask in s.masks.values()])


def union(s: SoftSet, f: SoftSet) -> SoftSet:
    """Elementwise max over all left-column/right-column pairs."""
    _require_same_universe(s, f)
    return _pairwise(s, f, s.universe, s.masks.values(), f.masks.values(), or_)


def intersection(s: SoftSet, f: SoftSet) -> SoftSet:
    """Elementwise min over all left-column/right-column pairs."""
    _require_same_universe(s, f)
    return _pairwise(s, f, s.universe, s.masks.values(), f.masks.values(), and_)


def product(s: SoftSet, f: SoftSet) -> SoftSet:
    """Cartesian product; the result lives over the pair universe X times X.

    Row (x_k, x_l), column (a_i, b_j) holds 1 exactly when x_k is in
    s(a_i) and x_l is in f(b_j).  Rows are row-major in the first
    coordinate, columns row-major in the left attribute.  Row (x_k, x_l)
    is bit k*m + l, so column (a_i, b_j) is the OR of b_j << k*m over k
    in a_i: one multiplication of b_j (below 2**m, so the shifted copies
    never carry into each other) by a_i with bit k spread to bit k*m.
    """
    _require_same_universe(s, f)
    x = s.universe
    m = len(x)
    universe = tuple(_pair_name(u, v) for u in x for v in x)
    # inserting m-1 zero digits between the digits of a moves bit k to bit k*m
    gap = "0" * (m - 1)
    spread = [int(gap.join(bin(a | 1 << m)[3:]) or "0", 2) for a in s.masks.values()]
    check_names(universe, ())  # pair labels can collide, as names can
    return _pairwise(s, f, universe, spread, f.masks.values(), mul)
