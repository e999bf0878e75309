"""The four operations in matrix form: complement, union, intersection, product.

Binary operations pair every attribute of the left operand with every
attribute of the right one.  Pairing is row-major with the left index
outer, both for derived attribute tuples and for the product universe,
so block k of a union's columns is "left column k against all right
columns" in order.  All computation runs on the bit matrices; the
set-level counterparts live in the oracle module for cross-checking.
"""

from __future__ import annotations

from operator import and_, or_

from .core import BitMatrix, SoftSet, require_same_universe

__all__ = ["complement", "intersection", "pair_name", "product", "union"]


def pair_name(left: str, right: str) -> str:
    """Deterministic rendering for derived pair labels; nests as "((a,b),c)"."""
    return f"({left},{right})"


def _pairwise(s: SoftSet, f: SoftSet, universe, row_pairs, op) -> SoftSet:
    """Result row r holds op(x, y) for x in left row r, y in right row r.

    row_pairs yields the (left row, right row) pair behind each result
    row; columns come out row-major in the left attribute.
    """
    attributes = tuple(pair_name(a, b) for a in s.attributes for b in f.attributes)
    bits = tuple(tuple(op(x, y) for x in krow for y in lrow) for krow, lrow in row_pairs)
    return SoftSet.from_matrix(
        universe, attributes, BitMatrix(bits, cols=len(attributes))
    )


def complement(s: SoftSet) -> SoftSet:
    """Bitwise NOT; same universe, same attributes, values flipped against X."""
    m = s.to_matrix()
    flipped = tuple(tuple(1 - e for e in row) for row in m.bits)
    return SoftSet.from_matrix(
        s.universe, s.attributes, BitMatrix(flipped, cols=m.cols)
    )


def union(s: SoftSet, f: SoftSet) -> SoftSet:
    """Elementwise max over all left-column/right-column pairs."""
    require_same_universe(s, f)
    rows = zip(s.to_matrix().bits, f.to_matrix().bits)
    return _pairwise(s, f, s.universe, rows, or_)


def intersection(s: SoftSet, f: SoftSet) -> SoftSet:
    """Elementwise min over all left-column/right-column pairs."""
    require_same_universe(s, f)
    rows = zip(s.to_matrix().bits, f.to_matrix().bits)
    return _pairwise(s, f, s.universe, rows, and_)


def product(s: SoftSet, f: SoftSet) -> SoftSet:
    """Cartesian product; the result lives over the pair universe X times X.

    Row (x_k, x_l), column (a_i, b_j) holds 1 exactly when x_k is in
    s(a_i) and x_l is in f(b_j).  Rows are row-major in the first
    coordinate, columns row-major in the left attribute.
    """
    require_same_universe(s, f)
    x = s.universe
    universe = tuple(pair_name(u, v) for u in x for v in x)
    k = s.to_matrix().bits
    l = f.to_matrix().bits
    return _pairwise(s, f, universe, ((krow, lrow) for krow in k for lrow in l), and_)
