"""Exact similarity, attribute gravity, and the stress tests they invite.

The similarity score compares two bit matrices cell by cell after
zero-padding the narrower one on the right, and divides by the full
padded cell count.  It is a statement about matrices, not families:
probe_conjecture below hunts for rewrite pairs that keep both value
families intact yet move the score, and max_similarity_over_orderings
quantifies how much of a score gap is mere column order.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import permutations, starmap, zip_longest
from operator import xor

from .core import EmptyDenominator, SoftSet, SoftSetError, _require_same_universe

__all__ = [
    "ConjectureProbe",
    "MAX_PERMUTED_ATTRIBUTES",
    "TooManyAttributes",
    "gravity",
    "max_similarity_over_orderings",
    "probe_conjecture",
    "similarity",
]

MAX_PERMUTED_ATTRIBUTES = 8


class TooManyAttributes(SoftSetError):
    """The factorial ordering search is refused beyond the supported width."""


def _shape(s: SoftSet, f: SoftSet) -> tuple[int, int]:
    """m and the padded width n, whose product is the score's denominator."""
    _require_same_universe(s, f)
    m, n = len(s.universe), max(len(s.attributes), len(f.attributes))
    if m == 0 or n == 0:
        raise EmptyDenominator(
            "similarity needs a nonempty universe and at least one attribute"
        )
    return m, n


def similarity(s: SoftSet, f: SoftSet) -> Fraction:
    """Fraction of cells on which the two matrices agree, exactly.

    The narrower matrix is padded on the right with all-zero columns to
    the wider width n, and the count runs over all m*n cells, so a pad
    column scores the zero entries of the matching wider column.  The
    padded comparison is the same whichever operand is wider, which
    makes the score symmetric.
    """
    m, n = _shape(s, f)
    pairs = zip_longest(s.masks, f.masks, fillvalue=0)
    return Fraction(m * n - sum(map(int.bit_count, starmap(xor, pairs))), m * n)


def gravity(s: SoftSet) -> dict[str, int]:
    """Column sums of the matrix, keyed by attribute: the size of each value."""
    return dict(zip(s.attributes, map(int.bit_count, s.masks)))


def max_similarity_over_orderings(s: SoftSet, f: SoftSet) -> Fraction:
    """Best similarity over column reorderings of the narrower operand.

    Column order is presentation rather than content, so the comparison
    may shop for the best alignment.  The search permutes the narrower
    matrix's columns (the right operand when widths tie; with equal
    widths the choice of side cannot change the maximum), while pad
    columns keep comparing against the wider tail.  Never below the
    unpermuted score.
    """
    m, n = _shape(s, f)
    wide, narrow = (s, f) if len(s.attributes) >= len(f.attributes) else (f, s)
    p = len(narrow.attributes)
    if p > MAX_PERMUTED_ATTRIBUTES:
        raise TooManyAttributes(
            f"{p} permutable attributes exceed the bound of {MAX_PERMUTED_ATTRIBUTES}"
        )
    w, c = wide.masks, narrow.masks
    # agreements in the padded tail do not move with the permutation
    tail = sum(m - x.bit_count() for x in w[p:])
    score = [[m - (x ^ y).bit_count() for y in c] for x in w[:p]]
    best = max(sum(score[j][perm[j]] for j in range(p)) for perm in permutations(range(p)))
    return Fraction(best + tail, m * n)


class ConjectureProbe(namedtuple(
    "ConjectureProbe", "original rewritten original_similarity rewritten_similarity"
)):
    __slots__ = ()

    @property
    def differs(self) -> bool:
        return self.original_similarity != self.rewritten_similarity


def probe_conjecture(
    s: SoftSet, f: SoftSet, trials: int = 100, seed: int = 0
) -> list[ConjectureProbe]:
    """Hunt for family-preserving rewrites that move the similarity score.

    Each trial rewrites s and f independently (duplication, renaming,
    duplicate-dropping, reordering; the universe never changes), so
    both sides of every probe are equivalent to the originals by
    construction.  Duplication changes the width and with it the
    denominator, so probes with differs=True are routine; each one
    witnesses that the score is not invariant across equivalent pairs.
    """
    from .relations import rewrite_pairs  # here, so the other commands need no relations

    pairs = rewrite_pairs(s, f, trials, seed, "trials")
    base = similarity(s, f)
    return [ConjectureProbe((s, f), pair, base, similarity(*pair)) for pair in pairs]
