"""Relations between soft sets that live on the value families.

Attribute names are auxiliary labels: the relations here either ignore
them entirely (everything tau-based) or use them deliberately (equal).
The rewrite helpers at the bottom produce attribute-level variants that
keep the value family intact, and check_relation_correctness uses them
to probe whether a relation's verdict survives such rewrites.
"""

from __future__ import annotations

import random
from collections import namedtuple
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from enum import Enum

from .core import SoftSet, SoftSetError, UnknownAttribute, require_same_universe

__all__ = [
    "ApproxKind",
    "CorrectnessReport",
    "RelationViolation",
    "check_relation_correctness",
    "drop_attribute",
    "duplicate_attribute",
    "equal",
    "equivalent",
    "externally_approximates",
    "internally_approximates",
    "max_family",
    "min_family",
    "random_equivalent_variant",
    "relate",
    "rename_attributes",
    "reorder_attributes",
]


class ApproxKind(Enum):
    INTERNAL = "internal"
    EXTERNAL = "external"
    STRICT_INTERNAL = "strict-internal"
    STRICT_EXTERNAL = "strict-external"
    INTERNAL_EQUIV = "internal-equiv"
    EXTERNAL_EQUIV = "external-equiv"
    WEAK_EQUIV = "weak-equiv"


def equal(s: SoftSet, t: SoftSet) -> bool:
    """Same attribute set and identical value map; attribute order is immaterial."""
    require_same_universe(s, t)
    return s.masks == t.masks


def equivalent(s: SoftSet, t: SoftSet) -> bool:
    """Equality of the value families; the only identity the labels can't disturb."""
    require_same_universe(s, t)
    return set(s.masks.values()) == set(t.masks.values())


def internally_approximates(s: SoftSet, f: SoftSet) -> bool:
    """Every nonempty value of f contains some nonempty value of s."""
    require_same_universe(s, f)
    sources = {w for w in s.masks.values() if w}
    return all(any(w | v == v for w in sources) for v in set(f.masks.values()) if v)


def externally_approximates(s: SoftSet, f: SoftSet) -> bool:
    """Every non-full value of f sits inside some non-full value of s."""
    require_same_universe(s, f)
    x = s.full_mask
    sources = {w for w in s.masks.values() if w != x}
    return all(any(v | w == w for w in sources) for v in set(f.masks.values()) if v != x)


def relate(s: SoftSet, f: SoftSet, kind: ApproxKind) -> bool:
    require_same_universe(s, f)
    if kind is ApproxKind.INTERNAL:
        return internally_approximates(s, f)
    if kind is ApproxKind.EXTERNAL:
        return externally_approximates(s, f)
    if kind is ApproxKind.STRICT_INTERNAL:
        return internally_approximates(s, f) and not internally_approximates(f, s)
    if kind is ApproxKind.STRICT_EXTERNAL:
        return externally_approximates(s, f) and not externally_approximates(f, s)
    if kind is ApproxKind.INTERNAL_EQUIV:
        return internally_approximates(s, f) and internally_approximates(f, s)
    if kind is ApproxKind.EXTERNAL_EQUIV:
        return externally_approximates(s, f) and externally_approximates(f, s)
    if kind is ApproxKind.WEAK_EQUIV:
        return (relate(s, f, ApproxKind.INTERNAL_EQUIV)
                and relate(s, f, ApproxKind.EXTERNAL_EQUIV))
    raise SoftSetError(f"unknown approximation kind {kind!r}")


def minimal_masks(fam: set[int]) -> list[int]:
    """Inclusion-minimal nonzero masks of fam.  A proper subset has fewer bits,
    so in bit-count order each mask is tested only against those found."""
    found: list[int] = []
    for b in sorted(fam, key=int.bit_count):
        if b and all(c | b != b for c in found):
            found.append(b)
    return found


def maximal_masks(fam: set[int], full: int) -> list[int]:
    """Inclusion-maximal masks of fam other than full; minimal_masks turned over."""
    found: list[int] = []
    for b in sorted(fam - {full}, key=int.bit_count, reverse=True):
        if all(b | c != c for c in found):
            found.append(b)
    return found


def min_family(s: SoftSet) -> frozenset[frozenset[str]]:
    """Inclusion-minimal nonempty members of tau; the empty set never qualifies."""
    return frozenset(map(s.names, minimal_masks(set(s.masks.values()))))


def max_family(s: SoftSet) -> frozenset[frozenset[str]]:
    """Inclusion-maximal proper members of tau; the full universe never qualifies."""
    return frozenset(map(s.names, maximal_masks(set(s.masks.values()), s.full_mask)))


# ---------------------------------------------------------------------------
# tau-preserving rewrites
#
# Each helper returns a soft set with the same universe and the same value
# family.  They are the moves that make two soft sets "the same" up to
# attribute bookkeeping.


def rename_attributes(s: SoftSet, suffix: str) -> SoftSet:
    """Append a suffix to every attribute name; a bijective relabeling."""
    if not suffix:
        return s
    renamed = tuple(a + suffix for a in s.attributes)
    return SoftSet._new(s.universe, renamed, s.masks.values())


def duplicate_attribute(s: SoftSet, attribute: str, new_name: str) -> SoftSet:
    """Add new_name carrying the same value as attribute."""
    masks = [*s.masks.values(), s.mask(attribute)]
    return SoftSet._new(s.universe, s.attributes + (new_name,), masks)


def drop_attribute(s: SoftSet, attribute: str) -> SoftSet:
    """Remove an attribute whose value another attribute still carries.

    Dropping the last carrier of a value would shrink tau, so that is
    refused rather than silently performed.
    """
    gone = s.mask(attribute)
    if list(s.masks.values()).count(gone) < 2:
        raise SoftSetError(
            f"dropping {attribute!r} would remove {sorted(s.names(gone))!r} from the family"
        )
    kept = tuple(a for a in s.attributes if a != attribute)
    return SoftSet._new(s.universe, kept, map(s.masks.__getitem__, kept))


def reorder_attributes(s: SoftSet, order: Sequence[str]) -> SoftSet:
    """Permute the attribute tuple; values travel with their names."""
    order = tuple(order)
    if sorted(order) != sorted(s.attributes):
        raise UnknownAttribute(
            f"{list(order)!r} is not a permutation of {list(s.attributes)!r}"
        )
    return SoftSet._new(s.universe, order, map(s.masks.__getitem__, order))


def _fresh_name(s: SoftSet, stem: str) -> str:
    taken = set(s.attributes)
    k = 1
    while f"{stem}+{k}" in taken:
        k += 1
    return f"{stem}+{k}"


def random_equivalent_variant(s: SoftSet, rng: random.Random) -> SoftSet:
    """One to three random rewrites from the toolbox above.

    Every step preserves the universe and the value family, so the
    result is always equivalent to s.  Steps that need material to work
    on (an attribute to copy, a duplicated value to drop, two columns
    to swap) fall through quietly when s is too small.
    """
    out = s
    for _ in range(rng.randint(1, 3)):
        move = rng.randrange(4)
        if move == 0 and out.attributes:
            out = rename_attributes(out, f"~{rng.randrange(1000)}")
        elif move == 1 and out.attributes:
            source = rng.choice(out.attributes)
            out = duplicate_attribute(out, source, _fresh_name(out, source))
        elif move == 2:
            by_value: dict[int, list[str]] = {}
            for a, mask in out.masks.items():
                by_value.setdefault(mask, []).append(a)
            droppable = [a for group in by_value.values() if len(group) > 1 for a in group]
            if droppable:
                out = drop_attribute(out, rng.choice(droppable))
        elif move == 3 and len(out.attributes) > 1:
            out = reorder_attributes(out, rng.sample(out.attributes, len(out.attributes)))
    return out


RelationViolation = namedtuple("RelationViolation",
                               "original rewritten original_result rewritten_result")


@dataclass(frozen=True)
class CorrectnessReport:
    relation_name: str
    trials: int
    violations: tuple[RelationViolation, ...]

    @property
    def verdict(self) -> str:
        return "ViolationFound" if self.violations else "Invariant"


def check_relation_correctness(
    relation: Callable[[SoftSet, SoftSet], bool],
    s: SoftSet,
    f: SoftSet,
    rewrite_count: int = 1000,
    seed: int = 0,
    name: str | None = None,
) -> CorrectnessReport:
    """Probe whether a relation's verdict survives attribute bookkeeping.

    Draws rewrite_count pairs (s', f') with s' equivalent to s and f'
    equivalent to f, and records every trial whose verdict differs from
    relation(s, f).  A clean report certifies only "no violation found
    in this many rewrites"; a single violation is a proof of failure.
    """
    if rewrite_count < 1:
        raise SoftSetError("rewrite_count must be at least 1")
    rng = random.Random(seed)
    base = bool(relation(s, f))
    violations = []
    for _ in range(rewrite_count):
        s2 = random_equivalent_variant(s, rng)
        f2 = random_equivalent_variant(f, rng)
        got = bool(relation(s2, f2))
        if got != base:
            violations.append(RelationViolation((s, f), (s2, f2), base, got))
    return CorrectnessReport(
        relation_name=name or getattr(relation, "__name__", "relation"),
        trials=rewrite_count,
        violations=tuple(violations),
    )
