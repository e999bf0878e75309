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
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

from .core import (ApproxKind, SoftSet, SoftSetError, UnknownAttribute, _name_tuple, _repr,
                   _require_same_universe)

__all__ = [
    "CorrectnessReport",
    "RelationViolation",
    "check_relation_correctness",
    "drop_attribute",
    "duplicate_attribute",
    "equal",
    "equivalent",
    "externally_approximates",
    "gravity_domination",
    "internally_approximates",
    "max_family",
    "min_family",
    "random_equivalent_variant",
    "relate",
    "rename_attributes",
    "reorder_attributes",
]


def equal(s: SoftSet, t: SoftSet) -> bool:
    """Same attribute set and identical value map; attribute order is immaterial."""
    _require_same_universe(s, t)
    return s.masks == t.masks


def equivalent(s: SoftSet, t: SoftSet) -> bool:
    """Equality of the value families; the only identity the labels can't disturb."""
    _require_same_universe(s, t)
    return set(s.masks.values()) == set(t.masks.values())


def _covers(sources: set[int], targets: set[int]) -> bool:
    """Every nonzero target mask contains some nonzero source mask."""
    for v in targets:
        if v:
            for w in sources:
                if w | v == v and w:
                    break
            else:
                return False
    return True


def internally_approximates(s: SoftSet, f: SoftSet) -> bool:
    """Every nonempty value of f contains some nonempty value of s."""
    return relate(s, f, ApproxKind.INTERNAL)


def externally_approximates(s: SoftSet, f: SoftSet) -> bool:
    """Every non-full value of f sits inside some non-full value of s."""
    return relate(s, f, ApproxKind.EXTERNAL)


def gravity_domination(s: SoftSet, f: SoftSet) -> bool:
    """Pointwise gravity comparison through containment witnesses.

    True when every attribute of f with a nonempty value has a witness
    attribute of s whose nonempty value sits inside it; containment
    forces the witness's gravity to stay at or below the target's, so
    each column of f dominates some column of s even when the column
    sum totals refuse to line up.  Since containment implies the gravity
    bound, this is exactly internal approximation of f by s.
    """
    return internally_approximates(s, f)


# kind -> (families compared, True for complemented; the verdict wanted from f over s)
_KINDS = {
    ApproxKind.INTERNAL: ((False,), None),
    ApproxKind.EXTERNAL: ((True,), None),
    ApproxKind.STRICT_INTERNAL: ((False,), False),
    ApproxKind.STRICT_EXTERNAL: ((True,), False),
    ApproxKind.INTERNAL_EQUIV: ((False,), True),
    ApproxKind.EXTERNAL_EQUIV: ((True,), True),
    ApproxKind.WEAK_EQUIV: ((False, True), True),
}


def relate(s: SoftSet, f: SoftSet, kind: ApproxKind) -> bool:
    _require_same_universe(s, f)
    try:
        families, back = _KINDS[kind]
    except (KeyError, TypeError):
        raise SoftSetError(f"unknown approximation kind {_repr(kind)}") from None
    a, b = set(s.masks.values()), set(f.masks.values())
    for complemented in families:
        if complemented:  # v inside w iff X-w inside X-v; v full iff X-v empty
            x = s.full_mask
            a, b = {x ^ w for w in a}, {x ^ v for v in b}
        if not _covers(a, b) or (back is not None and _covers(b, a) is not back):
            return False
    return True


def minimal_masks(fam: set[int]) -> list[int]:
    """Inclusion-minimal nonzero masks of fam.  A proper subset has fewer bits,
    so in bit-count order each mask is tested only against those found."""
    found: list[int] = []
    for b in sorted(fam, key=int.bit_count):
        if b and all(c | b != b for c in found):
            found.append(b)
    return found


def min_family(s: SoftSet) -> frozenset[frozenset[str]]:
    """Inclusion-minimal nonempty members of tau; the empty set never qualifies."""
    return frozenset(map(s.names, minimal_masks(set(s.masks.values()))))


def max_family(s: SoftSet) -> frozenset[frozenset[str]]:
    """Inclusion-maximal proper members of tau; the full universe never qualifies.
    Complements reverse inclusion and send full to the 0 minimal_masks skips."""
    x = s.full_mask
    return frozenset(s.names(x ^ b) for b in minimal_masks({x ^ b for b in s.masks.values()}))


# ---------------------------------------------------------------------------
# tau-preserving rewrites
#
# Each helper returns a soft set with the same universe and the same value
# family.  They are the moves that make two soft sets "the same" up to
# attribute bookkeeping.  The helpers check their arguments and make one
# move each; random_equivalent_variant makes the same moves inline, on a
# names tuple and the masks in that order, with its draws written in place,
# and builds one soft set after them.


def rename_attributes(s: SoftSet, suffix: str) -> SoftSet:
    """Append a suffix, a str, to every attribute name: a bijective relabeling."""
    _name_tuple((suffix,), "suffix")
    if not suffix:
        return s
    return SoftSet._new(s.universe, tuple([f"{a}{suffix}" for a in s.attributes]),
                        s.masks.values())


def duplicate_attribute(s: SoftSet, attribute: str, new_name: str) -> SoftSet:
    """Add new_name carrying the same value as attribute."""
    copied = s.mask(attribute)  # UnknownAttribute unless s has it
    _name_tuple((new_name,), "new_name")
    return SoftSet._new(s.universe, (*s.attributes, new_name), (*s.masks.values(), copied))


def drop_attribute(s: SoftSet, attribute: str) -> SoftSet:
    """Remove an attribute whose value another attribute still carries.

    Dropping the last carrier of a value would shrink tau, so that is
    refused rather than silently performed.
    """
    gone, masks = s.mask(attribute), tuple(s.masks.values())
    if masks.count(gone) < 2:
        raise SoftSetError(f"dropping {attribute!r} would remove "
                           f"{sorted(s.names(gone))!r} from the family")
    j, names = s.attributes.index(attribute), s.attributes
    return SoftSet._new(s.universe, names[:j] + names[j + 1:], masks[:j] + masks[j + 1:])


def reorder_attributes(s: SoftSet, order: Sequence[str]) -> SoftSet:
    """Permute the attribute tuple; values travel with their names."""
    order = _name_tuple(order, "order")
    if len(order) != len(s.attributes) or set(order) != set(s.attributes):
        raise UnknownAttribute(
            f"{list(order)!r} is not a permutation of {list(s.attributes)!r}"
        )
    positions = list(map(s.attributes.index, order))
    masks = tuple(s.masks.values())
    return SoftSet._new(s.universe, tuple(map(s.attributes.__getitem__, positions)),
                        map(masks.__getitem__, positions))


def random_equivalent_variant(s: SoftSet, rng: random.Random) -> SoftSet:
    """One to three random rewrites from the toolbox above.

    Every step preserves the universe and the value family, so the
    result is always equivalent to s.  Steps that need material to work
    on (an attribute to copy, a duplicated value to drop, two columns
    to swap) fall through quietly, drawing nothing more, when s is too
    small; if all of them do, s itself comes back.  rng is read only
    through getrandbits, in the order and widths that randint, randrange,
    choice and sample use on a random.Random: one to three moves as
    randint(1, 3), each move as randrange(4), a suffix as
    randrange(1000), a name or a carrier as choice, and an order as
    sample(range(n), n).  Each of these is random.Random's own step for
    a draw below n, written in place: getrandbits(n.bit_length()),
    drawn again while it is n or more.
    """
    return _variant(s, s.attributes, tuple(s.masks.values()), rng.getrandbits)


def _variant(s: SoftSet, attributes: tuple, masks: tuple, bits: Callable[[int], int]) -> SoftSet:
    """random_equivalent_variant's loop, on s's attributes and masks as the
    caller read them: the probers read each operand once, not once a trial."""
    names = attributes
    count = bits(2)  # randint(1, 3) is 1 + a draw below 3
    while count == 3:
        count = bits(2)
    for _ in range(count + 1):
        move = bits(3)  # randrange(4): (4).bit_length() is 3
        while move > 3:
            move = bits(3)
        if move == 0 and names:
            r = bits(10)
            while r >= 1000:
                r = bits(10)
            names = tuple([f"{a}~{r}" for a in names])
        elif move == 1 and names:  # under the first free name stem+k
            n = len(names)
            i = bits(n.bit_length())
            while i >= n:
                i = bits(n.bit_length())
            stem, k = names[i], 1
            while f"{stem}+{k}" in names:
                k += 1
            names, masks = (*names, f"{stem}+{k}"), (*masks, masks[i])
        elif move == 2 and len(set(masks)) != len(masks):  # drop a repeat's carrier
            groups: dict[int, list[int]] = {}
            for j, w in enumerate(masks):
                groups.setdefault(w, []).append(j)
            droppable = [j for group in groups.values() if len(group) > 1 for j in group]
            n = len(droppable)
            i = bits(n.bit_length())
            while i >= n:
                i = bits(n.bit_length())
            j = droppable[i]  # in the order the groups were first seen
            names, masks = names[:j] + names[j + 1:], masks[:j] + masks[j + 1:]
        elif move == 3 and len(names) > 1:  # sample's pool walk, pairs moved whole
            pool, order = list(zip(names, masks)), []
            for n in range(len(pool), 0, -1):
                i = bits(n.bit_length())
                while i >= n:
                    i = bits(n.bit_length())
                order.append(pool[i])
                pool[i] = pool[n - 1]
            names, masks = zip(*order)
    return s if names is attributes else SoftSet._new(s.universe, names, masks)


def rewrite_pairs(s: SoftSet, f: SoftSet, trials: int, seed: int,
                  what: str) -> Iterator[tuple[SoftSet, SoftSet]]:
    """The trials of both probers: trials pairs (s', f') of seeded variants,
    s' drawn before f'.  A count below 1 is refused here, on the call,
    before any verdict on (s, f) is taken; what names it in the error.  A
    bool is refused as a count that is no int would be, with TypeError."""
    if isinstance(trials, bool):
        raise TypeError(f"{what} must be an int, not bool")
    if trials < 1:
        raise SoftSetError(f"{what} must be at least 1")
    bits = random.Random(seed).getrandbits
    sa, sm, fa, fm = s.attributes, tuple(s.masks.values()), f.attributes, tuple(f.masks.values())
    return ((_variant(s, sa, sm, bits), _variant(f, fa, fm, bits)) for _ in range(trials))


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
    The report carries name, a str, or for None the relation's __name__.
    """
    pairs = rewrite_pairs(s, f, rewrite_count, seed, "rewrite_count")
    if name is None:
        name = getattr(relation, "__name__", "relation")
    else:
        _name_tuple((name,), "name")
    base = bool(relation(s, f))
    violations = []
    for s2, f2 in pairs:
        got = bool(relation(s2, f2))
        if got != base:
            violations.append(RelationViolation((s, f), (s2, f2), base, got))
    return CorrectnessReport(
        relation_name=name,
        trials=rewrite_count,
        violations=tuple(violations),
    )
