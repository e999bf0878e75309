"""Cross-checks at universe sizes that straddle machine-word boundaries.

Values are stored as int masks, one bit per universe element, so sizes
around 30, 64 and beyond are where a mask bug would hide; the
hypothesis strategies stop at four elements.  Every check compares the
library with the set-form references in softsets.oracle, or with the
generated frozensets, never with the library's own masks.
"""

import random

import pytest

import helpers
from softsets import (
    ApproxKind,
    EmptyDenominator,
    SoftSet,
    TooManyAttributes,
    complement,
    equal,
    equivalent,
    gravity,
    gravity_domination,
    intersection,
    max_family,
    max_similarity_over_orderings,
    min_family,
    oracle_best_similarity,
    oracle_complement,
    oracle_internal,
    oracle_intersection,
    oracle_maximal,
    oracle_minimal,
    oracle_product,
    oracle_relation,
    oracle_similarity,
    oracle_union,
    product,
    relate,
    similarity,
    soft_set_to_document,
    union,
)

SIZES = (1, 29, 30, 31, 63, 64, 65, 200)
WIDTHS = (0, 1, 3, 9)


def columns(rng, universe, width):
    """Random columns mixed with the edge cases: empty, full, first and
    last element alone, copies, subsets and supersets of earlier columns."""
    out = []
    for _ in range(width):
        pick = rng.randrange(8)
        if pick == 0:
            col = frozenset()
        elif pick == 1:
            col = frozenset(universe)
        elif pick == 2:
            col = frozenset({universe[rng.choice((0, -1))]})
        elif pick == 3 and out:
            col = rng.choice(out)
        elif pick == 4 and out:
            col = frozenset(e for e in rng.choice(out) if rng.random() < 0.7)
        elif pick == 5 and out:
            col = rng.choice(out) | {e for e in universe if rng.random() < 0.1}
        else:
            density = rng.random()
            col = frozenset(e for e in universe if rng.random() < density)
        out.append(col)
    return out


def build(universe, prefix, cols):
    names = tuple(f"{prefix}{j}" for j in range(len(cols)))
    spec = dict(zip(names, cols))
    return SoftSet(universe, names, spec), spec


def check_one(s, spec, universe):
    x = frozenset(universe)
    attrs = s.attributes
    assert complement(s) == oracle_complement(s)
    assert complement(s).values == {a: x - v for a, v in spec.items()}
    assert gravity(s) == {a: len(v) for a, v in spec.items()}
    fam = set(spec.values())
    assert min_family(s) == oracle_minimal(fam)
    assert max_family(s) == oracle_maximal(fam, x)
    assert s.tau() == fam
    # canonical order: (column read from row 0 down, name), as tuples
    key = lambda a: (tuple(1 if e in spec[a] else 0 for e in universe), a)  # noqa: E731
    assert s.canonicalize().attributes == tuple(sorted(attrs, key=key))
    assert s.canonicalize().values == spec
    matrix = s.to_matrix()
    assert matrix == tuple(tuple(int(e in spec[a]) for a in attrs) for e in universe)
    assert SoftSet.from_matrix(universe, attrs, matrix) == s
    doc = soft_set_to_document(s)
    assert doc["values"] == {a: [e for e in universe if e in spec[a]] for a in attrs}
    assert list(doc["values"]) == list(attrs)


def check_pair(s, sspec, f, fspec, universe, with_product=True):
    x = frozenset(universe)
    assert union(s, f) == oracle_union(s, f)
    assert intersection(s, f) == oracle_intersection(s, f)
    assert union(s, f).values == {
        f"({a},{b})": v | w for a, v in sspec.items() for b, w in fspec.items()
    }
    assert intersection(s, f).values == {
        f"({a},{b})": v & w for a, v in sspec.items() for b, w in fspec.items()
    }
    if with_product:
        assert product(s, f) == oracle_product(s, f)
    assert equal(s, f) == (sspec == fspec)
    tau_s, tau_f = set(sspec.values()), set(fspec.values())
    assert equivalent(s, f) == (tau_s == tau_f)
    for kind in ApproxKind:
        assert relate(s, f, kind) == oracle_relation(kind, tau_s, tau_f, x), kind
    assert gravity_domination(s, f) == oracle_internal(tau_s, tau_f)
    a, b = list(sspec.values()), list(fspec.values())
    if not (a or b):
        with pytest.raises(EmptyDenominator):
            similarity(s, f)
        return
    assert similarity(s, f) == oracle_similarity(s, f)
    if min(len(a), len(b)) > 8:
        with pytest.raises(TooManyAttributes):
            max_similarity_over_orderings(s, f)
        return
    wide, narrow = (a, b) if len(a) >= len(b) else (b, a)
    best = oracle_best_similarity(len(universe), wide, narrow)
    assert max_similarity_over_orderings(s, f) == best


@pytest.mark.parametrize("m", SIZES, ids=[f"m={m}" for m in SIZES])
def test_masks_agree_with_the_set_form(m):
    rng = random.Random(f"word-boundaries/{m}")
    universe = tuple(f"u{i}" for i in range(m))
    built = {w: build(universe, "a", columns(rng, universe, w)) for w in WIDTHS}
    # nested columns, all large: minimal and maximal members well past a word
    thirds = (m // 3, m // 2, 2 * m // 3, m - 1)
    nested = [frozenset(universe[:k]) for k in thirds] + [frozenset(universe[k:]) for k in thirds]
    built["nested"] = build(universe, "a", nested)
    for s, spec in built.values():
        check_one(s, spec, universe)
    for wb in WIDTHS:
        f, fspec = build(universe, "b", columns(rng, universe, wb))
        for key, (s, sspec) in built.items():
            # the product oracle spells out |a|*|b| pair names per column:
            # skip the large nested columns, and wide operands past m = 65
            product_too = key != "nested" and (m <= 65 or key <= 3)
            check_pair(s, sspec, f, fspec, universe, product_too)
            check_pair(f, fspec, s, sspec, universe, product_too)
    # the nested columns against their prefix half, where approximations hold
    s, spec = built["nested"]
    f, fspec = build(universe, "b", nested[:4])
    check_pair(s, spec, f, fspec, universe, False)
    check_pair(f, fspec, s, spec, universe, False)
    # equal and equivalent ignore attribute order
    s, spec = built[9]
    twin = SoftSet(universe, tuple(spec)[::-1], spec)
    assert equal(s, twin) and equivalent(s, twin)
