"""Shared test machinery: family sugar, exhaustive universes and the
generators that sweep them, strategies, and the set-form references the
library is checked against."""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

from hypothesis import strategies as st

import softsets
from softsets import ApproxKind, SoftSet

# the universes every exhaustive suite sweeps, smallest first
UNIVERSES = (("e1",), ("e1", "e2"), ("e1", "e2", "e3"))


def fresh_python(*argv: str, text: bool = True, **env: str) -> subprocess.CompletedProcess:
    """Run a new interpreter on argv, with env added to the environment, that
    imports softsets from this tree; output is str if text, else bytes."""
    env = dict(os.environ, PYTHONPATH=str(Path(softsets.__file__).parents[1]), **env)
    return subprocess.run([sys.executable, *argv], capture_output=True, text=text,
                          env=env, check=False)


# arbitrary JSON values, small enough to draw by the hundred
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=4),
    max_leaves=12,
)


def near(draw, value):
    """A copy of value with one node, picked top down, swapped for arbitrary JSON."""
    if not (value and isinstance(value, (list, dict))) or not draw(st.integers(0, 3)):
        return draw(json_values)
    value = value.copy()
    key = draw(st.sampled_from(sorted(value) if isinstance(value, dict) else range(len(value))))
    value[key] = near(draw, value[key])
    return value


def fam(*subsets):
    """Family of frozensets from plain iterables."""
    return frozenset(frozenset(s) for s in subsets)


def all_soft_sets(universe, max_width):
    """Every soft set over universe of width 1 to max_width, widths ascending.
    Within a width the value tuples count up over subset masks (bit i is
    universe[i]), the last attribute fastest; attributes are a1, a2, ..."""
    subsets = [frozenset(e for i, e in enumerate(universe) if mask >> i & 1)
               for mask in range(1 << len(universe))]
    sets = []
    for width in range(1, max_width + 1):
        names = tuple(f"a{k}" for k in range(1, width + 1))
        sets += (SoftSet(universe, names, dict(zip(names, values)))
                 for values in product(subsets, repeat=width))
    return sets


def one_per_family(universe):
    """One soft set per family of subsets of universe, one attribute per member."""
    subsets = [frozenset(c) for k in range(len(universe) + 1)
               for c in combinations(universe, k)]
    for bits in range(1 << len(subsets)):
        members = [v for j, v in enumerate(subsets) if bits >> j & 1]
        attributes = tuple(f"a{j}" for j in range(len(members)))
        yield SoftSet(universe, attributes, dict(zip(attributes, members)))


def drawn_soft_set(draw, universe, prefix, min_width, max_width):
    """A soft set over universe with a drawn width and drawn values."""
    width = draw(st.integers(min_width, max_width))
    attributes = tuple(f"{prefix}{j}" for j in range(width))
    values = {
        a: frozenset(e for e in universe if draw(st.booleans())) for a in attributes
    }
    return SoftSet(universe, attributes, values)


@st.composite
def soft_sets(draw, max_universe: int = 4, min_width: int = 0, max_width: int = 4):
    universe = tuple(f"u{i}" for i in range(draw(st.integers(1, max_universe))))
    return drawn_soft_set(draw, universe, "a", min_width, max_width)


@st.composite
def soft_set_pairs(draw, max_universe: int = 4, min_width: int = 1, max_width: int = 4):
    """Two independently shaped soft sets over one shared universe."""
    universe = tuple(f"u{i}" for i in range(draw(st.integers(1, max_universe))))
    return tuple(drawn_soft_set(draw, universe, p, min_width, max_width) for p in "ab")


# set-form references: plain functions over frozensets and families, which
# never call a SoftSet method or read a mask


def internal(tau_s, tau_f):
    """Every nonempty member of tau_f contains a nonempty member of tau_s."""
    return all(any(w and w <= v for w in tau_s) for v in tau_f if v)


def external(tau_s, tau_f, full):
    """Every non-full member of tau_f sits inside a non-full member of tau_s."""
    return all(any(w != full and v <= w for w in tau_s) for v in tau_f if v != full)


def relation(kind, tau_s, tau_f, full):
    """Each of the seven kinds spelled out in internal and external."""
    i, i_back = internal(tau_s, tau_f), internal(tau_f, tau_s)
    e, e_back = external(tau_s, tau_f, full), external(tau_f, tau_s, full)
    return {
        ApproxKind.INTERNAL: i,
        ApproxKind.EXTERNAL: e,
        ApproxKind.STRICT_INTERNAL: i and not i_back,
        ApproxKind.STRICT_EXTERNAL: e and not e_back,
        ApproxKind.INTERNAL_EQUIV: i and i_back,
        ApproxKind.EXTERNAL_EQUIV: e and e_back,
        ApproxKind.WEAK_EQUIV: i and i_back and e and e_back,
    }[kind]


def minimal(family):
    return {b for b in family if b and not any(c and c < b for c in family)}


def maximal(family, full):
    return {b for b in family if b != full and not any(c != full and c > b for c in family)}


def best_similarity(m, wide, narrow):
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
