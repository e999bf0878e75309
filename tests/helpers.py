"""Shared test machinery: family sugar, exhaustive universes and the
generators that sweep them, strategies, and a fresh interpreter.  The
set-form references the library is checked against live in
softsets.oracle."""

from __future__ import annotations

import os
import subprocess
import sys
from itertools import combinations, product
from pathlib import Path

from hypothesis import strategies as st

import softsets
from softsets import SoftSet

# the universes every exhaustive suite sweeps, smallest first
UNIVERSES = (("e1",), ("e1", "e2"), ("e1", "e2", "e3"))


def fresh_python(*argv: str, text: bool = True, stdout=subprocess.PIPE,
                 **env: str) -> subprocess.CompletedProcess:
    """Run a new interpreter on argv, with env added to the environment, that
    imports softsets from this tree; output is str if text, else bytes, and
    stdout is captured unless another target is given."""
    env = dict(os.environ, PYTHONPATH=str(Path(softsets.__file__).parents[1]), **env)
    return subprocess.run([sys.executable, *argv], stdout=stdout, stderr=subprocess.PIPE,
                          text=text, env=env, check=False)


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
