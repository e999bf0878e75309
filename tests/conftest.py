"""Fixture soft sets reused across the suite.

Each fixture freezes one worked instance: the value maps and the
expected matrices/families quoted in the tests were recomputed by hand
from the definitions before being written down.
"""

import pytest

from softsets import SoftSet


@pytest.fixture
def abc_f():
    """Running left operand over {a,b,c}: x->{b,c}, y->{c}, z->{a}."""
    return SoftSet(
        ("a", "b", "c"),
        ("x", "y", "z"),
        {"x": {"b", "c"}, "y": {"c"}, "z": {"a"}},
    )


@pytest.fixture
def abc_g():
    """Running right operand over {a,b,c}: m->{a}, n->{c}, o->{c}."""
    return SoftSet(
        ("a", "b", "c"),
        ("m", "n", "o"),
        {"m": {"a"}, "n": {"c"}, "o": {"c"}},
    )


@pytest.fixture
def abc_g4(abc_g):
    """abc_g widened by p->{a,c}; partner for the 3x12 union check."""
    values = abc_g.values
    values["p"] = {"a", "c"}
    return SoftSet(abc_g.universe, abc_g.attributes + ("p",), values)


@pytest.fixture
def pair_f():
    """Two-attribute operand for the 9x4 product check."""
    return SoftSet(("a", "b", "c"), ("m", "n"), {"m": {"a", "b"}, "n": {"b"}})


@pytest.fixture
def pair_g():
    return SoftSet(("a", "b", "c"), ("x", "y"), {"x": {"b", "c"}, "y": {"c"}})


@pytest.fixture
def sim_pair():
    """3x3 against 3x4 with similarity exactly 2/3 (8 of 12 cells agree)."""
    s = SoftSet.from_matrix(
        ("u1", "u2", "u3"),
        ("e1", "e2", "e3"),
        [[1, 0, 1], [1, 0, 0], [1, 0, 1]],
    )
    f = SoftSet.from_matrix(
        ("u1", "u2", "u3"),
        ("g1", "g2", "g3", "g4"),
        [[0, 1, 1, 0], [1, 0, 0, 1], [1, 1, 1, 0]],
    )
    return s, f


@pytest.fixture
def five_pair():
    """Disjoint value families over five elements; similarity exactly 3/5."""
    universe = ("a", "b", "c", "d", "e")
    s = SoftSet(universe, ("m", "n"), {"m": {"a", "b"}, "n": {"e"}})
    f = SoftSet(universe, ("x", "y"), {"x": {"b", "c"}, "y": {"c", "d", "e"}})
    return s, f


@pytest.fixture
def grav_pair():
    """Mutually internally approximating pair with gravities (2,3,1) and (2,1,2,3)."""
    s = SoftSet.from_matrix(
        ("u1", "u2", "u3"),
        ("e1", "e2", "e3"),
        [[1, 1, 1], [1, 1, 0], [0, 1, 0]],
    )
    f = SoftSet.from_matrix(
        ("u1", "u2", "u3"),
        ("g1", "g2", "g3", "g4"),
        [[1, 1, 1, 1], [1, 0, 0, 1], [0, 0, 1, 1]],
    )
    return s, f


@pytest.fixture
def heavy_pair():
    """Column-sum totals 5 and 4: pointwise domination holds, the sums disagree."""
    s = SoftSet.from_matrix(
        ("u1", "u2", "u3"),
        ("e1", "e2", "e3", "e4", "e5"),
        [[1, 1, 1, 1, 1], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]],
    )
    f = SoftSet.from_matrix(
        ("u1", "u2", "u3"),
        ("g1", "g2", "g3"),
        [[1, 1, 1], [0, 0, 0], [0, 1, 0]],
    )
    return s, f


@pytest.fixture
def two_cover_pair():
    """Both sides carry all three 2-subsets of {a,b,c}, cyclically relabeled."""
    universe = ("a", "b", "c")
    s = SoftSet(
        universe,
        ("x", "y", "z"),
        {"x": {"b", "c"}, "y": {"c", "a"}, "z": {"a", "b"}},
    )
    f = SoftSet(
        universe,
        ("x", "y", "z"),
        {"x": {"c", "a"}, "y": {"a", "b"}, "z": {"b", "c"}},
    )
    return s, f
