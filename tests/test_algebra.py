"""The matrix-form operations beyond the worked instances of acceptance
checks c02-c05: pair labels and commutation up to column order.  Both De
Morgan laws live in test_analysis.py::test_every_small_pair."""

import pytest

from softsets import (
    SoftSet,
    UniverseMismatch,
    intersection,
    product,
    union,
)


class TestUnion:
    def test_commutes_up_to_column_order(self, abc_f, abc_g):
        left = union(abc_f, abc_g)
        right = union(abc_g, abc_f)
        assert left.tau() == right.tau()
        assert left.canonicalize().to_matrix() == right.canonicalize().to_matrix()

    def test_rejects_universe_mismatch(self, abc_f):
        other = SoftSet(("a", "b"), ("x",), {"x": {"a"}})
        with pytest.raises(UniverseMismatch):
            union(abc_f, other)


class TestIntersection:
    def test_commutes_up_to_column_order(self, abc_f, abc_g):
        left = intersection(abc_f, abc_g)
        right = intersection(abc_g, abc_f)
        assert left.tau() == right.tau()
        assert left.canonicalize().to_matrix() == right.canonicalize().to_matrix()


class TestProduct:
    def test_nine_by_four_matrix(self, pair_f, pair_g):
        p = product(pair_f, pair_g)
        assert p.universe == (
            "(a,a)", "(a,b)", "(a,c)",
            "(b,a)", "(b,b)", "(b,c)",
            "(c,a)", "(c,b)", "(c,c)",
        )
        assert p.attributes == ("(m,x)", "(m,y)", "(n,x)", "(n,y)")


class TestAlgebraicIdentities:
    def test_pair_name_nests(self):
        s, f, g = (SoftSet(("a",), (name,), {name: {"a"}}) for name in "xyz")
        assert union(union(s, f), g).attributes == ("((x,y),z)",)
