"""The four matrix-form operations against hand-expanded expectations."""

import pytest

import helpers
from softsets import (
    SoftSet,
    UniverseMismatch,
    complement,
    equivalent,
    intersection,
    pair_name,
    product,
    union,
)
from helpers import fam


class TestComplement:
    def test_flips_every_bit(self, abc_f):
        c = complement(abc_f)
        assert c.to_matrix() == ((1, 1, 0), (0, 1, 1), (0, 0, 1))
        assert c.attributes == abc_f.attributes
        assert c.universe == abc_f.universe

    def test_family_of_flipped_values(self, abc_f):
        assert complement(abc_f).tau() == fam({"a"}, {"a", "b"}, {"b", "c"})

    def test_double_complement_restores(self, abc_f, abc_g):
        for s in (abc_f, abc_g):
            assert complement(complement(s)) == s

    def test_all_empty_becomes_all_full(self):
        s = SoftSet(("a", "b"), ("x",), {"x": set()})
        assert complement(s).value("x") == frozenset({"a", "b"})


class TestUnion:
    def test_three_by_twelve_block_matrix(self, abc_f, abc_g4):
        u = union(abc_f, abc_g4)
        assert u.to_matrix() == (
            (1, 0, 0, 1, 1, 0, 0, 1, 1, 1, 1, 1),
            (1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0),
            (1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1),
        )
        assert u.attributes[:4] == ("(x,m)", "(x,n)", "(x,o)", "(x,p)")
        assert u.attributes[-1] == "(z,p)"

    def test_family_of_pairwise_unions(self, abc_f, abc_g):
        u = union(abc_f, abc_g)
        assert u.tau() == fam(
            {"a", "b", "c"}, {"b", "c"}, {"a", "c"}, {"c"}, {"a"}
        )

    def test_width_is_the_product_of_widths(self, abc_f, abc_g4):
        assert len(union(abc_f, abc_g4).attributes) == 12

    def test_union_with_hollow_partner_keeps_the_family(self, abc_f):
        hollow = SoftSet(abc_f.universe, ("h",), {"h": set()})
        assert equivalent(union(abc_f, hollow), abc_f)

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
    def test_pairwise_intersections(self, abc_f, abc_g):
        w = intersection(abc_f, abc_g)
        expected = {
            "(x,m)": set(),
            "(x,n)": {"c"},
            "(x,o)": {"c"},
            "(y,m)": set(),
            "(y,n)": {"c"},
            "(y,o)": {"c"},
            "(z,m)": {"a"},
            "(z,n)": set(),
            "(z,o)": set(),
        }
        assert w.values == {k: frozenset(v) for k, v in expected.items()}

    def test_family_keeps_the_empty_member(self, abc_f, abc_g):
        # The empty set is a genuine member here: (x,m) takes the value
        # empty-set, and the family collects every value a pair attains.
        # A rendering that silently drops the empty member describes a
        # different family; this suite asserts the literal one.
        w = intersection(abc_f, abc_g)
        assert w.tau() == fam((), {"a"}, {"c"})

    def test_meet_with_complement_is_hollow(self):
        s = SoftSet(("a", "b"), ("x",), {"x": {"a"}})
        w = intersection(s, complement(s))
        assert w.tau() == fam(())

    def test_commutes_up_to_column_order(self, abc_f, abc_g):
        left = intersection(abc_f, abc_g)
        right = intersection(abc_g, abc_f)
        assert left.tau() == right.tau()
        assert left.canonicalize().to_matrix() == right.canonicalize().to_matrix()


class TestProduct:
    def test_nine_by_four_matrix(self, pair_f, pair_g):
        p = product(pair_f, pair_g)
        assert p.to_matrix() == (
            (0, 0, 0, 0),
            (1, 0, 0, 0),
            (1, 1, 0, 0),
            (0, 0, 0, 0),
            (1, 0, 1, 0),
            (1, 1, 1, 1),
            (0, 0, 0, 0),
            (0, 0, 0, 0),
            (0, 0, 0, 0),
        )
        assert p.universe == (
            "(a,a)", "(a,b)", "(a,c)",
            "(b,a)", "(b,b)", "(b,c)",
            "(c,a)", "(c,b)", "(c,c)",
        )
        assert p.attributes == ("(m,x)", "(m,y)", "(n,x)", "(n,y)")

    def test_family_of_pair_products(self, abc_f, abc_g):
        p = product(abc_f, abc_g)
        assert p.tau() == fam(
            {"(b,a)", "(c,a)"},
            {"(b,c)", "(c,c)"},
            {"(c,a)"},
            {"(c,c)"},
            {"(a,a)"},
            {"(a,c)"},
        )

    def test_row_count_is_universe_squared(self, abc_f, abc_g):
        assert len(product(abc_f, abc_g).universe) == 9

    def test_hollow_operand_zeroes_everything(self, abc_f):
        hollow = SoftSet(abc_f.universe, ("h",), {"h": set()})
        p = product(abc_f, hollow)
        assert all(e == 0 for row in p.to_matrix() for e in row)

    def test_membership_rule_cell_by_cell(self, pair_f, pair_g):
        p = product(pair_f, pair_g)
        for a in pair_f.attributes:
            for b in pair_g.attributes:
                got = p.value(pair_name(a, b))
                want = frozenset(
                    pair_name(u, v)
                    for u in pair_f.value(a)
                    for v in pair_g.value(b)
                )
                assert got == want


class TestAlgebraicIdentities:
    def test_pair_name_nests(self):
        assert pair_name("x", "y") == "(x,y)"
        assert pair_name(pair_name("x", "y"), "z") == "((x,y),z)"

    def test_de_morgan_exactly(self):
        # complement(union) and intersection(complements) agree cell for
        # cell and label for label, not merely up to the family
        for universe in (("e1",), ("e1", "e2")):
            sets = helpers.all_soft_sets(universe, 2)
            for s in sets:
                for f in sets:
                    assert complement(union(s, f)) == intersection(
                        complement(s), complement(f)
                    )
                    assert complement(intersection(s, f)) == union(
                        complement(s), complement(f)
                    )

    def test_de_morgan_spot_check_three_elements(self, abc_f, abc_g):
        assert complement(union(abc_f, abc_g)) == intersection(
            complement(abc_f), complement(abc_g)
        )

    def test_union_distributes_over_values(self, abc_f, abc_g):
        u = union(abc_f, abc_g)
        for a in abc_f.attributes:
            for b in abc_g.attributes:
                assert u.value(pair_name(a, b)) == abc_f.value(a) | abc_g.value(b)
