"""Construction and validation, the matrix round trip, canonical form, documents."""

import pytest
from hypothesis import given

import helpers
from softsets import (
    BitMatrix,
    DimensionMismatch,
    DuplicateAttribute,
    DuplicateElement,
    InvalidValue,
    MissingValue,
    SoftSet,
    SoftSetError,
    UniverseMismatch,
    UnknownAttribute,
    UnknownElement,
    require_same_universe,
    soft_set_from_document,
    soft_set_to_document,
)
from helpers import fam


class TestBitMatrix:
    def test_stores_rows_and_shape(self):
        m = BitMatrix([[0, 1], [1, 1], [0, 0]])
        assert m.bits == ((0, 1), (1, 1), (0, 0))
        assert (m.rows, m.cols) == (3, 2)

    def test_rejects_entries_other_than_bits(self):
        for bad in (2, -1, "1", 0.5, None, [1], {}):
            with pytest.raises(SoftSetError):
                BitMatrix([[0, bad]])

    def test_bool_entries_count_as_bits(self):
        # bool is an int subtype; True/False compare equal to 1/0
        m = BitMatrix([[True, False]])
        assert m.bits == ((1, 0),)
        assert all(type(e) is int for row in m.bits for e in row)

    def test_rejects_ragged_rows(self):
        with pytest.raises(DimensionMismatch):
            BitMatrix([[0, 1], [1]])

    def test_declared_cols_must_match_rows(self):
        with pytest.raises(DimensionMismatch):
            BitMatrix([[0, 1]], cols=3)

    def test_zero_rows_take_width_from_cols(self):
        assert BitMatrix([], cols=4).cols == 4
        assert BitMatrix([]).cols == 0
        with pytest.raises(DimensionMismatch):
            BitMatrix([], cols=-1)

    def test_column_reads_top_to_bottom(self):
        m = BitMatrix([[0, 1], [1, 0]])
        assert m.column(0) == (0, 1)
        assert m.column(1) == (1, 0)
        with pytest.raises(IndexError):
            m.column(2)

    def test_equality_includes_declared_width(self):
        assert BitMatrix([], cols=1) != BitMatrix([], cols=2)
        assert BitMatrix([[1]]) == BitMatrix([[1]], cols=1)
        assert hash(BitMatrix([[1]])) == hash(BitMatrix([[1]], cols=1))


class TestSoftSetValidation:
    def test_duplicate_universe_element(self):
        with pytest.raises(DuplicateElement):
            SoftSet(("a", "a"), (), {})

    def test_duplicate_attribute(self):
        with pytest.raises(DuplicateAttribute):
            SoftSet(("a",), ("x", "x"), {"x": set()})

    def test_value_for_unknown_attribute(self):
        with pytest.raises(UnknownAttribute):
            SoftSet(("a",), ("x",), {"x": set(), "y": set()})

    def test_missing_value(self):
        with pytest.raises(MissingValue):
            SoftSet(("a",), ("x", "y"), {"x": set()})

    def test_value_outside_universe(self):
        with pytest.raises(UnknownElement):
            SoftSet(("a",), ("x",), {"x": {"b"}})

    def test_string_value_is_not_split_into_characters(self):
        with pytest.raises(SoftSetError, match="not a string"):
            SoftSet(("a", "b"), ("x",), {"x": "ab"})

    @pytest.mark.parametrize(
        "value, message",
        [
            (None, "not iterable"),
            (7, "not iterable"),
            ([["a"]], "unhashable"),
            ({"a": 1}, "not a mapping"),
            (["zz", ["a"]], "unhashable"),
        ],
        ids=["none", "int", "unhashable-element", "mapping", "stray-then-unhashable"],
    )
    def test_value_that_is_no_collection_of_elements(self, value, message):
        with pytest.raises(InvalidValue, match=message):
            SoftSet(("a", "b"), ("x",), {"x": value})

    def test_strays_are_listed_in_their_own_order(self):
        with pytest.raises(UnknownElement, match=r"\[2, 10\]"):
            SoftSet(("a",), ("x",), {"x": [10, 2]})

    def test_strays_of_mixed_types_are_reported(self):
        with pytest.raises(UnknownElement, match=r"\[1, 'zz'\]"):
            SoftSet(("a",), ("x",), {"x": ["zz", 1]})

    def test_value_lookup_rejects_unknown_name(self, abc_f):
        with pytest.raises(UnknownAttribute):
            abc_f.value("w")

    def test_empty_attribute_tuple(self):
        s = SoftSet(("a", "b"), (), {})
        assert s.tau() == frozenset()
        assert s.to_matrix() == BitMatrix([[], []])

    def test_empty_universe(self):
        s = SoftSet((), ("x",), {"x": set()})
        assert s.to_matrix() == BitMatrix([], cols=1)
        assert s.tau() == fam(())

    def test_values_property_returns_a_copy(self, abc_f):
        grabbed = abc_f.values
        grabbed["x"] = frozenset()
        assert abc_f.value("x") == frozenset({"b", "c"})

    def test_values_keyed_in_attribute_order(self, abc_f):
        assert list(abc_f.values) == ["x", "y", "z"]

    def test_require_same_universe_is_positional(self, abc_f):
        reordered = SoftSet(("c", "b", "a"), abc_f.attributes, abc_f.values)
        with pytest.raises(UniverseMismatch):
            require_same_universe(abc_f, reordered)
        assert require_same_universe(abc_f, abc_f) is None


class TestMatrixForm:
    def test_known_three_by_three(self, abc_f):
        assert abc_f.to_matrix().bits == ((0, 0, 1), (1, 0, 0), (1, 1, 0))

    def test_rows_follow_universe_columns_follow_attributes(self, abc_g):
        m = abc_g.to_matrix()
        # column j is the indicator vector of the j-th attribute's value
        assert m.column(0) == (1, 0, 0)
        assert m.column(1) == (0, 0, 1)
        assert m.column(2) == (0, 0, 1)

    def test_extremes(self):
        full = SoftSet(("a", "b"), ("x", "y"), {"x": {"a", "b"}, "y": {"a", "b"}})
        hollow = SoftSet(("a", "b"), ("x", "y"), {"x": set(), "y": set()})
        assert full.to_matrix().bits == ((1, 1), (1, 1))
        assert hollow.to_matrix().bits == ((0, 0), (0, 0))

    def test_from_matrix_inverts_to_matrix(self, abc_f):
        rebuilt = SoftSet.from_matrix(
            abc_f.universe, abc_f.attributes, abc_f.to_matrix()
        )
        assert rebuilt == abc_f

    def test_from_matrix_checks_dimensions(self):
        with pytest.raises(DimensionMismatch):
            SoftSet.from_matrix(("a",), ("x", "y"), BitMatrix([[1]]))
        with pytest.raises(DimensionMismatch):
            SoftSet.from_matrix(("a", "b"), ("x",), BitMatrix([[1]]))

    def test_masks_are_the_matrix_columns(self, abc_f):
        # bit i stands for universe[i]: x -> {b, c} is 0b110
        assert dict(abc_f.masks) == {"x": 0b110, "y": 0b100, "z": 0b001}
        assert list(abc_f.masks) == list(abc_f.attributes)
        assert abc_f.mask("x") == 0b110 and abc_f.full_mask == 0b111
        assert abc_f.names(0b101) == {"a", "c"}
        with pytest.raises(TypeError):
            abc_f.masks["x"] = 0
        with pytest.raises(UnknownAttribute):
            abc_f.mask("w")

    def test_zero_width_round_trip(self):
        s = SoftSet(("a", "b"), (), {})
        assert SoftSet.from_matrix(s.universe, (), s.to_matrix()) == s

    @given(helpers.soft_sets())
    def test_round_trip_any(self, s):
        assert SoftSet.from_matrix(s.universe, s.attributes, s.to_matrix()) == s


class TestTau:
    def test_deduplicates_equal_values(self, abc_g):
        assert abc_g.tau() == fam({"a"}, {"c"})

    def test_keeps_the_empty_value(self):
        s = SoftSet(("a",), ("x", "y"), {"x": set(), "y": {"a"}})
        assert s.tau() == fam((), {"a"})

    def test_size_bounded_by_width(self):
        for s in helpers.all_soft_sets(("e1", "e2"), 3):
            distinct = len({s.value(a) for a in s.attributes})
            assert len(s.tau()) == distinct <= len(s.attributes)


class TestCanonicalize:
    def test_sorts_columns(self, abc_f):
        c = abc_f.canonicalize()
        cols = [c.to_matrix().column(j) for j in range(3)]
        assert cols == sorted(cols)

    def test_idempotent(self, abc_f):
        once = abc_f.canonicalize()
        assert once.canonicalize() == once

    def test_preserves_universe_and_tau(self, abc_f):
        c = abc_f.canonicalize()
        assert c.universe == abc_f.universe
        assert c.tau() == abc_f.tau()
        assert c.values == abc_f.values

    def test_equal_column_multisets_align(self, two_cover_pair):
        s, f = two_cover_pair
        assert s.to_matrix() != f.to_matrix()
        assert s.canonicalize().to_matrix() == f.canonicalize().to_matrix()

    def test_name_breaks_column_ties(self):
        s = SoftSet(("a",), ("q", "p"), {"q": {"a"}, "p": {"a"}})
        assert s.canonicalize().attributes == ("p", "q")


class TestEqualityModel:
    def test_structural_equality(self, abc_f):
        twin = SoftSet(abc_f.universe, abc_f.attributes, abc_f.values)
        assert twin == abc_f
        assert hash(twin) == hash(abc_f)

    def test_attribute_order_is_part_of_identity(self, abc_f):
        flipped = SoftSet(abc_f.universe, ("z", "y", "x"), abc_f.values)
        assert flipped != abc_f
        assert flipped.tau() == abc_f.tau()

    def test_not_equal_to_other_types(self, abc_f):
        assert abc_f != object()


class TestDocuments:
    def test_round_trip(self, abc_f):
        assert soft_set_from_document(soft_set_to_document(abc_f)) == abc_f

    def test_value_lists_follow_universe_order(self):
        s = SoftSet(("c", "a", "b"), ("x",), {"x": {"a", "b", "c"}})
        assert soft_set_to_document(s)["values"]["x"] == ["c", "a", "b"]

    def test_attribute_order_preserved(self, abc_f):
        doc = soft_set_to_document(abc_f)
        assert doc["attributes"] == ["x", "y", "z"]
        assert list(doc["values"]) == ["x", "y", "z"]

    @pytest.mark.parametrize(
        "doc",
        [
            "not an object",
            {},
            {"universe": ["a"], "attributes": ["x"]},
            {"universe": "a", "attributes": ["x"], "values": {"x": []}},
            {"universe": ["a"], "attributes": "x", "values": {"x": []}},
            {"universe": ["a"], "attributes": ["x"], "values": ["x"]},
            {"universe": ["a"], "attributes": ["x"], "values": {"x": "a"}},
            {"universe": ["a"], "attributes": ["x"], "values": {"x": [1]}},
            {"universe": ["a"], "attributes": ["x"], "values": {}},
            {"universe": ["a"], "attributes": ["x"], "values": {"x": ["zz"]}},
        ],
    )
    def test_rejects_malformed_documents(self, doc):
        with pytest.raises(SoftSetError):
            soft_set_from_document(doc)

    def test_repeated_element_in_a_value_is_rejected(self):
        doc = {"universe": ["a", "b"], "attributes": ["x", "y"],
               "values": {"x": ["b"], "y": ["a", "b", "a"]}}
        with pytest.raises(DuplicateElement, match="value of 'y' lists 'a' twice"):
            soft_set_from_document(doc)

    def test_element_order_inside_a_value_is_free(self):
        doc = {"universe": ["a", "b"], "attributes": ["x"], "values": {"x": ["b", "a"]}}
        assert soft_set_from_document(doc).value("x") == {"a", "b"}

    @given(helpers.soft_sets())
    def test_round_trip_any(self, s):
        assert soft_set_from_document(soft_set_to_document(s)) == s


def test_package_exports_are_pinned():
    import softsets

    assert sorted(softsets.__all__) == [
        "AntichainProfile", "ApproxKind", "BitMatrix", "BoundExceeded",
        "ConjectureProbe", "CorrectnessReport", "DimensionMismatch",
        "DuplicateAttribute", "DuplicateElement", "EmptyDenominator", "InvalidValue",
        "MAX_ENUM_ATTRIBUTES", "MAX_ENUM_UNIVERSE", "MAX_PERMUTED_ATTRIBUTES",
        "MissingValue", "RelationViolation", "SoftSet", "SoftSetError", "TauFamily",
        "TooManyAttributes", "UniverseMismatch", "UnknownAttribute", "UnknownElement",
        "antichain_profile", "check_relation_correctness", "complement",
        "drop_attribute", "duplicate_attribute", "enumerate_soft_sets", "equal",
        "equivalent", "externally_approximates", "fraction_str", "gravity",
        "gravity_domination", "internally_approximates", "intersection",
        "is_permutation_basis", "max_family", "max_similarity_over_orderings",
        "min_family", "oracle_complement", "oracle_intersection", "oracle_product",
        "oracle_similarity", "oracle_union", "pair_name", "probe_conjecture",
        "product", "random_equivalent_variant", "relate", "rename_attributes",
        "reorder_attributes", "require_same_universe", "similarity",
        "soft_set_from_document", "soft_set_to_document", "union",
    ]
    assert all(hasattr(softsets, name) for name in softsets.__all__)
