"""Construction and validation, the matrix round trip, canonical form, the
kept name sets, documents."""

import functools
import importlib
import inspect
import random
import re
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import softsets
from softsets import (
    ApproxKind,
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
    drop_attribute,
    duplicate_attribute,
    equal,
    equivalent,
    max_family,
    min_family,
    oracle_minimal,
    relate,
    rename_attributes,
    reorder_attributes,
    soft_set_from_document,
    soft_set_to_document,
)
from helpers import fam
from softsets.cli import _loads
from softsets.core import _require_same_universe


class TestBitMatrix:
    """The 0/1 matrix is plain row tuples; SoftSet.from_matrix is the one
    place that checks one, with the width taken from the attributes."""

    XY = ("x", "y")

    def test_stores_rows_and_shape(self):
        s = SoftSet.from_matrix(("a", "b", "c"), self.XY, [[0, 1], [1, 1], [0, 0]])
        assert s.to_matrix() == ((0, 1), (1, 1), (0, 0))
        assert all(type(e) is int for row in s.to_matrix() for e in row)
        assert s.values == {"x": frozenset({"b"}), "y": frozenset({"a", "b"})}

    def test_takes_any_iterable_of_row_iterables(self):
        rows = ((bit for bit in row) for row in [[0, 1], [1, 0]])
        assert SoftSet.from_matrix(("a", "b"), self.XY, rows).to_matrix() == ((0, 1), (1, 0))

    def test_rejects_entries_other_than_bits(self):
        # bool is an int subtype that compares equal to 1/0; refused all the same
        for bad in (2, -1, "1", 0.5, None, [1], {}, True, False, 1.0, 0.0):
            message = "^matrix entries must be 0 or 1, got " + re.escape(repr(bad)) + "$"
            with pytest.raises(SoftSetError, match=message):
                SoftSet.from_matrix(("a",), self.XY, [[0, bad]])

    def test_zero_rows_take_width_from_cols(self):
        s = SoftSet.from_matrix((), self.XY, [])
        assert s == SoftSet((), self.XY, {"x": (), "y": ()})
        assert s.to_matrix() == ()

    # a bad entry anywhere, in row-major order, outranks ragged rows, which
    # outrank the width, which outranks the row count
    @pytest.mark.parametrize(
        "universe, rows, error, message",
        [
            ("ab", [[0, 1], [1]], DimensionMismatch, "ragged matrix: row widths 1 and 2"),
            ("abc", [[0, 1], [1, 0], [1, 1, 0]], DimensionMismatch,
             "ragged matrix: row widths 3 and 2"),
            ("ab", [[0, 1], [1], [0, 2]], SoftSetError, "matrix entries must be 0 or 1, got 2"),
            ("ab", [[1, 2], [1, True]], SoftSetError, "matrix entries must be 0 or 1, got 2"),
            ("ab", [[0, 1, 1], [1]], DimensionMismatch, "ragged matrix: row widths 1 and 3"),
            ("a", [[1]], DimensionMismatch, "declared 2 columns, rows carry 1"),
            ("a", [[0, 1, 1]], DimensionMismatch, "declared 2 columns, rows carry 3"),
            ("abc", [[1, 1]], DimensionMismatch, "matrix is 1x2, expected 3x2"),
            ("a", [], DimensionMismatch, "matrix is 0x2, expected 1x2"),
            ("a", [5], SoftSetError,
             "matrix must be an iterable of row iterables: 'int' object is not iterable"),
            ("a", 5, SoftSetError,
             "matrix must be an iterable of row iterables: 'int' object is not iterable"),
        ],
        ids=["ragged", "ragged-later-row", "entry-before-ragged", "first-bad-entry",
             "ragged-before-width", "too-narrow", "too-wide", "too-few-rows", "no-rows",
             "row-no-iterable", "rows-no-iterable"],
    )
    def test_checks_in_order(self, universe, rows, error, message):
        with pytest.raises(error, match="^" + re.escape(message) + "$"):
            SoftSet.from_matrix(tuple(universe), self.XY, rows)

    def test_names_are_checked_after_the_shape(self):
        with pytest.raises(DuplicateElement):
            SoftSet.from_matrix(("a", "a"), self.XY, [[0, 1], [1, 0]])
        with pytest.raises(DuplicateAttribute):
            SoftSet.from_matrix(("a",), ("x", "x"), [[0, 1]])


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

    def test_value_listing_an_element_twice(self):
        with pytest.raises(DuplicateElement, match="^value of 'x' lists 'a' twice$"):
            SoftSet(("a",), ("x",), {"x": ["a", "a"]})

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
            (iter(["a"]), "has no len"),
            (iter(["zz"]), "has no len"),
        ],
        ids=["none", "int", "unhashable-element", "mapping", "stray-then-unhashable",
             "iterator", "iterator-with-stray"],
    )
    def test_value_that_is_no_collection_of_elements(self, value, message):
        with pytest.raises(InvalidValue, match=message):
            SoftSet(("a", "b"), ("x",), {"x": value})

    @pytest.mark.parametrize(
        "read, args, message",
        [
            (SoftSet, (None, (), {}), "^universe must be a sequence of names, not NoneType$"),
            (SoftSet, ({"a", "b"}, (), {}), "^universe .* not set$"),
            (SoftSet, ("ab", (), {}), "^universe .* not str$"),
            (SoftSet, (("a",), None, {}), "^attributes must be .* not NoneType$"),
            (SoftSet, (("a",), b"xy", {}), "^attributes .* not bytes$"),
            (SoftSet, (("a",), ("x",), ["x"]), "^values must be a mapping .* not list$"),
            (SoftSet.from_matrix, (None, ("x",), []), "^universe .* not NoneType$"),
            (SoftSet.from_matrix, (("a",), iter(["x"]), [[1]]), "^attributes .* list_iterator$"),
            # a matrix or row that would split into characters or keys
            (SoftSet.from_matrix, (("a",), (), [""]), "^matrix rows must be .* not str$"),
            (SoftSet.from_matrix, ((), (), ""), "^matrix must be .* not str$"),
            (SoftSet.from_matrix, ((), (), {}), "^matrix must be .* not dict$"),
            (SoftSet.from_matrix, (("a",), ("x",), b"\1"), "^matrix must be .* not bytes$"),
            (SoftSet.from_matrix, (("a",), ("x",), [b"\1"]), "^matrix rows .* not bytes$"),
            (SoftSet.from_matrix, (("a", "b"), ("x",), ([1], {1: 0})), "^matrix rows .* not dict$"),
            (reorder_attributes, (SoftSet((), ("x",), {"x": ()}), "x"), "^order .* not str$"),
            (reorder_attributes, (SoftSet((), ("x",), {"x": ()}), {"x"}), "^order .* not set$"),
            (reorder_attributes, (SoftSet((), ("x",), {"x": ()}), iter(["x"])),
             "^order .* not list_iterator$"),
            # every name position takes strings only
            (SoftSet, (("a", 1), (), {}), "^universe: names must be strings, not 1$"),
            (SoftSet, (("a",), ("x", None), {"x": (), None: ()}),
             "^attributes: names must be strings, not None$"),
            (SoftSet, (range(2), (), {}), "^universe: names must be strings, not 0$"),
            (SoftSet.from_matrix, ((b"a",), ("x",), [[1]]),
             "^universe: names must be strings, not b'a'$"),
            (SoftSet.from_matrix, (("a",), (("x",),), [[1]]),
             r"^attributes: names must be strings, not \('x',\)$"),
            (reorder_attributes, (SoftSet((), ("x",), {"x": ()}), [1]),
             "^order: names must be strings, not 1$"),
            (duplicate_attribute, (SoftSet((), ("x",), {"x": ()}), "x", 1),
             "^new_name: names must be strings, not 1$"),
            (rename_attributes, (SoftSet((), ("x",), {"x": ()}), 7),
             "^suffix: names must be strings, not 7$"),
            (rename_attributes, (SoftSet((), ("x",), {"x": ()}), None),
             "^suffix: names must be strings, not None$"),
        ],
        ids=["universe-none", "universe-set", "universe-str", "attributes-none",
             "attributes-bytes", "values-list", "matrix-universe-none",
             "matrix-attributes-iterator", "matrix-str-row", "matrix-str", "matrix-mapping",
             "matrix-bytes", "matrix-bytes-row", "matrix-mapping-row", "order-str", "order-set",
             "order-iterator",
             "universe-int-member", "attributes-none-member", "universe-range",
             "matrix-universe-bytes-member", "matrix-attributes-tuple-member",
             "order-int-member", "new-name-int", "suffix-int", "suffix-none"],
    )
    def test_containers_of_the_wrong_type_are_invalid(self, read, args, message):
        with pytest.raises(InvalidValue, match=message):
            read(*args)

    def test_strays_are_listed_in_their_own_order(self):
        with pytest.raises(UnknownElement, match=r"\[2, 10\]"):
            SoftSet(("a",), ("x",), {"x": [10, 2]})

    def test_strays_of_mixed_types_are_reported(self):
        with pytest.raises(UnknownElement, match=r"\[1, 'zz'\]"):
            SoftSet(("a",), ("x",), {"x": ["zz", 1]})

    def test_unknown_attributes_of_mixed_types_are_reported(self):
        with pytest.raises(UnknownAttribute, match=r"\[1, 'zz'\]"):
            SoftSet(("a",), (), {"zz": [], 1: []})

    @pytest.mark.parametrize(
        "universe, attributes",
        [((["a"],), ("x",)), (("a",), ("x", ["y"]))],
        ids=["element", "attribute"],
    )
    def test_unhashable_names_are_invalid(self, universe, attributes):
        with pytest.raises(InvalidValue, match=r"^\w+: names must be strings, not \['.'\]$"):
            SoftSet(universe, attributes, {})

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda s: s.mask(["x"]), UnknownAttribute, r"^no attribute \['x'\]$"),
            (lambda s: s.value(["x"]), UnknownAttribute, r"^no attribute \['x'\]$"),
            (lambda s: drop_attribute(s, ["x"]), UnknownAttribute, r"^no attribute \['x'\]$"),
            (lambda s: reorder_attributes(s, [["x"]]), InvalidValue,
             r"^order: names must be strings, not \['x'\]$"),
            (lambda s: duplicate_attribute(s, "x", ["y"]), InvalidValue,
             r"^new_name: names must be strings, not \['y'\]$"),
        ],
        ids=["mask", "value", "drop", "reorder", "duplicate"],
    )
    def test_unhashable_name_arguments_raise_domain_errors(self, call, error, message):
        with pytest.raises(error, match=message):
            call(SoftSet(("a",), ("x",), {"x": {"a"}}))

    def test_value_lookup_rejects_unknown_name(self, abc_f):
        with pytest.raises(UnknownAttribute):
            abc_f.value("w")

    def test_empty_attribute_tuple(self):
        s = SoftSet(("a", "b"), (), {})
        assert s.tau() == frozenset()
        assert s.to_matrix() == ((), ())

    def test_empty_universe(self):
        s = SoftSet((), ("x",), {"x": set()})
        assert s.to_matrix() == ()
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
            _require_same_universe(abc_f, reordered)
        assert _require_same_universe(abc_f, abc_f) is None


class TestMatrixForm:
    def test_rows_follow_universe_columns_follow_attributes(self, abc_g):
        # column j is the indicator vector of the j-th attribute's value
        assert list(zip(*abc_g.to_matrix())) == [(1, 0, 0), (0, 0, 1), (0, 0, 1)]

    def test_extremes(self):
        full = SoftSet(("a", "b"), ("x", "y"), {"x": {"a", "b"}, "y": {"a", "b"}})
        hollow = SoftSet(("a", "b"), ("x", "y"), {"x": set(), "y": set()})
        assert full.to_matrix() == ((1, 1), (1, 1))
        assert hollow.to_matrix() == ((0, 0), (0, 0))

    def test_masks_are_the_matrix_columns(self, abc_f):
        # bit i stands for universe[i]: x -> {b, c} is 0b110
        assert abc_f.masks == (0b110, 0b100, 0b001)
        assert abc_f.mask("x") == 0b110 and abc_f.full_mask == 0b111
        assert abc_f.names(0b101) == {"a", "c"}
        with pytest.raises(TypeError):
            abc_f.masks[0] = 0
        with pytest.raises(UnknownAttribute):
            abc_f.mask("w")

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


class TestKeptNames:
    """names() keeps the set of each distinct value once built; any other
    mask's set is built afresh, so at most one set per value is kept."""

    def test_tau_and_families_hand_out_the_kept_sets(self, abc_f):
        kept = {v: v for v in abc_f.tau()}
        assert all(kept[v] is v for v in abc_f.tau())
        assert all(kept[v] is v for v in min_family(abc_f) | max_family(abc_f))
        assert all(kept[v] is v for v in abc_f.values.values())

    def test_duplicated_columns_share_one_set(self, abc_g):
        values = abc_g.values
        assert values["n"] is values["o"] is abc_g.value("n")

    def test_other_masks_are_built_fresh(self, abc_f):
        abc_f.tau()
        first, again = abc_f.names(0b101), abc_f.names(0b101)
        assert first == again == {"a", "c"} and first is not again

    @pytest.mark.parametrize("mask", [-1, -2, 0b1000, 0b11000, "a", None, 1.5, [1]])
    def test_masks_outside_the_universe_are_refused(self, mask):
        s = SoftSet(("a", "b", "c"), ("x",), {"x": {"a"}})
        with pytest.raises(InvalidValue, match="outside"):
            s.names(mask)

    def test_only_an_exact_int_reads_or_fills_the_kept_sets(self):
        # an answer must not depend on which masks were asked for before
        s = SoftSet(("a", "b", "c"), ("x",), {"x": {"a"}})
        kept = s.names(1)
        with pytest.raises(InvalidValue, match="outside"):
            s.names(1.0)
        assert s.names(True) == kept and s.names(True) is not kept
        assert s.names(1) is kept

    def test_kept_sets_never_outnumber_the_distinct_values(self, abc_g):
        for mask in range(abc_g.full_mask + 1):
            abc_g.names(mask)
        assert len(abc_g._names) == len(abc_g.tau()) == 2

    @pytest.mark.parametrize("build", [
        lambda u, a, v: SoftSet(u, a, v),
        lambda u, a, v: SoftSet.from_matrix(u, a, SoftSet(u, a, v).to_matrix()),
    ], ids=["constructor", "from_matrix"])
    def test_kept_sets_play_no_part_in_equality(self, build):
        parts = (("a", "b"), ("x", "y"), {"x": {"a"}, "y": {"a"}})
        asked, plain = build(*parts), build(*parts)
        asked.tau(), asked.values
        assert asked == plain and plain == asked
        assert hash(asked) == hash(plain) and plain in {asked}

    def test_safe_to_share_across_threads(self):
        rng = random.Random(11)
        universe = tuple(f"u{i}" for i in range(200))
        pool = [frozenset(e for e in universe if rng.random() < 0.5) for _ in range(20)]
        pool += [rng.choice(pool) & rng.choice(pool) for _ in range(8)]
        attributes = tuple(f"a{j}" for j in range(40))
        values = {a: pool[j] if j < len(pool) else rng.choice(pool)
                  for j, a in enumerate(attributes)}
        tau = frozenset(values.values())
        minimal = oracle_minimal(tau)
        s = SoftSet(universe, attributes, values)
        start, answers = threading.Barrier(8), []

        def read():
            start.wait(timeout=60)
            answers.append(all(s.tau() == tau and s.values == values
                               and min_family(s) == minimal for _ in range(20)))

        before = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(before)
        assert answers == [True] * 8
        expected = {s.mask(a): values[a] for a in attributes}
        assert s._names.keys() == expected.keys()
        assert all(v is None or v == expected[m] for m, v in s._names.items())


class TestCanonicalize:
    def test_sorts_columns(self, abc_f):
        c = abc_f.canonicalize()
        cols = list(zip(*c.to_matrix()))
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


class TestRepr:
    def test_names_follow_universe_order(self):
        s = SoftSet(("c", "a", "b"), ("x", "y"), {"x": {"a", "b", "c"}, "y": {"b"}})
        assert repr(s) == ("SoftSet(universe=['c', 'a', 'b'], "
                           "values={'x': ['c', 'a', 'b'], 'y': ['b']})")


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

    # a document's values are checked by the constructor, as any other values
    @pytest.mark.parametrize(
        "values, error",
        [
            ({"x": "a"}, InvalidValue),
            ({"x": None}, InvalidValue),
            ({"x": {"a": 1}}, InvalidValue),
            ({"x": [["a"]]}, InvalidValue),
            ({"x": [1]}, UnknownElement),
            ({"x": ["zz"]}, UnknownElement),
            ({}, MissingValue),
            ({"x": [], "y": []}, UnknownAttribute),
        ],
        ids=["string", "null", "object", "nested-array", "number", "stray", "missing",
             "unknown-attribute"],
    )
    def test_malformed_value_raises_the_constructors_error(self, values, error):
        doc = {"universe": ["a"], "attributes": ["x"], "values": values}
        with pytest.raises(error):
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


@st.composite
def _reads(draw):
    """A reader and its arguments: drawn values for the constructor, near
    misses of a fitting matrix for from_matrix and of a fitting document
    for soft_set_from_document; now and then one name swapped for one that
    is no str, and arbitrary JSON in place of the universe, the attributes
    or the value map."""
    good = draw(helpers.soft_sets(max_universe=3, max_width=3))
    universe, attributes = good.universe, good.attributes
    reader = draw(st.sampled_from(["constructor", "from_matrix", "document"]))
    if reader == "document":
        return soft_set_from_document, (helpers.near(draw, soft_set_to_document(good)),)
    def odd(fitting):
        return draw(helpers.json_values) if not draw(st.integers(0, 9)) else fitting
    def swapped(names):
        if names and not draw(st.integers(0, 4)):
            j = draw(st.integers(0, len(names) - 1))
            bad = draw(st.sampled_from([1, None, b"u0", ("u0",), ["u0"]]))
            names = (*names[:j], bad, *names[j + 1:])
        return odd(names)
    names = swapped(universe), swapped(attributes)
    if reader == "from_matrix":
        rows = [list(row) for row in good.to_matrix()]
        return SoftSet.from_matrix, (*names, helpers.near(draw, rows))
    elements = st.sampled_from(universe + ("zz", 1)) | helpers.json_values
    lists = st.lists(elements, max_size=4)
    value = st.one_of(helpers.json_values, lists, lists.map(tuple), lists.map(iter),
                      st.frozensets(st.sampled_from(universe + ("zz", 1, (2, 3)))))
    values = {a: draw(value) for a in attributes if draw(st.integers(0, 9))}
    if not draw(st.integers(0, 9)):
        values[draw(st.sampled_from(["w", 1]))] = draw(value)
    return SoftSet, (*names, odd(values))


@settings(max_examples=300, deadline=None)
@given(_reads())
def test_readers_answer_with_a_soft_set_or_a_domain_error(read):
    """Whatever the universe, attributes, values, rows or document, SoftSet,
    SoftSet.from_matrix and soft_set_from_document return a SoftSet, whose
    names are all strings, or raise a SoftSetError."""
    reader, args = read
    try:
        result = reader(*args)
    except SoftSetError:
        return
    assert isinstance(result, SoftSet)
    assert all(isinstance(name, str) for name in result.universe + result.attributes)


# an int past the interpreter's 4300-digit limit on int-to-text conversion, which
# repr refuses with a bare ValueError
_LONG = 10 ** 5000
_ONE = SoftSet(("a",), ("x",), {"x": {"a"}})


@pytest.mark.parametrize("call", [
    lambda bad: SoftSet.from_matrix(("a",), ("x",), [[bad]]),
    lambda bad: SoftSet(("a",), ("x",), {"x": {bad}}),
    lambda bad: SoftSet((bad,), ("x",), {"x": set()}),
    lambda bad: SoftSet(("a",), (bad,), {bad: set()}),
    lambda bad: SoftSet(("a",), ("x",), {"x": set(), bad: set()}),
    # with a str beside it, sorting falls back to comparing the text of each
    lambda bad: SoftSet(("a",), ("x",), {"x": [bad, "zz"]}),
    lambda bad: SoftSet(("a",), ("x",), {"x": set(), bad: set(), "zz": set()}),
    lambda bad: _ONE.names(bad),
    lambda bad: _ONE.mask(bad),
    lambda bad: _ONE.value(bad),
    lambda bad: relate(_ONE, _ONE, bad),
    lambda bad: drop_attribute(_ONE, bad),
    lambda bad: duplicate_attribute(_ONE, "x", bad),
    lambda bad: reorder_attributes(_ONE, [bad]),
    # a universe wide enough that full_mask, in the message, has the digits of bad
    lambda bad: SoftSet([f"u{i}" for i in range(bad.bit_length())], (), {}).names(-1),
], ids=["matrix-entry", "stray", "universe-name", "attribute-name", "extra-key",
        "mixed-strays", "mixed-extra-keys", "names", "mask", "value", "relate", "drop",
        "duplicate", "reorder", "full-mask"])
def test_an_unprintable_value_gets_the_domain_error(call):
    with pytest.raises(SoftSetError) as small:
        call(2)
    with pytest.raises(SoftSetError) as long:
        call(_LONG)
    assert type(long.value) is type(small.value)
    assert "\n" not in str(long.value)


# caller data that an unbounded quote would copy whole into a message: a 100 000-character
# name, a list nested 5000 deep (3.13 parses such a --universe) and 1000 names
_WIDE = "w" * 100_000
_DEEP = functools.reduce(lambda inner, _: [inner], range(5000), [])
_THOUSAND = tuple(f"e{i}" for i in range(1000))


@pytest.mark.parametrize("call", [
    lambda: SoftSet(("a",), ("x",), {"x": {_WIDE}}),
    lambda: SoftSet((_DEEP,), (), {}),
    lambda: _require_same_universe(SoftSet(_THOUSAND, (), {}), SoftSet(_THOUSAND[::-1], (), {})),
    lambda: SoftSet((_WIDE, _WIDE), (), {}),
    lambda: SoftSet((), (_WIDE, _WIDE), {}),
    lambda: SoftSet((), (_WIDE,), {}),
    lambda: SoftSet((), (_WIDE,), {_WIDE: "a"}),
    lambda: SoftSet((), (_WIDE,), {_WIDE: None}),
    lambda: SoftSet((_WIDE,), ("x",), {"x": [_WIDE, _WIDE]}),
    lambda: drop_attribute(SoftSet(_THOUSAND, (_WIDE,), {_WIDE: _THOUSAND}), _WIDE),
    lambda: reorder_attributes(SoftSet((), _THOUSAND, dict.fromkeys(_THOUSAND, ())), [_WIDE]),
    lambda: _loads(f'{{"{_WIDE}": 1, "{_WIDE}": 2}}', "stdin", "stdin is not valid JSON"),
], ids=["stray", "deep-name", "universe-mismatch", "repeated-element", "repeated-attribute",
        "missing-value", "string-value", "no-collection", "listed-twice", "drop", "reorder",
        "repeated-key"])
def test_an_error_message_is_one_bounded_line(call):
    with pytest.raises(SoftSetError) as caught:
        call()
    message = str(caught.value)
    assert "\n" not in message and len(message) <= 500


# arbitrary values for the API fuzz below; _HUGE, which hypothesis cannot repr inside
# st.just, is _LONG, and each position draws it on its own too, as the likeliest escape
_HUGE = st.builds(pow, st.just(10), st.just(5000))
_ANY = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
    | st.binary(max_size=3) | _HUGE,
    lambda inner: st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple)
    | st.frozensets(st.text(max_size=2)) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=6,
)
# every function the package exports but the oracles, which take raw families,
# and the SoftSet methods that take an argument
_API = [getattr(softsets, name) for name in softsets.__all__
        if inspect.isfunction(getattr(softsets, name)) and not name.startswith("oracle_")]
_API += [SoftSet.mask, SoftSet.names, SoftSet.value]
# the positions where a value of the wrong type may raise TypeError (the count contract)
_COUNTS = {"trials", "rewrite_count", "seed"}
# rng and relation stay valid, being out of scope; counts stay small, since a huge one
# keeps a probe per trial until memory runs out
_SMALL = st.integers(-2, 4) | _ANY.filter(lambda value: not isinstance(value, int))
_KEPT = {"rng": st.integers().map(random.Random), "relation": st.sampled_from([equal, equivalent]),
         "trials": _SMALL, "rewrite_count": _SMALL}


@st.composite
def _api_calls(draw):
    """One function of the API and an argument per parameter: the operands and
    the _KEPT positions as above; elsewhere an arbitrary value or, to get past
    the first check, one that fits."""
    call = draw(st.sampled_from(_API))
    s, f = draw(helpers.soft_set_pairs())
    operands = iter((s, f))
    fitting = {
        "attribute": st.sampled_from(s.attributes),
        "new_name": st.text(max_size=2),
        "suffix": st.text(max_size=2),
        "order": st.permutations(s.attributes),
        "mask": st.integers(0, s.full_mask),
        "kind": st.sampled_from(ApproxKind),
        "doc": st.just(soft_set_to_document(s)),
    }
    args = {}
    for param in inspect.signature(call).parameters:
        if param in ("self", "s", "f", "t"):
            args[param] = next(operands)
        elif param in _KEPT:
            args[param] = draw(_KEPT[param])
        else:
            args[param] = draw(fitting.get(param, st.nothing()) | _HUGE | _ANY)
    return call, args


@settings(max_examples=400, deadline=None)
@given(_api_calls())
def test_the_api_answers_with_a_result_or_a_domain_error(call_args):
    """The error contract over the whole API: any value at a name, attribute,
    order, kind or count position returns or raises SoftSetError; a count or
    seed of the wrong type may raise TypeError instead."""
    call, args = call_args
    try:
        call(*args.values())
    except SoftSetError as exc:
        assert "\n" not in str(exc) and len(str(exc)) <= 500
    except TypeError:
        if all(type(args[param]) is int for param in _COUNTS & args.keys()):
            raise


def test_package_exports_are_pinned():
    import softsets

    assert sorted(softsets.__all__) == [
        "ApproxKind", "ConjectureProbe", "CorrectnessReport",
        "DimensionMismatch", "DuplicateAttribute", "DuplicateElement", "EmptyDenominator",
        "InvalidValue", "MAX_PERMUTED_ATTRIBUTES", "MissingValue", "RelationViolation",
        "SoftSet", "SoftSetError", "TooManyAttributes", "UniverseMismatch",
        "UnknownAttribute", "UnknownElement",
        "check_relation_correctness", "complement",
        "drop_attribute", "duplicate_attribute", "equal",
        "equivalent", "externally_approximates", "gravity",
        "gravity_domination", "internally_approximates", "intersection",
        "max_family", "max_similarity_over_orderings",
        "min_family", "oracle_best_similarity", "oracle_complement", "oracle_external",
        "oracle_internal", "oracle_intersection", "oracle_maximal", "oracle_minimal",
        "oracle_product", "oracle_relation", "oracle_similarity", "oracle_union",
        "probe_conjecture", "product", "random_equivalent_variant", "relate",
        "rename_attributes", "reorder_attributes", "similarity",
        "soft_set_from_document", "soft_set_to_document", "union",
    ]
    assert all(hasattr(softsets, name) for name in softsets.__all__)
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    assert [name for name in softsets.__all__ if f"`{name}`" not in readme] == []


def test_package_exports_are_the_modules_exports_in_order():
    import softsets

    modules = ("core", "algebra", "relations", "analysis", "oracle")
    assert softsets.__all__ == [name for module in modules
                                for name in importlib.import_module(f"softsets.{module}").__all__]


def test_package_loads_its_modules_on_first_use():
    # a fresh interpreter, since this one has loaded every module already
    done = helpers.fresh_python("-c", """
import sys
loaded = lambda: sorted(m for m in sys.modules if m.startswith("softsets"))
import softsets
assert loaded() == ["softsets"], loaded()
assert softsets.oracle.__file__.endswith("oracle.py")
assert loaded() == ["softsets", "softsets.core", "softsets.oracle"], loaded()
from softsets import *
missing = [name for name in softsets.__all__ if name not in globals()]
assert not missing, missing
""")
    assert done.returncode == 0, done.stderr
