"""The references of softsets.oracle where no sweep reaches them, their
independence from the matrix code, and the generator of tests/helpers.py."""

import ast
import builtins
from fractions import Fraction
from pathlib import Path

import pytest

import helpers
import softsets
from softsets import (
    SoftSet,
    UniverseMismatch,
    oracle_intersection,
    oracle_product,
    oracle_similarity,
    oracle_union,
    similarity,
)


class TestOracleAgreement:
    def test_similarity_on_fixture_pairs(self, sim_pair, five_pair):
        assert oracle_similarity(*sim_pair) == Fraction(2, 3)
        assert oracle_similarity(*five_pair) == Fraction(3, 5)
        s, f = sim_pair
        assert oracle_similarity(s, f) == similarity(s, f)

    def test_oracles_enforce_the_universe_contract(self, abc_f):
        other = SoftSet(("a", "b"), ("x",), {"x": {"a"}})
        for op in (oracle_union, oracle_intersection, oracle_product, oracle_similarity):
            with pytest.raises(UniverseMismatch):
                op(abc_f, other)


class TestOracleValues:
    def test_product_builds_pair_elements(self, abc_f, abc_g):
        got = oracle_product(abc_f, abc_g)
        assert got.value("(z,m)") == frozenset({"(a,a)"})
        assert got.value("(x,m)") == frozenset({"(b,a)", "(c,a)"})


class TestEnumeration:
    def test_counts_follow_the_power_formula(self):
        for universe in helpers.UNIVERSES:
            for width in range(1, 4):
                per_width = (2 ** len(universe)) ** width
                total = sum(
                    (2 ** len(universe)) ** k for k in range(1, width + 1)
                )
                got = helpers.all_soft_sets(universe, width)
                assert len(got) == total
                assert sum(1 for s in got if len(s.attributes) == width) == per_width

    def test_deterministic_prefix(self):
        first, second, third = helpers.all_soft_sets(("e1", "e2"), 1)[:3]
        assert first.value("a1") == frozenset()
        assert second.value("a1") == frozenset({"e1"})
        assert third.value("a1") == frozenset({"e2"})

    def test_no_duplicates(self):
        sets = helpers.all_soft_sets(("e1", "e2"), 3)
        assert len(set(sets)) == len(sets)

    def test_every_member_lives_on_the_given_universe(self):
        for s in helpers.all_soft_sets(("e1", "e2", "e3"), 2):
            assert s.universe == ("e1", "e2", "e3")
            assert 1 <= len(s.attributes) <= 2


def test_oracles_import_only_core_from_the_package():
    # agreement with the matrix code is evidence only while the oracles
    # share nothing with it beyond the SoftSet container
    tree = ast.parse(Path(softsets.oracle.__file__).read_text(encoding="utf-8"))
    relative, absolute = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            (relative if node.level else absolute).add(node.module)
        elif isinstance(node, ast.Import):
            absolute.update(alias.name for alias in node.names)
    assert relative == {"core"}
    assert not {name for name in absolute if name.partition(".")[0] == "softsets"}


def test_references_touch_no_soft_set():
    # the family-level references are evidence only while they work on frozensets
    # and families alone: no SoftSet attribute read, no library function called
    references = {"oracle_internal", "oracle_external", "oracle_relation", "oracle_minimal",
                  "oracle_maximal", "oracle_best_similarity"}
    tree = ast.parse(Path(softsets.oracle.__file__).read_text(encoding="utf-8"))
    functions = [node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name in references]
    assert {function.name for function in functions} == references
    for function in functions:
        nodes = list(ast.walk(function))
        bound = {node.arg for node in nodes if isinstance(node, ast.arg)}
        bound |= {node.id for node in nodes
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
        read = {node.id for node in nodes
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        assert read - bound - set(dir(builtins)) <= references | {"ApproxKind", "Fraction"}
        attributes = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
        assert not attributes & set(dir(SoftSet))
