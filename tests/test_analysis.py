"""Similarity, gravity, ordering-maximized similarity, alignment guarantees, prober.

The alignment section treats the strong alignment claims the way a referee
would: the assertable restatements are verified on every enumerated
instance satisfying their hypotheses, and the over-broad versions are
pinned to concrete counterexamples so nobody quietly re-promotes them.
test_every_small_pair is the one home of the facts that read columns, not
tau alone: De Morgan, both scores, and the equivalences that do not align.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings

import helpers
from softsets import (
    ApproxKind,
    EmptyDenominator,
    SoftSet,
    TooManyAttributes,
    UniverseMismatch,
    complement,
    duplicate_attribute,
    equivalent,
    gravity,
    intersection,
    max_similarity_over_orderings,
    oracle_best_similarity,
    oracle_minimal,
    oracle_similarity,
    probe_conjecture,
    relate,
    rename_attributes,
    similarity,
    union,
)
from softsets import SoftSetError


class TestSimilarity:
    def test_five_element_pair(self, five_pair):
        s, f = five_pair
        # disjoint families, yet 3/5 of the cells agree (acceptance c06)
        assert s.tau().isdisjoint(f.tau())

    def test_padding_matches_missing_columns_against_zeros(self, abc_f):
        padded = duplicate_attribute(abc_f, "x", "x2")
        values = padded.values
        values["x2"] = frozenset()
        widened = SoftSet(padded.universe, padded.attributes, values)
        # the extra column is all zero, exactly what the pad compares to
        assert similarity(abc_f, widened) == 1

    def test_zero_width_operand_compares_against_zeros(self):
        empty_side = SoftSet(("a", "b"), (), {})
        hollow = SoftSet(("a", "b"), ("x",), {"x": set()})
        marked = SoftSet(("a", "b"), ("x",), {"x": {"a"}})
        assert similarity(empty_side, hollow) == 1
        assert similarity(empty_side, marked) == Fraction(1, 2)

    def test_needs_cells_to_compare(self):
        no_attrs = SoftSet(("a",), (), {})
        no_elements = SoftSet((), ("x",), {"x": set()})
        for score in (similarity, oracle_similarity):
            for s in (no_attrs, no_elements):
                with pytest.raises(EmptyDenominator):
                    score(s, s)

    def test_universe_must_match(self, abc_f):
        other = SoftSet(("a", "b"), ("x",), {"x": {"a"}})
        with pytest.raises(UniverseMismatch):
            similarity(abc_f, other)

    def test_label_changes_do_not_move_the_score(self, sim_pair):
        s, f = sim_pair
        assert similarity(rename_attributes(s, "!"), rename_attributes(f, "?")) == (
            similarity(s, f)
        )

    @settings(max_examples=150)
    @given(helpers.soft_set_pairs())
    def test_bounded_and_symmetric(self, pair):
        s, f = pair
        q = similarity(s, f)
        assert 0 <= q <= 1
        assert q == similarity(f, s)

    @settings(max_examples=80)
    @given(helpers.soft_sets(min_width=1))
    def test_reflexive_anywhere(self, s):
        assert similarity(s, s) == 1


class TestGravity:
    def test_counts_value_sizes(self, grav_pair):
        s, f = grav_pair
        assert gravity(s) == {"e1": 2, "e2": 3, "e3": 1}
        assert gravity(f) == {"g1": 2, "g2": 1, "g3": 2, "g4": 3}

    def test_keyed_in_attribute_order(self, grav_pair):
        assert list(gravity(grav_pair[1])) == ["g1", "g2", "g3", "g4"]

    def test_containment_forces_the_inequality(self, grav_pair):
        s, f = grav_pair
        gs, gf = gravity(s), gravity(f)
        for a in s.attributes:
            for b in f.attributes:
                if s.value(a) <= f.value(b):
                    assert gs[a] <= gf[b]


class TestMaxSimilarityOverOrderings:
    def test_width_cap_applies_to_the_narrower_side(self):
        u = ("a", "b")
        wide = SoftSet(u, tuple(f"a{i}" for i in range(9)), {f"a{i}": {"a"} for i in range(9)})
        narrow = SoftSet(u, ("b0",), {"b0": {"a"}})
        assert max_similarity_over_orderings(wide, narrow) == Fraction(10, 18)
        a = frozenset({"a"})
        assert oracle_best_similarity(2, [a] * 9, [a]) == Fraction(10, 18)
        with pytest.raises(TooManyAttributes):
            max_similarity_over_orderings(wide, wide)

    @settings(max_examples=60)
    @given(helpers.soft_set_pairs(max_universe=3, max_width=4))
    def test_dominates_similarity_and_is_symmetric(self, pair):
        s, f = pair
        best = max_similarity_over_orderings(s, f)
        assert best >= similarity(s, f)
        assert best == max_similarity_over_orderings(f, s)
        assert 0 <= best <= 1


class TestAlignmentGuarantees:
    def test_equal_families_of_distinct_values_align_perfectly(self):
        # hypotheses: injective value maps, equal families, equal widths;
        # conclusion: some column order scores 1
        for universe in helpers.UNIVERSES:
            by_family = {}
            for s in helpers.all_soft_sets(universe, 3):
                if len(s.tau()) == len(s.attributes):
                    by_family.setdefault(s.tau(), []).append(s)
            for group in by_family.values():
                for s in group:
                    for f in group:
                        assert max_similarity_over_orderings(s, f) == 1

    def test_permutation_bases_align_perfectly(self):
        # a permutation basis: square, every value a singleton, no two equal
        for universe in (("e1", "e2"), ("e1", "e2", "e3")):
            bases = [
                s
                for s in helpers.all_soft_sets(universe, len(universe))
                if len(s.attributes) == len(universe)
                and all(len(v) == 1 for v in s.values.values())
                and len(s.tau()) == len(s.attributes)
            ]
            assert len(bases) == math.factorial(len(universe))
            for s in bases:
                for f in bases:
                    assert max_similarity_over_orderings(s, f) == 1

    def test_matching_antichain_shapes_alone_do_not_force_alignment(self):
        # both sides injective and all-minimal, same width, and still the
        # score is stuck at zero: the guarantee needs equal families too
        u = ("a", "b")
        s = SoftSet(u, ("x",), {"x": {"a"}})
        f = SoftSet(u, ("y",), {"y": {"b"}})
        for side in (s, f):
            assert len(side.tau()) == len(side.attributes)
            assert oracle_minimal(side.tau()) == side.tau()
        assert len(s.attributes) == len(f.attributes)
        assert s.tau() != f.tau()
        assert max_similarity_over_orderings(s, f) == 0


class TestConjectureProbe:
    def test_probe_records_honest_bookkeeping(self, abc_f, abc_g):
        probes = probe_conjecture(abc_f, abc_g, trials=40, seed=11)
        base = oracle_similarity(abc_f, abc_g)
        for p in probes:
            assert p.original == (abc_f, abc_g)
            assert p.original_similarity == base
            assert equivalent(p.rewritten[0], abc_f)
            assert equivalent(p.rewritten[1], abc_g)
            assert p.rewritten_similarity == oracle_similarity(*p.rewritten)
            assert p.differs == (p.rewritten_similarity != base)

    def test_probe_rejects_empty_runs(self, abc_f, abc_g):
        with pytest.raises(SoftSetError):
            probe_conjecture(abc_f, abc_g, trials=0)

    def test_bad_count_is_refused_before_the_score_is_taken(self, abc_f):
        elsewhere = SoftSet(("p",), ("x",), {"x": {"p"}})
        with pytest.raises(SoftSetError, match="^trials must be at least 1$"):
            probe_conjecture(abc_f, elsewhere, trials=0)


@pytest.mark.parametrize("universe", helpers.UNIVERSES, ids=lambda u: f"m={len(u)}")
def test_every_small_pair(universe):
    # the matrix laws and both scores read the columns, not tau alone, so every soft set
    # of width 1 or 2 meets every other; at m = 2 it also counts the mutual approximations
    # that no column order aligns: equivalence alone does not force alignment
    m = len(universe)
    sets = helpers.all_soft_sets(universe, 2)
    columns = [list(s.values.values()) for s in sets]
    duals = [complement(s) for s in sets]
    misses = {ApproxKind.INTERNAL_EQUIV: {}, ApproxKind.EXTERNAL_EQUIV: {}}
    pairs = 0
    for s, a, ds in zip(sets, columns, duals):
        for f, b, df in zip(sets, columns, duals):
            pairs += 1
            # De Morgan cell for cell and label for label, not merely up to the family
            assert complement(union(s, f)) == intersection(ds, df)
            assert complement(intersection(s, f)) == union(ds, df)
            q, best = similarity(s, f), max_similarity_over_orderings(s, f)
            assert q == oracle_similarity(s, f)
            wide, narrow = (a, b) if len(a) >= len(b) else (b, a)
            assert best == oracle_best_similarity(m, wide, narrow)
            assert best == max_similarity_over_orderings(f, s)
            assert best == q if len(narrow) == 1 else best >= q  # one column, one order
            if m == 2 and best != 1:
                for kind, found in misses.items():
                    if relate(s, f, kind):
                        found[tuple(a), tuple(b)] = best
    assert pairs == {1: 36, 2: 400, 3: 5184}[m]
    if m == 2:
        internal, external = misses.values()
        assert (len(internal), len(external)) == (56, 58)
        e1, e12 = frozenset({"e1"}), frozenset({"e1", "e2"})
        assert internal[(e1,), (e1, e12)] == Fraction(1, 2)
