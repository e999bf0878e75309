"""Identity, equivalence, the approximation family, rewrites, and the prober."""

import hashlib
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from softsets import (
    ApproxKind,
    DuplicateAttribute,
    InvalidValue,
    SoftSet,
    SoftSetError,
    UniverseMismatch,
    UnknownAttribute,
    check_relation_correctness,
    complement,
    drop_attribute,
    duplicate_attribute,
    equal,
    equivalent,
    externally_approximates,
    internally_approximates,
    intersection,
    max_family,
    min_family,
    oracle_external,
    oracle_internal,
    oracle_maximal,
    oracle_minimal,
    oracle_relation,
    probe_conjecture,
    product,
    random_equivalent_variant,
    relate,
    rename_attributes,
    reorder_attributes,
    union,
)
from helpers import fam


class TestEqualAndEquivalent:
    def test_equal_ignores_attribute_order(self, abc_f):
        flipped = SoftSet(abc_f.universe, ("z", "y", "x"), abc_f.values)
        assert equal(abc_f, flipped)
        assert equal(flipped, abc_f)

    def test_equal_needs_same_names_and_values(self, abc_f, abc_g):
        assert not equal(abc_f, abc_g)
        renamed = rename_attributes(abc_f, "!")
        assert not equal(abc_f, renamed)
        assert equivalent(abc_f, renamed)

    def test_equal_distinguishes_value_changes(self, abc_f):
        values = abc_f.values
        values["y"] = {"a"}
        assert not equal(abc_f, SoftSet(abc_f.universe, abc_f.attributes, values))

    def test_equivalent_is_family_equality(self, abc_g):
        # m->{a}, n->{c}, o->{c} carries the same family as m->{a}, n->{c}
        slim = SoftSet(abc_g.universe, ("m", "n"), {"m": {"a"}, "n": {"c"}})
        assert equivalent(abc_g, slim)
        assert not equal(abc_g, slim)

    def test_cross_universe_comparison_is_an_error(self, abc_f):
        other = SoftSet(("a", "b"), ("x",), {"x": {"a"}})
        for rel in (equal, equivalent, internally_approximates):
            with pytest.raises(UniverseMismatch):
                rel(abc_f, other)

    @given(helpers.soft_sets(min_width=1))
    def test_every_set_is_equal_and_equivalent_to_itself(self, s):
        assert equal(s, s)
        assert equivalent(s, s)


class TestApproximations:
    def test_mutual_internal_pair(self, grav_pair):
        s, f = grav_pair
        assert internally_approximates(s, f)
        assert internally_approximates(f, s)
        assert relate(s, f, ApproxKind.INTERNAL_EQUIV)
        assert not relate(s, f, ApproxKind.STRICT_INTERNAL)

    def test_internal_needs_a_nonempty_seed_inside_each_value(self):
        u = ("a", "b")
        s = SoftSet(u, ("x",), {"x": {"a"}})
        f = SoftSet(u, ("y",), {"y": {"b"}})
        assert not internally_approximates(s, f)
        assert internally_approximates(s, SoftSet(u, ("y",), {"y": {"a", "b"}}))

    def test_all_empty_target_is_vacuously_approximated(self, abc_f):
        hollow = SoftSet(abc_f.universe, ("h",), {"h": set()})
        assert internally_approximates(abc_f, hollow)
        assert internally_approximates(hollow, hollow)
        # but an empty source family reaches no nonempty value
        assert not internally_approximates(hollow, abc_f)

    def test_external_mirrors_internal_on_full_values(self, abc_f):
        full = SoftSet(abc_f.universe, ("t",), {"t": {"a", "b", "c"}})
        assert externally_approximates(abc_f, full)
        assert not externally_approximates(full, abc_f)

    def test_relate_takes_an_approx_kind_only(self, abc_f, abc_g):
        # the CLI turns --kind into an ApproxKind; the library takes no value in its place
        for kind in ("internal", ["internal"]):
            message = "^unknown approximation kind " + re.escape(repr(kind)) + "$"
            with pytest.raises(SoftSetError, match=message):
                relate(abc_f, abc_g, kind)


class TestFamilies:
    def test_min_and_max_of_running_operand(self, abc_f):
        # tau = {{b,c},{c},{a}}
        assert min_family(abc_f) == fam({"c"}, {"a"})
        assert max_family(abc_f) == fam({"b", "c"}, {"a"})

    def test_empty_value_never_minimal(self):
        s = SoftSet(("a", "b"), ("x", "y"), {"x": set(), "y": {"a"}})
        assert min_family(s) == fam({"a"})

    def test_full_value_never_maximal(self):
        s = SoftSet(("a", "b"), ("x", "y"), {"x": {"a", "b"}, "y": {"a"}})
        assert max_family(s) == fam({"a"})

    def test_all_empty_family(self):
        s = SoftSet(("a", "b"), ("x",), {"x": set()})
        assert min_family(s) == frozenset()
        assert max_family(s) == fam(())

    def test_chain_collapses_to_its_ends(self):
        s = SoftSet(
            ("a", "b", "c"),
            ("x", "y", "z"),
            {"x": {"a"}, "y": {"a", "b"}, "z": {"a", "b", "c"}},
        )
        assert min_family(s) == fam({"a"})
        assert max_family(s) == fam({"a", "b"})

    def test_antichain_is_its_own_min_and_max(self, two_cover_pair):
        s, _ = two_cover_pair
        assert min_family(s) == s.tau()
        assert max_family(s) == s.tau()


class TestRewrites:
    def test_rename_appends_suffix(self, abc_f):
        renamed = rename_attributes(abc_f, "_1")
        assert renamed.attributes == ("x_1", "y_1", "z_1")
        assert renamed.tau() == abc_f.tau()
        assert rename_attributes(abc_f, "") is abc_f

    def test_duplicate_adds_a_copy_at_the_end(self, abc_f):
        doubled = duplicate_attribute(abc_f, "y", "y2")
        assert doubled.attributes == ("x", "y", "z", "y2")
        assert doubled.value("y2") == abc_f.value("y")
        assert doubled.tau() == abc_f.tau()

    def test_duplicate_rejects_existing_name(self, abc_f):
        with pytest.raises(DuplicateAttribute):
            duplicate_attribute(abc_f, "y", "x")

    def test_drop_requires_another_carrier(self, abc_g):
        slim = drop_attribute(abc_g, "o")
        assert slim.attributes == ("m", "n")
        assert slim.tau() == abc_g.tau()
        with pytest.raises(SoftSetError):
            drop_attribute(abc_g, "m")

    def test_reorder_permutes(self, abc_f):
        flipped = reorder_attributes(abc_f, ("z", "x", "y"))
        assert flipped.attributes == ("z", "x", "y")
        assert flipped.value("z") == abc_f.value("z")
        assert flipped.tau() == abc_f.tau()
        with pytest.raises(UnknownAttribute):
            reorder_attributes(abc_f, ("z", "x"))
        with pytest.raises(UnknownAttribute):
            reorder_attributes(abc_f, ("z", "x", "x"))

    @settings(max_examples=60)
    @given(helpers.soft_sets(min_width=1, max_width=3), st.integers(0, 10**6))
    def test_random_variant_is_always_equivalent(self, s, seed):
        variant = random_equivalent_variant(s, random.Random(seed))
        assert equivalent(s, variant)
        assert variant.universe == s.universe

    def test_random_variant_eventually_changes_labels(self, abc_f):
        rng = random.Random(7)
        assert any(
            random_equivalent_variant(abc_f, rng) != abc_f for _ in range(20)
        )


class TestCorrectnessChecker:
    def test_family_relation_survives_rewrites(self, abc_f, abc_g):
        report = check_relation_correctness(
            equivalent, abc_f, abc_g, rewrite_count=300, seed=5
        )
        assert report.verdict == "Invariant"
        assert report.violations == ()
        assert report.trials == 300
        assert report.relation_name == "equivalent"

    def test_approximations_survive_rewrites(self, grav_pair):
        s, f = grav_pair
        for rel in (internally_approximates, externally_approximates):
            report = check_relation_correctness(rel, s, f, rewrite_count=300, seed=9)
            assert report.verdict == "Invariant"

    def test_label_sensitive_relation_is_caught(self, abc_f):
        report = check_relation_correctness(
            equal, abc_f, abc_f, rewrite_count=200, seed=0
        )
        assert report.verdict == "ViolationFound"
        v = report.violations[0]
        assert v.original_result is True
        assert v.rewritten_result is False
        # the recorded pair really does witness the flip
        assert equal(*v.original) != equal(*v.rewritten)
        assert equivalent(v.original[0], v.rewritten[0])
        assert equivalent(v.original[1], v.rewritten[1])

    def test_name_override_and_bad_count(self, abc_f, abc_g):
        report = check_relation_correctness(
            equivalent, abc_f, abc_g, rewrite_count=1, name="family-equality"
        )
        assert report.relation_name == "family-equality"
        with pytest.raises(SoftSetError):
            check_relation_correctness(equivalent, abc_f, abc_g, rewrite_count=0)

    @pytest.mark.parametrize("name", [b"x", [], 0, ("x",)], ids=repr)
    def test_a_name_that_is_no_str_is_refused(self, abc_f, name):
        with pytest.raises(InvalidValue, match="^name"):
            check_relation_correctness(equal, abc_f, abc_f, 1, name=name)

    def test_only_none_falls_back_to_the_relation_name(self, abc_f):
        named = [check_relation_correctness(equal, abc_f, abc_f, 1, name=name).relation_name
                 for name in (None, "")]
        assert named == ["equal", ""]

    def test_a_bool_count_is_refused(self, abc_f):
        with pytest.raises(TypeError, match="^rewrite_count must be an int, not bool$"):
            check_relation_correctness(equal, abc_f, abc_f, True, 0)
        with pytest.raises(TypeError, match="^trials must be an int, not bool$"):
            probe_conjecture(abc_f, abc_f, trials=True)

    def test_bad_count_is_refused_before_the_relation_runs(self, abc_f):
        elsewhere = SoftSet(("p",), ("x",), {"x": {"p"}})
        with pytest.raises(SoftSetError, match="^rewrite_count must be at least 1$"):
            check_relation_correctness(equal, abc_f, elsewhere, rewrite_count=0)


class TestVariantStream:
    """The rewrite moves consume the generator draw for draw: these sha256
    digests of seeded variant streams (each variant's repr, whether it is
    the operand itself, and one draw after each run) pin that."""

    U = ("a", "b", "c", "d")
    OPERANDS = {
        "one-attribute": ((("x",), {"x": {"b", "c"}}),
                          "911bb73feb0ab9efedf7f9509021006fe785498828947aae8bb6f99401f1da7b"),
        "distinct": ((("x", "y", "z", "w"),
                      {"x": {"a"}, "y": {"b", "c"}, "z": set(), "w": set(U)}),
                     "028f99be6c92a7bfd772aa439c15af974291c8803b7e497c99047fd8203b0080"),
        "duplicates": ((("p", "q", "r", "s", "t", "u"),
                        {"p": {"a"}, "q": {"a"}, "r": {"b"}, "s": {"a"}, "t": {"b"}, "u": set()}),
                       "915d1ae0a63a13de45555788e20448964633c23ba7b544020b29ae80e01777b6"),
        "taken-stems": ((("x", "x+1", "x+2", "y"),
                         {"x": {"c"}, "x+1": {"c"}, "x+2": {"d"}, "y": {"c"}}),
                        "ee0f7093fc6fab168fefe80151c933376ffe804202374c74955020f98f5d2df2"),
        "zero-width": (((), {}),
                       "7c8e387bd297dada459b04562d0f0c4ec91504247e51243eeb8012d54dd89119"),
    }
    PROBERS_SHA256 = "2466f6c6c53990de6c8478a3406f8794db41cc7305374690e34fad6d8314c6c2"

    def operand(self, name):
        (attributes, values), _ = self.OPERANDS[name]
        return SoftSet(self.U, attributes, values)

    @pytest.mark.parametrize("name", list(OPERANDS))
    def test_variant_stream_is_pinned(self, name):
        s = self.operand(name)
        digest = hashlib.sha256()
        for seed in range(40):
            rng = random.Random(seed)
            for _ in range(25):
                v = random_equivalent_variant(s, rng)
                digest.update(f"{v is s} {v!r}".encode())
            digest.update(repr(rng.random()).encode())
        assert digest.hexdigest() == self.OPERANDS[name][1]

    def test_prober_streams_are_pinned(self):
        d, t = self.operand("duplicates"), self.operand("distinct")
        digest = hashlib.sha256()
        for seed in range(5):
            for s, f in ((d, t), (d, d)):
                report = check_relation_correctness(equal, s, f, 100, seed)
                digest.update(repr(report.violations).encode())
            digest.update(repr(probe_conjecture(t, d, 100, seed)).encode())
        assert digest.hexdigest() == self.PROBERS_SHA256


class ScriptedRng:
    """Stands in for random.Random: answers each getrandbits(k) from a script
    of (k, answer) pairs, so a test picks the moves a variant makes and
    checks the width of every draw."""

    def __init__(self, script):
        self.script = list(script)

    def getrandbits(self, k):
        expected, answer = self.script.pop(0)
        assert k == expected
        return answer


def test_fresh_names_are_free_after_a_rename():
    # duplicate y, rename with ~5, duplicate y~5: the old name y~5+1 was
    # renamed away, so the second copy may take it
    s = SoftSet(("a", "b"), ("y", "y~5+1"), {"y": {"a"}, "y~5+1": {"b"}})
    rng = ScriptedRng([(2, 3), (2, 2),  # randint(1, 3): 3 is out of range and drawn again
                       (3, 1), (2, 0),  # move 1, choice of y among 2 names
                       (3, 0), (10, 5),  # move 0, suffix ~5 from randrange(1000)
                       (3, 1), (2, 0)])  # move 1, choice of y~5 among 3 names
    by_helpers = duplicate_attribute(
        rename_attributes(duplicate_attribute(s, "y", "y+1"), "~5"), "y~5", "y~5+1")
    variant = random_equivalent_variant(s, rng)
    assert variant.attributes == by_helpers.attributes == ("y~5", "y~5+1~5", "y+1~5", "y~5+1")
    assert variant == by_helpers and not rng.script


def test_a_drop_picks_its_carrier_in_the_order_groups_are_first_seen():
    # masks (A, B, A, B) give the carriers [0, 2, 1, 3], not index order: pick 2 drops q
    s = SoftSet(("a", "b"), ("p", "q", "r", "s"),
                {"p": {"a"}, "q": {"b"}, "r": {"a"}, "s": {"b"}})
    rng = ScriptedRng([(2, 0),  # randint(1, 3): one move
                       (3, 2),  # move 2
                       (3, 5), (3, 2)])  # choice among 4 carriers: 5 is drawn again
    variant = random_equivalent_variant(s, rng)
    assert variant.attributes == ("p", "r", "s")
    assert variant == drop_attribute(s, "q") and not rng.script


def test_a_reorder_walks_the_pool_as_sample_does():
    s = SoftSet(("a", "b"), ("x", "y", "z"), {"x": {"a"}, "y": {"b"}, "z": set()})
    rng = ScriptedRng([(2, 0),  # randint(1, 3): one move
                       (3, 3),  # move 3
                       (2, 3), (2, 2),  # pool [x, y, z]: 3 is drawn again, take z
                       (2, 0),  # pool [x, y]: take x
                       (1, 0)])  # pool [y]: take y
    variant = random_equivalent_variant(s, rng)
    assert variant.attributes == ("z", "x", "y")
    assert variant == reorder_attributes(s, ("z", "x", "y")) and not rng.script


def _reference_variant(s, rng):
    """random_equivalent_variant written with random.Random's own methods
    and the four public rewrite helpers."""
    v = s
    for _ in range(rng.randint(1, 3)):
        move, names = rng.randrange(4), v.attributes
        if move == 0 and names:
            v = rename_attributes(v, f"~{rng.randrange(1000)}")
        elif move == 1 and names:
            stem, k = rng.choice(names), 1
            while f"{stem}+{k}" in names:
                k += 1
            v = duplicate_attribute(v, stem, f"{stem}+{k}")
        elif move == 2 and len(set(v.masks.values())) != len(names):
            groups = {}
            for a, w in v.masks.items():
                groups.setdefault(w, []).append(a)
            v = drop_attribute(v, rng.choice([a for g in groups.values() if len(g) > 1 for a in g]))
        elif move == 3 and len(names) > 1:
            v = reorder_attributes(v, [names[i] for i in rng.sample(range(len(names)), len(names))])
    return v


@settings(max_examples=300, deadline=None)
@given(helpers.soft_sets(max_width=12), st.integers(0, 2**64))
def test_draws_are_those_of_random_random(s, seed):
    # the variant, drawn from getrandbits alone, against one built from the
    # methods those draws stand for: the same variants, the same operand
    # returned, and the generators end in the same state; chained, so the
    # width grows past the drawn one
    ours, theirs = random.Random(seed), random.Random(seed)
    for _ in range(8):
        v, w = random_equivalent_variant(s, ours), _reference_variant(s, theirs)
        assert v == w and (v is s) == (w is s)
        s = v
    assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("m", range(4), ids=lambda m: f"m={m}")
def test_every_family_pair(m):
    # verdicts depend on tau alone, so one soft set per family covers every class, empty
    # and full members included; all seven kinds, the variants' verdicts, and the tau
    # of each binary operation, for m <= 2
    universe = tuple(f"e{i}" for i in range(m))
    full = frozenset(universe)
    laws = ((union, frozenset.union), (intersection, frozenset.intersection),
            (product, lambda a, b: frozenset(f"({x},{y})" for x in a for y in b)))
    sets = list(helpers.one_per_family(universe))
    assert len(sets) == 2 ** 2 ** m
    taus = [s.tau() for s in sets]
    duals = [complement(s) for s in sets]
    rng = random.Random(m)
    variants = [random_equivalent_variant(random_equivalent_variant(s, rng), rng) for s in sets]
    rows = []  # per family, the families it approximates internally and externally, as bits
    for s, ts, ds, v in zip(sets, taus, duals, variants):
        assert equivalent(v, s)
        assert min_family(s) == oracle_minimal(ts)
        assert max_family(s) == oracle_maximal(ts, full)
        # operations are defined through tau as well: complement maps v to X - v
        assert ds.tau() == {full - a for a in ts} == complement(v).tau()
        for kind in ApproxKind:  # reflexive, and strict is irreflexive
            assert relate(s, s, kind) is not kind.name.startswith("STRICT")
        i_row = e_row = 0
        for j, (f, tf, df, w) in enumerate(zip(sets, taus, duals, variants)):
            i, e = internally_approximates(s, f), externally_approximates(s, f)
            assert i == oracle_internal(ts, tf)
            # X - v runs over supersets exactly when v runs over subsets
            assert e == oracle_external(ts, tf, full) == internally_approximates(ds, df)
            i_row, e_row = i_row | i << j, e_row | e << j
            if m <= 2:
                for kind in ApproxKind:
                    verdict = relate(s, f, kind)
                    assert verdict is oracle_relation(kind, ts, tf, full) is relate(v, w, kind)
                for op, law in laws:
                    assert op(s, f).tau() == {law(a, b) for a in ts for b in tf} == op(v, w).tau()
        rows.append((i_row, e_row))
    for kind_rows in zip(*rows):  # preorders: a row holds the row of each of its members
        for row in kind_rows:
            assert all(kind_rows[j] | row == row for j in range(len(rows)) if row >> j & 1)
