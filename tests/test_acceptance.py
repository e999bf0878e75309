"""End-to-end acceptance checks, one test per promised behavior.

Runs standalone: pytest tests/test_acceptance.py -v
Each test asserts its facts at full precision (bit-exact matrices,
exact fractions) and prints a single PASS line, visible under -s, with
the headline numbers.  Timed checks assert their budgets explicitly.
"""

import json
import random
import time
from fractions import Fraction
from itertools import islice

import pytest

import helpers
from softsets import (
    SoftSet,
    check_relation_correctness,
    complement,
    duplicate_attribute,
    equivalent,
    externally_approximates,
    gravity,
    gravity_domination,
    internally_approximates,
    intersection,
    max_similarity_over_orderings,
    oracle_complement,
    oracle_intersection,
    oracle_product,
    oracle_similarity,
    oracle_union,
    probe_conjecture,
    product,
    similarity,
    soft_set_to_document,
    union,
)
from softsets.cli import main as cli_main
from helpers import fam


@pytest.fixture(scope="module")
def small_sets():
    """Everything up to three elements and three attributes: 14 + 84 + 584."""
    return {u: helpers.all_soft_sets(u, 3) for u in helpers.UNIVERSES}


@pytest.fixture(scope="module")
def tiny_sets():
    """The width-capped slice used for pairwise exhaustion: 6 + 20 + 72."""
    return {u: helpers.all_soft_sets(u, 2) for u in helpers.UNIVERSES}


def test_c01_matrix_render_exact_and_fast():
    timings = []
    for _ in range(5):
        s = SoftSet(
            ("a", "b", "c"),
            ("x", "y", "z"),
            {"x": {"b", "c"}, "y": {"c"}, "z": {"a"}},
        )
        start = time.perf_counter()
        m = s.to_matrix()
        timings.append(time.perf_counter() - start)
        assert m == ((0, 0, 1), (1, 0, 0), (1, 1, 0))
    best = min(timings)
    assert best < 0.001
    print(f"criterion 1: PASS, matrix bit-exact, best render {best * 1e6:.1f} us")


def test_c02_complement_matrix_exact(abc_f):
    m = complement(abc_f).to_matrix()
    assert m == ((1, 1, 0), (0, 1, 1), (0, 0, 1))
    print("criterion 2: PASS, complement matrix bit-exact")


def test_c03_union_block_matrix_exact(abc_f, abc_g4):
    u = union(abc_f, abc_g4)
    assert u.to_matrix() == (
        (1, 0, 0, 1, 1, 0, 0, 1, 1, 1, 1, 1),
        (1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0),
        (1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1),
    )
    assert u.attributes == tuple(
        f"({a},{b})" for a in ("x", "y", "z") for b in ("m", "n", "o", "p")
    )
    print("criterion 3: PASS, 3x12 union matrix bit-exact, left-outer column order")


def test_c04_product_matrix_exact(pair_f, pair_g):
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
    assert p.universe[0] == "(a,a)"
    assert p.universe[-1] == "(c,c)"
    print("criterion 4: PASS, 9x4 product matrix bit-exact, rows (a,a)..(c,c)")


def test_c05_operation_families(abc_f, abc_g):
    assert union(abc_f, abc_g).tau() == fam(
        {"a", "b", "c"}, {"b", "c"}, {"a", "c"}, {"c"}, {"a"}
    )
    assert product(abc_f, abc_g).tau() == fam(
        {"(b,a)", "(c,a)"},
        {"(b,c)", "(c,c)"},
        {"(c,a)"},
        {"(c,c)"},
        {"(a,a)"},
        {"(a,c)"},
    )
    assert complement(abc_f).tau() == fam({"a"}, {"a", "b"}, {"b", "c"})
    # The intersection family genuinely contains the empty set: the pair
    # (x,m) attains it, and a family collects every attained value.  Any
    # listing of this family without the empty member describes a
    # different family; the literal one is asserted here on purpose.
    assert intersection(abc_f, abc_g).tau() == fam((), {"a"}, {"c"})
    print("criterion 5: PASS, all four operation families exact, empty member kept")


def test_c06_similarity_suite(sim_pair, five_pair, small_sets):
    start = time.monotonic()
    assert similarity(*sim_pair) == Fraction(2, 3)
    assert similarity(*five_pair) == Fraction(3, 5)

    flipped = 0
    for s in islice(iter(small_sets[("e1", "e2", "e3")]), 100):
        assert similarity(s, complement(s)) == 0
        flipped += 1
    assert flipped == 100

    pairs = 0
    for sets in small_sets.values():
        for i, s in enumerate(sets):
            assert similarity(s, s) == 1
            for f in sets[i + 1 :]:
                q = similarity(s, f)
                assert 0 <= q <= 1
                assert q == similarity(f, s)
                pairs += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30
    print(
        f"criterion 6: PASS, 2/3 and 3/5 exact, 100 complements at 0, "
        f"{pairs} pairs bounded+symmetric in {elapsed:.1f}s"
    )


def test_c07_best_ordering_alignment(two_cover_pair):
    s, f = two_cover_pair
    assert similarity(s, f) == Fraction(1, 3)
    assert max_similarity_over_orderings(s, f) == 1
    print("criterion 7: PASS, best-ordering similarity exactly 1 from raw 1/3")


def test_c08_gravity_totals_and_domination(heavy_pair):
    s, f = heavy_pair
    totals = (sum(gravity(s).values()), sum(gravity(f).values()))
    assert totals == (5, 4)
    # the wider operand's total exceeds the narrower one's, so comparing
    # summed gravities refuses to order this pair
    assert not totals[0] <= totals[1]
    # yet the pointwise predicate holds in the witness direction and is
    # reported as such in both directions
    assert gravity_domination(s, f) is True
    assert gravity_domination(f, s) is True
    print("criterion 8: PASS, totals 5 vs 4, sum order fails, pointwise holds")


def test_c09_oracle_agreement(tiny_sets):
    start = time.monotonic()
    complements = 0
    for sets in tiny_sets.values():
        for s in sets:
            assert complement(s) == oracle_complement(s)
            complements += 1
    binary_pairs = 0
    for sets in tiny_sets.values():
        for s in sets:
            for f in sets:
                assert union(s, f) == oracle_union(s, f)
                assert intersection(s, f) == oracle_intersection(s, f)
                assert product(s, f) == oracle_product(s, f)
                binary_pairs += 1
    assert complements == 98
    assert binary_pairs == 36 + 400 + 5184

    rng = random.Random(20260816)
    for _ in range(10_000):
        size = rng.randint(1, 6)
        universe = tuple(f"u{i}" for i in range(size))

        def draw(prefix):
            width = rng.randint(1, 5)
            attributes = tuple(f"{prefix}{j}" for j in range(width))
            return SoftSet(
                universe,
                attributes,
                {
                    a: frozenset(e for e in universe if rng.random() < 0.5)
                    for a in attributes
                },
            )

        s, f = draw("a"), draw("b")
        assert similarity(s, f) == oracle_similarity(s, f)
    elapsed = time.monotonic() - start
    assert elapsed < 60
    print(
        f"criterion 9: PASS, {binary_pairs} operation pairs and 10000 random "
        f"similarities agree with the set-form oracles in {elapsed:.1f}s"
    )


def test_c10_algebraic_laws(small_sets, tiny_sets):
    for sets in small_sets.values():
        for s in sets:
            assert complement(complement(s)) == s

    for sets in tiny_sets.values():
        for i, s in enumerate(sets):
            for f in sets[i:]:
                assert union(s, f).tau() == union(f, s).tau()
                assert intersection(s, f).tau() == intersection(f, s).tau()

    for universe in (("e1",), ("e1", "e2")):
        sets = tiny_sets[universe]
        for s in sets:
            for f in sets:
                for g in sets:
                    assert union(union(s, f), g).tau() == union(s, union(f, g)).tau()
                    assert (
                        intersection(intersection(s, f), g).tau()
                        == intersection(s, intersection(f, g)).tau()
                    )

    # Three elements: first verify, for every width<=2 pair, that the
    # result family is exactly the pairwise-combination of the operand
    # families.  Given that, a result's role in a longer chain depends
    # only on its family, so checking associativity once per triple of
    # distinct families covers every triple of width<=2 operands.
    x3 = ("e1", "e2", "e3")
    sets3 = tiny_sets[x3]
    for s in sets3:
        for f in sets3:
            assert union(s, f).tau() == frozenset(
                v | w for v in s.tau() for w in f.tau()
            )
            assert intersection(s, f).tau() == frozenset(
                v & w for v in s.tau() for w in f.tau()
            )

    def canon(family):
        ordered = sorted(family, key=lambda b: (len(b), tuple(sorted(b))))
        names = tuple(f"c{i}" for i in range(len(ordered)))
        return SoftSet(x3, names, dict(zip(names, ordered)))

    def memoized(op):
        table = {}

        def apply(t1, t2):
            key = (t1, t2)
            if key not in table:
                table[key] = op(canon(t1), canon(t2)).tau()
            return table[key]

        return apply

    families = sorted(
        {s.tau() for s in sets3},
        key=lambda t: sorted((len(b), tuple(sorted(b))) for b in t),
    )
    assert len(families) == 36
    join = memoized(union)
    meet = memoized(intersection)
    triples = 0
    for t1 in families:
        for t2 in families:
            for t3 in families:
                assert join(join(t1, t2), t3) == join(t1, join(t2, t3))
                assert meet(meet(t1, t2), t3) == meet(t1, meet(t2, t3))
                triples += 1
    assert triples == 36**3
    print(
        "criterion 10: PASS, double complement, commutativity, and "
        "associativity hold across the enumerations"
    )


def test_c11_rewrites_move_similarity_but_not_family_relations(abc_f, abc_g):
    universe = ("a", "b")
    s = SoftSet(universe, ("x",), {"x": {"a"}})
    f = SoftSet(universe, ("y",), {"y": {"a"}})
    assert similarity(s, f) == 1
    doubled = duplicate_attribute(s, "x", "x2")
    assert equivalent(s, doubled)
    assert similarity(doubled, f) == Fraction(3, 4)

    probes = probe_conjecture(s, f, trials=100, seed=0)
    moved = [p for p in probes if p.differs]
    assert moved, "no rewrite moved the similarity score"

    for relation in (equivalent, internally_approximates, externally_approximates):
        report = check_relation_correctness(
            relation, abc_f, abc_g, rewrite_count=1000, seed=0
        )
        assert report.verdict == "Invariant"
        assert report.trials == 1000
    print(
        f"criterion 11: PASS, {len(moved)}/100 probes moved the score while "
        "the family relations stayed invariant over 1000 rewrites each"
    )


def test_c12_cli_round_trip_and_similarity(tmp_path, capsys, sim_pair):
    count = 0
    for s in islice(helpers.all_soft_sets(("e1", "e2", "e3"), 2), 50):
        document = json.dumps(soft_set_to_document(s))
        source = tmp_path / f"set{count}.json"
        source.write_text(document)

        assert cli_main(["matrix", str(source), "--json"]) == 0
        matrix_file = tmp_path / f"matrix{count}.json"
        matrix_file.write_text(capsys.readouterr().out)

        assert (
            cli_main(
                [
                    "from-matrix",
                    str(matrix_file),
                    "--universe", json.dumps(list(s.universe)),
                    "--attributes", json.dumps(list(s.attributes)),
                    "--json",
                ]
            )
            == 0
        )
        rebuilt = capsys.readouterr().out
        assert rebuilt == document + "\n"
        count += 1
    assert count == 50

    s, f = sim_pair
    left = tmp_path / "left.json"
    right = tmp_path / "right.json"
    left.write_text(json.dumps(soft_set_to_document(s)))
    right.write_text(json.dumps(soft_set_to_document(f)))
    assert cli_main(["sim", str(left), str(right)]) == 0
    out = capsys.readouterr().out
    assert out.split()[0] == "2/3"
    print("criterion 12: PASS, 50 byte-identical round trips, sim prints 2/3")
