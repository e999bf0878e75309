"""The four workloads: seeded inputs, the timed request and its reference answer.

Every workload runs a fixed request cycle.  Kinds, sizes, pairings and
their order are the same for every seed; the seed draws only the bits,
the relation kinds and the prober seeds inside the cycle, so runs on
different seeds do comparable work.  Request i of a pass is cycle entry
i mod len(cycle).

A workload object offers:
  cycle                 the requests, as plain data
  setup()               the program calls made before the timed window
  run(idx, tracer)      one timed request
  summarize(idx, out, tracer)   a comparable summary, outside the timing
  expected(idx)         the reference summary, computed after the window
  properties(issued)    input-property shares over the issued requests
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter

import harness
import reference as ref
from reference import Sets, digest

CELL_CAP = 200_000  # output cells of one doc_build binary operation, at most
INVALID = ("reference check failed",)
RELATE_KINDS = (
    "internal", "external", "strict-internal", "strict-external",
    "internal-equiv", "external-equiv", "weak-equiv",
)
CHECK_KINDS = ("equal", "equivalent") + RELATE_KINDS
NAMED_RELATIONS = {
    "equal": "equal",
    "equivalent": "equivalent",
    "internal": "internally_approximates",
    "external": "externally_approximates",
}


def universe_of(m: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(m))


def make_sets(rng, universe, n, density, dup_share=0.0, distinct=False, prefix="a") -> Sets:
    """n random columns; a column copies an earlier one with probability dup_share."""
    columns: list[frozenset] = []
    for j in range(n):
        if j and rng.random() < dup_share:
            columns.append(rng.choice(columns))
            continue
        col = frozenset(e for e in universe if rng.random() < density)
        while distinct and col in columns:
            col = frozenset(e for e in universe if rng.random() < density)
        columns.append(col)
    attributes = [f"{prefix}{j}" for j in range(n)]
    return Sets(universe, attributes, dict(zip(attributes, columns)))


def shares(values) -> dict:
    counts = Counter(values)
    total = sum(counts.values())
    return {str(k): counts[k] / total for k in sorted(counts, key=str)}


def relation_for(lib, kind: str):
    """The relation the CLI's check-correctness runs for `kind`."""
    if kind in NAMED_RELATIONS:
        return getattr(lib, NAMED_RELATIONS[kind])
    approx = lib.ApproxKind(kind)

    def relation(s, f):
        return lib.relate(s, f, approx)

    return relation


def _plain(obj):
    if isinstance(obj, Sets):
        return obj.document()
    return sorted(obj)


class Workload:
    name = ""
    repeats = 5  # set-ups behind setup_s, which reports their median

    def __init__(self, seed: int, held_out: bool = False):
        self.seed = seed
        self.held_out = held_out
        self.stream = "held-out" if held_out else "tuning"
        self.lib = None
        self.cycle = self.build_cycle()

    def rng(self, *parts) -> random.Random:
        """Draws that depend on the seed: bits and prober seeds."""
        return random.Random("/".join(map(str, (self.stream, self.name, self.seed) + parts)))

    def shape_rng(self, *parts) -> random.Random:
        """Draws that fix the work a request does; the same for every seed."""
        return random.Random("/".join(map(str, (self.name,) + parts)))

    def blob(self) -> str:
        """Every generated input, serialized; equal seeds give equal blobs."""
        return json.dumps([self.cycle, getattr(self, "inputs", None)], default=_plain, sort_keys=True)

    def setup(self):
        self.lib = harness.import_fresh()
        self.build()

    def build(self):
        pass

    def summarize(self, idx, out, tracer):
        return out

    def close(self):
        pass


class DocBuild(Workload):
    """JSON text in, one operation, JSON text out; every object is built fresh."""

    name = "doc_build"
    repeats = 9
    KINDS = ("complement", "union", "intersection", "product", "canonicalize", "roundtrip")
    ALGEBRA = ("complement", "union", "intersection", "product")
    MS = (100, 500, 2000)
    NS = (10, 30, 100)
    DENSITIES = (0.1, 0.5, 0.9)
    PRODUCT_M = {100: 10, 500: 20, 2000: 40}
    # (m, n) index order: any three consecutive steps cover every m and every n
    ORDER = ((0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (2, 0), (0, 2), (1, 0), (2, 1))

    def build_cycle(self):
        """Every kind on every (m, n, density) shape.

        The full grid, rather than a sample of it, keeps neighbouring
        request costs a few percent apart, so the latency median does not
        jump between distant entries from one seed to the next.
        """
        cycle = []
        for mi, ni in self.ORDER:
            for density in self.DENSITIES:
                for kind in self.KINDS:
                    cycle.append(self._request(len(cycle), kind, self.MS[mi], self.NS[ni], density))
        return cycle

    def _request(self, idx, kind, m, n, density):
        rng = self.rng(idx)
        rows = m
        if kind == "product":
            m = self.PRODUCT_M[m]
            rows = m * m
        universe = universe_of(m)
        operands = [make_sets(rng, universe, n, density)]
        cols = n
        if kind in ("union", "intersection", "product"):
            p = max(1, min(n, CELL_CAP // (rows * n)))
            operands.append(make_sets(rng, universe, p, density, prefix="b"))
            cols = n * p
        return {
            "kind": kind,
            "density": density,
            "texts": [json.dumps(s.document()) for s in operands],
            "cells": [m * len(s.attributes) for s in operands],
            "out_cells": rows * cols,
        }

    def run(self, idx, tr):
        req = self.cycle[idx]
        lib = self.lib
        operands = []
        for text, cells in zip(req["texts"], req["cells"]):
            with tr.span("cli.parse", len(text)):
                doc = json.loads(text)
            with tr.span("core.validate", cells):
                operands.append(lib.soft_set_from_document(doc))
        kind, cells = req["kind"], req["out_cells"]
        s = operands[0]
        if kind == "canonicalize":
            with tr.span("core.canonicalize", cells):
                result = s.canonicalize()
        elif kind == "roundtrip":
            with tr.span("core.to_matrix", cells):
                matrix = s.to_matrix()
            with tr.span("core.from_matrix", cells):
                result = lib.SoftSet.from_matrix(s.universe, s.attributes, matrix)
        else:
            with tr.span("algebra." + kind, cells):
                result = getattr(lib, kind)(*operands)
        with tr.span("core.emit", cells):
            doc = lib.soft_set_to_document(result)
        with tr.span("cli.dump", cells):
            text = json.dumps(doc)
        return text, result

    def summarize(self, idx, out, tr):
        text, result = out
        req = self.cycle[idx]
        if tr.recording and req["kind"] in self.ALGEBRA:
            # from_matrix replayed from outside on the result's matrix
            matrix = result.to_matrix()
            with tr.span("core.from_matrix", req["out_cells"]):
                self.lib.SoftSet.from_matrix(result.universe, result.attributes, matrix)
        return digest(text)

    def expected(self, idx):
        req = self.cycle[idx]
        operands = [Sets(**json.loads(t)) for t in req["texts"]]
        kind = req["kind"]
        if kind == "canonicalize":
            out = ref.canonicalize(operands[0])
        elif kind == "roundtrip":
            out = operands[0]
        else:
            built = [self.lib.SoftSet(s.universe, s.attributes, s.values) for s in operands]
            out = Sets.of(getattr(self.lib, "oracle_" + kind)(*built))
        return digest(json.dumps(out.document()))

    def properties(self, issued):
        reqs = [self.cycle[i] for i in issued]
        cells = [r["out_cells"] for r in reqs]
        return {
            "kind_share": shares(r["kind"] for r in reqs),
            "density_share": shares(r["density"] for r in reqs),
            "output_cells_per_request": {
                "min": min(cells), "median": statistics.median(cells),
                "mean": statistics.fmean(cells), "max": max(cells),
            },
        }


class PoolQuery(Workload):
    """Read-only queries on a pool built and warmed (one to_matrix each) in set-up."""

    name = "pool_query"
    KINDS = ("similarity", "sim_max", "gravity", "relate", "family", "equality")
    # (m, widths): sim-max draws from the first two groups, which hold every narrow width 1-8
    GROUPS = (
        (40, (1, 2, 3, 4, 5, 6, 7, 8, 12, 24)),
        (200, (1, 2, 3, 4, 5, 6, 7, 8, 16, 40)),
        (1000, (4, 8, 20, 40, 60)),
    )
    DENSITIES = (0.1, 0.5, 0.9)
    DUP_SHARE = 0.3
    ROUNDS = 24  # each narrow width 1-8 gets the same share of sim-max requests

    def build_cycle(self):
        rng = self.rng("pool")
        pool, groups, aliases = [], [], []
        for m, widths in self.GROUPS:
            universe = universe_of(m)
            members = []
            for k, n in enumerate(widths):
                members.append(len(pool))
                pool.append(make_sets(rng, universe, n, self.DENSITIES[k % 3], self.DUP_SHARE))
            base = pool[members[len(members) // 2]]
            first = base.attributes[0]
            reordered = Sets(universe, base.attributes[::-1], base.values)
            widened = Sets(universe, base.attributes + ("dup",), {**base.values, "dup": base.values[first]})
            aliases.append((members[len(members) // 2], len(pool), len(pool) + 1))
            pool += [reordered, widened]
            groups.append(members)
        self.inputs = pool
        cycle = []
        for j in range(self.ROUNDS * len(self.KINDS)):
            kind = self.KINDS[j % len(self.KINDS)]
            r = self.shape_rng("request", j)
            req = {"kind": kind}
            if kind == "sim_max":
                w = 1 + (j // len(self.KINDS)) % 8
                members = groups[(j // len(self.KINDS) // 8) % 2]
                narrow = next(i for i in members if len(pool[i].attributes) == w)
                wide = r.choice([i for i in members if len(pool[i].attributes) >= w])
                a, b = (narrow, wide) if r.random() < 0.5 else (wide, narrow)
                req["narrow"] = w
            elif kind == "equality":
                g = r.randrange(len(groups))
                base, reordered, widened = aliases[g]
                a, b = r.choice([(base, reordered), (base, widened), tuple(r.sample(groups[g], 2))])
            else:
                members = groups[r.randrange(len(groups))]
                a, b = r.choice(members), r.choice(members)
            if kind == "relate":
                req["rel"] = RELATE_KINDS[(j // len(self.KINDS)) % len(RELATE_KINDS)]
            width = max(len(pool[a].attributes), len(pool[b].attributes))
            req.update(a=a, b=b, cells=len(pool[a].universe) * width)
            cycle.append(req)
        return cycle

    def build(self):
        lib = self.lib
        self.sets = []
        for s in self.inputs:
            built = lib.SoftSet(s.universe, s.attributes, s.values)
            built.to_matrix()
            self.sets.append(built)
        self.approx = {k: lib.ApproxKind(k) for k in RELATE_KINDS}

    def run(self, idx, tr):
        req = self.cycle[idx]
        lib = self.lib
        s, f = self.sets[req["a"]], self.sets[req["b"]]
        kind = req["kind"]
        if kind == "similarity":
            with tr.span("analysis.similarity", req["cells"]):
                return lib.similarity(s, f)
        if kind == "sim_max":
            with tr.span("analysis.sim_max"):
                return lib.max_similarity_over_orderings(s, f)
        if kind == "gravity":
            with tr.span("analysis.gravity"):
                g = lib.gravity(s)
            with tr.span("analysis.gravity_domination"):
                return g, lib.gravity_domination(s, f)
        if kind == "relate":
            with tr.span("relations.relate"):
                return lib.relate(s, f, self.approx[req["rel"]])
        if kind == "family":
            with tr.span("relations.family"):
                low = lib.min_family(s)
            with tr.span("relations.family"):
                return low, lib.max_family(s)
        with tr.span("relations.equal"):
            eq = lib.equal(s, f)
        with tr.span("relations.equivalent"):
            return eq, lib.equivalent(s, f)

    def expected(self, idx):
        req = self.cycle[idx]
        s, f = self.inputs[req["a"]], self.inputs[req["b"]]
        kind = req["kind"]
        if kind == "similarity":
            return self.lib.oracle_similarity(self.sets[req["a"]], self.sets[req["b"]])
        if kind == "sim_max":
            return ref.sim_max(s, f)
        if kind == "gravity":
            return ref.gravity(s), ref.gravity_domination(s, f)
        if kind == "relate":
            return ref.RELATIONS[req["rel"]](s, f)
        if kind == "family":
            return ref.min_family(s), ref.max_family(s)
        return ref.RELATIONS["equal"](s, f), ref.RELATIONS["equivalent"](s, f)

    def properties(self, issued):
        reqs = [self.cycle[i] for i in issued]
        columns = sum(len(s.attributes) for s in self.inputs)
        distinct = sum(len(s.tau()) for s in self.inputs)
        return {
            "kind_share": shares(r["kind"] for r in reqs),
            "duplicated_column_share": (columns - distinct) / columns,
            "sim_max_narrow_width_share": shares(r["narrow"] for r in reqs if "narrow" in r),
        }


class RewriteProbe(Workload):
    """Relation checks and similarity probes over thousands of tiny rewritten soft sets."""

    name = "rewrite_probe"
    repeats = 9
    KINDS = CHECK_KINDS + ("probe", "variants")
    # (m, left width, right width, duplicated columns); one-attribute operands
    # and operands with distinct columns make some rewrite moves fall through
    PAIRS = (
        (3, 1, 1, False), (5, 1, 4, True), (8, 3, 3, False), (12, 6, 2, True),
        (20, 10, 10, False), (30, 10, 5, True), (4, 2, 1, True), (16, 4, 8, False),
        (25, 8, 1, True), (10, 5, 5, True), (30, 1, 10, False), (6, 3, 3, True),
    )
    CHECK_TRIALS = 300
    PROBE_TRIALS = 200
    VARIANTS = 300

    def build_cycle(self):
        self.inputs = []
        for k, (m, left, right, dup) in enumerate(self.PAIRS):
            rng = self.rng("pair", k)
            universe = universe_of(m)
            density = (0.3, 0.5, 0.7)[k % 3]
            share = 0.4 if dup else 0.0
            self.inputs.append(tuple(
                make_sets(rng, universe, n, density, share, distinct=not dup, prefix=prefix)
                for n, prefix in ((left, "a"), (right, "b"))
            ))
        n_kinds, n_pairs = len(self.KINDS), len(self.PAIRS)  # coprime: every kind meets every pair
        return [
            {"kind": self.KINDS[j % n_kinds], "pair": j % n_pairs,
             "seed": self.rng("request", j).randrange(2**31)}
            for j in range(n_kinds * n_pairs)
        ]

    def build(self):
        self.relations = {k: relation_for(self.lib, k) for k in CHECK_KINDS}
        self.first = {}

    def run(self, idx, tr):
        req = self.cycle[idx]
        lib = self.lib
        built = []
        for spec in self.inputs[req["pair"]]:
            with tr.span("core.construct"):
                built.append(lib.SoftSet(spec.universe, spec.attributes, spec.values))
        s, f = built
        kind = req["kind"]
        if kind == "probe":
            with tr.span("analysis.probe", self.PROBE_TRIALS):
                out = lib.probe_conjecture(s, f, trials=self.PROBE_TRIALS, seed=req["seed"])
        elif kind == "variants":
            rng = random.Random(req["seed"])
            out = []
            for k in range(self.VARIANTS):
                with tr.span("relations.variant"):
                    out.append(lib.random_equivalent_variant(f if k % 2 else s, rng))
        else:
            with tr.span("relations.check", self.CHECK_TRIALS):
                out = lib.check_relation_correctness(
                    self.relations[kind], s, f,
                    rewrite_count=self.CHECK_TRIALS, seed=req["seed"], name=kind,
                )
        return s, f, out

    @staticmethod
    def _digest(kind, out):
        if kind == "probe":
            key = [(repr(p.rewritten[0]), repr(p.rewritten[1]), p.original_similarity,
                    p.rewritten_similarity) for p in out]
        elif kind == "variants":
            key = [repr(v) for v in out]
        else:
            key = (out.relation_name, out.trials, out.verdict, [
                (repr(v.rewritten[0]), repr(v.rewritten[1]), v.original_result, v.rewritten_result)
                for v in out.violations
            ])
        return digest(repr(key))

    def summarize(self, idx, out, tr):
        self.first.setdefault(idx, out)
        return self._digest(self.cycle[idx]["kind"], out[2])

    def expected(self, idx):
        """The first answer, if it passes the set-form checks; repeats must equal it."""
        if idx not in self.first:
            return INVALID
        s, f, out = self.first[idx]
        kind = self.cycle[idx]["kind"]
        if kind == "probe":
            ok = ref.probes_ok(self.lib, s, f, self.PROBE_TRIALS, out)
        elif kind == "variants":
            ok = len(out) == self.VARIANTS and ref.rewrites_keep_tau(s, out[0::2]) \
                and ref.rewrites_keep_tau(f, out[1::2])
        else:
            ok = ref.report_ok(kind, s, f, self.CHECK_TRIALS, out)
        return self._digest(kind, out) if ok else INVALID

    def distinct_variant_ratio(self):
        """Distinct rewritten pairs per trial over the probe answers seen so far."""
        probes = [out for idx, (_, _, out) in self.first.items() if self.cycle[idx]["kind"] == "probe"]
        distinct = sum(len({(repr(p.rewritten[0]), repr(p.rewritten[1])) for p in out}) for out in probes)
        return distinct / (len(probes) * self.PROBE_TRIALS) if probes else None

    def properties(self, issued):
        reqs = [self.cycle[i] for i in issued]
        operands = [s for pair in self.inputs for s in pair]
        single = sum(len(s.attributes) == 1 for s in operands)
        stuck = sum(len(s.attributes) == 1 or len(s.tau()) == len(s.attributes) for s in operands)
        return {
            "kind_share": shares(r["kind"] for r in reqs),
            "one_attribute_operand_share": single / len(operands),
            "fall_through_operand_share": stuck / len(operands),
        }


class CliOneshot(Workload):
    """One softset process per request, run one after another."""

    name = "cli_oneshot"
    TRIALS = 40
    ENTRY = "import sys; from softsets.cli import main; sys.exit(main())"

    def build_cycle(self):
        rng = self.rng("documents")
        x100, x10, x8 = universe_of(100), universe_of(10), universe_of(8)
        self.inputs = docs = {
            "A": make_sets(rng, x100, 20, 0.5, 0.3),
            "B": make_sets(rng, x100, 4, 0.3, prefix="b"),
            "N": make_sets(rng, x100, 5, 0.5, prefix="c"),
            "P": make_sets(rng, x10, 3, 0.5),
            "Q": make_sets(rng, x10, 2, 0.5, prefix="b"),
            "S": make_sets(rng, x8, 3, 0.5, 0.3),
            "T": make_sets(rng, x8, 4, 0.5, 0.3, prefix="b"),
        }
        a = docs["A"]
        self.relate_kind = rng.choice(RELATE_KINDS)
        # tau-only relations, so the reference verdict is Invariant
        self.check_kind = rng.choice(CHECK_KINDS[1:])
        self.probe_seed = rng.randrange(1000)
        commands = [[c, "A"] for c in (
            "show", "tau", "matrix", "canonicalize", "complement", "gravity", "min-family", "max-family")]
        commands += [
            ["from-matrix", "M", "--universe", json.dumps(list(a.universe)),
             "--attributes", json.dumps(list(a.attributes))],
            ["union", "A", "B"], ["intersect", "A", "B"], ["product", "P", "Q"],
            ["sim", "A", "B"], ["sim-max", "A", "N"],
            ["relate", "A", "B", "--kind", self.relate_kind],
            ["check-correctness", "S", "T", "--kind", self.check_kind,
             "--trials", str(self.TRIALS), "--seed", str(self.probe_seed)],
            ["probe-conjecture", "S", "T", "--trials", str(self.TRIALS), "--seed", str(self.probe_seed)],
        ]
        cycle = []
        for cmd in commands:
            for as_json in (False, True):
                stdin = "A" if cmd[0] == "tau" and not as_json else None
                args = ["-" if stdin and x == "A" else x for x in cmd]
                cycle.append({"args": args + ["--json"] * as_json, "stdin": stdin})
        return cycle

    def _prepare(self):
        """Write the documents and resolve argv; called once, before set-up."""
        if hasattr(self, "argvs"):
            return
        self.work = harness.ROOT / "bench" / ".work" / f"{self.name}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        texts = {k: json.dumps(s.document()) for k, s in self.inputs.items()}
        a = self.inputs["A"]
        texts["M"] = json.dumps([[1 if e in a.values[x] else 0 for x in a.attributes] for e in a.universe])
        paths = {}
        for key, text in texts.items():
            paths[key] = self.work / f"{key}.json"
            paths[key].write_text(text)
        self.texts = texts
        self.env = dict(os.environ, PYTHONPATH=str(harness.SRC))
        self.args = [[str(paths[x]) if x in paths else x for x in r["args"]] for r in self.cycle]
        self.argvs = [[sys.executable, "-c", self.ENTRY] + args for args in self.args]

    def child(self, argv, stdin=None):
        io_args = {"input": stdin.encode()} if stdin is not None else {"stdin": subprocess.DEVNULL}
        return subprocess.run(argv, capture_output=True, cwd=harness.ROOT, env=self.env,
                              timeout=120, **io_args)

    def setup(self):
        self._prepare()
        done = self.child([sys.executable, "-c", "from softsets.cli import main"])
        if done.returncode != 0:
            raise RuntimeError(f"cannot import softsets.cli: {done.stderr.decode(errors='replace')}")

    def run(self, idx, tr):
        stdin = self.cycle[idx]["stdin"]
        with tr.span("cli.process"):
            done = self.child(self.argvs[idx], self.texts[stdin] if stdin else None)
        return done.returncode, done.stdout

    def summarize(self, idx, out, tr):
        return out[0], digest(out[1])

    def expected(self, idx):
        if self.lib is None:
            self.lib = harness.import_fresh()
        text = self._reference(self.cycle[idx]["args"])
        return (0, digest(text)) if text is not None else INVALID

    def _reference(self, args):
        lib, d = self.lib, self.inputs
        cmd, as_json = args[0], "--json" in args

        def built(key):
            s = d[key]
            return lib.SoftSet(s.universe, s.attributes, s.values)

        a = d["A"]
        if cmd in ("show", "from-matrix"):
            return ref.soft_set_out(a, as_json)
        if cmd in ("tau", "min-family", "max-family"):
            family = {"tau": Sets.tau, "min-family": ref.min_family, "max-family": ref.max_family}[cmd](a)
            return ref.family_out(family, as_json)
        if cmd == "matrix":
            return ref.matrix_out(a, as_json)
        if cmd == "canonicalize":
            return ref.soft_set_out(ref.canonicalize(a), as_json)
        if cmd == "gravity":
            return ref.gravity_out(a, as_json)
        if cmd == "complement":
            return ref.soft_set_out(Sets.of(lib.oracle_complement(built("A"))), as_json)
        if cmd in ("union", "intersect"):
            oracle = lib.oracle_union if cmd == "union" else lib.oracle_intersection
            return ref.soft_set_out(Sets.of(oracle(built("A"), built("B"))), as_json)
        if cmd == "product":
            return ref.soft_set_out(Sets.of(lib.oracle_product(built("P"), built("Q"))), as_json)
        if cmd == "sim":
            return ref.fraction_out(lib.oracle_similarity(built("A"), built("B")), as_json)
        if cmd == "sim-max":
            return ref.fraction_out(ref.sim_max(a, d["N"]), as_json)
        if cmd == "relate":
            kind = self.relate_kind
            return ref.relate_out(kind, ref.RELATIONS[kind](a, d["B"]), as_json)
        if cmd == "check-correctness":
            return ref.invariant_check_out(self.check_kind, self.TRIALS, as_json)
        s, f = built("S"), built("T")
        probes = lib.probe_conjecture(s, f, trials=self.TRIALS, seed=self.probe_seed)
        return ref.probe_out(probes, as_json) if ref.probes_ok(lib, s, f, self.TRIALS, probes) else None

    def main_seconds(self, cli, idx, repeats=3):
        """Warm in-process cli.main for cycle entry idx, stdout captured; median of repeats."""
        stdin = self.cycle[idx]["stdin"]
        times = []
        for _ in range(repeats + 1):
            saved = sys.stdin
            sys.stdin = io.StringIO(self.texts[stdin] if stdin else "")
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    t0 = perf_counter()
                    cli.main(list(self.args[idx]))
                    times.append(perf_counter() - t0)
            finally:
                sys.stdin = saved
        return statistics.median(times[1:])

    def properties(self, issued):
        reqs = [self.cycle[i] for i in issued]
        return {
            "subcommand_share": shares(r["args"][0] for r in reqs),
            "json_share": sum("--json" in r["args"] for r in reqs) / len(reqs),
            "stdin_share": sum(r["stdin"] is not None for r in reqs) / len(reqs),
            "max_m": max(len(s.universe) for s in self.inputs.values()),
            "max_n": max(len(s.attributes) for s in self.inputs.values()),
            "argv_prefix": [sys.executable, "-c", self.ENTRY],
            "env": {"PYTHONPATH": "src"},
        }

    def close(self):
        if hasattr(self, "work"):
            shutil.rmtree(self.work, ignore_errors=True)
            with contextlib.suppress(OSError):
                self.work.parent.rmdir()


WORKLOADS = {w.name: w for w in (DocBuild, PoolQuery, RewriteProbe, CliOneshot)}
