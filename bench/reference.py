"""Set-form reference answers the benchmark checks the library against.

Everything here works on plain value sets: a soft set is read through
its public `universe`, `attributes` and `value()` accessors, or given as
a generated spec, and never through a bit matrix.  The algebra and
similarity references come from `softsets.oracle`; the rest are written
out here from the definitions, with a different algorithm where the
library's own is a search (sim-max uses a subset DP, not permutations).
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction


def digest(text: str | bytes) -> str:
    if isinstance(text, str):
        text = text.encode()
    return hashlib.sha256(text).hexdigest()


class Sets:
    """A soft set as (universe, attributes, attribute -> frozenset)."""

    __slots__ = ("universe", "attributes", "values")

    def __init__(self, universe, attributes, values):
        self.universe = tuple(universe)
        self.attributes = tuple(attributes)
        self.values = {a: frozenset(values[a]) for a in self.attributes}

    @classmethod
    def of(cls, s) -> "Sets":
        return cls(s.universe, s.attributes, {a: s.value(a) for a in s.attributes})

    def tau(self) -> frozenset:
        return frozenset(self.values.values())

    def document(self) -> dict:
        """The soft set JSON document, values listed in universe order."""
        return {
            "universe": list(self.universe),
            "attributes": list(self.attributes),
            "values": {
                a: [e for e in self.universe if e in self.values[a]]
                for a in self.attributes
            },
        }


# ---------------------------------------------------------------------------
# core and analysis


def canonicalize(s: Sets) -> Sets:
    """Attributes sorted by (column read top to bottom, name)."""

    def key(a):
        v = s.values[a]
        return tuple(1 if e in v else 0 for e in s.universe), a

    return Sets(s.universe, sorted(s.attributes, key=key), s.values)


def gravity(s: Sets) -> dict:
    return {a: len(s.values[a]) for a in s.attributes}


def gravity_domination(s: Sets, f: Sets) -> bool:
    sources = [w for w in s.values.values() if w]
    return all(any(w <= v for w in sources) for v in f.values.values() if v)


def sim_max(s: Sets, f: Sets) -> Fraction:
    """Best padded similarity over orderings of the narrower side.

    Agreement of two columns is m - |symmetric difference|; the best
    assignment of narrow columns to the first p wide positions is found
    by a DP over subsets of narrow columns.
    """
    m = len(s.universe)
    wide, narrow = (s, f) if len(s.attributes) >= len(f.attributes) else (f, s)
    w = [wide.values[a] for a in wide.attributes]
    c = [narrow.values[a] for a in narrow.attributes]
    n, p = len(w), len(c)
    tail = sum(m - len(col) for col in w[p:])
    best = {0: 0}
    for mask in range(1 << p):
        if mask not in best:
            continue
        j = bin(mask).count("1")
        if j == p:
            continue
        for k in range(p):
            if not mask >> k & 1:
                nxt = mask | 1 << k
                got = best[mask] + m - len(w[j] ^ c[k])
                if got > best.get(nxt, -1):
                    best[nxt] = got
    return Fraction(best[(1 << p) - 1] + tail, m * n)


# ---------------------------------------------------------------------------
# relations


def min_family(s: Sets) -> frozenset:
    fam = s.tau()
    return frozenset(b for b in fam if b and not any(c and c < b for c in fam))


def max_family(s: Sets) -> frozenset:
    fam = s.tau()
    x = frozenset(s.universe)
    return frozenset(b for b in fam if b != x and not any(c != x and c > b for c in fam))


def _internal(s: Sets, f: Sets) -> bool:
    sources = [w for w in s.tau() if w]
    return all(any(w <= v for w in sources) for v in f.tau() if v)


def _external(s: Sets, f: Sets) -> bool:
    x = frozenset(s.universe)
    sources = [w for w in s.tau() if w != x]
    return all(any(w >= v for w in sources) for v in f.tau() if v != x)


def _both(rel):
    return lambda s, f: rel(s, f) and rel(f, s)


def _strict(rel):
    return lambda s, f: rel(s, f) and not rel(f, s)


RELATIONS = {
    "equal": lambda s, f: s.values == f.values,
    "equivalent": lambda s, f: s.tau() == f.tau(),
    "internal": _internal,
    "external": _external,
    "strict-internal": _strict(_internal),
    "strict-external": _strict(_external),
    "internal-equiv": _both(_internal),
    "external-equiv": _both(_external),
    "weak-equiv": lambda s, f: _both(_internal)(s, f) and _both(_external)(s, f),
}


# ---------------------------------------------------------------------------
# prober output


def rewrites_keep_tau(s, rewritten) -> bool:
    base = Sets.of(s)
    return all(
        r.universe == base.universe and Sets.of(r).tau() == base.tau() for r in rewritten
    )


def probes_ok(lib, s, f, trials: int, probes) -> bool:
    """Every probe is a tau-preserving rewrite scored as the oracle scores it."""
    base = lib.oracle_similarity(s, f)
    return len(probes) == trials and all(
        p.original == (s, f)
        and p.original_similarity == base
        and rewrites_keep_tau(s, [p.rewritten[0]])
        and rewrites_keep_tau(f, [p.rewritten[1]])
        and p.rewritten_similarity == lib.oracle_similarity(*p.rewritten)
        for p in probes
    )


def report_ok(kind: str, s, f, trials: int, report) -> bool:
    """Every reported violation is genuine and keeps tau; the verdict matches."""
    rel = RELATIONS[kind]
    base = rel(Sets.of(s), Sets.of(f))
    for v in report.violations:
        s2, f2 = v.rewritten
        if not (
            v.original_result == base
            and v.rewritten_result != base
            and rel(Sets.of(s2), Sets.of(f2)) == v.rewritten_result
            and rewrites_keep_tau(s, [s2])
            and rewrites_keep_tau(f, [f2])
        ):
            return False
    verdict = "ViolationFound" if report.violations else "Invariant"
    return report.trials == trials and report.relation_name == kind and report.verdict == verdict


# ---------------------------------------------------------------------------
# CLI output, as the softset command prints it


def fraction_text(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _subset(v) -> str:
    return "{" + ", ".join(sorted(v)) + "}"


def soft_set_out(s: Sets, as_json: bool) -> str:
    if as_json:
        return json.dumps(s.document()) + "\n"
    lines = ["universe:   " + ", ".join(s.universe), "attributes: " + ", ".join(s.attributes)]
    lines += [f"{a} -> {_subset(s.values[a])}" for a in s.attributes]
    return "\n".join(lines) + "\n"


def family_out(family, as_json: bool) -> str:
    ordered = sorted(family, key=lambda b: (len(b), tuple(sorted(b))))
    if as_json:
        return json.dumps([sorted(b) for b in ordered]) + "\n"
    return "{" + ", ".join(_subset(b) for b in ordered) + "}\n"


def matrix_out(s: Sets, as_json: bool) -> str:
    rows = [[1 if e in s.values[a] else 0 for a in s.attributes] for e in s.universe]
    if as_json:
        return json.dumps(rows) + "\n"
    return "".join(" ".join(map(str, r)) + "\n" for r in rows)


def fraction_out(q: Fraction, as_json: bool) -> str:
    if as_json:
        return json.dumps({"similarity": fraction_text(q)}) + "\n"
    return f"{fraction_text(q)} ({float(q):.6g})\n"


def gravity_out(s: Sets, as_json: bool) -> str:
    g = gravity(s)
    if as_json:
        return json.dumps(g) + "\n"
    return "".join(f"{a}: {k}\n" for a, k in g.items())


def relate_out(kind: str, result: bool, as_json: bool) -> str:
    if as_json:
        return json.dumps({"kind": kind, "result": result}) + "\n"
    return ("true" if result else "false") + "\n"


def invariant_check_out(kind: str, trials: int, as_json: bool) -> str:
    """check-correctness output for a relation that depends on tau alone."""
    if as_json:
        doc = {"relation": kind, "trials": trials, "verdict": "Invariant", "violations": []}
        return json.dumps(doc) + "\n"
    return f"{kind}: Invariant (trials={trials}, violations=0)\n"


def probe_out(probes, as_json: bool) -> str:
    base = fraction_text(probes[0].original_similarity)
    differing = [p for p in probes if p.original_similarity != p.rewritten_similarity]
    if as_json:
        doc = {
            "trials": len(probes),
            "differing": len(differing),
            "original_similarity": base,
            "probes": [
                {
                    "rewritten": [Sets.of(r).document() for r in p.rewritten],
                    "rewritten_similarity": fraction_text(p.rewritten_similarity),
                    "differs": p.original_similarity != p.rewritten_similarity,
                }
                for p in probes
            ],
        }
        return json.dumps(doc) + "\n"
    lines = [f"trials: {len(probes)}", f"original similarity: {base}", f"differing: {len(differing)}"]
    lines += [f"  {base} -> {fraction_text(p.rewritten_similarity)}" for p in differing[:5]]
    return "\n".join(lines) + "\n"
