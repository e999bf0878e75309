"""Command line front end over the library: JSON documents in, text or JSON out.

Every soft-set-producing command emits, under --json, exactly the
document shape every soft-set-consuming command accepts, so commands
compose through pipes with `-` standing for standard input.  Output is
deterministic for fixed argv, inputs, and seed.

Exit codes: 0 success, 1 domain, input-data or output error, 2 usage error.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from collections import namedtuple
from importlib import import_module
from operator import attrgetter

from .core import (ApproxKind, SoftSet, SoftSetError, _first_repeat,
                   soft_set_from_document, soft_set_to_document)

__all__ = ["main", "run"]


# ---------------------------------------------------------------------------
# input

def _loads(text: str, source: str, invalid: str):
    """json.loads, with bad JSON (an integer past the interpreter's digit limit
    included), overdeep nesting and a key repeated in one object as one-line
    errors."""
    def unique(pairs: list) -> dict:
        found = dict(pairs)
        if len(found) != len(pairs):
            key = _first_repeat(name for name, _ in pairs)
            raise SoftSetError(f"{source} repeats the key {key!r} in one JSON object")
        return found

    try:
        return json.loads(text, object_pairs_hook=unique)
    except RecursionError:
        raise SoftSetError(f"{source} nests JSON too deeply to parse") from None
    except SoftSetError:  # a repeated key, already worded
        raise
    except ValueError as exc:  # JSONDecodeError, or int() refusing over 4300 digits
        raise SoftSetError(f"{invalid}: {exc}") from None


def _read(path: str):
    """The parsed JSON of a FILE operand; `-` is standard input."""
    source = "stdin" if path == "-" else path
    try:
        if path == "-":
            if sys.stdin is None:
                raise OSError("closed at start")
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except OSError as exc:
        raise SoftSetError(f"cannot read {source}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise SoftSetError(f"{source} is not valid UTF-8: {exc}") from None
    return _loads(text, source, f"{source} is not valid JSON")


# ---------------------------------------------------------------------------
# calls that need more than a library function; each imports what it uses,
# so a command loads only the modules it calls

def _echo(s: SoftSet) -> SoftSet:
    return s


def _from_matrix(rows, universe: str, attributes: str) -> SoftSet:
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise SoftSetError("matrix input must be a JSON array of row arrays")
    universe = _loads(universe, "--universe", "--universe is not a JSON array")
    attributes = _loads(attributes, "--attributes", "--attributes is not a JSON array")
    return SoftSet.from_matrix(universe, attributes, rows)


def _relate(s: SoftSet, f: SoftSet, kind: str) -> tuple[str, bool]:
    from .relations import relate

    return kind, relate(s, f, ApproxKind(kind))


def _check(s: SoftSet, f: SoftSet, kind: str, trials: int, seed: int):
    if trials < 1:  # the library's own message names its parameter, rewrite_count
        raise SoftSetError("trials must be at least 1")
    from .relations import check_relation_correctness, equal, equivalent, relate

    relation = {"equal": equal, "equivalent": equivalent}.get(kind)
    if relation is None:
        approx = ApproxKind(kind)
        relation = lambda s, f: relate(s, f, approx)
    return check_relation_correctness(relation, s, f, rewrite_count=trials, seed=seed, name=kind)


# ---------------------------------------------------------------------------
# emitters: each returns (text lines, JSON value); soft sets inside the
# JSON value become documents only when it is dumped

_dumps = json.JSONEncoder(default=soft_set_to_document).encode


def _subset_str(subset: frozenset[str]) -> str:
    return "{" + ", ".join(sorted(subset)) + "}"


def _soft_set(s: SoftSet):
    lines = ["universe:   " + ", ".join(s.universe), "attributes: " + ", ".join(s.attributes)]
    lines += [f"{a} -> {_subset_str(s.value(a))}" for a in s.attributes]
    return lines, s


def _family(family):
    ordered = sorted(family, key=lambda b: (len(b), tuple(sorted(b))))
    return ["{" + ", ".join(map(_subset_str, ordered)) + "}"], [sorted(b) for b in ordered]


def _fraction_str(q) -> str:
    """Always "num/den", reduced; str(Fraction) would drop the /1."""
    return f"{q.numerator}/{q.denominator}"


def _fraction(q):
    text = _fraction_str(q)
    return [f"{text} ({float(q):.6g})"], {"similarity": text}


def _matrix(rows: tuple[tuple[int, ...], ...]):
    return [" ".join(map(str, row)) for row in rows], rows


def _gravity(counts: dict[str, int]):
    return [f"{name}: {count}" for name, count in counts.items()], counts


def _verdict(kind_result: tuple[str, bool]):
    kind, result = kind_result
    return ["true" if result else "false"], {"kind": kind, "result": result}


def _report(r):
    violations = [
        {"rewritten": v.rewritten, "original_result": v.original_result,
         "rewritten_result": v.rewritten_result}
        for v in r.violations
    ]
    lines = [f"{r.relation_name}: {r.verdict} "
             f"(trials={r.trials}, violations={len(violations)})"]
    lines += [
        f"  {v.original_result} -> {v.rewritten_result} on "
        + " | ".join(_dumps(x) for x in v.rewritten)
        for v in r.violations[:3]
    ]
    return lines, {"relation": r.relation_name, "trials": r.trials, "verdict": r.verdict,
                   "violations": violations}


def _probes(probes):
    base = _fraction_str(probes[0].original_similarity)
    rows = [
        {"rewritten": p.rewritten,
         "rewritten_similarity": _fraction_str(p.rewritten_similarity),
         "differs": p.differs}
        for p in probes
    ]
    differing = [r for r in rows if r["differs"]]
    lines = [f"trials: {len(rows)}", f"original similarity: {base}",
             f"differing: {len(differing)}"]
    lines += [f"  {base} -> {r['rewritten_similarity']}" for r in differing[:5]]
    return lines, {"trials": len(rows), "differing": len(differing),
                   "original_similarity": base, "probes": rows}


# ---------------------------------------------------------------------------
# the command table
#
# One row per subcommand.  operands holds one loader per FILE argument,
# applied to its parsed JSON (from-matrix keeps the raw rows); call names
# "module.attr" in the package, imported only when the command runs, and
# gets the loaded operands plus each option as a keyword argument; emit
# turns the result into (text lines, JSON value).

Command = namedtuple("Command", "operands call emit help options", defaults=({},))

_ONE = (soft_set_from_document,)
_TWO = _ONE * 2
_OPERAND_HELP = {1: ["soft set JSON document, or - for stdin"],
                 2: ["left soft set document", "right soft set document"]}
_KINDS = [kind.value for kind in ApproxKind]
_MATRIX_NAMES = {
    "universe": {"required": True,
                 "help": 'row names as a JSON array, e.g. \'["a","b","c"]\''},
    "attributes": {"required": True, "help": "column names as a JSON array"},
}
_SEED = {"type": int, "default": 0}

_COMMANDS = {name: Command(*row) for name, row in {
    "show": (_ONE, "cli._echo", _soft_set, "echo a validated soft set"),
    "tau": (_ONE, "core.SoftSet.tau", _family, "print the family of value subsets"),
    "matrix": (_ONE, "core.SoftSet.to_matrix", _matrix, "print the 0/1 matrix"),
    "canonicalize": (_ONE, "core.SoftSet.canonicalize", _soft_set,
                     "sort attributes by column bits"),
    "complement": (_ONE, "algebra.complement", _soft_set, "value-wise complement"),
    "gravity": (_ONE, "analysis.gravity", _gravity, "per-attribute column sums"),
    "min-family": (_ONE, "relations.min_family", _family, "inclusion-minimal nonempty values"),
    "max-family": (_ONE, "relations.max_family", _family, "inclusion-maximal proper values"),
    "from-matrix": ((_echo,), "cli._from_matrix", _soft_set,
                    "rebuild a soft set from a matrix", _MATRIX_NAMES),
    "union": (_TWO, "algebra.union", _soft_set, "pairwise unions over A x B"),
    "intersect": (_TWO, "algebra.intersection", _soft_set, "pairwise intersections over A x B"),
    "product": (_TWO, "algebra.product", _soft_set, "cartesian product over X x X"),
    "sim": (_TWO, "analysis.similarity", _fraction, "exact similarity fraction"),
    "sim-max": (_TWO, "analysis.max_similarity_over_orderings", _fraction,
                "similarity maximized over column order"),
    "relate": (_TWO, "cli._relate", _verdict, "approximation/equivalence verdict",
               {"kind": {"required": True, "choices": _KINDS}}),
    "check-correctness": (
        _TWO, "cli._check", _report, "probe a relation with family-preserving rewrites",
        {"kind": {"required": True, "choices": ["equal", "equivalent"] + _KINDS},
         "trials": {"type": int, "default": 1000}, "seed": _SEED}),
    "probe-conjecture": (
        _TWO, "analysis.probe_conjecture", _probes,
        "record similarity across family-preserving rewrites",
        {"trials": {"type": int, "default": 100}, "seed": _SEED}),
}.items()}


def _build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser for argv: only the named subparser when argv[0] is a
    command, every subparser for help and for usage errors."""
    names = argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS
    parser = argparse.ArgumentParser(
        prog="softset",
        description="Soft sets as binary matrices: operations, relations, similarity.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name in names:
        command = _COMMANDS[name]
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--json", action="store_true", help="emit machine-readable JSON")
        for help_text in _OPERAND_HELP[len(command.operands)]:
            p.add_argument("files", action="append", metavar="FILE", help=help_text)
        for option, settings in command.options.items():
            p.add_argument("--" + option, **settings)
    return parser


def _resolve(call: str):
    """The callable named "module.attr"; cli is this module, even run as __main__."""
    module, _, attr = call.partition(".")
    home = sys.modules[__name__] if module == "cli" else import_module(f".{module}", __package__)
    return attrgetter(attr)(home)


def _write(text: str) -> int:
    """Write text to stdout and flush it: 0, or 1 with one error line."""
    try:  # a stream closed at start, a reader gone, or a name the encoding cannot carry
        if sys.stdout is None:
            raise OSError("closed at start")
        print(text, end="", flush=True)
    except (OSError, ValueError) as exc:  # UnicodeEncodeError is a ValueError
        print(f"softset: cannot write output: {exc}", file=sys.stderr)
        if isinstance(exc, OSError) and sys.stdout is not None:
            # the exit flush then drops what is left (the signal docs' note on SIGPIPE)
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    stdout, sys.stdout = sys.stdout, io.StringIO()  # what argparse prints goes out through _write
    try:
        args = _build_parser(argv).parse_args(argv)
    except SystemExit as exc:  # help, or a usage error already on stderr
        args, code = None, 0 if exc.code in (0, None) else int(exc.code)
    finally:
        printed, sys.stdout = sys.stdout.getvalue(), stdout
    if args is None:  # argparse prints to stdout only help, which exits 0
        return _write(printed) if printed else code
    command = _COMMANDS[args.command]
    docs = {}  # each path parsed once, so two `-` operands see the same document
    try:
        operands = []
        for load, path in zip(command.operands, args.files):
            if path not in docs:
                docs[path] = _read(path)
            operands.append(load(docs[path]))
        options = {option: getattr(args, option) for option in command.options}
        lines, value = command.emit(_resolve(command.call)(*operands, **options))
    except SoftSetError as exc:
        print(f"softset: {exc}", file=sys.stderr)
        return 1
    return _write(_dumps(value) + "\n" if args.json else "".join(line + "\n" for line in lines))


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
