"""Command line behavior: output shapes, pipes, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import os
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from softsets import SoftSet, soft_set_to_document
from softsets.cli import _COMMANDS, _build_parser, _fraction_str, main


@pytest.fixture
def doc_path(tmp_path):
    def write(name, soft_set):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(soft_set_to_document(soft_set)))
        return str(path)

    return write


@pytest.fixture
def f_path(doc_path, abc_f):
    return doc_path("f", abc_f)


@pytest.fixture
def g_path(doc_path, abc_g):
    return doc_path("g", abc_g)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDisplay:
    def test_show_pretty(self, capsys, f_path):
        code, out, err = run(capsys, "show", f_path)
        assert code == 0 and err == ""
        assert out.splitlines() == [
            "universe:   a, b, c",
            "attributes: x, y, z",
            "x -> {b, c}",
            "y -> {c}",
            "z -> {a}",
        ]

    def test_show_json_round_trips(self, capsys, f_path, abc_f):
        code, out, _ = run(capsys, "show", f_path, "--json")
        assert code == 0
        assert json.loads(out) == soft_set_to_document(abc_f)

    def test_matrix_pretty(self, capsys, f_path):
        _, out, _ = run(capsys, "matrix", f_path)
        assert out == "0 0 1\n1 0 0\n1 1 0\n"

    def test_matrix_json(self, capsys, f_path):
        _, out, _ = run(capsys, "matrix", f_path, "--json")
        assert json.loads(out) == [[0, 0, 1], [1, 0, 0], [1, 1, 0]]

    def test_tau_sorted_by_size_then_name(self, capsys, f_path):
        _, out, _ = run(capsys, "tau", f_path)
        assert out == "{{a}, {c}, {b, c}}\n"

    def test_tau_json(self, capsys, f_path):
        _, out, _ = run(capsys, "tau", f_path, "--json")
        assert json.loads(out) == [["a"], ["c"], ["b", "c"]]

    def test_gravity_pretty_and_json(self, capsys, g_path):
        _, out, _ = run(capsys, "gravity", g_path)
        assert out == "m: 1\nn: 1\no: 1\n"
        _, out, _ = run(capsys, "gravity", g_path, "--json")
        assert json.loads(out) == {"m": 1, "n": 1, "o": 1}

    def test_families(self, capsys, f_path):
        _, out, _ = run(capsys, "min-family", f_path)
        assert out == "{{a}, {c}}\n"
        _, out, _ = run(capsys, "max-family", f_path)
        assert out == "{{a}, {b, c}}\n"


class TestOperations:
    def test_complement_emits_a_document(self, capsys, f_path):
        _, out, _ = run(capsys, "complement", f_path, "--json")
        doc = json.loads(out)
        assert doc["values"]["x"] == ["a"]
        assert doc["values"]["y"] == ["a", "b"]

    def test_union_pipes_into_tau(self, capsys, tmp_path, f_path, g_path, monkeypatch):
        _, out, _ = run(capsys, "union", f_path, g_path, "--json")
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        code, out, _ = run(capsys, "tau", "-")
        assert code == 0
        assert out == "{{a}, {c}, {a, c}, {b, c}, {a, b, c}}\n"

    def test_stdin_used_for_both_operands(self, capsys, f_path, monkeypatch):
        with open(f_path) as handle:
            monkeypatch.setattr("sys.stdin", io.StringIO(handle.read()))
        code, out, _ = run(capsys, "sim", "-", "-")
        assert code == 0
        assert out.split()[0] == "1/1"

    def test_intersect_keeps_empty_family_member(self, capsys, f_path, g_path):
        _, out, _ = run(capsys, "intersect", f_path, g_path)
        doc_line = out.splitlines()[2]
        assert doc_line == "(x,m) -> {}"

    def test_product_universe_labels(self, capsys, f_path, g_path):
        _, out, _ = run(capsys, "product", f_path, g_path, "--json")
        doc = json.loads(out)
        assert doc["universe"][:3] == ["(a,a)", "(a,b)", "(a,c)"]
        assert len(doc["universe"]) == 9

    def test_canonicalize_sorts_columns(self, capsys, doc_path):
        s = SoftSet(("a", "b"), ("x", "y"), {"x": {"a", "b"}, "y": {"a"}})
        _, out, _ = run(capsys, "canonicalize", doc_path("s", s), "--json")
        assert json.loads(out)["attributes"] == ["y", "x"]

    def test_from_matrix_rebuilds(self, capsys, tmp_path, f_path, abc_f):
        _, out, _ = run(capsys, "matrix", f_path, "--json")
        mpath = tmp_path / "m.json"
        mpath.write_text(out)
        code, out, _ = run(
            capsys,
            "from-matrix",
            str(mpath),
            "--universe", '["a","b","c"]',
            "--attributes", '["x","y","z"]',
            "--json",
        )
        assert code == 0
        assert json.loads(out) == soft_set_to_document(abc_f)

    def test_from_matrix_validates_flags(self, capsys, tmp_path):
        mpath = tmp_path / "m.json"
        mpath.write_text("[[1]]")
        # an integer past the interpreter's 4300-digit limit is bad JSON like any other
        for universe, attributes in (("nope", "[]"), ('["a"]', "[" + "1" * 5000 + "]")):
            code, out, err = run(capsys, "from-matrix", str(mpath),
                                 "--universe", universe, "--attributes", attributes)
            assert (code, out) == (1, "") and err.count("\n") == 1
            assert err.startswith("softset: --") and "is not a JSON array: " in err


class TestVerdictsAndReports:
    def test_relate_pretty_and_json(self, capsys, f_path, g_path):
        code, out, _ = run(capsys, "relate", f_path, g_path, "--kind", "internal")
        assert code == 0 and out == "true\n"
        _, out, _ = run(
            capsys, "relate", f_path, g_path, "--kind", "strict-internal", "--json"
        )
        assert json.loads(out) == {"kind": "strict-internal", "result": False}

    def test_sim_pretty_leads_with_the_fraction(self, capsys, f_path, g_path):
        _, out, _ = run(capsys, "sim", f_path, g_path)
        assert out.split()[0] == "4/9"
        _, out, _ = run(capsys, "sim", f_path, g_path, "--json")
        assert json.loads(out) == {"similarity": "4/9"}

    def test_sim_max_reports_the_best_ordering(self, capsys, doc_path, two_cover_pair):
        s, f = two_cover_pair
        spath, fpath = doc_path("s", s), doc_path("t", f)
        _, out, _ = run(capsys, "sim-max", spath, fpath)
        assert out.split()[0] == "1/1"

    def test_check_correctness_invariant(self, capsys, f_path, g_path):
        for kind in ("equivalent", "internal"):  # a relation, and an approximation kind
            code, out, _ = run(
                capsys,
                "check-correctness", f_path, g_path,
                "--kind", kind, "--trials", "100",
            )
            assert code == 0
            assert out == f"{kind}: Invariant (trials=100, violations=0)\n"

    def test_check_correctness_violation_json(self, capsys, f_path):
        code, out, _ = run(
            capsys,
            "check-correctness", f_path, f_path,
            "--kind", "equal", "--trials", "60", "--json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["relation"] == "equal"
        assert report["verdict"] == "ViolationFound"
        assert report["violations"]
        first = report["violations"][0]
        assert first["original_result"] != first["rewritten_result"]

    def test_probe_conjecture_reports_differing_scores(self, capsys, doc_path):
        u = ("a", "b")
        s = SoftSet(u, ("x",), {"x": {"a"}})
        f = SoftSet(u, ("y",), {"y": {"a"}})
        code, out, _ = run(
            capsys,
            "probe-conjecture", doc_path("s", s), doc_path("t", f),
            "--trials", "40", "--seed", "0",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "trials: 40"
        assert lines[1] == "original similarity: 1/1"
        assert lines[2].startswith("differing: ")
        assert int(lines[2].split()[1]) > 0

    def test_probe_conjecture_json_shape(self, capsys, f_path, g_path):
        _, out, _ = run(
            capsys,
            "probe-conjecture", f_path, g_path,
            "--trials", "10", "--json",
        )
        report = json.loads(out)
        assert report["trials"] == 10
        assert len(report["probes"]) == 10
        assert report["original_similarity"] == "4/9"
        for probe in report["probes"]:
            assert set(probe) == {"rewritten", "rewritten_similarity", "differs"}


class TestFractionStr:
    def test_always_renders_a_slash(self):
        assert _fraction_str(Fraction(2, 3)) == "2/3"
        assert _fraction_str(Fraction(1)) == "1/1"
        assert _fraction_str(Fraction(0, 5)) == "0/1"
        assert _fraction_str(Fraction(2, 4)) == "1/2"


class TestFailureModes:
    def test_unknown_command_is_a_usage_error(self, capsys, f_path):
        code, _, err = run(capsys, "explode", f_path)
        assert code == 2
        assert "invalid choice" in err

    def test_missing_subcommand(self, capsys):
        assert run(capsys, *[])[0] == 2

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "show", "/nonexistent/q.json")
        assert code == 1
        assert err.startswith("softset: cannot read")

    def test_malformed_json_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        code, _, err = run(capsys, "show", str(path))
        assert code == 1
        assert "not valid JSON" in err

    def test_domain_error_from_document(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"universe": ["a", "a"], "attributes": [], "values": {}}')
        code, _, err = run(capsys, "show", str(path))
        assert code == 1
        assert "repeats" in err

    def test_repeated_element_is_a_one_line_error(self, capsys, tmp_path):
        path = tmp_path / "twice.json"
        path.write_text('{"universe": ["a"], "attributes": ["x"], "values": {"x": ["a", "a"]}}')
        code, out, err = run(capsys, "show", str(path))
        assert code == 1 and out == ""
        assert err == "softset: value of 'x' lists 'a' twice\n"

    def test_universe_mismatch_across_operands(self, capsys, doc_path):
        s = SoftSet(("a",), ("x",), {"x": {"a"}})
        f = SoftSet(("b",), ("y",), {"y": {"b"}})
        code, _, err = run(capsys, "sim", doc_path("s", s), doc_path("t", f))
        assert code == 1
        assert "universes differ" in err

    def test_relate_requires_a_kind(self, capsys, f_path, g_path):
        assert run(capsys, "relate", f_path, g_path)[0] == 2

    def test_similarity_domain_error(self, capsys, doc_path):
        s = SoftSet(("a",), (), {})
        path = doc_path("s", s)
        code, _, err = run(capsys, "sim", path, path)
        assert code == 1
        assert "similarity needs" in err

    @pytest.mark.parametrize("trials", ["0", "-1"])
    @pytest.mark.parametrize("command", [["check-correctness", "--kind", "equal"],
                                         ["probe-conjecture"]], ids=lambda c: c[0])
    def test_trials_below_one_names_the_flag(self, capsys, f_path, g_path, command, trials):
        argv = [command[0], f_path, g_path, *command[1:], "--trials", trials]
        assert run(capsys, *argv) == (1, "", "softset: trials must be at least 1\n")

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"\xff\xfe{", "is not valid UTF-8"),
            (b"[" * 100000 + b"]" * 100000, "nests JSON too deeply"),
            (b"[" + b"1" * 5000 + b"]", "is not valid JSON: Exceeds the limit"),
            (b'{"universe": ["a"], "universe": ["b"], "attributes": [], "values": {}}',
             "repeats the key 'universe' in one JSON object"),
            (b'{"universe": ["a", "b"], "attributes": ["x"], "values": {"x": ["a"], "x": ["b"]}}',
             "repeats the key 'x' in one JSON object"),
        ],
        ids=["not-utf8", "deep-nesting", "long-integer", "repeated-key", "repeated-value-key"],
    )
    @pytest.mark.parametrize("via", ["file", "stdin"])
    def test_unreadable_input_is_a_one_line_error(
        self, capsys, tmp_path, monkeypatch, data, message, via
    ):
        path = tmp_path / "input.json"
        path.write_bytes(data)
        if via == "stdin":
            stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
            monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run(capsys, "show", "-" if via == "stdin" else str(path))
        assert (code, out) == (1, "")
        assert err.startswith("softset: ") and message in err
        assert err.count("\n") == 1

    def test_closed_stdin_is_a_one_line_error(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", None)  # how Python starts with descriptor 0 closed
        code, out, err = run(capsys, "show", "-")
        assert (code, out) == (1, "")
        assert err.startswith("softset: cannot read stdin: ")
        assert err.count("\n") == 1

    def test_deeply_nested_flag_is_a_one_line_error(self, capsys, tmp_path):
        mpath = tmp_path / "m.json"
        mpath.write_text("[[1]]")
        deep = "[" * 5000 + "]" * 5000
        code, _, err = run(
            capsys, "from-matrix", str(mpath), "--universe", deep, "--attributes", '["x"]'
        )
        assert code == 1
        assert err == "softset: --universe nests JSON too deeply to parse\n"


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("tau", "{f}"),
            ("union", "{f}", "{g}", "--json"),
            ("check-correctness", "{f}", "{g}", "--kind", "equivalent", "--trials", "50"),
            ("probe-conjecture", "{f}", "{g}", "--trials", "20", "--seed", "4", "--json"),
        ],
    )
    def test_identical_invocations_emit_identical_bytes(
        self, capsys, f_path, g_path, argv
    ):
        argv = [a.format(f=f_path, g=g_path) for a in argv]
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second
        assert first[0] == 0


# One invocation per subcommand on the abc_f/abc_g fixtures; {m} is abc_f's matrix.
EVERY_COMMAND = {
    "show": ("{f}",),
    "tau": ("{f}",),
    "matrix": ("{f}",),
    "canonicalize": ("{f}",),
    "complement": ("{f}",),
    "gravity": ("{g}",),
    "min-family": ("{f}",),
    "max-family": ("{f}",),
    "from-matrix": (
        "{m}", "--universe", '["a","b","c"]', "--attributes", '["x","y","z"]'
    ),
    "union": ("{f}", "{g}"),
    "intersect": ("{f}", "{g}"),
    "product": ("{f}", "{g}"),
    "sim": ("{f}", "{g}"),
    "sim-max": ("{f}", "{g}"),
    "relate": ("{f}", "{g}", "--kind", "internal"),
    "check-correctness": ("{f}", "{f}", "--kind", "equal", "--trials", "20"),
    "probe-conjecture": ("{f}", "{g}", "--trials", "10", "--seed", "2"),
}

# the package modules each command loads beyond softsets, softsets.cli and softsets.core
FOOTPRINT = {
    **dict.fromkeys(["show", "tau", "matrix", "canonicalize", "from-matrix"], set()),
    **dict.fromkeys(["complement", "union", "intersect", "product"], {"softsets.algebra"}),
    **dict.fromkeys(["gravity", "sim", "sim-max"], {"softsets.analysis"}),
    **dict.fromkeys(["relate", "min-family", "max-family", "check-correctness"],
                    {"softsets.relations"}),
    "probe-conjecture": {"softsets.analysis", "softsets.relations"},
}

# sha256 over every command's default then --json stdout, in table order
EVERY_COMMAND_SHA256 = (
    "4ea3de5c625187a11d6c3d6b66e7fda5de30fdaa37be2c9eab5ea3cfea464aff"
)


class TestEveryCommand:
    @pytest.fixture
    def operands(self, tmp_path, f_path, g_path):
        m_path = tmp_path / "m.json"
        m_path.write_text("[[0, 0, 1], [1, 0, 0], [1, 1, 0]]")
        return {"f": f_path, "g": g_path, "m": str(m_path)}

    def argv(self, name, operands):
        return [name] + [a.format(**operands) for a in EVERY_COMMAND[name]]

    def test_table_names_every_subcommand(self, capsys):
        _, _, err = run(capsys, "explode")
        listed = err.split("choose from ", 1)[1].strip().rstrip(")")
        assert [c.strip(" '") for c in listed.split(",")] == list(EVERY_COMMAND)

    @pytest.mark.parametrize("name", list(EVERY_COMMAND))
    def test_styles(self, capsys, operands, name):
        argv = self.argv(name, operands)
        code, _, err = run(capsys, *argv)
        assert code == 0 and err == ""
        code, out, err = run(capsys, *argv, "--json")
        assert code == 0 and err == ""
        json.loads(out)

    def test_output_bytes_are_pinned(self, capsys, operands):
        digest = hashlib.sha256()
        for name in EVERY_COMMAND:
            for style in ((), ("--json",)):
                digest.update(run(capsys, *self.argv(name, operands), *style)[1].encode())
        assert digest.hexdigest() == EVERY_COMMAND_SHA256

    @pytest.mark.parametrize("name", list(EVERY_COMMAND))
    def test_loads_only_the_modules_it_calls(self, operands, name):
        # a fresh interpreter per command, compared with what it loaded before the CLI
        done = helpers.fresh_python(
            "-c", "import contextlib, io, sys; before = set(sys.modules)\n"
            "from softsets.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()): code = main()\n"
            "print(code, *sorted(set(sys.modules) - before))",
            *self.argv(name, operands))
        code, *added = done.stdout.split()
        assert code == "0" and done.stderr == ""
        assert {m for m in added if m.startswith("softsets")} == {
            "softsets", "softsets.cli", "softsets.core", *FOOTPRINT[name]}
        # fractions serves the similarity scores, dataclasses the correctness report
        assert ("fractions" in added) == ("softsets.analysis" in FOOTPRINT[name])
        assert ("dataclasses" in added) == ("softsets.relations" in FOOTPRINT[name])


def _parse(parser, argv):
    """The parsed options or the exit code, then stdout and stderr, of parser on argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    *([name, *tail] for name in _COMMANDS for tail in (
        EVERY_COMMAND[name], ["--help"], [], ["--bogus", "x"], ["--json", "--pretty", "x"])),
    [], ["--help"], ["bogus"], ["-h", "show"],
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_one_subparser_parses_as_the_full_parser(argv):
    assert _parse(_build_parser(argv), argv) == _parse(_build_parser(), argv)


def test_a_command_builds_only_its_own_subparser():
    for name in _COMMANDS:
        code, _, err = _parse(_build_parser([name]), ["explode"])
        assert code == 2 and err.rstrip().endswith(f"(choose from {name!r})")


class TestStrictBits:
    @pytest.mark.parametrize("entry", ["true", "false", "1.0", "0.0"])
    def test_from_matrix_takes_integer_bits_only(self, capsys, tmp_path, entry):
        mpath = tmp_path / "m.json"
        mpath.write_text(f"[[{entry}, 0]]")
        code, out, err = run(
            capsys,
            "from-matrix", str(mpath),
            "--universe", '["a"]', "--attributes", '["x","y"]',
        )
        assert code == 1 and out == ""
        assert err.startswith("softset: matrix entries must be 0 or 1")
        assert len(err.splitlines()) == 1


def test_module_entry_point_runs_the_cli(capsys, f_path, g_path):
    argv = ["sim", f_path, g_path, "--json"]
    main(argv)
    expected = capsys.readouterr().out
    done = helpers.fresh_python("-m", "softsets.cli", *argv, text=False)
    assert done.returncode == 0
    assert done.stdout.decode() == expected


@pytest.mark.parametrize(
    "encoding, element", [("utf-8", "\ud800"), ("ascii", "\u00e9")], ids=["surrogate", "ascii"])
def test_output_the_stream_cannot_encode_is_one_error_line(doc_path, encoding, element):
    path = doc_path("odd", SoftSet(("a", element), ("x",), {"x": {"a"}}))
    command = ["-m", "softsets.cli", "show", path]
    done = helpers.fresh_python(*command, text=False, PYTHONIOENCODING=encoding)
    assert done.returncode == 1 and done.stdout == b""
    assert done.stderr.decode().startswith("softset: cannot write output: ")
    assert len(done.stderr.splitlines()) == 1
    as_json = helpers.fresh_python(*command, "--json", text=False, PYTHONIOENCODING=encoding)
    assert as_json.returncode == 0 and as_json.stderr == b""


# a stand-in for `exec >&-`: close descriptor 1, then run the rest of argv
_CLOSE_STDOUT = ("import os, sys; os.close(1); "
                 "os.execv(sys.executable, [sys.executable, *sys.argv[1:]])")


def _unwritable(stream, unbuffered, *argv):
    """softset run on argv with stdout closed at start or on a pipe nobody reads."""
    command = ["-m", "softsets.cli", *argv]
    if stream == "closed":
        return helpers.fresh_python("-c", _CLOSE_STDOUT, *command, PYTHONUNBUFFERED=unbuffered)
    read_end, write_end = os.pipe()  # the read end is closed first, so every write fails
    os.close(read_end)
    try:
        return helpers.fresh_python(*command, stdout=write_end, PYTHONUNBUFFERED=unbuffered)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("style", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("stream", ["broken-pipe", "closed"])
def test_output_nobody_can_take_is_one_error_line(f_path, stream, style, unbuffered):
    done = _unwritable(stream, unbuffered, "show", f_path, *style)
    assert done.returncode == 1
    assert done.stderr.startswith("softset: cannot write output: ")
    assert len(done.stderr.splitlines()) == 1


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [["--help"], ["show", "--help"]], ids=" ".join)
@pytest.mark.parametrize("stream", ["broken-pipe", "closed"])
def test_help_nobody_can_take_is_one_error_line(stream, argv, unbuffered):
    # argparse prints help itself; it must go through the same guarded write
    done = _unwritable(stream, unbuffered, *argv)
    assert done.returncode == 1
    assert done.stderr.startswith("softset: cannot write output: ")
    assert len(done.stderr.splitlines()) == 1


@pytest.mark.parametrize("argv, usage", [(["--help"], "usage: softset [-h] command"),
                                         (["show", "--help"], "usage: softset show [-h]")],
                         ids=["--help", "show --help"])
def test_help_goes_to_stdout(argv, usage):
    done = helpers.fresh_python("-m", "softsets.cli", *argv)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith(usage)


def test_cli_imports_only_the_standard_library():
    # compared with what the interpreter loaded before, since site may
    # preload third-party packages of its own
    script = ("import sys; before = set(sys.modules); import softsets.cli; "
              "print(*sorted(set(sys.modules) - before))")
    done = helpers.fresh_python("-c", script)
    added = done.stdout.split()
    assert "softsets.cli" in added
    roots = {name.partition(".")[0] for name in added}
    assert roots - sys.stdlib_module_names == {"softsets"}


# ---------------------------------------------------------------------------
# fuzz: whatever the argv and the input bytes, main answers with an exit code

# now and then an integer past the interpreter's 4300-digit limit on int()
_BYTES = (st.binary(max_size=40) | helpers.json_values.map(json.dumps).map(str.encode)
          | st.sampled_from([b"1" * 4301, b"[[" + b"9" * 5000 + b"]]"]))
_FLAG = st.text(max_size=6) | helpers.json_values.map(json.dumps)


def _repeat_a_key(draw, doc: dict) -> str:
    """The JSON text of doc with one key written twice, its own or, if it has
    a values object, one of that; json.dumps never writes such a text."""
    values = doc.get("values")
    inner = isinstance(values, dict) and values and draw(st.booleans())
    target = dict(values if inner else doc)
    key = draw(st.sampled_from(sorted(target)))
    target["\0twice"] = target[key]  # a stand-in no drawn key can equal
    text = json.dumps({**doc, "values": target} if inner else target)
    return text.replace(json.dumps("\0twice"), json.dumps(key), 1)


@st.composite
def _invocations(draw):
    """An argv over the command table, plus the bytes of each operand and of stdin.

    Operands are one well-formed soft set (its matrix for from-matrix), a
    near miss of it, or arbitrary bytes; most name flags fit it too, so the
    commands get past their checks often enough to run.
    """
    name = draw(st.sampled_from(sorted(_COMMANDS)))
    command = _COMMANDS[name]
    good = draw(helpers.soft_sets(max_universe=3, max_width=3))
    fitting = json.loads(json.dumps(good.to_matrix() if name == "from-matrix"
                                    else soft_set_to_document(good)))

    def operand():  # a near miss half the time, else the good one or arbitrary bytes
        pick = draw(st.integers(0, 3))
        if pick == 3:
            return draw(_BYTES)
        doc = helpers.near(draw, fitting) if pick else fitting
        if isinstance(doc, dict) and doc and not draw(st.integers(0, 4)):
            return _repeat_a_key(draw, doc).encode()
        return json.dumps(doc).encode()

    argv, files = [name], {}
    for i in range(len(command.operands)):
        if draw(st.booleans()):
            argv.append("-")
        else:
            argv.append(f"operand{i}.json")
            files[argv[-1]] = operand()
    for option, settings_ in command.options.items():
        if "choices" in settings_:
            value = draw(st.sampled_from(settings_["choices"]) | st.text(max_size=6))
        elif settings_.get("type") is int:
            value = str(draw(st.integers(-2, 4) if option == "trials" else st.integers()))
        else:  # --universe, --attributes
            value = json.dumps(getattr(good, option)) if draw(st.integers(0, 9)) else draw(_FLAG)
        if draw(st.integers(0, 9)):  # now and then leave a required option out
            argv += ["--" + option, value]
    # --pretty is no flag of any command: a usage error one draw in six
    argv += draw(st.sampled_from([[], [], [], ["--json"], ["--json"], ["--pretty"]]))
    return argv, files, operand()


@settings(max_examples=200, deadline=None)
@given(_invocations())
def test_main_answers_any_input_with_an_exit_code(tmp_path_factory, invocation):
    argv, files, stdin = invocation
    folder = tmp_path_factory.mktemp("fuzz")
    for path, data in files.items():
        (folder / path).write_bytes(data)
    argv = [str(folder / arg) if arg in files else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.object(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin), "utf-8")):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
    elif code == 1:
        assert out.getvalue() == ""
        assert err.startswith("softset: ") and err.count("\n") == 1
