"""Closed-loop driver, span tracer and metric computation shared by all workloads.

One client in one process sends the next request only after the last
one returned.  Each request is timed on its own; the window is the sum
of request times, so answer checks, digests and trace write-out between
requests never count against the program.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import os
import platform
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_fresh():
    """Drop every loaded softsets module and import the package anew."""
    for name in [m for m in sys.modules if m == "softsets" or m.startswith("softsets.")]:
        del sys.modules[name]
    return importlib.import_module("softsets")


# ---------------------------------------------------------------------------
# tracing


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The untraced run: spans cost one method call and record nothing."""

    recording = False
    request = -1

    def span(self, name, units=1):
        return _NULL_SPAN


class Tracer:
    """In-memory spans: [name, start, end, parent index, request id, units]."""

    recording = True

    def __init__(self):
        self.spans: list[list] = []
        self.request = -1
        self._open: list[int] = []

    def span(self, name, units=1):
        return _Span(self, name, units)

    def self_times(self):
        """(name, self seconds, units) per span; self = duration minus children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [
            (sp[0], sp[2] - sp[1] - child[i], sp[5]) for i, sp in enumerate(self.spans)
        ]


class _Span:
    __slots__ = ("tracer", "name", "units", "index")

    def __init__(self, tracer, name, units):
        self.tracer, self.name, self.units = tracer, name, units

    def __enter__(self):
        t = self.tracer
        parent = t._open[-1] if t._open else -1
        self.index = len(t.spans)
        t.spans.append([self.name, perf_counter(), 0.0, parent, t.request, self.units])
        t._open.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = perf_counter()
        t._open.pop()
        return False


# ---------------------------------------------------------------------------
# the closed loop


class Pass:
    """What one pass over the request cycle issued, how long each took, and what came back.

    Answers are kept once per cycle entry, plus any repeat that differs
    from the first, so the benchmark's own memory does not grow with the
    number of requests and leak into peak_rss_mb.
    """

    def __init__(self):
        self.issued: list[int] = []
        self.latency: list[float] = []
        self.first: dict = {}  # cycle entry -> summary of its first answer
        self.others: list = []  # (cycle entry, summary) of repeats unlike the first
        self.errors: list[str] = []

    @property
    def busy(self) -> float:
        return sum(self.latency)

    def record(self, idx, seconds, summary):
        self.issued.append(idx)
        self.latency.append(seconds)
        if idx not in self.first:
            self.first[idx] = summary
        elif summary != self.first[idx]:
            self.others.append((idx, summary))


def drive(wl, tracer, *, seconds: float | None = None, count: int | None = None) -> Pass:
    """Issue cycle entries 0, 1, 2, ... for `count` requests, or for `seconds` of request time.

    A timed pass stops only at the end of a cycle, the one that brings its
    request time closest to `seconds`, so every cycle entry has the same
    weight in the latency percentiles wherever the window ends.
    """
    out = Pass()
    size = len(wl.cycle)
    busy, i = 0.0, 0
    while i < count if count is not None else (
        i % size or not i or busy + busy / (i // size) / 2 < seconds
    ):
        idx = i % size
        tracer.request = i
        t0 = perf_counter()
        try:
            with tracer.span("request"):
                result = wl.run(idx, tracer)
        except Exception as exc:  # a raised request is a failed answer, not a crash
            dt = perf_counter() - t0
            if len(out.errors) < 5:
                out.errors.append(f"request {i} (cycle {idx}): {traceback.format_exc(limit=3)}")
            summary = ("raised", type(exc).__name__, str(exc))
        else:
            dt = perf_counter() - t0
            summary = wl.summarize(idx, result, tracer)
        out.record(idx, dt, summary)
        busy += dt
        i += 1
    return out


def failures(wl, *passes: Pass) -> list[int]:
    """Cycle entries of the requests whose answer differs from the reference answer."""
    expected = {idx: wl.expected(idx) for idx in sorted({i for p in passes for i in p.first})}
    bad = []
    for p in passes:
        repeats = Counter(p.issued)
        repeats.subtract(idx for idx, _ in p.others)
        bad += [idx for idx, got in p.first.items() if got != expected[idx] for _ in range(repeats[idx])]
        bad += [idx for idx, got in p.others if got != expected[idx]]
    return sorted(bad)


# ---------------------------------------------------------------------------
# metrics


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def timed_setup(wl, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        wl.setup()
        times.append(perf_counter() - t0)
    return statistics.median(times)


# per-call layer metrics: (metric, span name, scale of self-time per unit, unit)
LAYER_RATES = [
    ("core.validate_ns_per_cell", "core.validate", 1e9, "ns"),
    ("core.to_matrix_ns_per_cell", "core.to_matrix", 1e9, "ns"),
    ("core.from_matrix_ns_per_cell", "core.from_matrix", 1e9, "ns"),
    ("core.emit_ns_per_cell", "core.emit", 1e9, "ns"),
    ("core.construct_us", "core.construct", 1e6, "us"),
    ("algebra.complement_ns_per_cell", "algebra.complement", 1e9, "ns"),
    ("algebra.union_ns_per_cell", "algebra.union", 1e9, "ns"),
    ("algebra.intersection_ns_per_cell", "algebra.intersection", 1e9, "ns"),
    ("algebra.product_ns_per_cell", "algebra.product", 1e9, "ns"),
    ("analysis.similarity_ns_per_cell", "analysis.similarity", 1e9, "ns"),
    ("analysis.sim_max_ms", "analysis.sim_max", 1e3, "ms"),
    ("analysis.gravity_us", "analysis.gravity", 1e6, "us"),
    ("analysis.probe_trial_us", "analysis.probe", 1e6, "us"),
    ("relations.relate_us", "relations.relate", 1e6, "us"),
    ("relations.family_us", "relations.family", 1e6, "us"),
    ("relations.check_trial_us", "relations.check", 1e6, "us"),
    ("relations.variant_us", "relations.variant", 1e6, "us"),
    ("cli.parse_ns_per_byte", "cli.parse", 1e9, "ns"),
]
MODULES = ("core", "algebra", "analysis", "relations", "cli")


def rates(tracer: Tracer) -> dict:
    """Layer self time per unit of work, for every span name that occurred."""
    seconds: dict[str, float] = {}
    units: dict[str, float] = {}
    for name, self_s, n in tracer.self_times():
        seconds[name] = seconds.get(name, 0.0) + self_s
        units[name] = units.get(name, 0) + n
    return {
        metric: (seconds[span] / units[span] * scale, unit)
        for metric, span, scale, unit in LAYER_RATES
        if units.get(span)
    }


def busy_shares(tracer: Tracer) -> dict:
    """Share of request time spent in each module's spans (self time).

    Spans outside a request, such as the traced run's from_matrix
    replay, count toward no share.
    """
    total = sum(sp[2] - sp[1] for sp in tracer.spans if sp[0] == "request")
    per = dict.fromkeys(MODULES, 0.0)
    for sp, (name, self_s, _) in zip(tracer.spans, tracer.self_times()):
        module = name.split(".", 1)[0]
        if module in per and sp[3] >= 0:
            per[module] += self_s
    return {f"{m}.busy_share": (v / total if total else 0.0, "ratio") for m, v in per.items()}


# ---------------------------------------------------------------------------
# provenance


def git_sha() -> str:
    """HEAD of the checkout's .git, read as files; "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "softsets").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(seed: int, held_out: bool) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "seed": seed,
        "held_out": held_out,
    }
