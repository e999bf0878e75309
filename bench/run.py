"""softsets benchmark: four closed-loop workloads, checked answers, per-layer tracing.

Run from the root of a checkout (stdlib only; the library is imported from src/):

    python3 bench/run.py --workload doc_build --seed 1 --seconds 20 --trace 0

Workloads (one client, one process; why each exists is in BENCHMARK.json):
  doc_build      JSON text -> parse -> validate -> one operation -> emit JSON text
  pool_query     read-only kernels over a pool built and warmed in set-up
  rewrite_probe  relation checks and similarity probes on thousands of tiny soft sets
  cli_oneshot    one `softset` child process per request, one at a time

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same request
sequence untraced for half the time, then traced for the same requests,
and prints the per-layer metrics; spans go to bench/out/.  --held-out
draws inputs from a stream no tuning run uses, so a claim can be
re-checked on seeds it was not tuned on.  Every answer is checked after
the timed window against set-form references (softsets.oracle and
bench/reference.py).  The last stdout line is the result object; the line
before it records provenance and input-property shares.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from time import perf_counter

import harness
import workloads

OUT = harness.ROOT / "bench" / "out"
PER_LAYER = sorted(
    [m for m, *_ in harness.LAYER_RATES]
    + [f"{m}.busy_share" for m in harness.MODULES]
    + ["relations.distinct_variant_ratio", "cli.import_ms", "cli.main_ms",
       "cli.interpreter_start_ms", "trace.overhead_ratio"],
    key=lambda name: (harness.MODULES + ("trace",)).index(name.split(".")[0]),
)


def end_to_end(wl, seconds):
    setup_s = harness.timed_setup(wl, wl.repeats)
    run = harness.drive(wl, harness.NullTracer(), seconds=seconds)
    who = resource.RUSAGE_CHILDREN if isinstance(wl, workloads.CliOneshot) else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024
    bad = harness.failures(wl, run)
    ms = [t * 1e3 for t in run.latency]
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_rps": (len(run.issued) / run.busy, "1/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p90_ms": (harness.percentile(ms, 0.9), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_ratio": (1 - len(bad) / len(run.issued), "ratio"),
    }
    return metrics, [run], bad


def layer_probe(wl):
    """Trace one request of each kind from the library workloads other than wl.

    A traced run reports every per-layer metric; those whose layer wl
    never calls come from this probe.
    """
    tracer = harness.Tracer()
    ratio = None
    for cls in (workloads.DocBuild, workloads.PoolQuery, workloads.RewriteProbe):
        if isinstance(wl, cls):
            continue
        other = cls(wl.seed, wl.held_out)
        other.setup()
        harness.drive(other, tracer, count=len(cls.KINDS))
        if isinstance(other, workloads.RewriteProbe):
            ratio = other.distinct_variant_ratio()
    return tracer, ratio


def cli_layers(wl, traced):
    """Interpreter start, import and warm cli.main times, from child processes and in-process calls."""
    cli_wl = wl if isinstance(wl, workloads.CliOneshot) else workloads.CliOneshot(wl.seed, wl.held_out)
    try:
        cli_wl.setup()

        def child_ms(code):
            times = []
            for _ in range(5):
                t0 = perf_counter()
                cli_wl.child([sys.executable, "-c", code])
                times.append(perf_counter() - t0)
            return statistics.median(times) * 1e3

        start = child_ms("pass")
        imported = child_ms("import softsets.cli")
        harness.import_fresh()
        import softsets.cli as cli

        main_s = {idx: cli_wl.main_seconds(cli, idx) for idx in range(len(cli_wl.cycle))}
        got = {
            "cli.interpreter_start_ms": (start, "ms"),
            "cli.import_ms": (imported - start, "ms"),
            "cli.main_ms": (statistics.median(main_s.values()) * 1e3, "ms"),
        }
        if cli_wl is wl:
            # share of each process's wall time spent inside cli.main
            share = sum(main_s[idx] for idx in traced.issued) / traced.busy
            got["cli.busy_share"] = (share, "ratio")
        return got
    finally:
        if cli_wl is not wl:
            cli_wl.close()


def per_layer(wl, seconds):
    harness.timed_setup(wl, 1)
    plain = harness.drive(wl, harness.NullTracer(), seconds=seconds / 2)
    tracer = harness.Tracer()
    traced = harness.drive(wl, tracer, count=len(plain.issued))
    bad = harness.failures(wl, plain, traced)

    metrics = harness.rates(tracer)
    metrics.update(harness.busy_shares(tracer))
    ratio = wl.distinct_variant_ratio() if isinstance(wl, workloads.RewriteProbe) else None
    missing = [m for m, *_ in harness.LAYER_RATES if m not in metrics]
    if missing or ratio is None:
        probe, probe_ratio = layer_probe(wl)
        probed = harness.rates(probe)
        metrics.update({m: probed[m] for m in missing})
        ratio = probe_ratio if ratio is None else ratio
    metrics["relations.distinct_variant_ratio"] = (ratio, "ratio")
    metrics.update(cli_layers(wl, traced))
    metrics["trace.overhead_ratio"] = (plain.busy / traced.busy, "ratio")

    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{wl.name}-{wl.stream}-{wl.seed}.jsonl"
    with path.open("w") as handle:
        handle.write(json.dumps(["name", "start", "end", "parent", "request", "units"]) + "\n")
        for span in tracer.spans:
            handle.write(json.dumps(span) + "\n")
    return {name: metrics[name] for name in PER_LAYER}, [plain, traced], bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true", help="draw inputs from the held-out stream")
    args = parser.parse_args(argv)
    if not (harness.SRC / "softsets" / "__init__.py").is_file():
        print(f"bench: no softsets package under {harness.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))

    wl = workloads.WORKLOADS[args.workload](args.seed, args.held_out)
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, passes, bad = measure(wl, args.seconds)
        issued = [idx for p in passes for idx in p.issued]
        meta = harness.provenance(args.seed, args.held_out)
        meta.update(workload=wl.name, trace=args.trace, seconds=args.seconds,
                    samples=len(passes[0].issued), cycle_length=len(wl.cycle),
                    properties=wl.properties(issued))
        errors = [e for p in passes for e in p.errors]
    finally:
        wl.close()

    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6f} {unit}")
    print(f"samples {len(passes[0].issued)}, failed {len(bad)} of {len(issued)}")
    if bad:
        print(f"failed cycle entries: {sorted(set(bad))}", file=sys.stderr)
    for e in errors:
        print(e, file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not bad,
        "attempted": len(issued),
        "failed": len(bad),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
