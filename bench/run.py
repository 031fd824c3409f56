"""One-command benchmark: serving latency, capacity, deploy churn and
crossbar fidelity, end to end and layer by layer.

    PYTHONPATH=src python bench/run.py [--workload W] [--seed S]
        [--seconds T] [--repeat N] [--trace [0|1]] [--smoke] [--out FILE]

Runs each workload from this single-threaded generator process, prints
every metric by name with its unit, and prints as its last line one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
metrics there are the end-to-end metrics of ``BENCHMARK.json``, or with
``--trace`` its per-layer metrics (from one traced run per workload,
made after all the untraced ones, whose Chrome trace goes to
``bench_trace.json``).  Exits non-zero when any correctness check
fails.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Traced per-layer metrics read from spans: metric -> span name (the
#: median span duration, ms).
SPAN_METRICS = {
    "compile.ms": "compiler.compile",
    "program.ms": "executor.program_network",
    "functional.ms": "executor.run_functional",
    "layer.ms": "executor.layer",
}
#: Traced per-layer metrics read from counters: metric -> counter name
#: (the run's total).
COUNTER_METRICS = {
    "functional.runs": "executor.functional_runs",
    "program.cells": "crossbar.program_cells",
    "plan.compiles": "perf.plan.compiles",
    "mvm.invocations": "mvm.invocations",
    "serve.batches": "serve.batches",
}
#: Counter of batches a thread replica ran under the exclusive state
#: lock; divided by ``serve.batches`` it is the serialised share.
SERIALIZED = "serve.dispatch.thread_serialized"
#: Chrome trace of the traced runs, in the working directory.
TRACE_FILE = Path("bench_trace.json")


def _parse(argv: list[str], spec: dict) -> argparse.Namespace:
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--workload",
        choices=[*names, "all"],
        default="all",
        help="workload to run (default: all of them, in order)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds",
        type=float,
        default=float(spec["run_seconds"]),
        help="measured seconds per workload run",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="untraced runs per workload; reports median and quartiles",
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="add a traced run and report per-layer metrics",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="about 1/20 of the run length, for tests",
    )
    parser.add_argument("--out", type=Path, help="write the full result")
    args = parser.parse_args(argv)
    if args.repeat < 1 or args.seconds <= 0:
        parser.error("--repeat must be >= 1 and --seconds > 0")
    if args.smoke:
        args.seconds /= 20
    args.workloads = names if args.workload == "all" else [args.workload]
    return args


def _summary(values: list[float]) -> dict:
    """Median and quartiles of one metric over repeated runs."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "value": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "runs": values,
    }


def traced_metrics(
    session, first: int, before: dict[str, float]
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one workload's traced run: the session's
    spans from index ``first`` on and its counters' growth since
    ``before``, including each network layer's median time
    (``layer.<net>.<i>.ms``, ``i`` counting weight layers within one
    ``run_functional`` call)."""
    spans = session.tracer.spans
    durations = defaultdict(list)
    position: dict[int, int] = defaultdict(int)
    for span in spans[first:]:
        if span.end_ns is None:
            continue
        ms = span.duration_ns / 1e6
        durations[span.name].append(ms)
        if span.name == "executor.layer" and span.parent_index is not None:
            parent = spans[span.parent_index]
            net = str(parent.attrs.get("workload", "?")).lower()
            i = position[parent.index]
            position[parent.index] += 1
            durations[f"layer.{net}.{i}.ms"].append(ms)
    out = {}
    for metric, name in SPAN_METRICS.items():
        values = durations.get(name)
        out[metric] = (statistics.median(values) if values else 0.0, "ms")
    for metric, name in COUNTER_METRICS.items():
        total = session.metrics.counter_total(name) - before[name]
        out[metric] = (total, "count")
    batches = out["serve.batches"][0]
    if batches:
        serialized = (
            session.metrics.counter_total(SERIALIZED) - before[SERIALIZED]
        )
        out["serve.dispatch.serialized_share"] = (
            serialized / batches,
            "ratio",
        )
    for name, values in durations.items():
        if name.startswith("layer."):
            out[name] = (statistics.median(values), "ms")
    return out


def _make_run(args, workloads, trace: bool):
    return workloads.Run(
        seed=args.seed,
        seconds=args.seconds,
        smoke=args.smoke,
        trace=trace,
        build_dir=ROOT / ".bench_build",
    )


def _account(result: dict, outcomes: list) -> None:
    """Add ``outcomes`` to ``result``'s correctness accounting."""
    result["attrs"] += [o.attrs for o in outcomes]
    result["attempted"] += sum(o.attempted for o in outcomes)
    result["failed"] += sum(o.failed for o in outcomes)
    result["errors"] += [e for o in outcomes for e in o.errors]
    result["correct"] = not result["failed"] and not result["errors"]


def run_workload(name: str, args, workloads) -> dict:
    """The untraced runs of one workload, summarised."""
    fn = workloads.WORKLOADS[name]
    outcomes = [
        fn(_make_run(args, workloads, trace=False))
        for _ in range(args.repeat)
    ]
    units = {"failed_share": "ratio"}
    runs = defaultdict(list)
    for outcome in outcomes:
        for metric, (value, unit) in outcome.metrics.items():
            runs[metric].append(value)
            units[metric] = unit
        runs["failed_share"].append(outcome.failed / outcome.attempted)
    result = {
        "attrs": [],
        "attempted": 0,
        "failed": 0,
        "errors": [],
        "metrics": {
            metric: {"unit": units[metric], **_summary(values)}
            for metric, values in runs.items()
        },
    }
    _account(result, outcomes)
    return result


def trace_workloads(args, spec, workloads, telemetry, results) -> None:
    """One traced run per workload, all in one telemetry session: adds
    each workload's per-layer metrics and tracing overhead to its result
    and writes the session's Chrome trace to ``bench_trace.json``."""
    session = telemetry.enable()
    try:
        for name, result in results.items():
            first = len(session.tracer.spans)
            before = {
                counter: session.metrics.counter_total(counter)
                for counter in [*COUNTER_METRICS.values(), SERIALIZED]
            }
            outcome = workloads.WORKLOADS[name](
                _make_run(args, workloads, trace=True)
            )
            metrics = {
                **outcome.metrics,
                **traced_metrics(session, first, before),
            }
            _account(result, [outcome])
            result["traced"] = {
                m: {"value": v, "unit": u} for m, (v, u) in metrics.items()
            }
            result["trace_overhead"] = {
                m["name"]: metrics[m["name"]][0]
                / result["metrics"][m["name"]]["value"]
                for m in spec["end_to_end"]
            }
        telemetry.write_chrome_trace(TRACE_FILE)
    finally:
        telemetry.disable()


def _print(name: str, result: dict) -> None:
    print(
        f"== {name}: {result['attempted']} attempted, "
        f"{result['failed']} failed"
    )
    for metric, m in sorted(result["metrics"].items()):
        spread = ""
        if len(m["runs"]) > 1:
            spread = f"  [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}]"
        print(f"  {metric:44s} {m['value']:14.6g} {m['unit']}{spread}")
    for metric, m in sorted(result.get("traced", {}).items()):
        print(f"  traced {metric:37s} {m['value']:14.6g} {m['unit']}")
    for metric, ratio in result.get("trace_overhead", {}).items():
        print(f"  trace overhead {metric:29s} {ratio:14.4f} traced/untraced")
    for error in result["errors"]:
        print(f"  FAILED {error}")


def _gated(result: dict, trace: bool, spec: dict) -> dict:
    """The metrics BENCHMARK.json names, as the last line reports them."""
    if trace:
        source, names = result["traced"], spec["per_layer"]
    else:
        source, names = result["metrics"], spec["end_to_end"]
    missing = [m["name"] for m in names if m["name"] not in source]
    if missing:
        raise KeyError(f"workload did not report {missing}")
    return {
        m["name"]: {"value": source[m["name"]]["value"], "unit": m["unit"]}
        for m in names
    }


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = _parse(argv, spec)
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    try:
        from repro import telemetry

        import hostinfo
        import workloads
    except ImportError as exc:
        print(f"bench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start
    host = hostinfo.host_block(ROOT)
    print(
        f"host: {host['nproc']} cpus, python {host['python']}, numpy "
        f"{host['numpy']}, {host['blas']}, probe {host['probe']}"
    )
    # End-to-end numbers come from untraced runs, whatever the
    # environment asks of telemetry.
    telemetry.disable()
    results = {
        name: run_workload(name, args, workloads) for name in args.workloads
    }
    if args.trace:
        trace_workloads(args, spec, workloads, telemetry, results)
    for name, result in results.items():
        _print(name, result)
    if args.out:
        args.out.write_text(
            json.dumps(
                {
                    "claim": None,
                    "argv": argv,
                    "seed": args.seed,
                    "seconds": args.seconds,
                    "repeat": args.repeat,
                    "smoke": args.smoke,
                    "trace": bool(args.trace),
                    "trace_file": (
                        str(TRACE_FILE.resolve()) if args.trace else None
                    ),
                    "import_s": import_s,
                    "peak_rss_mb": resource.getrusage(
                        resource.RUSAGE_SELF
                    ).ru_maxrss
                    / 1024,
                    "host": host,
                    "workloads": results,
                },
                indent=1,
            )
        )
    if len(results) == 1:
        metrics = _gated(results[args.workloads[0]], args.trace, spec)
    else:
        metrics = {
            f"{name}/{metric}": value
            for name, result in results.items()
            for metric, value in _gated(result, args.trace, spec).items()
        }
    correct = all(r["correct"] for r in results.values())
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
