"""Smoke test of the benchmark: ``python -m pytest bench/tests``.

Runs ``bench/run.py --smoke`` twice at one seed -- once with a traced
run, once without -- and checks that every metric BENCHMARK.json names
is reported with its unit, that every correctness check passes, that the
traced run writes one Chrome trace, and that the deterministic metrics
(agreement, fidelity gaps and the analytical model's simulated
statistics) repeat exactly.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


def _smoke(tmp: Path, name: str, *extra: str) -> tuple[dict, dict, int]:
    """One smoke run; returns (its --out result, its last line, exit)."""
    out = tmp / f"{name}.json"
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "bench" / "run.py"),
            "--smoke",
            "--seed",
            "3",
            "--out",
            str(out),
            *extra,
        ],
        cwd=tmp,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.stdout, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return json.loads(out.read_text()), last, proc.returncode


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bench")
    return _smoke(tmp, "traced", "--trace"), _smoke(tmp, "plain")


def test_every_named_metric_is_reported_with_its_unit(spec, runs):
    (traced, traced_line, _), (_, plain_line, _) = runs
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        result = traced["workloads"][workload]
        for metric in spec["end_to_end"]:
            reported = result["metrics"][metric["name"]]
            assert reported["unit"] == metric["unit"]
            assert reported["value"] > 0, (workload, metric["name"])
        for metric in spec["per_layer"]:
            assert result["traced"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"]["failed_share"]["value"] == 0
    for line, kind in ((plain_line, "end_to_end"), (traced_line, "per_layer")):
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) == {
            f"{w}/{m['name']}" for w in workloads for m in spec[kind]
        }


def test_correctness_checks_pass(runs):
    for result, line, code in runs:
        assert code == 0
        assert line["correct"] and line["failed"] == 0
        assert line["attempted"] > 0
        for workload in result["workloads"].values():
            assert workload["errors"] == []


def test_traced_run_writes_one_chrome_trace(runs):
    (traced, _, _), _ = runs
    assert Path(traced["trace_file"]).name == "bench_trace.json"
    trace = json.loads(Path(traced["trace_file"]).read_text())
    spans = {e["name"] for e in trace if e.get("ph") == "X"}
    assert {"executor.run_functional", "serve.request"} <= spans


def test_deterministic_metrics_repeat(runs):
    (traced, _, _), (plain, _, _) = runs
    compared = 0
    for workload in plain["workloads"]:
        first = traced["workloads"][workload]["metrics"]
        second = plain["workloads"][workload]["metrics"]
        for name, metric in first.items():
            if (
                name == "agreement"
                or name.endswith(".gap_pts")
                or name.startswith("model.")
            ):
                assert second[name]["value"] == metric["value"], name
                compared += 1
    assert compared == 4 + 2 + 2 * 6
