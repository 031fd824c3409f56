"""Compare two benchmark results under the benchmark's bounds.

    python bench/compare.py BASE.json NEW.json

Both files are ``bench/run.py --out`` results, best made with
``--repeat N`` so that each metric carries its quartiles.  Prints one
row per (metric, workload) pair present in both, for the end-to-end
metrics of ``BENCHMARK.json`` and the named metrics in :data:`NAMED`:

* ``better`` / ``worse`` -- NEW's median moved by more than the metric's
  bound in that direction;
* ``within`` -- it moved by no more than the bound;
* ``unresolved`` -- either side's quartile spread is wider than the
  bound, unless every NEW run beats every BASE run (then ``better``).

Exits 1 when any pair is worse, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Named per-workload metrics compared beside the gated ones:
#: name -> (better, bound, relative).  A relative bound is a share of
#: BASE's median; an absolute one is in the metric's unit.
NAMED = {
    "serve.p50_ms": ("lower", 0.10, True),
    "serve.goodput_rps": ("higher", 0.05, True),
    "serve.capacity_rps": ("higher", 0.10, True),
    "churn.first_reply_ms": ("lower", 0.10, True),
    "churn.cycle_s": ("lower", 0.10, True),
    "offline.mlp-s.samples_per_s": ("higher", 0.10, True),
    "offline.cnn-1.samples_per_s": ("higher", 0.10, True),
    "offline.mlp-s.gap_pts": ("lower", 0.5, False),
    "offline.cnn-1.gap_pts": ("lower", 0.5, False),
    "failed_share": ("lower", 0.0, False),
}


def verdict(
    base: dict, new: dict, bound: float, lower: bool, relative: bool
) -> tuple:
    """(verdict, change of NEW over BASE, larger spread); change and
    spread are shares of BASE's median when ``relative``."""
    sign = -1.0 if lower else 1.0
    scale = base["value"] if relative else 1.0
    # Adding 0.0 turns a -0.0 change into 0.0 for printing.
    gain = sign * (new["value"] - base["value"]) / scale + 0.0
    spread = max(m["q3"] - m["q1"] for m in (base, new)) / scale
    if spread > bound:
        beats = all(
            sign * (b - a) > 0 for a in base["runs"] for b in new["runs"]
        )
        return ("better" if beats else "unresolved"), gain, spread
    if gain > bound:
        return "better", gain, spread
    if gain < -bound:
        return "worse", gain, spread
    return "within", gain, spread


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = (json.loads(Path(p).read_text())["workloads"] for p in argv)
    metrics = {
        m["name"]: (m["better"], m["bound"], True) for m in spec["end_to_end"]
    }
    metrics.update(NAMED)
    print(
        f"{'metric':28s} {'workload':17s} {'base':>11s} {'new':>11s} "
        f"{'change':>8s} {'spread':>7s} {'bound':>6s}  verdict"
    )
    worse = False
    for name, (better, bound, relative) in metrics.items():
        for workload in base:
            if name not in base[workload]["metrics"]:
                continue
            if name not in new.get(workload, {}).get("metrics", {}):
                continue
            a = base[workload]["metrics"][name]
            b = new[workload]["metrics"][name]
            result, gain, spread = verdict(
                a, b, bound, better == "lower", relative
            )
            worse |= result == "worse"
            form = "{:+8.1%} {:7.1%} {:6.0%}" if relative else (
                "{:+8.3g} {:7.3g} {:6.3g}"
            )
            print(
                f"{name:28s} {workload:17s} {a['value']:11.5g} "
                f"{b['value']:11.5g} "
                + form.format(gain, spread, bound)
                + f"  {result}"
            )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
