"""Compare two result documents of ``bench/run.py`` (every-workload mode).

    python3 bench/compare.py A.json B.json

A is the base, B the candidate.  One row per (workload, metric) with both
medians and the ratio B/A.  A metric regresses when B's median is worse
than A's by more than its bound: the bound of BENCHMARK.json for the
uniform end-to-end metrics, ``NAMED`` below for the metrics only some
workloads have.  It is *unresolved*, not unchanged, when the spread of the
repeated runs of either side (``--runs`` of at least 4) exceeds the
bound.  Per-layer metrics (traced documents) have no bound and are only
listed.  Exit code 1 on a regression or a higher ``failed_ratio``.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: ISSUE.md's metrics that only some workloads have.  The driver's contract
#: wants every BENCHMARK.json metric from every workload and never 0, so
#: these are reported beside the uniform ones (``named`` in a result) and
#: gated here.  Any rise of ``failed_ratio`` is a regression.
NAMED = [
    {"name": "failed_ratio", "unit": "ratio", "better": "lower", "bound": 0.0},
    {"name": "load_triples_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "snapshot_save_triples_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "snapshot_load_triples_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "changes_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "change_batch_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "change_batch_p90_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "view_read_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
]


def load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def worse_by(base: float, new: float, better: str) -> float:
    """Signed share of ``base`` by which ``new`` is worse (negative: better)."""
    change = new - base
    if base:
        change /= abs(base)
    return change if better == "lower" else -change


def verdict(entry: dict, base: dict, new: dict) -> str:
    bound = entry.get("bound")
    if bound is None:
        return "-"
    spreads = [side["spread"] for side in (base, new) if side.get("spread") is not None]
    if worse_by(base["median"], new["median"], entry["better"]) > bound:
        return "REGRESSION"
    if spreads and max(spreads) > bound:
        return "unresolved"
    if not spreads and bound:
        return "ok (single run: spread unknown)"
    return "ok"


def compare(base: dict, new: dict, spec: dict) -> int:
    entries = {
        entry["name"]: entry for entry in spec["end_to_end"] + spec["per_layer"] + NAMED
    }
    failures = 0
    print(f"{'workload':<18} {'metric':<40} {'A':>12} {'B':>12} {'B/A':>7}  verdict")
    for workload in (entry["name"] for entry in spec["workloads"]):
        side_a = base["workloads"].get(workload)
        side_b = new["workloads"].get(workload)
        if side_a is None or side_b is None:
            print(f"{workload:<18} missing from {'A' if side_a is None else 'B'}")
            failures += 1
            continue
        for name, metric_a in side_a["metrics"].items():
            metric_b = side_b["metrics"].get(name)
            entry = entries.get(name)
            if metric_b is None or entry is None:
                continue
            a, b = metric_a["median"], metric_b["median"]
            ratio = f"{b / a:.3f}" if a else "n/a"
            status = verdict(entry, metric_a, metric_b)
            failures += status == "REGRESSION"
            label = f"{name} [{metric_a['unit']}]"
            print(f"{workload:<18} {label:<40} {a:>12.5g} {b:>12.5g} {ratio:>7}  {status}")
    return 1 if failures else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    return compare(load(argv[0]), load(argv[1]), load(os.path.join(ROOT, "BENCHMARK.json")))


if __name__ == "__main__":
    sys.exit(main())
