"""The benchmark's one command.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seed N] [--runs R] [--trace]   # every workload

Each workload runs in a fresh single-threaded subprocess with
``PYTHONHASHSEED=0``.  With ``--workload`` the last line of standard
output is the result object of the contract in BENCHMARK.json; without,
one JSON document holds every workload: per metric (the uniform ones of
BENCHMARK.json and the workload's named ones) the value of each of the
``--runs`` runs (seeds N, N+1, ...), their median and their spread
(interquartile range over median), which is what ``bench/compare.py``
reads.  The full result of every run (dataset statistics, per-item
latencies, digests, failures) is written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

#: Hard stop for one workload's subprocess (the contract allows 180 s).
WORKER_TIMEOUT_S = 170


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload; default: all of BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=1, help="runs per workload, one seed each")
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument(
        "--write-expected",
        action="store_true",
        help="with --workload: rewrite bench/expected/<workload>.json from this run's answers",
    )
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def worker(args: argparse.Namespace) -> int:
    """Inside the subprocess: run the workload, print the full document."""
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from bench.harness import run_workload

    document = run_workload(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        check_expected=not args.write_expected,
    )
    print(json.dumps(document))
    return 0


def run_in_subprocess(args: argparse.Namespace, workload: str) -> dict:
    """One workload in a fresh interpreter; returns its full document."""
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--worker",
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    command += ["--write-expected"] if args.write_expected else []
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S
    )
    if done.returncode != 0:
        raise SystemExit(f"workload {workload} exited with code {done.returncode}")
    document = json.loads(done.stdout.strip().splitlines()[-1])
    kind = "trace" if args.trace else "e2e"
    path = os.path.join(BENCH_DIR, "out", f"{workload}-seed{args.seed}-{kind}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
    return document


def write_expected(document: dict) -> None:
    """Commit this run's answer digests (they are the same for every seed)."""
    path = os.path.join(BENCH_DIR, "expected", f"{document['workload']}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {"workload": document["workload"], "digests": document["digests"]},
            handle, indent=1, sort_keys=True,
        )
        handle.write("\n")


def contract_result(document: dict) -> dict:
    return {key: document[key] for key in ("correct", "attempted", "failed", "metrics")}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.worker:
        return worker(args)
    spec = benchmark_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    names = [entry["name"] for entry in spec["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            raise SystemExit(f"unknown workload {args.workload!r}; BENCHMARK.json names {names}")
        document = run_in_subprocess(args, args.workload)
        if args.write_expected and document["correct"]:
            write_expected(document)
        print(json.dumps({key: document[key] for key in ("dataset", "detail", "named")}))
        for failure in document["failures"]:
            print("FAILED:", failure)
        print(json.dumps(contract_result(document)))
        return 0
    report = {
        "seeds": list(range(args.seed, args.seed + args.runs)),
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "workloads": {},
    }
    for name in names:
        documents = []
        for seed in report["seeds"]:
            args.seed = seed
            documents.append(run_in_subprocess(args, name))
        report["workloads"][name] = summarise(documents)
    print(json.dumps(report, indent=1))
    return 0 if all(entry["correct"] for entry in report["workloads"].values()) else 1


def summarise(documents: list) -> dict:
    """Fold the runs of one workload: per metric values, median, spread."""
    metrics = {}
    for kind in ("metrics", "named"):
        for name, first in documents[0][kind].items():
            values = [document[kind][name]["value"] for document in documents]
            median = statistics.median(values)
            spread = None
            if len(values) >= 4 and median:
                quartiles = statistics.quantiles(values, n=4)
                spread = (quartiles[2] - quartiles[0]) / abs(median)
            metrics[name] = {
                "unit": first["unit"], "values": values, "median": median, "spread": spread,
            }
    return {
        "correct": all(document["correct"] for document in documents),
        "attempted": sum(document["attempted"] for document in documents),
        "failed": sum(document["failed"] for document in documents),
        "failures": [failure for document in documents for failure in document["failures"]],
        "dataset": documents[0]["dataset"],
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
