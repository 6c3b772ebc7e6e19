"""One run of one workload: set-up, timed passes, checks, aggregation."""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import statistics
import tracemalloc
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Optional

from repro.obs import Tracer

from bench import inputs as gen
from bench.workloads import Samples, Tally, make_workload, nearest_rank

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")
EXPECTED_DIR = os.path.join(BENCH_DIR, "expected")

#: A run is ``ROUNDS`` rounds: one timed set-up, then whole passes for a
#: share of ``--seconds``.  The box's slow spells last seconds to minutes;
#: set-ups spread over the run (not bunched at its start) and passes on
#: several fresh states are what the best-of statistics need.
ROUNDS = 4


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def load_expected(name: str) -> Optional[Dict]:
    path = os.path.join(EXPECTED_DIR, f"{name}.json")
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)["digests"]


class quiet_gc:
    """Timed regions run with the collector off and the old heap frozen."""

    def __enter__(self) -> None:
        gc.collect()
        gc.freeze()
        gc.disable()

    def __exit__(self, *exc) -> None:
        gc.enable()
        gc.unfreeze()


def run_rounds(seconds: float, once: bool, reset, setup, one_pass) -> None:
    """Closed loop: per round ``reset`` (untimed), ``setup``, then whole
    passes until the round's share of ``seconds`` is used."""
    rounds = 1 if once else ROUNDS
    for _ in range(rounds):
        reset()
        with quiet_gc():
            setup()
            deadline = perf_counter() + seconds / rounds
            while True:
                one_pass()
                gc.collect()
                if perf_counter() >= deadline:
                    break


def item_latencies(samples: Samples, items: List[str]) -> Dict[str, float]:
    """Per-item latency in seconds: best of the passes.

    Interference on a shared box only ever adds time and comes in bursts
    that last for minutes, so the minimum over the passes is the one
    statistic of an operation that repeats between runs (see README.md).
    Items that never succeeded drop out (and are counted as failed).
    """
    return {item: min(samples[item]) for item in items if samples.get(item)}


def latency_metrics(latencies: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    """Aggregates over the items' latencies, so no metric sits on one item."""
    ordered = sorted(latencies.values())
    count = len(ordered)
    p90 = nearest_rank(ordered, 0.9)
    geomean = math.exp(sum(math.log(value) for value in ordered) / count)
    return {
        "op_p50_ms": metric(statistics.median(ordered) * 1e3, "ms"),
        "op_p90_ms": metric(p90 * 1e3, "ms"),
        "op_geomean_ms": metric(geomean * 1e3, "ms"),
        "ops_per_s": metric(count / sum(ordered), "1/s"),
    }


def retained_bytes_per_triple(workload) -> float:
    """``tracemalloc`` bytes the query-ready state retains, per triple.

    An extra, untimed set-up without the warm-up pass: store, engine and
    T_D facts or materialised views, whatever the workload keeps alive.
    """
    workload.teardown()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        workload.setup(warm=False)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained / workload.triples


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    tiny: bool = False,
    check_expected: bool = True,
) -> Dict[str, object]:
    """Run one workload; return the result document (see README.md).

    The committed digests belong to the frozen sizes, so ``tiny`` runs
    (and the run that writes the digest files) skip that comparison.
    """
    os.makedirs(OUT_DIR, exist_ok=True)
    inputs = gen.make_inputs(name, tiny, seed)
    workload = make_workload(name, inputs, OUT_DIR)
    expected = load_expected(name) if check_expected and not tiny else None
    tally = Tally()
    named: Dict[str, Dict] = {}
    try:
        if trace:
            from bench.layers import traced_run

            traced = make_workload(name, inputs, OUT_DIR, Tracer(f"{name}-seed{seed}"))
            metrics, detail = traced_run(workload, traced, seconds, tally, once=tiny)
        else:
            setups: List[float] = []
            samples: Samples = defaultdict(list)

            def setup() -> None:
                start = perf_counter()
                workload.setup(warm=True)
                setups.append(perf_counter() - start)

            run_rounds(
                seconds, tiny, workload.teardown, setup, lambda: workload.tick(samples, tally)
            )
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            latencies = item_latencies(samples, workload.items)
            metrics = {"setup_s": metric(min(setups), "s")}
            metrics.update(latency_metrics(latencies))
            metrics["peak_rss_mb"] = metric(peak_rss_mb, "MB")
            named = workload.named_metrics(latencies, samples)
            detail = {
                "passes": min(len(values) for values in samples.values()),
                "samples": sum(len(values) for values in samples.values()),
                "setup_runs_s": setups,
                "item_ms": {item: value * 1e3 for item, value in latencies.items()},
            }
        digests = workload.verify(expected, tally)
        if not trace:
            metrics["store_bytes_per_triple"] = metric(retained_bytes_per_triple(workload), "B")
    finally:
        workload.teardown()
    named["failed_ratio"] = metric(tally.failed / max(1, tally.attempted), "ratio")
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "metrics": metrics,
        "named": named,
        "dataset": workload.stats(),
        "detail": detail,
        "digests": digests,
    }
