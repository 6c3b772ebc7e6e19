"""The traced run: per-layer times and exact counts, measured from bench/.

The traced run builds the workload a second time with a
:class:`repro.obs.Tracer` and alternates passes of the two: the very same
``tick`` loop, once with the no-op span and once recording a root span per
operation (name, start, end, parent; the item id in the root span's args)
and spans around the calls into each layer's public functions.  The tracer
also goes through ``create_engine(tracer=)``, so the native engine's own
plan / lower / execute phases nest under them.  Spans stay in memory and
are written to ``bench/out/`` when the run ends.  ``LayerTimes`` folds them
into seconds per pass, comparable to the sum of the end-to-end item
latencies.

Probes (``datalog.stratify``, ``datalog.engine.fact_load``,
``sparql.idpaths``, the loader parts of ``bulk_load`` and the view-less
store of ``ivm_churn``) repeat work the enclosing call also does; they run
in a pass of their own so they never sit inside a traced operation.  Exact
counts come from one extra pass of fixed length, so they repeat between
runs.
"""

from __future__ import annotations

import gc
import json
import os
import tracemalloc
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Tuple

from repro.core.query_translation import QueryTranslator
from repro.datalog.engine import DatalogEngine
from repro.datalog.rules import Program
from repro.datalog.stratify import stratify
from repro.obs import Tracer
from repro.obs.export import trace_to_dict
from repro.rdf.graph import Graph
from repro.rdf.ntriples import iter_ntriples
from repro.sparql.algebra import PathPattern, TriplePatternNode, walk
from repro.sparql.idpaths import IdPathEngine
from repro.sparql.parser import parse_query
from repro.store import EncodedGraph, TermDictionary, bulk_load_ntriples

from bench import harness
from bench.workloads import MAX_FACTS, BulkLoad, IvmChurn, QueryWorkload, Samples, Tally

#: name, unit, better, the end-to-end metric it should move, on which workload.
PER_LAYER: List[Tuple[str, str, str, str, str]] = [
    ("sparql.parser.time_s", "s", "lower", "op_p50_ms", "feasible_native"),
    ("core.data_translation.time_s", "s", "lower", "setup_s", "*_sparqlog"),
    ("core.data_translation.facts", "count", "lower", "setup_s, store_bytes_per_triple", "*_sparqlog"),
    ("core.query_translation.time_s", "s", "lower", "op_p50_ms", "gmark_sparqlog"),
    ("core.query_translation.rules", "count", "lower", "op_p50_ms", "gmark_sparqlog"),
    ("datalog.stratify.time_s", "s", "lower", "op_p50_ms", "gmark_sparqlog"),
    ("datalog.stratify.strata", "count", "lower", "op_p50_ms", "gmark_sparqlog"),
    ("datalog.engine.evaluate_s", "s", "lower", "ops_per_s", "*_sparqlog"),
    ("datalog.engine.fact_load_s", "s", "lower", "op_p50_ms, op_geomean_ms", "sp2bench_sparqlog"),
    ("datalog.engine.fixpoint_s", "s", "lower", "op_p90_ms, ops_per_s", "*_sparqlog"),
    ("datalog.engine.fixpoint_iterations", "count", "lower", "explains fixpoint_s", "gmark_sparqlog"),
    ("datalog.engine.derived_facts", "count", "lower", "explains fixpoint_s", "gmark_sparqlog"),
    ("datalog.engine.answer_ratio", "ratio", "higher", "explains fixpoint_s", "gmark_sparqlog"),
    ("core.solution_translation.time_s", "s", "lower", "op_p50_ms", "*_sparqlog"),
    ("core.engine.other_s", "s", "lower", "op_p50_ms", "sp2bench_sparqlog"),
    ("sparql.evaluator.time_s", "s", "lower", "every op_* metric", "native workloads"),
    ("sparql.plan.time_s", "s", "lower", "op_p50_ms", "feasible_native"),
    ("sparql.physical.lower_s", "s", "lower", "op_p50_ms", "feasible_native"),
    ("sparql.physical.execute_s", "s", "lower", "op_p90_ms, ops_per_s", "sp2bench_native"),
    ("sparql.evaluator.self_s", "s", "lower", "op_geomean_ms", "feasible_native"),
    ("sparql.evaluator.plan_cache_hit_ratio", "ratio", "higher", "op_p50_ms", "feasible_native"),
    ("sparql.idpaths.time_s", "s", "lower", "op_p90_ms, ops_per_s", "gmark_native"),
    ("sparql.idpaths.pairs", "count", "lower", "explains idpaths.time_s", "gmark_native"),
    ("store.encoded.index_probes", "count", "lower", "ops_per_s", "sp2bench_native"),
    ("store.encoded.probes_per_row", "ratio", "lower", "ops_per_s", "sp2bench_native"),
    ("store.encoded.sorted_run_builds", "count", "lower", "ops_per_s", "ivm_churn"),
    ("store.dictionary.decodes", "count", "lower", "op_geomean_ms", "native workloads"),
    ("store.dictionary.encodes", "count", "lower", "op_geomean_ms", "native workloads"),
    ("sparql.solutions.rows", "count", "higher", "sanity of the counts above", "query workloads"),
    ("rdf.ntriples.parse_s", "s", "lower", "op_p90_ms", "bulk_load"),
    ("store.dictionary.encode_s", "s", "lower", "op_p90_ms", "bulk_load"),
    ("store.encoded.insert_s", "s", "lower", "op_p90_ms; ops_per_s", "bulk_load; ivm_churn"),
    ("store.bulk.load_s", "s", "lower", "op_p90_ms; setup_s", "bulk_load; native workloads"),
    ("store.snapshot.save_s", "s", "lower", "op_geomean_ms", "bulk_load"),
    ("store.snapshot.load_s", "s", "lower", "op_p50_ms", "bulk_load"),
    ("store.snapshot.file_bytes_per_triple", "B", "lower", "op_p50_ms", "bulk_load"),
    ("rdf.graph.insert_s", "s", "lower", "setup_s", "*_sparqlog"),
    ("rdf.graph.bytes_per_triple", "B", "lower", "store_bytes_per_triple", "*_sparqlog"),
    ("ivm.views.materialize_s", "s", "lower", "setup_s", "ivm_churn"),
    ("store.encoded.write_s", "s", "lower", "ops_per_s", "ivm_churn"),
    ("ivm.maintain_s", "s", "lower", "op_p50_ms, ops_per_s", "ivm_churn"),
    ("ivm.delta.rows", "count", "lower", "explains maintain_s", "ivm_churn"),
    ("ivm.views.fallback_refreshes", "count", "lower", "explains read_s", "ivm_churn"),
    ("ivm.views.read_s", "s", "lower", "op_p90_ms", "ivm_churn"),
    ("bench.trace_overhead_ratio", "ratio", "lower", "none (must stay below 1.15)", "every workload"),
]


# ----------------------------------------------------------------------
# folding spans into per-layer times
# ----------------------------------------------------------------------
class LayerTimes:
    """Per-layer seconds per pass, from the spans of one traced run.

    Every root span (category ``bench``) is one operation; its args name
    the item (``<class>`` or ``<class>#<k>``).  For each item the pass with
    the smallest root duration is kept, the same best-of-passes rule as the
    end-to-end latencies, and within it each layer's *self* time: a span's
    duration minus its child spans, so the layers of a root add up to the
    root exactly.  A layer's time is the sum over the items.  Operator
    events carry pre-measured durations, not intervals of their parent,
    and are skipped.
    """

    def __init__(self, tracer: Tracer) -> None:
        covered: Dict[int, float] = defaultdict(float)
        spans = [span for span in tracer.spans if span.category != "operator"]
        for span in spans:
            if span.parent is not None:
                covered[id(span.parent)] += span.end - span.start
        layers_of: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        roots = {}
        for span in spans:
            root = span
            while root.parent is not None:
                root = root.parent
            if root.category != "bench":
                continue
            roots[id(root)] = root
            layers_of[id(root)][span.name] += (span.end - span.start) - covered.get(id(span), 0.0)
        best: Dict[Tuple[str, str], object] = {}
        for root in roots.values():
            key = (root.name, root.args["item"])
            if key not in best or root.end - root.start < best[key].end - best[key].start:
                best[key] = root
        #: (root name, item class) -> layer -> seconds, summed over the class's items.
        self.classes: Dict[Tuple[str, str], Dict[str, float]] = {}
        for (root_name, item), root in best.items():
            layers = self.classes.setdefault((root_name, item.split("#")[0]), defaultdict(float))
            for name, seconds in layers_of[id(root)].items():
                layers[name] += seconds
            layers["total"] += root.end - root.start

    def __call__(self, *names: str, root: str = "op", item: str = None) -> float:
        """Seconds per pass in the named layers (optionally of one item class)."""
        return sum(
            layers.get(name, 0.0)
            for (root_name, item_class), layers in self.classes.items()
            if root_name == root and (item is None or item_class == item)
            for name in names
        )


class StoreCounts:
    """Exact store and dictionary counts between ``__init__`` and ``since``."""

    def __init__(self, graph) -> None:
        self.store = graph.enable_counters()
        self.dictionary = graph.dictionary.enable_counters()
        self.marks = self.read()

    def read(self) -> Tuple[int, int, int, int]:
        return (
            self.store.index_probes,
            self.store.sorted_run_builds,
            self.dictionary.decodes,
            self.dictionary.encodes,
        )

    def since(self, rows: int) -> Dict[str, float]:
        probes, builds, decodes, encodes = (
            now - mark for now, mark in zip(self.read(), self.marks)
        )
        return {
            "store.encoded.index_probes": probes,
            "store.encoded.probes_per_row": probes / max(1, rows),
            "store.encoded.sorted_run_builds": builds,
            "store.dictionary.decodes": decodes,
            "store.dictionary.encodes": encodes,
            "sparql.solutions.rows": rows,
        }


def evaluator_phases(times: LayerTimes, item: str = None) -> Dict[str, float]:
    """``Engine.query(parsed)`` split by the engine's own phase spans."""
    plan, lower, execute = (times(name, item=item) for name in ("plan", "lower", "execute"))
    own = times("sparql.evaluator", "evaluate", item=item)
    return {
        "sparql.evaluator.time_s": own + plan + lower + execute,
        "sparql.plan.time_s": plan,
        "sparql.physical.lower_s": lower,
        "sparql.physical.execute_s": execute,
        "sparql.evaluator.self_s": own,
    }


def hash_graph_probe(triples, limit: int = 20_000) -> Dict[str, float]:
    """``Graph.update`` seconds and retained bytes per triple on a slice."""
    triples = triples[:limit]
    start = perf_counter()
    Graph().update(triples)
    insert_s = perf_counter() - start
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        graph = Graph()
        graph.update(triples)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return {
        "rdf.graph.insert_s": insert_s,
        "rdf.graph.bytes_per_triple": retained / max(1, len(graph)),
    }


# ----------------------------------------------------------------------
# probes and metrics per kind of workload
# ----------------------------------------------------------------------
class SparqLogLayers:
    """Translation path: stratification and the EDB fact copy on their own."""

    def __init__(self, plain: QueryWorkload, traced: QueryWorkload) -> None:
        self.traced = traced
        self.strata: Dict[str, int] = {}

    def probe_pass(self) -> None:
        span = self.traced.span
        for query_id, text in self.traced.inputs.queries:
            program = self.traced.program_for(QueryTranslator().translate(parse_query(text)))
            facts_only = Program()
            facts_only.facts = program.facts
            with span("probe", "bench", item=query_id):
                with span("datalog.stratify", "bench"):
                    self.strata[query_id] = len(stratify(program))
                with span("datalog.engine.fact_load", "bench"):
                    DatalogEngine(max_facts=MAX_FACTS).evaluate(facts_only)

    def metrics(self, times: LayerTimes, untraced_s: float) -> Dict[str, float]:
        traced = self.traced
        total = {
            key: sum(counts[key] for counts in traced.counts.values())
            for key in ("rules", "iterations", "derived", "answers")
        }
        parts = {
            "sparql.parser.time_s": times("sparql.parser"),
            "core.query_translation.time_s": times("core.query_translation"),
            "datalog.engine.evaluate_s": times("datalog.engine.evaluate"),
            "core.solution_translation.time_s": times("core.solution_translation"),
        }
        fact_load = times("datalog.engine.fact_load", root="probe")
        stratify_s = times("datalog.stratify", root="probe")
        metrics = {
            "core.data_translation.time_s": times(
                "total", root="setup", item="core.data_translation"
            ),
            "core.data_translation.facts": len(traced.data_program.facts),
            "core.query_translation.rules": total["rules"],
            "datalog.stratify.time_s": stratify_s,
            "datalog.stratify.strata": sum(self.strata.values()),
            "datalog.engine.fact_load_s": fact_load,
            "datalog.engine.fixpoint_s": parts["datalog.engine.evaluate_s"] - fact_load - stratify_s,
            "datalog.engine.fixpoint_iterations": total["iterations"],
            "datalog.engine.derived_facts": total["derived"],
            "datalog.engine.answer_ratio": total["answers"] / max(1, total["derived"]),
            # What the untraced ``SparqLogEngine.query`` spends outside the parts.
            "core.engine.other_s": untraced_s - sum(parts.values()),
            "sparql.solutions.rows": sum(traced.row_counts.values()),
        }
        metrics.update(parts)
        metrics.update(hash_graph_probe(traced.inputs.default.triples))
        return metrics


class NativeLayers:
    """Native engine: the id path engine on its own, and the exact counts."""

    def __init__(self, plain: QueryWorkload, traced: QueryWorkload) -> None:
        self.plain = plain
        self.traced = traced
        self.path_engine = None
        self.path_queries = []
        for query_id, text in traced.inputs.queries:
            nodes = list(walk(parse_query(text).pattern))
            paths = [node for node in nodes if isinstance(node, PathPattern)]
            if len(paths) == 1 and not any(isinstance(n, TriplePatternNode) for n in nodes):
                self.path_queries.append((query_id, paths[0]))
        self.pairs: Dict[str, int] = {}

    def probe_pass(self) -> None:
        span = self.traced.span
        graph = self.traced.dataset.default_graph
        if self.path_engine is None or self.path_engine.graph is not graph:  # a new set-up
            self.path_engine = IdPathEngine(graph)
        for query_id, node in self.path_queries:
            with span("probe", "bench", item=query_id):
                with span("sparql.idpaths", "bench"):
                    self.pairs[query_id] = len(self.path_engine.evaluate(node))

    def counted_pass(self) -> Dict[str, float]:
        """One more untraced pass with the store's and dictionary's counters on."""
        plain = self.plain
        counts = StoreCounts(plain.dataset.default_graph)
        before = {} if plain.cold else plain.engine.metrics()
        plain.tick(defaultdict(list), Tally())
        after = plain.pass_engine.metrics()
        hits, misses = (
            after[name] - before.get(name, 0)
            for name in ("sparql_physical_cache_hits_total", "sparql_physical_cache_misses_total")
        )
        metrics = counts.since(sum(plain.row_counts.values()))
        metrics["sparql.evaluator.plan_cache_hit_ratio"] = hits / max(1, hits + misses)
        return metrics

    def metrics(self, times: LayerTimes, untraced_s: float) -> Dict[str, float]:
        start = perf_counter()
        bulk_load_ntriples(self.traced.inputs.default.text)
        load_s = perf_counter() - start
        metrics = {
            "sparql.parser.time_s": times("sparql.parser"),
            "sparql.idpaths.time_s": times("sparql.idpaths", root="probe"),
            "sparql.idpaths.pairs": sum(self.pairs.values()),
            "store.bulk.load_s": load_s,
        }
        metrics.update(evaluator_phases(times))
        metrics.update(self.counted_pass())
        return metrics


class BulkLoadLayers:
    """The loader's parts one by one."""

    def __init__(self, plain: BulkLoad, traced: BulkLoad) -> None:
        self.traced = traced

    def probe_pass(self) -> None:
        span = self.traced.span
        with span("probe", "bench", item="parts"):
            with span("rdf.ntriples.parse", "bench"):
                triples = list(iter_ntriples(self.traced.text))
            with span("store.dictionary.encode", "bench"):
                encode = TermDictionary().encode
                for triple in triples:
                    encode(triple.subject)
                    encode(triple.predicate)
                    encode(triple.object)
            with span("store.encoded.update", "bench"):
                EncodedGraph().update(triples)

    def metrics(self, times: LayerTimes, untraced_s: float) -> Dict[str, float]:
        traced = self.traced
        encode = times("store.dictionary.encode", root="probe")
        metrics = {
            "rdf.ntriples.parse_s": times("rdf.ntriples.parse", root="probe"),
            "store.dictionary.encode_s": encode,
            "store.encoded.insert_s": times("store.encoded.update", root="probe") - encode,
            "store.bulk.load_s": times("total", item="bulk_load_ntriples"),
            "store.snapshot.save_s": times("total", item="save_snapshot"),
            "store.snapshot.load_s": times("total", item="load_snapshot"),
            "store.snapshot.file_bytes_per_triple": traced.snapshot_bytes / traced.triples,
        }
        metrics.update(hash_graph_probe(traced.inputs.default.triples))
        return metrics


class IvmChurnLayers:
    """The same change batches on a store with no views attached."""

    def __init__(self, plain: IvmChurn, traced: IvmChurn) -> None:
        self.traced = traced
        self.bare = bulk_load_ntriples(traced.inputs.base.text)

    def probe_pass(self) -> None:
        span = self.traced.span
        bare = self.bare
        for position, (adds, removes) in enumerate(self.traced.inputs.cycle):
            with span("probe", "bench", item=f"write#{position}"):
                with span("store.encoded.insert", "bench"):
                    bare.update(adds)
                for triple in removes:
                    bare.remove(triple)

    def counted_pass(self) -> Dict[str, float]:
        """One cycle on a fresh engine with the store's counters on."""
        counted = IvmChurn(self.traced.name, self.traced.inputs)
        counted.setup(warm=False)
        counts = StoreCounts(counted.engine.graph)
        before = counted.engine.metrics()
        counted.cycle({}, Tally(), checkpoint=False)
        after = counted.engine.metrics()
        metrics = counts.since(sum(len(view.rows()) for view in counted.views.values()))
        for name, counter in (
            ("ivm.delta.rows", "ivm_delta_rows_total"),
            ("ivm.views.fallback_refreshes", "ivm_view_refreshes_total"),
        ):
            metrics[name] = after[counter] - before[counter]
        counted.teardown()
        return metrics

    def metrics(self, times: LayerTimes, untraced_s: float) -> Dict[str, float]:
        write = times("total", root="probe", item="write")
        metrics = {
            "store.encoded.insert_s": times("store.encoded.insert", root="probe"),
            "ivm.views.materialize_s": times(
                "total", root="setup", item="ivm.views.materialize"
            ),
            "store.encoded.write_s": write,
            "ivm.maintain_s": times("total", item="apply_batch") - write,
            "ivm.views.read_s": times("total", item="read_views"),
        }
        metrics.update(evaluator_phases(times, item="adhoc_query"))
        metrics.update(self.counted_pass())
        return metrics


def layers_for(plain, traced):
    if isinstance(plain, BulkLoad):
        return BulkLoadLayers(plain, traced)
    if isinstance(plain, IvmChurn):
        return IvmChurnLayers(plain, traced)
    if plain.engine_kind == "sparqlog":
        return SparqLogLayers(plain, traced)
    return NativeLayers(plain, traced)


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------
def traced_run(plain, traced, seconds: float, tally: Tally, once: bool = False):
    """The rounds of an end-to-end run, every pass followed by a traced
    pass of ``traced`` (the same workload built with a tracer) and a probe
    pass."""
    tracer = traced.tracer
    layers = layers_for(plain, traced)
    samples: Dict[str, Samples] = {"plain": defaultdict(list), "traced": defaultdict(list)}
    passes = 0

    def reset() -> None:
        plain.teardown()
        traced.teardown()

    def setup() -> None:
        plain.setup(warm=True)
        traced.setup(warm=True)

    def one_pass() -> None:
        nonlocal passes
        plain.tick(samples["plain"], tally)
        traced.tick(samples["traced"], tally)
        layers.probe_pass()
        passes += 1

    try:
        harness.run_rounds(seconds, once, reset, setup, one_pass)
        times = LayerTimes(tracer)
        untraced_s, traced_s = (
            sum(harness.item_latencies(samples[side], plain.items).values())
            for side in ("plain", "traced")
        )
        values = {name: 0.0 for name, *_ in PER_LAYER}
        values.update(layers.metrics(times, untraced_s))
        values["bench.trace_overhead_ratio"] = traced_s / untraced_s
    finally:
        traced.teardown()
    units = {name: unit for name, unit, *_ in PER_LAYER}
    metrics = {name: harness.metric(value, units[name]) for name, value in values.items()}
    trace_path = os.path.join(harness.OUT_DIR, f"{tracer.name}-spans.json")
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump(trace_to_dict(tracer, validate=False), handle)
    detail = {
        "passes": passes,
        "spans": len(tracer.spans),
        "spans_file": os.path.relpath(trace_path, os.path.dirname(harness.BENCH_DIR)),
        "untraced_s_per_pass": untraced_s,
        "traced_s_per_pass": traced_s,
    }
    return metrics, detail
