"""The seven workloads: set-up, one timed pass, and the answer checks.

Every workload is a closed loop with one client: the next operation is
issued when the previous one has returned.  A workload object is used by
one run in one process; ``harness.run_workload`` drives it.

Each workload has **one** pass loop, ``tick``.  Built with a
:class:`repro.obs.Tracer` the same loop records a root span around every
operation (and spans around the calls into each layer); built without,
``span`` hands out the shared no-op span.  An operation of the untraced
loop is the engine's one public call on the text the client sends; the
traced loop takes that call apart into its layers' public calls
(``QueryWorkload.answer``), which is the only place the two differ.
"""

from __future__ import annotations

import hashlib
import math
import os
import statistics
from collections import Counter
from time import perf_counter
from typing import Dict, List, Optional

from repro.core.data_translation import DataTranslator
from repro.core.engine import SparqLogEngine
from repro.core.query_translation import QueryTranslator
from repro.core.solution_translation import SolutionTranslator
from repro.datalog.engine import DatalogEngine
from repro.datalog.rules import Program
from repro.engine import Engine, create_engine
from repro.obs import NULL_SPAN, Tracer
from repro.rdf.graph import Dataset, Graph
from repro.sparql.algebra import SelectQuery
from repro.sparql.parser import parse_query
from repro.sparql.profile import ExecutionProfile
from repro.store import bulk_load_ntriples, load_snapshot, save_snapshot

from bench import inputs as gen

#: Limits of the translation path.  ``max_facts`` is what makes a limit
#: hit reproducible; the wall timeout is only a backstop far above any
#: query of the frozen sizes (the slowest takes ~0.6 s).
MAX_FACTS = 2_000_000
TIMEOUT_SECONDS = 60.0

Samples = Dict[str, List[float]]


def null_span(name: str, category: str = "bench", **args):
    """``Tracer.span`` of the untraced run."""
    return NULL_SPAN


def nearest_rank(ordered: List[float], share: float) -> float:
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


class Tally:
    """Operations attempted and failed; a wrong answer is a failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


# ----------------------------------------------------------------------
# digests: row count + order-insensitive hash of the bag
# ----------------------------------------------------------------------
def _hash64(text: str) -> int:
    return int.from_bytes(hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "big")


def bag_digest(rows) -> Dict[str, object]:
    """Digest of an iterable of canonical row strings (a bag)."""
    count = 0
    total = 0
    for row in rows:
        count += 1
        total = (total + _hash64(row)) & 0xFFFFFFFFFFFFFFFF
    return {"rows": count, "bag": f"{total:016x}"}


def result_digest(query, result) -> Dict[str, object]:
    """Digest of a query answer.

    A LIMIT/OFFSET answer is a choice among ties the semantics leaves
    open, so only its row count is compared.
    """
    if isinstance(result, bool):
        return {"rows": 1, "bag": f"ask-{str(result).lower()}"}
    if isinstance(query, SelectQuery) and (query.limit is not None or query.offset):
        return {"rows": len(result), "bag": "sliced"}
    names = [variable.name for variable in result.variables]
    order = sorted(range(len(names)), key=names.__getitem__)
    return bag_digest(
        "\t".join(
            f"{names[index]}={row[index].n3()}" for index in order if row[index] is not None
        )
        for row in result.rows()
    )


def result_size(result) -> int:
    return 1 if isinstance(result, bool) else len(result)


class Workload:
    """What the three kinds of workload share: the tracer and its spans."""

    #: Operations of one pass; the end-to-end aggregates run over these.
    items: List[str]
    triples: int

    def __init__(self, name: str, tracer: Optional[Tracer] = None) -> None:
        self.name = name
        self.tracer = tracer
        self.span = tracer.span if tracer is not None else null_span

    def named_metrics(self, latencies: Dict[str, float], samples: Samples) -> Dict[str, Dict]:
        """The workload's own metrics of ISSUE.md, by their names there."""
        return {}


# ----------------------------------------------------------------------
# the five query workloads
# ----------------------------------------------------------------------
class QueryWorkload(Workload):
    """A paper suite through one engine; the items are the queries."""

    def __init__(
        self,
        name: str,
        inputs: gen.Inputs,
        engine_kind: str,
        cold: bool = False,
        tracer: Optional[Tracer] = None,
    ) -> None:
        super().__init__(name, tracer)
        self.inputs = inputs
        self.engine_kind = engine_kind
        #: Fresh ``Engine`` (empty plan caches) for every pass.
        self.cold = cold
        self.items = [query_id for query_id, _ in inputs.queries]
        self.triples = inputs.triple_count
        self.engine = None
        self.dataset: Optional[Dataset] = None
        #: The engine the latest pass ran on (a new one per pass if cold).
        self.pass_engine = None
        #: Traced translation path: T_D, and exact counts per query.
        self.data_program: Optional[Program] = None
        self.counts: Dict[str, Dict[str, int]] = {}

    def stats(self) -> Dict[str, object]:
        predicates = {
            triple.predicate for graph in self.inputs.graphs.values() for triple in graph.triples
        }
        return {
            "triples": self.triples,
            "predicates": len(predicates),
            "queries": len(self.items),
            "engine": self.engine_kind,
            "plan_caches": "cold per pass" if self.cold else "warm",
        }

    # -- program work ---------------------------------------------------
    def load(self, encoded: bool) -> Dataset:
        graphs = {}
        for name, graph_input in self.inputs.graphs.items():
            if encoded:
                graphs[name] = bulk_load_ntriples(graph_input.text)
            else:
                graphs[name] = Graph()
                graphs[name].update(graph_input.triples)
        default = graphs.pop(None)
        return Dataset(default, graphs)

    def new_engine(self):
        if self.engine_kind == "native":
            return create_engine(self.dataset, ExecutionProfile.FULL, tracer=self.tracer)
        return SparqLogEngine(
            self.dataset, timeout_seconds=TIMEOUT_SECONDS, max_facts=MAX_FACTS
        )

    def setup(self, warm: bool = True) -> None:
        self.dataset = self.load(encoded=self.engine_kind == "native")
        self.engine = self.new_engine()
        if self.engine_kind == "sparqlog" and (self.tracer is not None or not warm):
            # T_D on its own: a layer of the traced run, and what the
            # retained-bytes probe keeps without evaluating a query.
            with self.span("setup", "bench", item="core.data_translation"):
                self.data_program = DataTranslator().translate(self.dataset)
        if warm:
            with self.span("setup", "bench", item="warm_up"):
                self.row_counts = {
                    query_id: result_size(self.answer(self.engine, query_id, text))
                    for query_id, text in self.inputs.queries
                }

    def teardown(self) -> None:
        self.engine = None
        self.dataset = None
        self.data_program = None

    def program_for(self, translation) -> Program:
        """What ``SparqLogEngine.translate`` assembles (no FROM, no ontology)."""
        data = self.data_program
        program = Program()
        program.facts = list(data.facts)
        program.rules = list(data.rules)
        program.aggregate_rules = list(data.aggregate_rules)
        program.directives = list(data.directives)
        program.extend(translation.program)
        return program

    def answer(self, engine, query_id: str, text: str):
        """One operation: the client sends text and gets the whole answer."""
        if self.tracer is None:
            return engine.query(text)
        span = self.span
        with span("sparql.parser", "bench"):
            parsed = parse_query(text)
        if self.engine_kind == "native":
            with span("sparql.evaluator", "bench"):
                return engine.query(parsed)
        # ``SparqLogEngine.query`` taken apart.
        with span("core.query_translation", "bench"):
            translation = QueryTranslator().translate(parsed)
        program = self.program_for(translation)
        with span("datalog.engine.evaluate", "bench"):
            datalog = DatalogEngine(max_facts=MAX_FACTS, timeout_seconds=TIMEOUT_SECONDS)
            relations = datalog.evaluate(program)
        with span("core.solution_translation", "bench"):
            result = SolutionTranslator().translate(relations, translation)
        derived = sum(len(rows) for rows in relations.values()) - len(program.facts)
        self.counts[query_id] = {
            "rules": len(translation.program.rules),
            "iterations": datalog.fixpoint_iterations,
            "derived": max(0, derived),
            "answers": len(relations.get(translation.answer_predicate, ())),
        }
        return result

    def tick(self, samples: Samples, tally: Tally) -> None:
        engine = self.pass_engine = self.new_engine() if self.cold else self.engine
        span = self.span
        for query_id, text in self.inputs.query_order():
            try:
                with span("op", "bench", item=query_id):
                    start = perf_counter()
                    result = self.answer(engine, query_id, text)
                    elapsed = perf_counter() - start
            except Exception as error:  # a limit hit or a crash is a failed operation
                tally.check(False, f"{query_id}: {error!r}")
                continue
            samples[query_id].append(elapsed)
            tally.check(
                result_size(result) == self.row_counts[query_id],
                f"{query_id}: row count changed between passes",
            )

    # -- answer checks ----------------------------------------------------
    def verify(self, expected: Optional[Dict], tally: Tally) -> Dict[str, object]:
        """Digest every answer; compare to the committed digests and, on
        the translation path, to the native engine on the same triples."""
        oracle = None
        if self.engine_kind == "sparqlog":
            oracle = create_engine(self.load(encoded=True), ExecutionProfile.FULL)
        digests: Dict[str, object] = {}
        for query_id, text in self.inputs.queries:
            parsed = parse_query(text)
            try:
                digest = result_digest(parsed, self.engine.query(parsed))
            except Exception as error:
                tally.check(False, f"{query_id}: {error!r}")
                continue
            digests[query_id] = digest
            if expected is not None:
                tally.check(
                    digest == expected.get(query_id),
                    f"{query_id}: digest {digest} != committed {expected.get(query_id)}",
                )
            if oracle is not None:
                reference = result_digest(parsed, oracle.query(parsed))
                tally.check(
                    digest == reference,
                    f"{query_id}: translation {digest} != native {reference}",
                )
        return digests


# ----------------------------------------------------------------------
# bulk_load
# ----------------------------------------------------------------------
class BulkLoad(Workload):
    """Text load, snapshot save, snapshot load; the items are the three."""

    items = ["bulk_load_ntriples", "save_snapshot", "load_snapshot"]

    def __init__(
        self, name: str, inputs: gen.Inputs, out_dir: str, tracer: Optional[Tracer] = None
    ) -> None:
        super().__init__(name, tracer)
        self.inputs = inputs
        self.text = inputs.default.text
        self.triples = inputs.triple_count
        kind = "traced" if tracer is not None else "plain"
        self.snapshot_path = os.path.join(out_dir, f"{name}-{os.getpid()}-{kind}.snap")
        self.graph = None

    def stats(self) -> Dict[str, object]:
        return {"triples": self.triples, "ntriples_bytes": len(self.text.encode("utf-8"))}

    def setup(self, warm: bool = True) -> None:
        if warm:
            with self.span("setup", "bench", item="warm_up"):
                self.tick({item: [] for item in self.items}, Tally())
        else:
            self.graph = bulk_load_ntriples(self.text)

    def teardown(self) -> None:
        self.graph = None
        if os.path.exists(self.snapshot_path):
            os.remove(self.snapshot_path)

    def tick(self, samples: Samples, tally: Tally) -> None:
        span = self.span
        self.graph = None
        with span("op", "bench", item="bulk_load_ntriples"):
            start = perf_counter()
            loaded = bulk_load_ntriples(self.text)
            samples["bulk_load_ntriples"].append(perf_counter() - start)
        tally.check(len(loaded) == self.triples, "bulk_load_ntriples: triple count")
        with span("op", "bench", item="save_snapshot"):
            start = perf_counter()
            self.snapshot_bytes = save_snapshot(loaded, self.snapshot_path)
            samples["save_snapshot"].append(perf_counter() - start)
        tally.check(
            os.path.getsize(self.snapshot_path) == self.snapshot_bytes,
            "save_snapshot: bytes written",
        )
        del loaded
        with span("op", "bench", item="load_snapshot"):
            start = perf_counter()
            self.graph = load_snapshot(self.snapshot_path)
            samples["load_snapshot"].append(perf_counter() - start)
        tally.check(len(self.graph) == self.triples, "load_snapshot: triple count")

    def named_metrics(self, latencies: Dict[str, float], samples: Samples) -> Dict[str, Dict]:
        return {
            "load_triples_per_s": {
                "value": self.triples / latencies["bulk_load_ntriples"], "unit": "1/s",
            },
            "snapshot_save_triples_per_s": {
                "value": self.triples / latencies["save_snapshot"], "unit": "1/s",
            },
            "snapshot_load_triples_per_s": {
                "value": self.triples / latencies["load_snapshot"], "unit": "1/s",
            },
        }

    def verify(self, expected: Optional[Dict], tally: Tally) -> Dict[str, object]:
        """Snapshot round trip: the reloaded graph holds exactly the input."""
        digests = {
            "input": bag_digest(self.inputs.default.lines),
            "reloaded": bag_digest(gen.triple_line(triple) for triple in self.graph),
        }
        tally.check(digests["reloaded"] == digests["input"], "snapshot round trip differs")
        if expected is not None:
            tally.check(
                digests["input"] == expected.get("input"),
                f"input digest {digests['input']} != committed {expected.get('input')}",
            )
        return digests


# ----------------------------------------------------------------------
# ivm_churn
# ----------------------------------------------------------------------
class IvmChurn(Workload):
    """Writes beside reads: four live views, change batches, ad-hoc reads.

    One pass is one cycle of the change batches (see ``ChurnInputs``); a
    tick applies a batch, reads every view and runs one ad-hoc query.  The
    items are ``<operation>#<tick>``: tick ``k`` repeats exactly in every
    cycle, so its latencies over the cycles are samples of one operation.
    """

    OPERATIONS = ("apply_batch", "read_views", "adhoc_query")
    #: Passes of a run in whose middle (the state furthest from the base
    #: graph) every view is compared with a fresh evaluation; ``verify`` is
    #: the fifth checkpoint, on the final state.
    CHECKPOINT_PASSES = (1, 2, 4, 8)

    def __init__(
        self, name: str, inputs: gen.ChurnInputs, tracer: Optional[Tracer] = None
    ) -> None:
        super().__init__(name, tracer)
        self.inputs = inputs
        self.triples = len(inputs.base.lines)
        self.items = [
            f"{operation}#{tick}"
            for tick in range(len(inputs.cycle))
            for operation in self.OPERATIONS
        ]
        self.adhoc = [parse_query(text) for text in gen.IVM_ADHOC]
        self.engine: Optional[Engine] = None
        self.views: Dict[str, object] = {}
        self.passes = 0

    def stats(self) -> Dict[str, object]:
        cycle = self.inputs.cycle
        return {
            "triples": self.triples,
            "churn_pool": self.inputs.pool_size,
            "ticks_per_cycle": len(cycle),
            "changes_per_cycle": sum(len(adds) + len(removes) for adds, removes in cycle),
            "views": len(gen.IVM_VIEWS),
        }

    def setup(self, warm: bool = True) -> None:
        self.engine = create_engine(
            bulk_load_ntriples(self.inputs.base.text), ExecutionProfile.FULL, tracer=self.tracer
        )
        with self.span("setup", "bench", item="ivm.views.materialize"):
            self.views = {
                name: self.engine.materialize(query)
                for name, (query, _) in gen.IVM_VIEWS.items()
            }
        if warm:
            with self.span("setup", "bench", item="warm_up"):
                self.cycle({}, Tally(), checkpoint=False)

    def teardown(self) -> None:
        if self.engine is not None:
            self.engine.close()
        self.engine = None
        self.views = {}

    def tick(self, samples: Samples, tally: Tally) -> None:
        self.passes += 1
        self.cycle(samples, tally, checkpoint=self.passes in self.CHECKPOINT_PASSES)

    def cycle(self, samples: Samples, tally: Tally, checkpoint: bool) -> None:
        """One cycle; afterwards the graph is the base graph again."""
        graph = self.engine.graph
        views = list(self.views.values())
        cycle = self.inputs.cycle
        span = self.span
        for position, (adds, removes) in enumerate(cycle):
            query = self.adhoc[position % len(self.adhoc)]
            try:
                with span("op", "bench", item=f"apply_batch#{position}"):
                    start = perf_counter()
                    graph.update(adds)
                    for triple in removes:
                        graph.remove(triple)
                    applied = perf_counter() - start
                with span("op", "bench", item=f"read_views#{position}"):
                    start = perf_counter()
                    for view in views:
                        view.rows()
                    read = perf_counter() - start
                with span("op", "bench", item=f"adhoc_query#{position}"):
                    start = perf_counter()
                    with span("sparql.evaluator", "bench"):
                        self.engine.query(query)
                    asked = perf_counter() - start
            except Exception as error:
                tally.check(False, f"pass {self.passes} tick {position}: {error!r}")
                continue
            samples.setdefault(f"apply_batch#{position}", []).append(applied)
            samples.setdefault(f"read_views#{position}", []).append(read)
            samples.setdefault(f"adhoc_query#{position}", []).append(asked)
            tally.attempted += len(self.OPERATIONS)
            if checkpoint and 2 * (position + 1) == len(cycle):
                self.check_views(tally, f"pass {self.passes} tick {position}")
        tally.check(len(graph) == self.triples, f"pass {self.passes}: base graph not restored")

    def named_metrics(self, latencies: Dict[str, float], samples: Samples) -> Dict[str, Dict]:
        cycle = self.inputs.cycle
        ticks = range(len(cycle))
        changes = sum(len(adds) + len(removes) for adds, removes in cycle)
        apply_s = sum(latencies[f"apply_batch#{tick}"] for tick in ticks)
        batches = sorted(
            value for tick in ticks for value in samples.get(f"apply_batch#{tick}", ())
        )
        reads = [
            read + asked
            for tick in ticks
            for read, asked in zip(
                samples.get(f"read_views#{tick}", ()), samples.get(f"adhoc_query#{tick}", ())
            )
        ]
        return {
            "changes_per_s": {"value": changes / apply_s, "unit": "1/s"},
            "change_batch_p50_ms": {
                "value": statistics.median(batches) * 1e3, "unit": "ms", "samples": len(batches),
            },
            "change_batch_p90_ms": {
                "value": nearest_rank(batches, 0.9) * 1e3, "unit": "ms", "samples": len(batches),
            },
            "view_read_p50_ms": {
                "value": statistics.median(reads) * 1e3, "unit": "ms", "samples": len(reads),
            },
        }

    def check_views(self, tally: Tally, where: str) -> Dict[str, object]:
        """Every view against a fresh evaluation of its query."""
        digests = {}
        for name, view in self.views.items():
            route = gen.IVM_VIEWS[name][1]
            tally.check(
                view.maintenance == route,
                f"view {name}: maintained by {view.maintenance}, the workload needs {route}",
            )
            fresh = self.engine.query(view.query)
            maintained = Counter(view.rows())
            tally.check(
                maintained == Counter(tuple(row) for row in fresh.rows()),
                f"{where}: view {name} differs from a fresh evaluation",
            )
            digests[name] = bag_digest(
                "\t".join("" if term is None else term.n3() for term in row)
                for row in maintained.elements()
            )
        return digests

    def verify(self, expected: Optional[Dict], tally: Tally) -> Dict[str, object]:
        """Fifth checkpoint; the base-graph view contents are committed."""
        digests = self.check_views(tally, "final state")
        if expected is not None:
            for name, digest in digests.items():
                tally.check(
                    digest == expected.get(name),
                    f"view {name}: digest {digest} != committed {expected.get(name)}",
                )
        return digests


def make_workload(name: str, inputs, out_dir: str, tracer: Optional[Tracer] = None):
    """The workload ``name`` over generated ``inputs`` (``inputs.make_inputs``)."""
    if name in ("sp2bench_sparqlog", "gmark_sparqlog"):
        return QueryWorkload(name, inputs, "sparqlog", tracer=tracer)
    if name in ("sp2bench_native", "gmark_native"):
        return QueryWorkload(name, inputs, "native", tracer=tracer)
    if name == "feasible_native":
        return QueryWorkload(name, inputs, "native", cold=True, tracer=tracer)
    if name == "bulk_load":
        return BulkLoad(name, inputs, out_dir, tracer=tracer)
    if name == "ivm_churn":
        return IvmChurn(name, inputs, tracer=tracer)
    raise ValueError(f"unknown workload {name!r}")
