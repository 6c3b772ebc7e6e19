"""Ablation benchmarks for the design choices called out in DESIGN.md.

* **Tuple-ID (bag) vs set semantics** — the Skolem duplicate-preservation
  machinery is the translation's main overhead; DISTINCT queries drop it.
* **Transitive closure strategy** — the Datalog engine's semi-naive
  fixpoint vs the native evaluator's per-source expansion on a recursive
  two-variable path query (the workload where the two approaches diverge).
* **Data translation cost** — T_D is the per-query "loading" cost the
  performance experiments pay when reloading the dataset, and it must
  scale linearly with the number of triples.
"""

import pytest

from repro.core.data_translation import DataTranslator
from repro.core.engine import SparqLogEngine
from repro.engine import create_engine
from repro.rdf.graph import Dataset, Graph
from repro.rdf.terms import IRI, Triple
from repro.workloads.gmark import GMarkWorkload
from repro.workloads.gmark import test_scenario as gmark_test_scenario

PREFIX = "PREFIX gmark: <http://example.org/gMark/>\n"


@pytest.fixture(scope="module")
def gmark_dataset() -> Dataset:
    return GMarkWorkload(gmark_test_scenario(), scale=0.15, seed=9).dataset()


def test_ablation_bag_vs_set_semantics(benchmark, gmark_dataset):
    """Bag semantics (Skolem tuple IDs) vs DISTINCT (set semantics)."""
    engine = SparqLogEngine(gmark_dataset, timeout_seconds=30)
    bag_query = PREFIX + "SELECT ?x ?y WHERE { ?x gmark:p0/gmark:p1 ?y }"
    set_query = PREFIX + "SELECT DISTINCT ?x ?y WHERE { ?x gmark:p0/gmark:p1 ?y }"

    def run_both():
        bag = engine.query(bag_query)
        distinct = engine.query(set_query)
        return bag, distinct

    bag, distinct = benchmark.pedantic(run_both, rounds=1, iterations=1)
    print(f"\nbag rows: {len(bag)}, distinct rows: {len(distinct)}")
    assert len(bag) >= len(distinct)


def test_ablation_closure_seminaive_vs_per_source(benchmark, gmark_dataset):
    """Semi-naive Datalog closure vs the native per-source expansion."""
    query = PREFIX + "SELECT DISTINCT ?x ?y WHERE { ?x (gmark:p0|gmark:p1)+ ?y }"
    sparqlog = SparqLogEngine(gmark_dataset, timeout_seconds=60)
    native = create_engine(gmark_dataset)

    def run_both():
        return sparqlog.query(query), native.query(query)

    translated, reference = benchmark.pedantic(run_both, rounds=1, iterations=1)
    assert translated.counter() == reference.counter()


def test_ablation_data_translation_scaling(benchmark):
    """T_D cost grows linearly with the number of triples."""
    def build(count):
        graph = Graph()
        for index in range(count):
            graph.add(
                Triple(IRI(f"http://n/{index}"), IRI("http://p"), IRI(f"http://n/{index + 1}"))
            )
        return Dataset.from_graph(graph)

    small, large = build(500), build(2000)
    translator = DataTranslator()

    def run_both():
        return translator.translate(small), translator.translate(large)

    program_small, program_large = benchmark.pedantic(run_both, rounds=1, iterations=1)
    assert len(program_large.facts) > 3 * len(program_small.facts)
