"""Tests for the physical operator layer (:mod:`repro.sparql.physical`).

Four angles on the logical-plan → physical-DAG lowering:

* unit tests for the analysis primitives — GYO cyclicity detection and
  the leapfrog sorted-intersection kernel,
* golden ``explain()`` renderings for the canonical BGP shapes (star,
  chain, triangle, path-bearing, filtered), pinning which operator the
  lowering picks and how the tree reads,
* behavioural tests: leapfrog-vs-oracle multiset parity, eligibility
  fallbacks (variable predicates, repeated variables, too few patterns),
  per-operator row/probe counters, and the evaluator's plan-cache
  dead-entry purge,
* differential tests for the extended FILTER pushdown: OPTIONAL-scoped
  conditions and FILTER-over-MINUS agree with the unplanned oracle.
"""

from collections import Counter
from itertools import permutations

import gc
import re

import pytest

from repro.rdf.graph import Dataset, Graph
from repro.rdf.terms import Triple, Variable
from repro.sparql import physical
from repro.sparql.algebra import TriplePatternNode
from repro.sparql.evaluator import SparqlEvaluator
from repro.sparql.expressions import Comparison, TermExpr, VariableExpr
from repro.sparql.parser import parse_query
from repro.sparql.leapfrog import intersect
from repro.sparql.operators import IndexNestedLoopJoin, LeapfrogJoin
from repro.sparql.ordering import is_cyclic
from repro.sparql.physical import lower_bgp
from repro.sparql.plan import plan_bgp
from repro.sparql.profile import ExecutionProfile
from repro.store import EncodedGraph, bulk_load_ntriples

from tests.helpers import EX, plan_cache_lookup, scan_work

PREFIX = "PREFIX ex: <http://ex.org/>\n"


def tp(subject, predicate, obj):
    return TriplePatternNode(Triple(subject, predicate, obj))


def _vars(*names):
    return [Variable(name) for name in names]


# ----------------------------------------------------------------------
# GYO cyclicity detection
# ----------------------------------------------------------------------
class TestIsCyclic:
    def test_triangle_is_cyclic(self):
        a, b, c = _vars("a", "b", "c")
        assert is_cyclic([{a, b}, {b, c}, {c, a}])

    def test_chain_is_acyclic(self):
        a, b, c, d = _vars("a", "b", "c", "d")
        assert not is_cyclic([{a, b}, {b, c}, {c, d}])

    def test_star_is_acyclic(self):
        s, a, b, c = _vars("s", "a", "b", "c")
        assert not is_cyclic([{s, a}, {s, b}, {s, c}])

    def test_four_cycle_is_cyclic(self):
        a, b, c, d = _vars("a", "b", "c", "d")
        assert is_cyclic([{a, b}, {b, c}, {c, d}, {d, a}])

    def test_triangle_with_pendant_ear_is_cyclic(self):
        # Ear removal strips {a, w} but the triangle core remains stuck.
        a, b, c, w = _vars("a", "b", "c", "w")
        assert is_cyclic([{a, b}, {b, c}, {c, a}, {a, w}])

    def test_subset_edge_is_absorbed(self):
        # {a, b} ⊆ {a, b, c}: GYO removes it, leaving an acyclic rest.
        a, b, c = _vars("a", "b", "c")
        assert not is_cyclic([{a, b, c}, {a, b}, {b, c}])

    def test_disconnected_edges_are_acyclic(self):
        a, b, c, d = _vars("a", "b", "c", "d")
        assert not is_cyclic([{a, b}, {c, d}])

    def test_trivial_inputs(self):
        a, b = _vars("a", "b")
        assert not is_cyclic([])
        assert not is_cyclic([{a, b}])
        assert not is_cyclic([{a, b}, {a, b}])


# ----------------------------------------------------------------------
# leapfrog sorted intersection
# ----------------------------------------------------------------------
class TestLeapfrogIntersect:
    def test_no_arrays_yields_nothing(self):
        assert list(intersect([])) == []

    def test_single_array_yields_all(self):
        assert list(intersect([[1, 4, 9]])) == [1, 4, 9]

    def test_empty_member_short_circuits(self):
        assert list(intersect([[1, 2, 3], []])) == []

    def test_pairwise_intersection(self):
        assert list(intersect([[1, 3, 5, 7], [2, 3, 6, 7]])) == [3, 7]

    def test_three_way_intersection(self):
        arrays = [[1, 2, 3, 4, 5], [2, 4, 6, 8], [4, 5, 6, 7]]
        assert list(intersect(arrays)) == [4]

    def test_disjoint_arrays(self):
        assert list(intersect([[1, 3], [2, 4]])) == []

    def test_identical_arrays(self):
        assert list(intersect([[2, 5, 8], [2, 5, 8], [2, 5, 8]])) == [2, 5, 8]

    def test_skewed_galloping(self):
        wide = list(range(0, 10_000, 3))
        assert list(intersect([wide, [9, 27, 5000, 9998]])) == [9, 27]


# ----------------------------------------------------------------------
# golden explain() renderings
# ----------------------------------------------------------------------
_TRIPLES = [
    Triple(EX.s1, EX.p, EX.a),
    Triple(EX.s1, EX.q, EX.b),
    Triple(EX.s1, EX.r, EX.c),
    Triple(EX.s2, EX.p, EX.a),
    Triple(EX.s2, EX.q, EX.b),
    Triple(EX.a, EX.p, EX.b),
    Triple(EX.b, EX.p, EX.c),
    Triple(EX.c, EX.p, EX.a),
]

_STAR = PREFIX + "SELECT * WHERE { ?s ex:p ?a . ?s ex:q ?b . ?s ex:r ?c }"
_CHAIN = PREFIX + "SELECT * WHERE { ?a ex:p ?b . ?b ex:q ?c }"
_TRIANGLE = PREFIX + "SELECT * WHERE { ?a ex:p ?b . ?b ex:p ?c . ?c ex:p ?a }"
_PATH = PREFIX + "SELECT * WHERE { ?a ex:p ?b . ?b ex:q+ ?c }"
_FILTERED_TRIANGLE = (
    PREFIX
    + "SELECT * WHERE { ?a ex:p ?b . ?b ex:p ?c . ?c ex:p ?a . FILTER(?a != ?b) }"
)
_FILTERED_CHAIN = PREFIX + "SELECT * WHERE { ?a ex:p ?b . ?b ex:q ?c FILTER(?c != ex:b) }"
_FILTERED_STAR = PREFIX + "SELECT * WHERE { ?s ex:p ?a . ?s ex:q ?b FILTER(?a != ?b) }"
_DISTINCT_CHAIN = PREFIX + "SELECT DISTINCT ?a WHERE { ?a ex:p ?b . ?b ex:q ?c }"
_BOUND_STAR = PREFIX + "SELECT * WHERE { ex:s1 ex:p ?a . ex:s1 ex:q ?b }"
_TWO_CYCLE = PREFIX + "SELECT * WHERE { ?a ex:p ?b . ?b ex:p ?a }"
_FOUR_CYCLE = PREFIX + "SELECT * WHERE { ?a ex:p ?b . ?b ex:p ?c . ?c ex:p ?d . ?d ex:p ?a }"
_VARIABLE_PREDICATE_TRIANGLE = PREFIX + "SELECT * WHERE { ?a ?x ?b . ?b ex:p ?c . ?c ex:p ?a }"

_GOLDEN = {
    _STAR: """\
Project [?a, ?b, ?c, ?s]
└─ IndexNestedLoopJoin steps=3
   ├─ Scan TP(?s <http://ex.org/r> ?c) est=1 probe=?P? match
   ├─ Scan TP(?s <http://ex.org/p> ?a) est=1 probe=SP? entry
   └─ Scan TP(?s <http://ex.org/q> ?b) est=1 probe=SP? entry""",
    _CHAIN: """\
Project [?a, ?b, ?c]
└─ IndexNestedLoopJoin steps=2
   ├─ Scan TP(?b <http://ex.org/q> ?c) est=2 probe=?P? match
   └─ Scan TP(?a <http://ex.org/p> ?b) est=1.66667 probe=?PO entry""",
    _TRIANGLE: """\
Project [?a, ?b, ?c]
└─ LeapfrogJoin order=[?a, ?b, ?c]
   ├─ Scan TP(?a <http://ex.org/p> ?b) est=5
   ├─ Scan TP(?b <http://ex.org/p> ?c) est=1
   └─ Scan TP(?c <http://ex.org/p> ?a) est=0.333333""",
    _PATH: """\
Project [?a, ?b, ?c]
└─ IndexNestedLoopJoin steps=2
   ├─ Scan TP(?a <http://ex.org/p> ?b) est=5 probe=?P? match
   └─ PathExpand Path(?b OneOrMore(Link(http://ex.org/q)) ?c) est=1.6""",
    _FILTERED_TRIANGLE: """\
Project [?a, ?b, ?c]
└─ LeapfrogJoin order=[?a, ?b, ?c] filters=[(?a != ?b)@?b]
   ├─ Scan TP(?a <http://ex.org/p> ?b) est=5
   ├─ Scan TP(?b <http://ex.org/p> ?c) est=1
   └─ Scan TP(?c <http://ex.org/p> ?a) est=0.333333""",
    # Pushdown in a binary join: the conjunct sits on the step binding ?c.
    _FILTERED_CHAIN: """\
Project [?a, ?b, ?c]
└─ IndexNestedLoopJoin steps=2
   ├─ Filter (?c != <http://ex.org/b>) kernel=id
   │  └─ Scan TP(?b <http://ex.org/q> ?c) est=2 probe=?P? match
   └─ Scan TP(?a <http://ex.org/p> ?b) est=1.66667 probe=?PO entry""",
    # ... and on the second step, the first binding both its variables.
    _FILTERED_STAR: """\
Project [?a, ?b, ?s]
└─ IndexNestedLoopJoin steps=2
   ├─ Scan TP(?s <http://ex.org/q> ?b) est=2 probe=?P? match
   └─ Filter (?a != ?b) kernel=id
      └─ Scan TP(?s <http://ex.org/p> ?a) est=1 probe=SP? entry""",
    _DISTINCT_CHAIN: """\
Project [?a] distinct
└─ IndexNestedLoopJoin steps=2
   ├─ Scan TP(?b <http://ex.org/q> ?c) est=2 probe=?P? match
   └─ Scan TP(?a <http://ex.org/p> ?b) est=1.66667 probe=?PO entry""",
    _BOUND_STAR: """\
Project [?a, ?b]
└─ IndexNestedLoopJoin steps=2
   ├─ Scan TP(<http://ex.org/s1> <http://ex.org/p> ?a) est=1 probe=SP? entry
   └─ Scan TP(<http://ex.org/s1> <http://ex.org/q> ?b) est=1 probe=SP? entry""",
    # Cyclic, but two patterns never take the leapfrog join.
    _TWO_CYCLE: """\
Project [?a, ?b]
└─ IndexNestedLoopJoin steps=2
   ├─ Scan TP(?a <http://ex.org/p> ?b) est=5 probe=?P? match
   └─ Scan TP(?b <http://ex.org/p> ?a) est=0.333333 probe=SPO member""",
    _FOUR_CYCLE: """\
Project [?a, ?b, ?c, ?d]
└─ LeapfrogJoin order=[?a, ?b, ?c, ?d]
   ├─ Scan TP(?a <http://ex.org/p> ?b) est=5
   ├─ Scan TP(?b <http://ex.org/p> ?c) est=1
   ├─ Scan TP(?c <http://ex.org/p> ?d) est=1
   └─ Scan TP(?d <http://ex.org/p> ?a) est=0.333333""",
    # Cyclic, but the variable predicate sends it back to binary joins.
    _VARIABLE_PREDICATE_TRIANGLE: """\
Project [?a, ?b, ?c, ?x]
└─ IndexNestedLoopJoin steps=3
   ├─ Scan TP(?b <http://ex.org/p> ?c) est=5 probe=?P? match
   ├─ Scan TP(?c <http://ex.org/p> ?a) est=1 probe=SP? entry
   └─ Scan TP(?a ?x ?b) est=0.533333 probe=S?O entry""",
}


@pytest.mark.parametrize(
    "query_text",
    [
        _STAR,
        _CHAIN,
        _TRIANGLE,
        _PATH,
        _FILTERED_TRIANGLE,
        _FILTERED_CHAIN,
        _FILTERED_STAR,
        _DISTINCT_CHAIN,
        _BOUND_STAR,
        _TWO_CYCLE,
        _FOUR_CYCLE,
        _VARIABLE_PREDICATE_TRIANGLE,
    ],
    ids=[
        "star",
        "chain",
        "triangle",
        "path",
        "filtered-triangle",
        "filtered-chain",
        "filtered-star",
        "distinct-chain",
        "bound-star",
        "two-cycle",
        "four-cycle",
        "variable-predicate-triangle",
    ],
)
def test_golden_explain(query_text):
    evaluator = SparqlEvaluator(Dataset.from_graph(EncodedGraph(_TRIPLES)))
    rendered = evaluator.explain(parse_query(query_text))
    assert rendered == _GOLDEN[query_text]
    assert evaluator.last_physical_plan is not None


def test_explain_rejects_unplanned_patterns():
    evaluator = SparqlEvaluator(Dataset.from_graph(EncodedGraph(_TRIPLES)))
    query = parse_query(
        PREFIX + "SELECT * WHERE { { ?s ex:p ?o } UNION { ?s ex:q ?o } }"
    )
    with pytest.raises(Exception):
        evaluator.explain(query)


# ----------------------------------------------------------------------
# operator selection and fallbacks
# ----------------------------------------------------------------------
def _triangle_patterns():
    a, b, c = _vars("a", "b", "c")
    return [tp(a, EX.p, b), tp(b, EX.p, c), tp(c, EX.p, a)]


class TestOperatorSelection:
    def test_triangle_selects_leapfrog_on_encoded(self):
        graph = EncodedGraph(_TRIPLES)
        plan = lower_bgp(graph, _triangle_patterns())
        assert isinstance(plan.root.child, LeapfrogJoin)

    def test_acyclic_bgp_stays_binary(self):
        graph = EncodedGraph(_TRIPLES)
        a, b, c = _vars("a", "b", "c")
        plan = lower_bgp(graph, [tp(a, EX.p, b), tp(b, EX.q, c)])
        assert isinstance(plan.root.child, IndexNestedLoopJoin)

    def test_variable_predicate_disqualifies_leapfrog(self):
        graph = EncodedGraph(_TRIPLES)
        a, b, c, p = _vars("a", "b", "c", "p")
        plan = lower_bgp(graph, [tp(a, p, b), tp(b, EX.p, c), tp(c, EX.p, a)])
        assert isinstance(plan.root.child, IndexNestedLoopJoin)

    def test_repeated_variable_in_pattern_disqualifies_leapfrog(self):
        graph = EncodedGraph(_TRIPLES)
        a, b, c = _vars("a", "b", "c")
        plan = lower_bgp(
            graph, [tp(a, EX.p, a), tp(a, EX.p, b), tp(b, EX.p, c), tp(c, EX.p, a)]
        )
        assert isinstance(plan.root.child, IndexNestedLoopJoin)

    def test_two_patterns_never_leapfrog(self):
        graph = EncodedGraph(_TRIPLES)
        a, b = _vars("a", "b")
        plan = lower_bgp(graph, [tp(a, EX.p, b), tp(b, EX.p, a)])
        assert isinstance(plan.root.child, IndexNestedLoopJoin)


# ----------------------------------------------------------------------
# leapfrog-vs-oracle parity and counters
# ----------------------------------------------------------------------
class TestExecution:
    def _clique(self, size=6):
        nodes = [EX[f"n{index}"] for index in range(size)]
        triples = [
            Triple(left, EX.p, right)
            for left in nodes
            for right in nodes
            if left != right
        ]
        return EncodedGraph(triples)

    def test_leapfrog_matches_the_oracle_on_clique(self):
        graph = self._clique()
        leapfrog = lower_bgp(graph, _triangle_patterns())
        assert isinstance(leapfrog.root.child, LeapfrogJoin)
        rows = Counter(physical.execute(leapfrog, graph))
        naive = SparqlEvaluator(Dataset.from_graph(Graph(graph)), profile=ExecutionProfile.NAIVE)
        assert rows == Counter(naive.evaluate(parse_query(_TRIANGLE)).bindings)
        assert sum(rows.values()) == 6 * 5 * 4  # ordered triangles of K6

    def test_counters_populate_after_execution(self):
        graph = self._clique(4)
        plan = lower_bgp(graph, _triangle_patterns())
        list(physical.execute(plan, graph))
        counters = plan.counters()
        assert counters[0]["operator"] == "Project"
        assert counters[0]["rows"] == 4 * 3 * 2
        by_operator = {entry["operator"] for entry in counters}
        assert "LeapfrogJoin" in by_operator
        scan_rows = [
            entry["probes"] for entry in counters if entry["operator"] == "Scan"
        ]
        assert all(probes > 0 for probes in scan_rows)
        plan.reset_stats()
        assert all(entry["rows"] == 0 for entry in plan.counters())

    def test_inlj_counters_track_probes_and_rows(self):
        graph = EncodedGraph(_TRIPLES)
        a, b = _vars("a", "b")
        plan = lower_bgp(graph, [tp(a, EX.p, b), tp(b, EX.p, a)])
        rows = list(physical.execute(plan, graph))
        counters = {entry["operator"]: entry for entry in plan.counters()}
        assert counters["Project"]["rows"] == len(rows)
        assert counters["IndexNestedLoopJoin"]["rows"] == len(rows)

    @pytest.mark.parametrize(
        "patterns, explained, analyzed",
        [
            # The first two steps of the triangle's binary plan: the counts the
            # per-row term interpreter recorded for them, to the digit.
            (
                2,
                """\
Project [?a, ?b, ?c]
└─ Filter (<http://ex.org/a> = <http://ex.org/a>) kernel=id
   └─ IndexNestedLoopJoin steps=2
      ├─ Filter (?a != ?b) kernel=id
      │  └─ Scan TP(?a <http://ex.org/p> ?b) est=5 probe=?P? match
      └─ Filter (?c != <http://ex.org/b>) kernel=id
         └─ Scan TP(?b <http://ex.org/p> ?c) est=1 probe=SP? entry""",
                [
                    "rows=2 probes=0",
                    "rows=1 probes=1",
                    "rows=2 probes=0",
                    "rows=5 probes=5",
                    "rows=5 probes=1 actual=5/probe err=1x",
                    "rows=2 probes=5",
                    "rows=5 probes=5 actual=1/probe err=1x",
                ],
            ),
            (
                3,
                """\
Project [?a, ?b, ?c]
└─ Filter (<http://ex.org/a> = <http://ex.org/a>) kernel=id
   └─ LeapfrogJoin order=[?a, ?b, ?c] filters=[(?a != ?b)@?b, (?c != <http://ex.org/b>)@?c]
      ├─ Scan TP(?a <http://ex.org/p> ?b) est=5
      ├─ Scan TP(?b <http://ex.org/p> ?c) est=1
      └─ Scan TP(?c <http://ex.org/p> ?a) est=0.333333""",
                [
                    "rows=2 probes=0",
                    "rows=1 probes=1",
                    "rows=2 probes=0",
                    "rows=8 probes=4 actual=2/probe err=2.5x",
                    "rows=18 probes=6 actual=3/probe err=0.33x",
                    "rows=8 probes=4 actual=2/probe err=0.17x",
                ],
            ),
        ],
        ids=["binary", "leapfrog"],
    )
    def test_counts_of_a_filtered_bgp(self, patterns, explained, analyzed):
        graph = EncodedGraph(_TRIPLES)
        a, b, c = _vars("a", "b", "c")
        conditions = (
            Comparison("!=", VariableExpr(a), VariableExpr(b)),
            Comparison("!=", VariableExpr(c), TermExpr(EX.b)),
            Comparison("=", TermExpr(EX.a), TermExpr(EX.a)),
        )
        plan = lower_bgp(graph, _triangle_patterns()[:patterns], conditions)
        assert plan.explain() == explained
        assert len(list(physical.execute(plan, graph, timed=True))) == 2
        header, *lines = plan.explain_analyze(total_seconds=0.0).splitlines()
        assert header == "EXPLAIN ANALYZE total=0.00ms"
        # The tree of explain(), each line followed by its time and counts.
        assert [re.sub(r"^[ │├└─]*", "", line.split(" | ")[0]) for line in lines] == [
            re.sub(r"^[ │├└─]*", "", line) for line in explained.splitlines()
        ]
        assert [re.sub(r".* \| time=[0-9.]+ms ", "", line) for line in lines] == analyzed


# ----------------------------------------------------------------------
# leapfrog vs binary on the skewed hub workload, in index probes
# ----------------------------------------------------------------------
class TestSkewedCyclicWorkload:
    """The classic worst case for binary plans ("Skew Strikes Back"): 700
    spokes point at one hub and back, so a binary triangle plan enumerates
    every wedge through the hub — Θ(N²) probes that almost all die at the
    closing pattern (493 685 for the triangle, 522 725 for the 4-clique)
    — while leapfrog fetches one sorted run per candidate; a 12-clique
    supplies the answers and an ``r`` chain the acyclic case.  Pinned:
    the leapfrog plans' summed scan ``probes``, exact counts; not the
    scans' ``rows``, which are run lengths galloped through."""

    P = "<http://ex.org/p>"
    TRIANGLE = f"{{ ?a {P} ?b . ?b {P} ?c . ?c {P} ?a }}"
    CLIQUE4 = f"{{ ?a {P} ?b . ?a {P} ?c . ?a {P} ?d . ?b {P} ?c . ?b {P} ?d . ?c {P} ?d }}"
    N_CHAIN = 2000

    @pytest.fixture(scope="class")
    def graph(self):
        hub = "<http://ex.org/hub>"
        lines = []
        for i in range(700):
            lines += [f"<http://ex.org/n{i}> {self.P} {hub} .", f"{hub} {self.P} <http://ex.org/n{i}> ."]
        lines += [
            f"<http://ex.org/c{i}> {self.P} <http://ex.org/c{j}> ."
            for i in range(12)
            for j in range(12)
            if i != j
        ]
        lines += [
            f"<http://ex.org/u{i}> <http://ex.org/r> <http://ex.org/u{i + 1}> ."
            for i in range(self.N_CHAIN)
        ]
        return bulk_load_ntriples("\n".join(lines))

    @pytest.mark.parametrize(
        "pattern, width, probes",
        [(TRIANGLE, 3, 4_492), (CLIQUE4, 4, 10_698)],
        ids=["triangle", "clique4"],
    )
    def test_leapfrog_probes_stay_off_the_wedges(self, graph, pattern, width, probes):
        leapfrog = SparqlEvaluator(Dataset.from_graph(graph))
        rows = Counter(leapfrog.evaluate(parse_query("SELECT * WHERE " + pattern)).rows())
        assert isinstance(leapfrog.last_physical_plan.root.child, LeapfrogJoin)
        # Every ordered tuple of distinct clique nodes, nothing through the hub.
        clique = [EX[f"c{index}"] for index in range(12)]
        assert rows == Counter(permutations(clique, width))
        assert scan_work(leapfrog)[0] == probes

    def test_acyclic_chain_pays_nothing_for_the_leapfrog_assessment(self, graph):
        """GYO finds the chain acyclic: the binary join with the scan work of
        a plain index-nested-loop plan, no fallback to report, no sorted run
        built — the eligibility analysis never touches the store."""
        r = "<http://ex.org/r>"
        query = parse_query(f"SELECT * WHERE {{ ?a {r} ?b . ?b {r} ?c . ?c {r} ?d }}")
        counters = graph.enable_counters()
        builds = counters.sorted_run_builds
        evaluator = SparqlEvaluator(Dataset.from_graph(graph))
        rows = Counter(evaluator.evaluate(query).rows())
        chain = [EX[f"u{index}"] for index in range(self.N_CHAIN + 1)]
        assert rows == Counter(zip(chain, chain[1:], chain[2:], chain[3:]))
        plan = evaluator.last_physical_plan
        assert isinstance(plan.root.child, IndexNestedLoopJoin) and plan.wcoj_fallback is None
        # 1 + N + (N - 1) probes returning N + (N - 1) + (N - 2) rows.
        assert scan_work(evaluator) == (2 * self.N_CHAIN, 3 * self.N_CHAIN - 3)
        assert counters.sorted_run_builds == builds


# ----------------------------------------------------------------------
# plan cache hygiene
# ----------------------------------------------------------------------
def test_plan_cache_purges_dead_graph_entries():
    dataset = Dataset.from_graph(EncodedGraph(_TRIPLES))
    evaluator = SparqlEvaluator(dataset)
    cache, lookup = plan_cache_lookup(evaluator)
    s, o, t = _vars("s", "o", "t")

    transient = EncodedGraph(_TRIPLES)
    lookup(transient, (tp(s, EX.q, o), tp(o, EX.p, t)))
    assert len(cache) == 1
    del transient
    gc.collect()

    # The next miss sweeps every entry whose graph has been collected.
    lookup(dataset.default_graph, (tp(s, EX.p, o), tp(o, EX.p, t)))
    assert len(cache) == 1
    assert evaluator.metrics()["sparql_plan_cache_evictions_total"] >= 1


# ----------------------------------------------------------------------
# extended FILTER pushdown: OPTIONAL and MINUS
# ----------------------------------------------------------------------
_PUSHDOWN_TRIPLES = [
    Triple(EX.s1, EX.p, EX.a),
    Triple(EX.s2, EX.p, EX.b),
    Triple(EX.s3, EX.p, EX.c),
    Triple(EX.a, EX.q, EX.v1),
    Triple(EX.a, EX.q, EX.v2),
    Triple(EX.b, EX.q, EX.v2),
    Triple(EX.s1, EX.r, EX.x),
    Triple(EX.s2, EX.r, EX.v1),
]

_PUSHDOWN_QUERIES = [
    # OPTIONAL condition over the right-side variables only: pushable.
    PREFIX
    + "SELECT * WHERE { ?s ex:p ?o OPTIONAL { ?o ex:q ?v FILTER(?v != ex:v2) } }",
    # Multi-pattern OPTIONAL right side with a pushable conjunct and a
    # cross-side conjunct that must stay residual.
    PREFIX
    + "SELECT * WHERE { ?s ex:p ?o OPTIONAL { ?o ex:q ?v . ?s ex:r ?w"
    + " FILTER(?v != ex:v2 && ?w != ?o) } }",
    # FILTER scoped over a MINUS: pushes into the left-side pipeline.
    PREFIX
    + "SELECT * WHERE { ?s ex:p ?o . MINUS { ?s ex:r ?x } FILTER(?o != ex:a) }",
    # FILTER both inside the MINUS left group and over the whole group.
    PREFIX
    + "SELECT * WHERE { { ?s ex:p ?o . FILTER(isIRI(?o)) } MINUS { ?s ex:r ?x }"
    + " FILTER(?o != ex:b) }",
    # Empty filtered-left short-circuit: the right side is never needed.
    PREFIX
    + "SELECT * WHERE { ?s ex:p ?o . MINUS { ?s ex:r ?x } FILTER(?o = ex:nothing) }",
]


@pytest.mark.parametrize(
    "query_text",
    _PUSHDOWN_QUERIES,
    ids=["optional", "optional-partial", "minus", "minus-nested", "minus-empty"],
)
def test_extended_pushdown_matches_the_oracle(query_text):
    dataset = Dataset.from_graph(EncodedGraph(_PUSHDOWN_TRIPLES))
    query = parse_query(query_text)
    pushdown = Counter(SparqlEvaluator(dataset).evaluate(query).rows())
    naive = SparqlEvaluator(
        Dataset.from_graph(Graph(_PUSHDOWN_TRIPLES)), profile=ExecutionProfile.NAIVE
    )
    assert pushdown == Counter(naive.evaluate(query).rows())


def test_optional_pushdown_keeps_unmatched_left_rows():
    # ?s3's object ?c has no ex:q edge: the OPTIONAL must keep the bare
    # left row whether or not the condition was pushed into the right BGP.
    dataset = Dataset.from_graph(EncodedGraph(_PUSHDOWN_TRIPLES))
    evaluator = SparqlEvaluator(dataset)
    query = parse_query(
        PREFIX
        + "SELECT ?s ?v WHERE { ?s ex:p ?o OPTIONAL { ?o ex:q ?v"
        + " FILTER(?v != ex:v2) } }"
    )
    rows = Counter(evaluator.evaluate(query).rows())
    assert rows == Counter(
        {
            (EX.s1, EX.v1): 1,  # v2 filtered away, v1 survives
            (EX.s2, None): 1,  # only v2 matched: left row kept bare
            (EX.s3, None): 1,  # no ex:q edge at all
        }
    )


def test_minus_pushdown_streams_into_left_pipeline():
    dataset = Dataset.from_graph(EncodedGraph(_PUSHDOWN_TRIPLES))
    evaluator = SparqlEvaluator(dataset)
    query = parse_query(
        PREFIX
        + "SELECT ?s ?o WHERE { ?s ex:p ?o . MINUS { ?s ex:r ?x } FILTER(?o != ex:a) }"
    )
    rows = Counter(evaluator.evaluate(query).rows())
    # s1 filtered (o = a), s2 removed by MINUS (has ex:r), s3 survives.
    assert rows == Counter({(EX.s3, EX.c): 1})
    # The filtered BGP ran through the physical pipeline.
    assert evaluator.last_physical_plan is not None
