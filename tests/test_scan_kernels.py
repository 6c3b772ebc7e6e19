"""The shape-specialised scan steps of the compiled id pipeline.

A scan with at most one free position asks the store for a
verdict (``contains_ids``) or for the index entry itself
(``object_entry_ids`` / ``subject_entry_ids`` / ``predicate_entry_ids``)
instead of streaming ``match_triple_ids``; everything else — two or three
free positions, a repeated variable — keeps the stream.  Pinned here:

* a hypothesis differential of ``FULL`` on ``EncodedGraph`` against the
  unplanned ``tests.helpers.NAIVE`` oracle over random small graphs and
  BGPs covering every probe shape x entry kind (absent, one id, a set, a
  set shrunk back to an id by ``remove``) x an attached FILTER x
  ``initial=`` bindings, in and outside the graph;
* which shape takes which access path, as ``explain`` prints it, and that
  a specialised shape never reaches ``match_triple_ids``;
* counters: one ``index_probes`` per scan probe whenever
  ``enable_counters()`` ran, pinned per-operator ``(rows, probes)``,
  LIMIT / ASK, ``explain_analyze`` against the untimed run, recompilation
  after a mutation.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf.graph import Dataset, Graph
from repro.rdf.terms import Literal, Triple, Variable, XSD_INTEGER
from repro.sparql import idexec, operators, physical
from repro.sparql.algebra import TriplePatternNode
from repro.sparql.expressions import conjuncts
from repro.sparql.evaluator import SparqlEvaluator
from repro.sparql.parser import parse_query
from repro.sparql.profile import ExecutionProfile
from repro.sparql.solutions import Binding, realign_rows
from repro.store import EncodedGraph

from tests.helpers import EX

PREFIX = "PREFIX ex: <http://ex.org/>\n"

X, Y, Z = (Variable(name) for name in "xyz")
#: Terms used in *every* position, so ``?x ?x ?o`` and ``?x p ?x`` can match;
#: few of them, so that random graphs are dense and probes hit sets.
_TERMS = [EX[f"t{index}"] for index in range(3)]
_ONE, _TWO = Literal("1", XSD_INTEGER), Literal("2", XSD_INTEGER)
_OUTSIDE = EX.outside  # in no generated triple


def tp(subject, predicate, obj) -> TriplePatternNode:
    return TriplePatternNode(Triple(subject, predicate, obj))


def _conditions(text: str):
    """The conjuncts of ``FILTER(text)`` as expressions."""
    query = parse_query(PREFIX + "SELECT * WHERE { ?x ?y ?z FILTER(%s) }" % text)
    return tuple(conjuncts(query.pattern.condition))


def _oracle(triples, patterns, filter_text, initial: Binding, header, select: str = "*") -> Counter:
    """The unplanned evaluation of VALUES(initial) . patterns . FILTER on a
    fresh hash graph, as tuples aligned with ``header``: neither the step
    compiler nor the store under test."""
    body = ""
    if initial:
        names = " ".join(f"?{variable.name}" for variable, _ in initial.items())
        values = " ".join(term.n3() for _, term in initial.items())
        body += f"VALUES ({names}) {{ ({values}) }} "
    for node in patterns:
        body += " ".join(
            f"?{part.name}" if isinstance(part, Variable) else part.n3() for part in node.triple
        )
        body += " . "
    if filter_text:
        body += f"FILTER({filter_text})"
    evaluator = SparqlEvaluator(Dataset.from_graph(Graph(triples)), profile=ExecutionProfile.NAIVE)
    query = parse_query(PREFIX + "SELECT %s WHERE { %s }" % (select, body))
    answer = evaluator.evaluate(query)
    return Counter(realign_rows(answer.rows(), answer.variables, header))


def _scans(plan):
    return [op for op in plan.operators() if isinstance(op, operators.Scan)]


# ----------------------------------------------------------------------
# hypothesis differential: every shape x entry kind x FILTER x initial=
# ----------------------------------------------------------------------
_triple = st.tuples(
    st.sampled_from(_TERMS), st.sampled_from(_TERMS), st.sampled_from(_TERMS + [_ONE, _TWO])
)
#: (triple, kept): everything is added, then the unkept quarter is removed —
#: which takes index entries from a set back to one id, or away.
_edges = st.lists(st.tuples(_triple, st.integers(0, 3).map(bool)), min_size=6, max_size=30)
#: What a pattern makes of one position of a triple of the graph: keeps
#: the constant (``None``), frees it, or swaps in a term that may miss.
_slot = st.sampled_from([None] * 3 + [X, Y, Z] * 2 + _TERMS[:1])
_object_slot = st.sampled_from([None] * 3 + [X, Y, Z] * 2 + [_TERMS[0], _ONE])
_FILTERS = [
    "",
    "?x != ?y",
    "?z < 2",
    "?z = 1 && ?x != ex:t0",
    "sameTerm(?x, ?z)",
    "isIRI(?z)",
    "bound(?y) && ?y != ex:t1",
]


@settings(max_examples=300, deadline=None)
@given(edges=_edges, data=st.data())
def test_differential_against_the_unplanned_oracle(edges, data):
    graph = EncodedGraph(Triple(*edge) for edge, _ in edges)
    for edge, kept in edges:
        if not kept:
            graph.remove(Triple(*edge))
    # Patterns and initial bindings are cut from triples of the graph, so
    # most probes find something: an id, a set, a member.
    present = sorted(graph, key=repr) or [Triple(*edges[0][0])]
    nodes = []
    for _ in range(data.draw(st.integers(1, 2), label="patterns")):
        source = data.draw(st.sampled_from(present))
        slots = data.draw(st.tuples(_slot, _slot, _object_slot))
        nodes.append(tp(*(part if slot is None else slot for slot, part in zip(slots, source))))
    seed = tuple(data.draw(st.sampled_from(present)))
    initial = {}
    for variable in data.draw(st.sets(st.sampled_from([X, Y, Z]), max_size=2), label="initial"):
        positions = [index for index, part in enumerate(nodes[0].triple) if part == variable]
        fitting = seed[positions[0]] if positions else seed[0]
        initial[variable] = data.draw(st.sampled_from([fitting] * 6 + [_ONE, _OUTSIDE]))
    initial = Binding(initial)
    # A FILTER over variables something binds (an unbound one rejects every row).
    bound = set(initial).union(*(node.variables() for node in nodes))
    filter_text = data.draw(
        st.sampled_from(
            [
                text
                for text in _FILTERS
                if not text or set().union(*(c.variables() for c in _conditions(text))) <= bound
            ]
        ),
        label="filter",
    )
    plan = physical.lower_bgp(graph, nodes, _conditions(filter_text) if filter_text else ())
    rows = Counter(physical.execute_rows(plan, graph, initial=initial))
    header = idexec.row_header(plan, initial)
    assert rows == _oracle(present if len(graph) else [], nodes, filter_text, initial, header)


# ----------------------------------------------------------------------
# shapes and access paths
# ----------------------------------------------------------------------
#: (pattern with constants where the probe is bound, rendered access path).
_SHAPES = [
    ((EX.s, EX.p, EX.o), "SPO member"),
    ((EX.s, EX.p, EX.v), "SPO member"),  # a miss, next to a set in the "set" graph
    ((EX.s, EX.p, X), "SP? entry"),
    ((X, EX.p, EX.o), "?PO entry"),
    ((EX.s, X, EX.o), "S?O entry"),
    ((EX.s, X, Y), "S?? match"),
    ((X, EX.p, Y), "?P? match"),
    ((X, Y, EX.o), "??O match"),
    ((X, Y, Z), "??? match"),
    ((X, EX.p, X), "?P? match"),
    ((X, X, Y), "??? match"),
]
_shapes = pytest.mark.parametrize(
    "parts, access", _SHAPES, ids=[f"{index}-{access}" for index, (_, access) in enumerate(_SHAPES)]
)


def _entry_graphs():
    """The probed entries of every shape above as: absent, one id, a set,
    and a set taken back to one id by ``remove``."""
    one = [Triple(EX.s, EX.p, EX.o), Triple(EX.p, EX.p, EX.p), Triple(EX.u, EX.u, EX.v)]
    more = [
        Triple(EX.s, EX.p, EX.o2),  # (s, p, ?) becomes a set
        Triple(EX.s2, EX.p, EX.o),  # (?, p, o)
        Triple(EX.s, EX.p2, EX.o),  # (s, ?, o)
    ]
    yield "absent", EncodedGraph([Triple(EX.a, EX.b, EX.c)])
    yield "one-id", EncodedGraph(one)
    yield "set", EncodedGraph(one + more)
    shrunk = EncodedGraph(one + more)
    for triple in more:
        shrunk.remove(triple)
    yield "shrunk", shrunk


@_shapes
def test_each_shape_takes_its_access_path_and_answers_like_the_oracle(parts, access):
    for kind, graph in _entry_graphs():
        plan = physical.lower_bgp(graph, [tp(*parts)])
        (scan,) = _scans(plan)
        assert scan.access == access and scan.describe().endswith(f" probe={access}")
        rows = Counter(physical.execute_rows(plan, graph))
        header = idexec.row_header(plan)
        assert rows == _oracle(list(graph), [tp(*parts)], "", Binding(), header), kind
        if kind in ("one-id", "set", "shrunk") and EX.v not in parts:
            assert rows, (kind, access)


@_shapes
def test_a_specialised_shape_never_streams_match_triple_ids(parts, access, monkeypatch):
    _, graph = list(_entry_graphs())[2]
    plan = physical.lower_bgp(graph, [tp(*parts)])
    expected = Counter(physical.execute_rows(plan, graph))
    streamed = []
    original = graph.match_triple_ids

    def streaming(*ids):
        streamed.append(ids)
        return original(*ids)

    monkeypatch.setattr(graph, "match_triple_ids", streaming, raising=False)
    assert Counter(physical.execute_rows(plan, graph)) == expected
    assert Counter(physical.execute_rows(plan, graph, timed=True)) == expected
    assert bool(streamed) == access.endswith("match")


def test_the_access_path_follows_what_is_bound_at_execution():
    """``initial=`` binds positions the rendering (no pre-binding) shows free."""
    graph = EncodedGraph(
        [Triple(EX.s, EX.p, EX.o), Triple(EX.s, EX.p, EX.o2), Triple(EX.s2, EX.p, EX.o)]
    )
    plan = physical.lower_bgp(graph, [tp(X, EX.p, Y)])
    assert _scans(plan)[0].access == "?P? match"
    store = graph.enable_counters()
    for initial, rows in (
        (Binding(), 3),
        (Binding({X: EX.s}), 2),  # SP? entry: a set
        (Binding({Y: EX.o2}), 1),  # ?PO entry: one id
        (Binding({X: EX.s2, Y: EX.o}), 1),  # SPO member
        (Binding({X: EX.s2, Y: EX.o2}), 0),
        (Binding({X: _OUTSIDE}), 0),
    ):
        before = store.index_probes
        found = list(physical.execute_rows(plan, graph, initial=initial))
        header = idexec.row_header(plan, initial)
        assert len(found) == rows
        assert all(
            row[header.index(variable)] == term for row in found for variable, term in initial.items()
        )
        assert store.index_probes - before == 1
    assert idexec.access_path(idexec.probe_shape((X, EX.p, Y), {X})) == "entry"
    assert idexec.access_path(idexec.probe_shape((X, EX.p, Y), {X, Y})) == "member"
    assert idexec.access_path(idexec.probe_shape((X, EX.p, X), {X})) == "member"
    assert idexec.access_path(idexec.probe_shape((X, EX.p, Y), set())) == "match"


# ----------------------------------------------------------------------
# counters
# ----------------------------------------------------------------------
def _library_triples(people=12):
    """``people`` authors of two books each, every third one also an editor."""
    triples = []
    for index in range(people):
        person = EX[f"person{index}"]
        triples.append(Triple(person, EX.name, Literal(f"name{index % 5}")))
        triples.append(Triple(person, EX.type, EX.Author))
        if index % 3 == 0:
            triples.append(Triple(person, EX.type, EX.Editor))
        for copy in range(2):
            book = EX[f"book{index}_{copy}"]
            triples.append(Triple(book, EX.creator, person))
            triples.append(Triple(book, EX.type, EX.Book))
    return triples


#: A stream (?p name ?n) under a FILTER, an entry that is one id or a set
#: (?p type ?t), an entry that is a set (?b creator ?p), a verdict (?b type Book).
_LIBRARY = (
    PREFIX
    + "SELECT ?b ?n ?t WHERE { ?p ex:name ?n . ?b ex:creator ?p . ?b ex:type ex:Book . "
    "?p ex:type ?t . FILTER(?n != \"name0\") }"
)
#: Project, join, then the plan's operators in order; recorded at the parent commit.
_LIBRARY_COUNTS = [
    (24, 0),  # Project
    (24, 0),  # IndexNestedLoopJoin
    (9, 12),  # Filter (?n != "name0"): 12 tested
    (12, 1),  # Scan ?p name ?n
    (12, 9),  # Scan ?p type ?t
    (24, 12),  # Scan ?b creator ?p
    (24, 24),  # Scan ?b type Book
]


def _library_plan(graph):
    evaluator = SparqlEvaluator(Dataset.from_graph(graph))
    result = evaluator.evaluate(parse_query(_LIBRARY))
    return evaluator, evaluator.last_physical_plan, result


def _counts(plan):
    return [(entry["rows"], entry["probes"]) for entry in plan.counters()]


def test_per_operator_counts_are_what_the_streamed_scans_reported():
    graph = EncodedGraph(_library_triples())
    _, plan, result = _library_plan(graph)
    assert [scan.access for scan in _scans(plan)] == [
        "?P? match",
        "SP? entry",
        "?PO entry",
        "SPO member",
    ]
    assert len(result) == 24
    assert _counts(plan) == _LIBRARY_COUNTS


@pytest.mark.parametrize("enable", ["before compiling", "after compiling"])
def test_one_index_probe_per_scan_probe_whenever_counters_are_enabled(enable):
    graph = EncodedGraph(_library_triples())
    if enable == "before compiling":
        store = graph.enable_counters()
    _, plan, _ = _library_plan(graph)  # compiles and caches the pipeline
    compiled = dict(plan._compiled)
    if enable == "after compiling":
        store = graph.enable_counters()
    for timed in (False, True):
        before = store.index_probes
        assert len(list(physical.execute_rows(plan, graph, timed=timed))) == 24
        assert plan._compiled == compiled  # the cached form, freshly fetched accessors
        probes = sum(scan.stats.probes for scan in _scans(plan))
        assert store.index_probes - before == probes == 1 + 9 + 12 + 24


def test_limit_and_ask_report_the_rows_they_pulled():
    evaluator = SparqlEvaluator(Dataset.from_graph(EncodedGraph(_library_triples())))
    evaluator.evaluate(parse_query(_LIBRARY + " LIMIT 3"))
    limited = _counts(evaluator.last_physical_plan)
    assert limited[0] == (3, 0) and limited[1] == (3, 0)
    # Abandoned mid-way: every step reports what it produced until then.
    assert all(0 < rows <= full for (rows, _), (full, _) in zip(limited, _LIBRARY_COUNTS))
    assert limited[-1] == (3, 3)
    assert sum(rows for rows, _ in limited) < sum(rows for rows, _ in _LIBRARY_COUNTS)
    ask = _LIBRARY.replace("SELECT ?b ?n ?t WHERE", "ASK")
    assert evaluator.evaluate(parse_query(ask)) is True
    asked = _counts(evaluator.last_physical_plan)
    assert asked[0] == (1, 0) and asked[-1][1] == 1


def test_explain_analyze_counts_what_the_untimed_run_counts_and_times_every_scan():
    graph = EncodedGraph(_library_triples(people=1200))
    evaluator, plan, result = _library_plan(graph)
    untimed = _counts(plan)
    assert min(probes for _, probes in untimed[4:]) >= 900  # 1 000 and more on the id/set steps
    report = evaluator.explain_analyze(_LIBRARY)
    assert report.plan is plan and report.rows == len(result)
    assert _counts(plan) == untimed
    assert all(scan.stats.seconds > 0.0 for scan in _scans(plan))
    assert plan.root.stats.seconds >= max(scan.stats.seconds for scan in _scans(plan))
    # ... and an untimed run leaves no time behind.
    list(physical.execute_rows(plan, graph))
    assert all(scan.stats.seconds == 0.0 for scan in _scans(plan))


def test_a_mutation_between_two_executions_keeps_the_compiled_form_and_answers_correctly():
    triples = _library_triples()
    graph = EncodedGraph(triples)
    _, plan, result = _library_plan(graph)
    (before,) = plan._compiled.values()
    changes = [
        (graph.add, Triple(EX.book1_0, EX.creator, EX.person2)),  # one id -> set
        (graph.remove, Triple(EX.person3, EX.type, EX.Editor)),  # set -> one id
        (graph.remove, Triple(EX.book4_1, EX.type, EX.Book)),  # member -> absent
        (graph.add, Triple(EX.person1, EX.type, EX.Editor)),  # one id -> set
    ]
    for change, triple in changes:
        change(triple)
    rows = Counter(physical.execute_rows(plan, graph))
    # The steps read the store per execution, so a write leaves them valid.
    (after,) = plan._compiled.values()
    assert after is before
    nodes = [step.node for step in plan.source.steps]
    header = idexec.row_header(plan)
    assert rows == _oracle(list(graph), nodes, '?n != "name0"', Binding(), header, "?b ?n ?t")
    assert rows != Counter(realign_rows(result.rows(), result.variables, header))
