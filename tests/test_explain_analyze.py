"""Golden tests for ``SparqlEvaluator.explain_analyze``.

The rendered tree is deterministic except for wall-clock times, which a
normalisation regex blanks out; everything else — operator structure,
join-order, estimated cardinalities, actual rows/probes and the
estimated-vs-actual error column — is compared verbatim against golden
text.  Separate tests cover the misestimate
flag (``!`` beyond 10x error), the WCOJ-fallback footer, string-input
parsing, the report surface and rejection of non-BGP forms.
"""

import re

import pytest

from repro.rdf.graph import Dataset
from repro.rdf.terms import Triple
from repro.sparql.evaluator import EvaluationError, SparqlEvaluator
from repro.sparql.parser import parse_query
from repro.store import EncodedGraph

from tests.helpers import EX

PREFIX = "PREFIX ex: <http://ex.org/>\n"

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
_TRIANGLE = PREFIX + "SELECT * WHERE { ?a ex:p ?b . ?b ex:p ?c . ?c ex:p ?a }"

_GOLDEN = {
    "star": """\
EXPLAIN ANALYZE total=_
└─ Project [?a, ?b, ?c, ?s] | time=_ rows=1 probes=0
   └─ IndexNestedLoopJoin steps=3 | time=_ rows=1 probes=0
      ├─ Scan TP(?s <http://ex.org/r> ?c) est=1 probe=?P? match | time=_ rows=1 probes=1 actual=1/probe err=1x
      ├─ Scan TP(?s <http://ex.org/p> ?a) est=1 probe=SP? entry | time=_ rows=1 probes=1 actual=1/probe err=1x
      └─ Scan TP(?s <http://ex.org/q> ?b) est=1 probe=SP? entry | time=_ rows=1 probes=1 actual=1/probe err=1x""",
    "triangle": """\
EXPLAIN ANALYZE total=_
└─ Project [?a, ?b, ?c] | time=_ rows=3 probes=0
   └─ LeapfrogJoin order=[?a, ?b, ?c] | time=_ rows=3 probes=0
      ├─ Scan TP(?a <http://ex.org/p> ?b) est=5 | time=_ rows=8 probes=4 actual=2/probe err=2.5x
      ├─ Scan TP(?b <http://ex.org/p> ?c) est=1 | time=_ rows=18 probes=6 actual=3/probe err=0.33x
      └─ Scan TP(?c <http://ex.org/p> ?a) est=0.333333 | time=_ rows=8 probes=4 actual=2/probe err=0.17x""",
}


def _normalize(text: str) -> str:
    """Blank out wall-clock times; everything else must match exactly."""
    return re.sub(r"(time|total)=\d+(\.\d+)?ms", r"\1=_", text)


def _evaluator() -> SparqlEvaluator:
    return SparqlEvaluator(Dataset.from_graph(EncodedGraph(_TRIPLES)))


@pytest.mark.parametrize("query_name", ["star", "triangle"])
def test_explain_analyze_golden(query_name):
    query = _STAR if query_name == "star" else _TRIANGLE
    report = _evaluator().explain_analyze(query)
    assert _normalize(report.text) == _GOLDEN[query_name]


def test_report_surface():
    report = _evaluator().explain_analyze(_TRIANGLE)
    assert report.rows == 3
    assert report.total_seconds > 0.0
    assert str(report) == report.text
    assert report.plan is not None
    # analysis() carries the same numbers the rendering shows.
    entries = report.plan.analysis()
    scans = [entry for entry in entries if entry["operator"] == "Scan"]
    assert len(scans) == 3
    assert all(entry.get("est_error") is not None for entry in scans)


def test_accepts_parsed_queries_too():
    text_report = _evaluator().explain_analyze(_STAR)
    parsed_report = _evaluator().explain_analyze(parse_query(_STAR))
    assert _normalize(parsed_report.text) == _normalize(text_report.text)


def test_misestimate_beyond_10x_is_flagged():
    # A hub: 60 spokes in, 60 spokes out.  The uniform per-probe estimate
    # for the second chain step is tiny, but every probe that reaches the
    # hub fans out to all 60 successors — an estimation error well beyond
    # the 10x flagging threshold.
    triples = []
    for i in range(60):
        triples.append(Triple(EX[f"a{i}"], EX.p, EX.hub))
        triples.append(Triple(EX.hub, EX.p, EX[f"c{i}"]))
    evaluator = SparqlEvaluator(Dataset.from_graph(EncodedGraph(triples)))
    report = evaluator.explain_analyze(
        PREFIX + "SELECT * WHERE { ?x ex:p ?y . ?y ex:p ?z }"
    )
    assert " !" in report.text
    flagged = [
        entry for entry in report.plan.analysis() if entry.get("flagged")
    ]
    assert flagged
    assert any(entry["est_error"] < 0.1 for entry in flagged)


def test_wcoj_fallback_footer():
    evaluator = _evaluator()
    report = evaluator.explain_analyze(
        PREFIX + "SELECT * WHERE { ?a ?p ?b . ?b ?p ?c . ?c ?p ?a }"
    )
    assert report.text.rstrip().endswith("-- wcoj fallback: variable predicate")


def test_non_bgp_forms_are_rejected():
    evaluator = _evaluator()
    union = PREFIX + (
        "SELECT * WHERE { { ?s ex:p ?a } UNION { ?s ex:q ?a } }"
    )
    with pytest.raises(EvaluationError):
        evaluator.explain_analyze(union)
    with pytest.raises(EvaluationError):
        evaluator.explain(parse_query(union))


@pytest.mark.parametrize(
    "group",
    [
        "?s ex:p ?o",
        "?s ex:p+ ?o",
        "?s ex:p ?o FILTER(?o != ex:a)",
        "?s ex:p+ ?o FILTER(?s != ?o)",
        "?s ex:p ?o . ?o ex:p ?t FILTER(?s != ?t)",
    ],
    ids=["triple", "path", "filtered-triple", "filtered-path", "filtered-bgp"],
)
def test_explain_accepts_every_shape_explain_analyze_does(group):
    # Regression: explain() used to reject lone triple/path patterns that
    # explain_analyze() accepted (the two peel loops had drifted).
    evaluator = _evaluator()
    query = parse_query(PREFIX + "SELECT * WHERE { " + group + " }")
    rendered = evaluator.explain(query)
    report = evaluator.explain_analyze(query)
    assert rendered == report.plan.explain()
    assert report.rows == len(evaluator.evaluate(query))


def test_query_plans_a_lone_triple_root_and_a_filtered_lone_pattern_not_a_bare_path():
    from repro import create_engine

    engine = create_engine(EncodedGraph(_TRIPLES))
    lowered = "sparql_physical_cache_misses_total"
    # A bare lone path root is the id path engine's: nothing planned or lowered.
    assert len(engine.query(PREFIX + "SELECT * WHERE { ?s ex:p+ ?o }")) > 5
    assert engine.metrics()[lowered] == 0
    assert engine.evaluator.last_physical_plan is None
    # A bare lone triple root is the one-step pipeline explain() shows.
    bare = PREFIX + "SELECT * WHERE { ?s ex:p ?o }"
    assert len(engine.query(bare)) == 5
    assert engine.metrics()[lowered] == 1
    assert engine.evaluator.last_physical_plan.explain() == engine.explain(bare) == (
        "Project [?o, ?s]\n"
        "└─ IndexNestedLoopJoin steps=1\n"
        "   └─ Scan TP(?s <http://ex.org/p> ?o) est=5 probe=?P? match"
    )
    # Under a FILTER too, id kernel included.
    filtered = PREFIX + "SELECT * WHERE { ?s ex:p ?o FILTER(?o != ex:a) }"
    assert len(engine.query(filtered)) == 2
    assert engine.metrics()[lowered] == 2
    assert engine.evaluator.last_physical_plan.explain() == engine.explain(filtered) == (
        "Project [?o, ?s]\n"
        "└─ IndexNestedLoopJoin steps=1\n"
        "   └─ Filter (?o != <http://ex.org/a>) kernel=id\n"
        "      └─ Scan TP(?s <http://ex.org/p> ?o) est=5 probe=?P? match"
    )
    assert engine.metrics()["sparql_filter_term_fallbacks_total"] == 0
