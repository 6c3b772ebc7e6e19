"""The algebra -> evaluation-tree pass (``repro.sparql.evaltree``), as a table.

One row per shape: the query, the tree under ``FULL``, the tree with FILTER
pushdown off, and — where it differs from a root ``Pipeline`` — what
``explain`` and live views read (``PreparedQuery.pipeline``).  Trees are
rendered compactly: ``P[n; conjuncts]`` a pipeline of ``n`` patterns,
``tp`` / ``path`` a bare pattern, ``F(c, x)`` FILTER, ``M`` MINUS,
``O(left, right; condition)`` OPTIONAL, ``U`` UNION, ``J`` join, ``B``
BIND, ``G`` GRAPH, ``V`` VALUES.
"""

from dataclasses import replace

import pytest

from repro.sparql import algebra
from repro.sparql.evaltree import Pipeline, prepare_query
from repro.sparql.expressions import conjuncts
from repro.sparql.operators import condition_label
from repro.sparql.parser import parse_query
from repro.sparql.profile import ExecutionProfile
from tests.helpers import NAIVE

FULL = ExecutionProfile.FULL
NO_PUSHDOWN = FULL.with_options(use_filter_pushdown=False)
PREFIX = "PREFIX ex: <http://ex.org/>\n"


def _labels(conditions) -> str:
    return ", ".join(condition_label(c) for c in conditions)


def render(node) -> str:
    kind = type(node)
    if kind is Pipeline:
        inner = str(len(node.bgp.patterns))
        return f"P[{inner}; {_labels(node.conditions)}]" if node.conditions else f"P[{inner}]"
    if kind is algebra.TriplePatternNode:
        return "tp"
    if kind is algebra.PathPattern:
        return "path"
    if kind is algebra.Filter:
        return f"F({_labels(conjuncts(node.condition))}, {render(node.pattern)})"
    if kind is algebra.LeftJoin:
        condition = "-" if node.condition is None else _labels(conjuncts(node.condition))
        return f"O({render(node.left)}, {render(node.right)}; {condition})"
    if kind is algebra.ValuesPattern:
        return "V"
    letter = {
        algebra.Minus: "M",
        algebra.Union: "U",
        algebra.Join: "J",
        algebra.Bind: "B",
        algebra.GraphGraphPattern: "G",
        algebra.BGP: "BGP",
    }[kind]
    return f"{letter}({', '.join(render(child) for child in node.children())})"


# (id, group graph pattern, tree under FULL, tree without pushdown,
#  pipeline under FULL, pipeline without pushdown) — a pipeline of "=" is the tree.
_TABLE = [
    ("bgp", "?a ex:p ?b . ?b ex:q ?c", "P[2]", "P[2]", "=", "="),
    (
        "filters-outermost-first",
        "?a ex:p ?b . ?b ex:q ?c FILTER(?a != ?c) FILTER(?b != ?c)",
        "P[2; (?b != ?c), (?a != ?c)]",
        "F((?b != ?c), F((?a != ?c), P[2]))",
        "=",
        "P[2; (?b != ?c), (?a != ?c)]",
    ),
    (
        "conjunction-splits-in-order",
        "?a ex:p ?b . ?b ex:q ?c FILTER(?a != ?c && ?b != ex:x && ?c != ex:y)",
        "P[2; (?a != ?c), (?b != <http://ex.org/x>), (?c != <http://ex.org/y>)]",
        "F((?a != ?c), (?b != <http://ex.org/x>), (?c != <http://ex.org/y>), P[2])",
        "=",
        "P[2; (?a != ?c), (?b != <http://ex.org/x>), (?c != <http://ex.org/y>)]",
    ),
    ("bare-lone-triple", "?a ex:p ?b", "P[1]", "P[1]", "=", "="),
    ("bare-lone-path", "?a ex:p+ ?b", "path", "path", "P[1]", "P[1]"),
    (
        "lone-triple-filtered",
        "?a ex:p ?b FILTER(?a != ?b)",
        "P[1; (?a != ?b)]",
        "F((?a != ?b), tp)",
        "=",
        "P[1; (?a != ?b)]",
    ),
    (
        "lone-path-filtered",
        "?a ex:p* ?b FILTER(?a != ?b)",
        "P[1; (?a != ?b)]",
        "F((?a != ?b), path)",
        "=",
        "P[1; (?a != ?b)]",
    ),
    (
        "filter-through-minus",
        "?a ex:p ?b MINUS { ?a ex:q ?b } FILTER(?a != ?b)",
        "M(P[1; (?a != ?b)], tp)",
        "F((?a != ?b), M(tp, tp))",
        None,
        None,
    ),
    (
        "filter-through-minus-twice",
        "?a ex:p ?b . ?b ex:p ?c MINUS { ?a ex:q ?b } MINUS { ?b ex:q ?c } FILTER(?a != ?c)",
        "M(M(P[2; (?a != ?c)], tp), tp)",
        "F((?a != ?c), M(M(P[2], tp), tp))",
        None,
        None,
    ),
    (
        "filter-inside-minus-right",
        "?a ex:p ?b MINUS { ?a ex:q ?c FILTER(?c != ex:x) }",
        "M(tp, P[1; (?c != <http://ex.org/x>)])",
        "M(tp, F((?c != <http://ex.org/x>), tp))",
        None,
        None,
    ),
    (
        "residual-over-union",
        "{ ?a ex:p ?b } UNION { ?a ex:q ?b } FILTER(?a != ?b && ?a != ex:x)",
        "F((?a != ?b), F((?a != <http://ex.org/x>), U(tp, tp)))",
        "F((?a != ?b), (?a != <http://ex.org/x>), U(tp, tp))",
        None,
        None,
    ),
    (
        "optional-pushed-and-residual",
        "?a ex:p ?b OPTIONAL { ?b ex:q ?c FILTER(?c != ?b && ?c != ?a) }",
        "O(tp, P[1; (?c != ?b)]; (?c != ?a))",
        "O(tp, tp; (?c != ?b), (?c != ?a))",
        None,
        None,
    ),
    (
        "optional-condition-before-the-right-side's-own-filter",
        "?a ex:p ?b OPTIONAL { ?b ex:q ?c . ?c ex:q ?d FILTER(?c != ?b) FILTER(?d != ex:x) }",
        "O(tp, P[2; (?d != <http://ex.org/x>), (?c != ?b)]; -)",
        "O(tp, F((?c != ?b), P[2]); (?d != <http://ex.org/x>))",
        None,
        None,
    ),
    (
        "optional-all-residual",
        "?a ex:p ?b OPTIONAL { ?b ex:q ?c FILTER(?a != ex:x && ex:x = ex:x) }",
        "O(tp, tp; (?a != <http://ex.org/x>), (<http://ex.org/x> = <http://ex.org/x>))",
        "O(tp, tp; (?a != <http://ex.org/x>), (<http://ex.org/x> = <http://ex.org/x>))",
        None,
        None,
    ),
    (
        "optional-right-not-a-pipeline",
        "?a ex:p ?b OPTIONAL { { ?b ex:q ?c } UNION { ?b ex:p ?c } FILTER(?c != ?b) }",
        "O(tp, U(tp, tp); (?c != ?b))",
        "O(tp, U(tp, tp); (?c != ?b))",
        None,
        None,
    ),
    (
        "filter-over-bind",
        "?a ex:p ?b . ?b ex:q ?c BIND(?a AS ?d) FILTER(?d != ?c)",
        "F((?d != ?c), B(P[2]))",
        "F((?d != ?c), B(P[2]))",
        None,
        None,
    ),
    (
        "graph-and-values",
        "VALUES ?a { ex:x } GRAPH ?g { ?a ex:p ?b FILTER(?a != ?b) }",
        "J(V, G(P[1; (?a != ?b)]))",
        "J(V, G(F((?a != ?b), tp)))",
        None,
        None,
    ),
]
_IDS = [row[0] for row in _TABLE]


def _query(group: str):
    return parse_query(PREFIX + "SELECT * WHERE { " + group + " }")


def _pipeline(prepared) -> object:
    return None if prepared.pipeline is None else render(prepared.pipeline)


@pytest.mark.parametrize("row", _TABLE, ids=_IDS)
def test_where_every_conjunct_lands(row):
    _, group, full, no_pushdown, full_pipeline, plain_pipeline = row
    query = _query(group)
    for profile, tree, pipeline in (
        (FULL, full, full_pipeline),
        (NO_PUSHDOWN, no_pushdown, plain_pipeline),
    ):
        prepared = prepare_query(query, profile)
        assert render(prepared.tree) == tree
        assert _pipeline(prepared) == (tree if pipeline == "=" else pipeline)
        if pipeline == "=":
            assert prepared.pipeline is prepared.tree
        # Idempotent: a tree placed again is itself.
        again = prepare_query(replace(query, pattern=prepared.tree), profile)
        assert again.tree == prepared.tree and again.pipeline == prepared.pipeline


@pytest.mark.parametrize("group", [row[1] for row in _TABLE], ids=_IDS)
def test_without_the_planner_the_pass_is_the_identity(group):
    query = _query(group)
    prepared = prepare_query(query, NAIVE)
    assert prepared.tree is query.pattern
    assert (prepared.pipeline, prepared.project, prepared.distinct) == (None, None, None)


def test_what_the_query_form_reads_rides_along_with_a_pipeline():
    text = PREFIX + "SELECT DISTINCT ?c ?a WHERE { ?a ex:p ?b . ?b ex:q ?c } ORDER BY ?a"
    prepared = prepare_query(parse_query(text), FULL)
    names = lambda variables: [variable.name for variable in variables]  # noqa: E731
    assert names(prepared.project) == ["a", "c"] and names(prepared.distinct) == ["a", "c"]
    star = prepare_query(_query("?a ex:p ?b . ?b ex:q ?c"), FULL)
    assert (star.project, star.distinct) == (None, None)
    ask = prepare_query(parse_query(PREFIX + "ASK { ?a ex:p ?b . ?b ex:q ?c }"), FULL)
    assert (ask.project, ask.distinct) == ((), None)
    # Not a pipeline: nothing is derived, the walk projects nothing down.
    union = prepare_query(_query("{ ?a ex:p ?b } UNION { ?a ex:q ?b }"), FULL)
    assert (union.pipeline, union.project, union.distinct) == (None, None, None)
