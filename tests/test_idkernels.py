"""The id FILTER comparison kernels against the term-level semantics.

:func:`repro.sparql.kernels.compile_condition` decides ``= != < <= > >=``
between variables and/or constants on ids and memoised comparison keys;
:func:`repro.sparql.expressions.satisfies` is what those six operators
mean.  The two must agree on every pair of operands:

* exhaustively over a fixed operand matrix — integer / decimal / double
  spellings of one value (``"01"`` vs ``"1"``), malformed numerics, NaN,
  simple vs ``xsd:string`` literals, language tags, dateTime, boolean,
  IRIs, blank nodes, an unbound variable, constants the dictionary has
  never seen — in all three operand shapes (variable/variable,
  variable/constant, constant/variable);
* by hypothesis over generated lexical forms and datatypes;
* end to end: the same operands as data, compared by a pushed-down
  FILTER, across the differential profiles and the unplanned oracle;
* a conjunct no kernel decides runs on the registers through a view: no
  ``Binding`` per tested row, a variable decoded only when it is read.
"""

from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf.graph import Dataset, Graph
from repro.rdf.terms import (
    BlankNode,
    IRI,
    Literal,
    Triple,
    Variable,
    XSD,
    XSD_BOOLEAN,
    XSD_DATETIME,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
)
from repro.sparql import physical
from repro.sparql.algebra import TriplePatternNode
from repro.sparql.evaluator import SparqlEvaluator
from repro.sparql.expressions import Comparison, TermExpr, VariableExpr, satisfies
from repro.sparql.kernels import HEADER, compile_condition, condition_kernel
from repro.sparql.parser import parse_query
from repro.sparql.profile import ExecutionProfile
from repro.sparql.solutions import Binding
from repro.store import EncodedGraph

from tests.helpers import EX

OPERATORS = ["=", "!=", "<", "<=", ">", ">="]

#: Interned operands: every class the comparison keys distinguish, with
#: at least two members wherever two distinct ids can still be equal.
TERMS = [
    Literal("1", XSD_INTEGER),
    Literal("01", XSD_INTEGER),
    Literal("2", XSD_INTEGER),
    Literal("-0", XSD_INTEGER),
    Literal("1.0", XSD_DECIMAL),
    Literal("1e0", XSD_DOUBLE),
    Literal("0.0", XSD_DOUBLE),
    Literal("NaN", XSD_DOUBLE),
    Literal("nan", XSD_DOUBLE),
    Literal("INF", XSD_DOUBLE),
    Literal("abc", XSD_INTEGER),
    Literal("abc", XSD_DECIMAL),
    Literal("", XSD_INTEGER),
    Literal("1", XSD.long),
    Literal("a"),
    Literal("a", XSD_STRING),
    Literal("b"),
    Literal("1"),
    Literal("a", language="en"),
    Literal("a", language="de"),
    Literal("2020-01-01T00:00:00", XSD_DATETIME),
    Literal("2021-06-01T00:00:00", XSD_DATETIME),
    Literal("true", XSD_BOOLEAN),
    Literal("a", IRI("http://ex.org/customType")),
    EX.a,
    EX.b,
    BlankNode("b1"),
    BlankNode("b2"),
]
#: Constants that appear in no triple (structurally new, or only a new
#: spelling of an interned value).
ABSENT = [
    Literal("001", XSD_INTEGER),
    Literal("3.5", XSD_DECIMAL),
    Literal("zzz"),
    Literal("a", language="fr"),
    Literal("xyz", XSD_DOUBLE),
    EX.never_seen,
]

_X, _Y = Variable("x"), Variable("y")
_BASE = len(HEADER)


def _graph(terms):
    graph = EncodedGraph()
    for index, term in enumerate(terms):
        graph.add(Triple(EX[f"s{index}"], EX.p, term))
    return graph


def _kernel_verdict(graph, operator, left, right):
    """Compile and run one comparison; operands are terms, or ``None`` for
    a variable left unbound.  Shapes: a ``("var", term)`` operand goes
    through a register, a ``("const", term)`` operand into the conjunct."""
    dictionary = graph.dictionary
    expressions, registers, bound = [], list(HEADER) + [None, None], set()
    for variable, register, (shape, term) in ((_X, _BASE, left), (_Y, _BASE + 1, right)):
        if shape == "const":
            expressions.append(TermExpr(term))
            continue
        expressions.append(VariableExpr(variable))
        if term is not None:
            bound.add(variable)
            registers[register] = dictionary.id_for(term)
            assert registers[register] is not None
    condition = Comparison(operator, *expressions)
    assert condition_kernel(condition) == "id"
    test = compile_condition(condition, dictionary, {_X: _BASE, _Y: _BASE + 1}, bound)
    verdict = test(registers)
    assert registers[0] == 0, "a comparison kernel must not fall back to terms"
    return verdict


def _term_verdict(operator, left, right):
    mapping, expressions = {}, []
    for variable, (shape, term) in ((_X, left), (_Y, right)):
        if shape == "const":
            expressions.append(TermExpr(term))
        else:
            expressions.append(VariableExpr(variable))
            if term is not None:
                mapping[variable] = term
    return satisfies(Comparison(operator, *expressions), Binding(mapping))


def test_kernels_agree_with_term_semantics_on_the_full_operand_matrix():
    graph = _graph(TERMS)
    before = len(graph.dictionary)
    variables = [("var", term) for term in TERMS] + [("var", None)]
    constants = [("const", term) for term in TERMS + ABSENT]
    pairs = (
        list(product(variables, variables))
        + list(product(variables, constants))
        + list(product(constants, variables))
        + list(product(constants[-len(ABSENT) - 3:], constants[:6]))
    )
    disagreements = []
    for (left, right), operator in product(pairs, OPERATORS):
        expected = _term_verdict(operator, left, right)
        actual = _kernel_verdict(graph, operator, left, right)
        if actual is not expected:
            disagreements.append((left, operator, right, expected, actual))
    assert not disagreements, disagreements[:10]
    assert len(graph.dictionary) == before  # absent constants were not interned


def test_comparison_keys_are_memoised_lazily_and_only_for_compared_ids():
    graph = _graph(TERMS)
    dictionary = graph.dictionary
    assert dictionary.compare_keys == {}
    one = ("var", Literal("1", XSD_INTEGER))
    other = ("var", Literal("1.0", XSD_DECIMAL))
    assert _kernel_verdict(graph, "=", one, other) is True
    assert set(dictionary.compare_keys) == {
        dictionary.id_for(one[1]),
        dictionary.id_for(other[1]),
    }
    # Equal ids never reach the keys, and IRIs / blank nodes never do: the
    # memo holds literal ids only, whatever they are compared with.
    size = len(dictionary.compare_keys)
    assert _kernel_verdict(graph, "=", ("var", Literal("b")), ("var", Literal("b"))) is True
    for operator in OPERATORS:
        for other in (("var", EX.b), ("const", EX.b), ("const", Literal("b")), ("var", BlankNode("b1"))):
            _kernel_verdict(graph, operator, ("var", EX.a), other)
            _kernel_verdict(graph, operator, ("var", BlankNode("b1")), other)
    assert len(dictionary.compare_keys) == size
    assert all(dictionary.is_literal(term_id) for term_id in dictionary.compare_keys)


_lexicals = st.one_of(
    st.sampled_from(["0", "1", "01", "1.0", "1e0", "-1", "+1", " 1", "1_0", "NaN", "inf", "", "a", "A", "b"]),
    st.integers(-3, 3).map(str),
    st.floats(allow_nan=True, allow_infinity=True, width=16).map(repr),
    st.text(alphabet="ab1. -e", max_size=4),
)
_datatypes = st.sampled_from(
    [None, XSD_STRING, XSD_INTEGER, XSD_DECIMAL, XSD_DOUBLE, XSD.float, XSD_BOOLEAN, XSD_DATETIME]
)
_literals = st.one_of(
    st.builds(Literal, _lexicals, _datatypes),
    st.builds(lambda lexical, language: Literal(lexical, language=language),
              _lexicals, st.sampled_from(["en", "de"])),
)
_terms = st.one_of(
    _literals,
    st.sampled_from([EX.a, EX.b, EX.c]),
    st.sampled_from([BlankNode("b1"), BlankNode("b2")]),
)
_shapes = st.sampled_from(["var", "const"])


@settings(max_examples=300, deadline=None)
@given(
    left=_terms,
    right=_terms,
    left_shape=_shapes,
    right_shape=_shapes,
    operator=st.sampled_from(OPERATORS),
    intern_constants=st.booleans(),
)
def test_kernels_agree_with_term_semantics_on_generated_operands(
    left, right, left_shape, right_shape, operator, intern_constants
):
    interned = [
        term
        for term, shape in ((left, left_shape), (right, right_shape))
        if shape == "var" or intern_constants
    ]
    graph = _graph(interned)
    operands = (left_shape, left), (right_shape, right)
    assert _kernel_verdict(graph, operator, *operands) is _term_verdict(operator, *operands)


# ----------------------------------------------------------------------
# end to end: the same operands as data under a pushed-down FILTER
# ----------------------------------------------------------------------
def _evaluators(triples):
    yield SparqlEvaluator(Dataset.from_graph(EncodedGraph(triples)))
    # The oracle that shares no code with the step compiler.
    yield SparqlEvaluator(Dataset.from_graph(Graph(triples)), profile=ExecutionProfile.NAIVE)


@pytest.mark.parametrize("operator", OPERATORS)
def test_filtered_self_join_agrees_across_profiles(operator):
    triples = [Triple(EX[f"s{index}"], EX.p, term) for index, term in enumerate(TERMS)]
    query = parse_query(
        "PREFIX ex: <http://ex.org/>\n"
        f"SELECT ?a ?b WHERE {{ ?a ex:p ?x . ?b ex:p ?y . FILTER(?x {operator} ?y) }}"
    )
    results = [Counter(evaluator.evaluate(query).rows()) for evaluator in _evaluators(triples)]
    assert sum(results[0].values()) > 0
    for other in results[1:]:
        assert other == results[0]


@pytest.mark.parametrize("operator", OPERATORS)
@pytest.mark.parametrize(
    "constant",
    ['"01"^^<http://www.w3.org/2001/XMLSchema#integer>', '"a"', '"zzz"', "ex:a", "ex:never_seen", "1.5"],
)
def test_filter_against_a_constant_agrees_across_profiles(operator, constant):
    triples = [Triple(EX[f"s{index}"], EX.p, term) for index, term in enumerate(TERMS)]
    query = parse_query(
        "PREFIX ex: <http://ex.org/>\n"
        f"SELECT ?a WHERE {{ ?a ex:p ?x . FILTER(?x {operator} {constant}) }}"
    )
    results = [Counter(evaluator.evaluate(query).rows()) for evaluator in _evaluators(triples)]
    for other in results[1:]:
        assert other == results[0]


# ----------------------------------------------------------------------
# the term fallback reads the registers through a view
# ----------------------------------------------------------------------
class _Counter:
    def __init__(self):
        self.total = 0

    def inc(self, amount=1):
        self.total += amount


def test_a_term_fallback_builds_no_binding_and_decodes_what_it_reads(monkeypatch):
    graph = _graph(TERMS)
    s, o = Variable("s"), Variable("o")
    # ``isIRI(?s)`` holds for every subject, so ``IF`` never reads ``?o``.
    query = parse_query(
        "PREFIX ex: <http://ex.org/>\n"
        "SELECT ?s WHERE { ?s ex:p ?o FILTER(IF(isIRI(?s), true, STRLEN(STR(?o)) > 100)) }"
    )
    condition = query.pattern.condition
    assert condition_kernel(condition) == "term"
    plan = physical.lower_bgp(
        graph, [TriplePatternNode(Triple(s, EX.p, o))], (condition,), project=(s,)
    )
    built = []
    init, from_sorted = Binding.__init__, Binding.from_sorted_items.__func__

    def counted_init(self, mapping=None):
        built.append(1)
        init(self, mapping)

    monkeypatch.setattr(Binding, "__init__", counted_init)
    monkeypatch.setattr(
        Binding,
        "from_sorted_items",
        classmethod(lambda cls, items: built.append(1) or from_sorted(cls, items)),
    )
    decodes, fallbacks = graph.dictionary.enable_counters(), _Counter()
    before = decodes.decodes
    rows = list(physical.execute_rows(plan, graph, term_fallbacks=fallbacks))
    assert len(rows) == fallbacks.total == len(TERMS)
    assert built == []
    # ``?s`` once for the conjunct and once for the result row, ``?o`` never.
    assert decodes.decodes - before == 2 * len(TERMS)
