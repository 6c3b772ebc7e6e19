"""Value semantics from the spec's text, on all three evaluators.

Every expected value below is written from W3C SPARQL 1.1 Query, not from
what the code returns:

* §17.3 operator mapping — ``+ - * /`` and unary minus are XPath's
  ``op:numeric-*`` with numeric type promotion: integer (and its derived
  types) < decimal < float < double, the result has the larger type, and
  integer ÷ integer is a decimal;
* §17.4.4 — ``ABS`` / ``CEIL`` / ``FLOOR`` / ``ROUND`` return the type of
  their argument, and ``fn:round`` rounds half-way values up (2.5 → 3,
  −2.5 → −2);
* §18.5.1 — ``COUNT`` / ``SUM`` / ``AVG`` / ``MIN`` / ``MAX`` / ``SAMPLE``,
  with DISTINCT; ``SUM`` / ``AVG`` over a non-number is an error, so the
  variable stays unbound, and ``AVG`` is ``SUM`` divided by ``COUNT``;
* §15.1 — ORDER BY ranks unbound < blank node < IRI < literal, numbers by
  value.

Where XML Schema fixes a canonical lexical form (xsd:integer, xsd:decimal
with one digit at least on each side of the point, and the doubles
``INF`` / ``-INF`` / ``NaN``) the literal is compared whole; any other
double by datatype and value.

Each row runs on ``FULL`` over the encoded store, on ``NAIVE`` over a hash
copy, and on ``SparqLogEngine``.  The translation path accepts no BIND and
no ``(expr AS ?v)`` without GROUP BY, so there an expression is checked
inside a FILTER (its datatype, value and lexical form), and aggregates
through GROUP BY.
"""

import pytest

from repro import create_engine
from repro.core.engine import SparqLogEngine
from repro.rdf.graph import Dataset, Graph
from repro.rdf.terms import IRI, BlankNode, Literal, Triple, XSD
from repro.sparql import ExecutionProfile
from repro.store import EncodedGraph

EX = "http://ex.org/"
PREFIXES = "PREFIX ex: <http://ex.org/>\nPREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n"

INTEGER, DECIMAL, FLOAT, DOUBLE = XSD.integer, XSD.decimal, XSD.float, XSD.double


def integer(lexical: str) -> Literal:
    return Literal(lexical, INTEGER)


def decimal(lexical: str) -> Literal:
    return Literal(lexical, DECIMAL)


def double(lexical: str) -> Literal:
    return Literal(lexical, DOUBLE)


def ex(name: str) -> IRI:
    return IRI(EX + name)


#: Aggregate groups, one member per item: (group, value).
MEMBERS = [
    ("A", integer("1")), ("A", integer("2")), ("A", integer("3")), ("A", integer("3")),
    ("B", integer("1")), ("B", integer("2")), ("B", Literal("x")),
    ("C", decimal("1.5")), ("C", decimal("1.5")),
    ("D", double("1e0")), ("D", integer("2")),
    ("E", integer("1")), ("E", integer("2")),
]
#: ORDER BY keys: (item, value or None for unbound).
KEYS = [
    ("k1", Literal("b")), ("k2", integer("10")), ("k3", ex("z")), ("k4", None),
    ("k5", decimal("1.5")), ("k6", BlankNode("n")), ("k7", integer("2")),
    ("k8", Literal("a")), ("k9", double("2.5e0")),
]


def triples():
    out = [Triple(ex("one"), ex("v"), integer("0"))]
    for index, (group, value) in enumerate(MEMBERS):
        out += [
            Triple(ex(f"i{index}"), ex("g"), Literal(group)),
            Triple(ex(f"i{index}"), ex("v"), value),
        ]
    for item, value in KEYS:
        out.append(Triple(ex(item), ex("item"), Literal(item)))
        if value is not None:
            out.append(Triple(ex(item), ex("key"), value))
    return out


@pytest.fixture(scope="module")
def engines():
    data = triples()
    return {
        "FULL": create_engine(EncodedGraph(data)),
        "NAIVE": create_engine(Graph(data), ExecutionProfile.NAIVE),
        "SparqLog": SparqLogEngine(Dataset.from_graph(Graph(data))),
    }


NATIVE = ("FULL", "NAIVE")
ALL = ("FULL", "NAIVE", "SparqLog")


#: Doubles whose lexical form XML Schema fixes (and NaN equals nothing).
SPECIAL = ("INF", "-INF", "NaN")


def assert_value(actual, expected) -> None:
    """``expected`` is ``None`` (an error: unbound) or the spec's literal."""
    if expected is None or expected.datatype != DOUBLE or expected.lexical in SPECIAL:
        assert actual == expected
    else:
        assert isinstance(actual, Literal) and actual.datatype == DOUBLE
        assert float(actual.lexical) == float(expected.lexical)


# ----------------------------------------------------------------------
# §17.3 and §17.4.4: one expression, its spec value
# ----------------------------------------------------------------------
EXPRESSIONS = [
    # + - * / : the larger type of the two
    ("1 + 2", integer("3")),
    ("1 + 2.0", decimal("3.0")),
    ("1.5 + 1.5", decimal("3.0")),
    ("1 + 2.0e0", double("3.0")),
    ("1.5 + 1e0", double("2.5")),
    ('"2"^^xsd:int + "3"^^xsd:short', integer("5")),
    ('"1.5"^^xsd:float + 1', Literal("2.5", FLOAT)),
    ('"1.5"^^xsd:float + 1e0', double("2.5")),
    ("5 - 7", integer("-2")),
    ("1.5 - 0.5", decimal("1.0")),
    ("2 - 0.5e0", double("1.5")),
    ("2 * 3", integer("6")),
    ("2 * 1.5", decimal("3.0")),
    ("0.1 * 3", decimal("0.3")),
    ("2 * 1.5e0", double("3.0")),
    # integer / integer is a decimal
    ("1 / 2", decimal("0.5")),
    ("4 / 2", decimal("2.0")),
    ("1.0 / 4", decimal("0.25")),
    ("1 / 2e0", double("0.5")),
    ("1 / 0", None),
    ("1.5 / 0.0", None),
    # unary minus keeps the type
    ("-(1 + 2)", integer("-3")),
    ("-(1.5)", decimal("-1.5")),
    ("-(2e0)", double("-2.0")),
    # not numbers: a type error
    ('"x" + 1', None),
    ("true + 1", None),
    ("ex:one + 1", None),
    # the one deviation: a plain literal holding digits counts as a number
    ('"2" + 1', integer("3")),
    # ABS / CEIL / FLOOR / ROUND return their argument's type
    ("ABS(-2)", integer("2")),
    ("ABS(-2.5)", decimal("2.5")),
    ("ABS(-2.5e0)", double("2.5")),
    ("CEIL(2)", integer("2")),
    ("CEIL(2.1)", decimal("3.0")),
    ("CEIL(-2.1)", decimal("-2.0")),
    ("CEIL(2.1e0)", double("3.0")),
    ("FLOOR(2.9)", decimal("2.0")),
    ("FLOOR(-2.1)", decimal("-3.0")),
    ("FLOOR(2.9e0)", double("2.0")),
    ("ROUND(7)", integer("7")),
    ("ROUND(2.5)", decimal("3.0")),
    ("ROUND(-2.5)", decimal("-2.0")),
    ("ROUND(2.4999)", decimal("2.0")),
    ("ROUND(2.5e0)", double("3.0")),
    ("ROUND(-2.5e0)", double("-2.0")),
    ('ROUND("x")', None),
    # the special doubles keep XML Schema's lexical forms
    ('ROUND("INF"^^xsd:double)', double("INF")),
    ('-"INF"^^xsd:double', double("-INF")),
    ('ABS("NaN"^^xsd:double)', double("NaN")),
    ("1e308 * 10", double("INF")),
]


@pytest.mark.parametrize("engine", NATIVE)
@pytest.mark.parametrize("expression, expected", EXPRESSIONS)
def test_a_projected_expression_has_the_spec_value(engines, engine, expression, expected):
    result = engines[engine].query(
        PREFIXES + f"SELECT ({expression} AS ?r) WHERE {{ ex:one ex:v ?o }}"
    )
    (row,) = result.rows()
    assert_value(row[0], expected)


def _filter_checking(expression: str, expected) -> str:
    """A FILTER that holds exactly when ``expression`` has the spec value."""
    if expected is None:
        return f'COALESCE({expression}, "error") = "error"'
    condition = f"DATATYPE({expression}) = <{expected.datatype.value}>"
    if expected.lexical != "NaN":
        condition += f" && ({expression}) = {expected.n3()}"
    if expected.datatype != DOUBLE or expected.lexical in SPECIAL:
        condition += f' && STR({expression}) = "{expected.lexical}"'
    return condition


@pytest.mark.parametrize("engine", ALL)
@pytest.mark.parametrize("expression, expected", EXPRESSIONS)
def test_a_filtered_expression_has_the_spec_value(engines, engine, expression, expected):
    text = PREFIXES + (
        f"SELECT ?o WHERE {{ ex:one ex:v ?o FILTER({_filter_checking(expression, expected)}) }}"
    )
    assert len(engines[engine].query(text).rows()) == 1


# ----------------------------------------------------------------------
# §18.5.1: set functions
# ----------------------------------------------------------------------
AGGREGATES = [
    # COUNT, with DISTINCT and over a non-number
    ("A", "COUNT(?o)", integer("4")),
    ("A", "COUNT(DISTINCT ?o)", integer("3")),
    ("A", "COUNT(*)", integer("4")),
    ("B", "COUNT(?o)", integer("3")),
    # SUM keeps the promoted type; a non-number makes it an error
    ("A", "SUM(?o)", integer("9")),
    ("A", "SUM(DISTINCT ?o)", integer("6")),
    ("B", "SUM(?o)", None),
    ("C", "SUM(?o)", decimal("3.0")),
    ("C", "SUM(DISTINCT ?o)", decimal("1.5")),
    ("D", "SUM(?o)", double("3.0")),
    ("E", "SUM(?o)", integer("3")),
    # AVG is SUM / COUNT: over integers a decimal
    ("A", "AVG(?o)", decimal("2.25")),
    ("A", "AVG(DISTINCT ?o)", decimal("2.0")),
    ("B", "AVG(?o)", None),
    ("C", "AVG(?o)", decimal("1.5")),
    ("D", "AVG(?o)", double("1.5")),
    ("E", "AVG(?o)", decimal("1.5")),
    # MIN / MAX by the ORDER BY ranking: numbers by value, before strings
    ("A", "MIN(?o)", integer("1")),
    ("A", "MAX(?o)", integer("3")),
    ("B", "MIN(?o)", integer("1")),
    ("B", "MAX(?o)", Literal("x")),
    ("D", "MIN(?o)", double("1e0")),
    ("D", "MAX(DISTINCT ?o)", integer("2")),
]


def _grouped(engine, aggregate: str) -> dict:
    result = engine.query(
        PREFIXES
        + f"SELECT ?g ({aggregate} AS ?r) WHERE {{ ?i ex:g ?g ; ex:v ?o }} GROUP BY ?g"
    )
    return {row[0].lexical: row[1] for row in result.rows()}


@pytest.mark.parametrize("engine", ALL)
@pytest.mark.parametrize("group, aggregate, expected", AGGREGATES)
def test_an_aggregate_has_the_spec_value(engines, engine, group, aggregate, expected):
    assert_value(_grouped(engines[engine], aggregate)[group], expected)


@pytest.mark.parametrize("engine", ALL)
@pytest.mark.parametrize("distinct", ["", "DISTINCT "])
def test_sample_is_a_member_of_its_group(engines, engine, distinct):
    samples = _grouped(engines[engine], f"SAMPLE({distinct}?o)")
    for group in "ABCDE":
        assert samples[group] in {value for member, value in MEMBERS if member == group}


# ----------------------------------------------------------------------
# §15.1: ORDER BY over mixed kinds
# ----------------------------------------------------------------------
def _kind(term):
    """What §15.1 orders on; a blank node only by kind, as T_S relabels it."""
    return "blank" if isinstance(term, BlankNode) else term


ASCENDING = [None, "blank", ex("z"), decimal("1.5"), integer("2"), double("2.5e0"),
             integer("10"), Literal("a"), Literal("b")]


@pytest.mark.parametrize("engine", ALL)
@pytest.mark.parametrize("direction", ["ASC", "DESC"])
def test_order_by_ranks_kinds_then_numbers_by_value(engines, engine, direction):
    result = engines[engine].query(
        PREFIXES
        + "SELECT ?k WHERE { ?i ex:item ?n OPTIONAL { ?i ex:key ?k } } "
        + f"ORDER BY {direction}(?k)"
    )
    keys = [_kind(row[0]) for row in result.rows()]
    assert keys == (ASCENDING if direction == "ASC" else ASCENDING[::-1])

