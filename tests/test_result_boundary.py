"""Rows are tuples at the result boundary.

A :class:`SolutionSequence` is a header plus plain term tuples; a
:class:`Binding` is built only when a caller asks for one.  Pinned here,
by counts (no clock):

* on the encoded store a warm path-only SELECT and a warm single-pipeline
  SELECT build no ``Binding`` at all and decode exactly rows x projected
  width terms, and a warm pass of the FEASIBLE and SP2Bench suites —
  walked roots, grouping, FILTER fallbacks and all — builds none either;
* the same queries under ORDER BY, DISTINCT and GROUP BY give the bag
  (and, under a total ORDER BY, the order) of the unplanned ``NAIVE``
  oracle on the hash store;
* the sequence itself: equality by variable name whatever the header
  order, unequal headers, unbound as ``None`` in the tuple and absent from
  the lazy ``Binding``, ``repr`` / ``distinct`` / ``len`` / ``rows`` without
  a ``Binding``.
"""

import pytest

from repro.engine import create_engine
from repro.rdf.graph import Graph
from repro.rdf.terms import Triple, Variable
from repro.sparql.algebra import PathPattern
from repro.sparql.evaltree import Pipeline
from repro.sparql.parser import parse_query
from repro.sparql.profile import ExecutionProfile
from repro.sparql.solutions import Binding, SolutionSequence
from repro.store import EncodedGraph
from repro.workloads.feasible import FeasibleWorkload
from repro.workloads.sp2bench import SP2BenchWorkload

from tests.helpers import EX

PREFIX = "PREFIX ex: <http://ex.org/>\n"
X, Y = Variable("x"), Variable("y")

#: (id, query body, its evaluation tree's root type under FULL)
_SHAPES = [
    ("path", "?x ex:p+ ?z", PathPattern),
    ("pipeline", "?x ex:p ?y . ?y ex:q ?z", Pipeline),
]


def _triples():
    """Two p-cycles and q edges into two shared targets: DISTINCT ?z drops rows."""
    triples = []
    for cycle, length in enumerate((3, 4)):
        nodes = [EX[f"c{cycle}_{index}"] for index in range(length)]
        for index, node in enumerate(nodes):
            triples.append(Triple(node, EX.p, nodes[(index + 1) % length]))
            triples.append(Triple(node, EX.q, EX[f"t{index % 2}"]))
    return triples


@pytest.fixture
def built(monkeypatch):
    """Grows by one per :class:`Binding` constructed, by either constructor."""
    counted = []
    from_sorted = Binding.from_sorted_items.__func__
    init = Binding.__init__

    def counted_init(self, mapping=None):
        counted.append(1)
        init(self, mapping)

    monkeypatch.setattr(
        Binding,
        "from_sorted_items",
        classmethod(lambda cls, items: counted.append(1) or from_sorted(cls, items)),
    )
    monkeypatch.setattr(Binding, "__init__", counted_init)
    return counted


@pytest.mark.parametrize(
    "body, root", [shape[1:] for shape in _SHAPES], ids=[s[0] for s in _SHAPES]
)
def test_a_warm_select_builds_no_binding_and_decodes_the_projection(built, body, root):
    graph = EncodedGraph(_triples())
    engine = create_engine(graph)
    text = PREFIX + f"SELECT ?x ?z WHERE {{ {body} }}"
    assert type(engine.evaluator.prepare(parse_query(text)).tree) is root
    engine.query(text)  # cold: parse, prepare, plan, compile
    decodes = graph.dictionary.enable_counters()
    before, built[:] = decodes.decodes, []
    result = engine.query(text)
    assert len(result) > 0
    assert built == []
    assert decodes.decodes - before == len(result) * 2
    repr(result), result.rows(), result.distinct(), result == result
    assert built == []
    # A caller that asks for bindings gets one per row, built once.
    assert len(result.bindings) == len(built) == len(result)
    assert result.bindings is result.bindings and list(result) == result.bindings


#: name -> (the suite at small scale on the encoded store, queries it walks).
_SUITES = {
    "feasible": (lambda: FeasibleWorkload(scale=0.2, backend="encoded"), 39),
    "sp2bench": (lambda: SP2BenchWorkload(scale=0.05, backend="encoded"), 4),
}


@pytest.mark.parametrize("name", sorted(_SUITES))
def test_a_warm_pass_of_a_suite_builds_no_binding(built, name):
    """The walk, the modifier tail, grouping and the FILTER term fallback
    hold rows as header-aligned tuples: only a caller of ``bindings`` builds
    a ``Binding``."""
    make, walked = _SUITES[name]
    suite = make()
    engine = create_engine(suite.dataset())
    texts = [query.text for query in suite.queries()]
    trees = [type(engine.evaluator.prepare(parse_query(text)).tree) for text in texts]
    assert sum(tree not in (Pipeline, PathPattern) for tree in trees) == walked
    for text in texts:  # cold: parse, prepare, plan, compile
        engine.query(text)
    built[:] = []
    answers = [engine.query(text) for text in texts]
    assert built == []
    assert sum(len(answer) for answer in answers if not isinstance(answer, bool)) > 0


_TAILS = [
    ("order", "SELECT ?x ?z WHERE {{ {} }} ORDER BY DESC(?z) ?x", True),
    ("distinct", "SELECT DISTINCT ?z ?x WHERE {{ {} }}", False),
    ("distinct-order", "SELECT DISTINCT ?z ?x WHERE {{ {} }} ORDER BY ?x DESC(?z)", True),
    # Grouping reads bindings: built from the tuples of either root.
    ("group", "SELECT ?x (COUNT(?z) AS ?n) WHERE {{ {} }} GROUP BY ?x ORDER BY ?x", True),
]


@pytest.mark.parametrize("form, ordered", [t[1:] for t in _TAILS], ids=[t[0] for t in _TAILS])
@pytest.mark.parametrize("body", [shape[1] for shape in _SHAPES], ids=[s[0] for s in _SHAPES])
def test_order_by_and_distinct_match_the_naive_oracle(form, ordered, body):
    text = PREFIX + form.format(body)
    full = create_engine(EncodedGraph(_triples())).query(text)
    naive = create_engine(Graph(_triples()), profile=ExecutionProfile.NAIVE).query(text)
    assert full == naive and full.variables == naive.variables
    if ordered:
        assert full.rows() == naive.rows()
    if "DISTINCT" in form:
        assert len(full.to_set()) == len(full)


# ----------------------------------------------------------------------
# the sequence
# ----------------------------------------------------------------------
def test_equality_is_independent_of_header_order():
    rows = [(EX.a, EX.b), (EX.a, EX.b), (EX.c, None)]
    xy = SolutionSequence([X, Y], rows)
    yx = SolutionSequence([Y, X], [(y, x) for x, y in reversed(rows)])
    assert xy == yx and yx == xy
    assert xy.bindings[::-1] == yx.bindings
    # Same tuples under the swapped header are a different bag.
    assert xy != SolutionSequence([Y, X], rows)
    # Multiplicity counts.
    assert xy != SolutionSequence([X, Y], rows[1:])


def test_different_headers_are_unequal():
    assert SolutionSequence([X], []) != SolutionSequence([Y], [])
    assert SolutionSequence([X], [(EX.a,)]) != SolutionSequence(
        [X, Y], [(EX.a, None)]
    )


def test_unbound_is_none_in_the_tuple_and_absent_from_the_binding(built):
    sequence = SolutionSequence([X, Y], [(EX.a, None), (EX.b, EX.c)])
    assert built == []
    assert sequence.rows() == [(EX.a, None), (EX.b, EX.c)]
    first, second = sequence.bindings
    assert Y not in first and first.variables() == {X}
    assert second == Binding({X: EX.b, Y: EX.c})
    assert len(built) == 3  # the two lazy ones and the one compared against


def test_distinct_keeps_first_occurrences_without_building_a_binding(built):
    rows = [(EX.b, EX.a), (EX.a, None), (EX.b, EX.a), (EX.a, None), (EX.c, EX.c)]
    sequence = SolutionSequence([X, Y], rows)
    unique = sequence.distinct()
    assert unique.rows() == [(EX.b, EX.a), (EX.a, None), (EX.c, EX.c)]
    assert repr(unique) == "SolutionSequence(3 rows, vars=[?x, ?y])"
    assert built == []
