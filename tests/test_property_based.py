"""Property-based tests (hypothesis) for core data structures and invariants."""

import string
from collections import Counter

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.native import NativeSparqlEngine
from repro.compliance.compare import results_equal
from repro.core.engine import SparqLogEngine
from repro.datalog.engine import DatalogEngine
from repro.datalog.rules import (
    AggregateRule,
    AggregateSpec,
    Atom,
    Comparison,
    Negation,
    Program,
    Rule,
)
from repro.datalog.stratify import (
    StratificationError,
    components,
    recursive_predicates,
    stratify,
)
from repro.datalog.terms import Const, Var
from repro.rdf.graph import Dataset, Graph
from repro.rdf.ntriples import parse_ntriples, serialize_ntriples
from repro.rdf.terms import IRI, Literal, Triple, Variable
from repro.sparql.solutions import Binding, project_rows
from repro.store import EncodedGraph

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
_NODE_NAMES = [f"n{i}" for i in range(8)]
_PREDICATE_NAMES = ["p", "q"]


def _iri(name: str) -> IRI:
    return IRI(f"http://ex.org/{name}")


edges_strategy = st.lists(
    st.tuples(
        st.sampled_from(_NODE_NAMES),
        st.sampled_from(_PREDICATE_NAMES),
        st.sampled_from(_NODE_NAMES),
    ),
    min_size=0,
    max_size=25,
)

simple_literals = st.text(alphabet=string.ascii_letters + string.digits + " ", max_size=12)


def graph_from_edges(edges) -> Graph:
    graph = Graph()
    for subject, predicate, obj in edges:
        graph.add(Triple(_iri(subject), _iri(predicate), _iri(obj)))
    return graph


# ----------------------------------------------------------------------
# RDF graph invariants
# ----------------------------------------------------------------------
class TestGraphProperties:
    @given(edges_strategy)
    @settings(max_examples=60, deadline=None)
    def test_graph_is_a_set_of_triples(self, edges):
        graph = graph_from_edges(edges)
        assert len(graph) == len({(s, p, o) for s, p, o in edges})

    @given(edges_strategy)
    @settings(max_examples=60, deadline=None)
    def test_pattern_matching_consistent_with_scan(self, edges):
        graph = graph_from_edges(edges)
        for predicate in _PREDICATE_NAMES:
            via_index = set(graph.triples(None, _iri(predicate), None))
            via_scan = {t for t in graph if t.predicate == _iri(predicate)}
            assert via_index == via_scan

    @given(edges_strategy)
    @settings(max_examples=40, deadline=None)
    def test_ntriples_round_trip(self, edges):
        graph = graph_from_edges(edges)
        assert set(parse_ntriples(serialize_ntriples(graph))) == set(graph)

    @given(st.lists(simple_literals, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_literal_ntriples_round_trip(self, values):
        graph = Graph()
        for index, value in enumerate(values):
            graph.add(Triple(_iri(f"s{index}"), _iri("p"), Literal(value)))
        assert set(parse_ntriples(serialize_ntriples(graph))) == set(graph)


# ----------------------------------------------------------------------
# binding algebra invariants
# ----------------------------------------------------------------------
binding_strategy = st.dictionaries(
    st.sampled_from([Variable("a"), Variable("b"), Variable("c")]),
    st.sampled_from([_iri("x"), _iri("y"), Literal("1")]),
    max_size=3,
).map(Binding)


class TestBindingProperties:
    @given(binding_strategy, binding_strategy)
    @settings(max_examples=100, deadline=None)
    def test_compatibility_is_symmetric(self, left, right):
        assert left.is_compatible(right) == right.is_compatible(left)

    @given(binding_strategy, binding_strategy)
    @settings(max_examples=100, deadline=None)
    def test_merge_of_compatible_mappings_extends_both(self, left, right):
        if left.is_compatible(right):
            merged = left.merge(right)
            for variable in left:
                assert merged[variable] == left[variable]
            for variable in right:
                assert merged[variable] == right[variable]

    @given(binding_strategy)
    @settings(max_examples=50, deadline=None)
    def test_merge_with_empty_is_identity(self, binding):
        assert binding.merge(Binding()) == binding

    @given(binding_strategy, st.sets(st.sampled_from([Variable("a"), Variable("b")])))
    @settings(max_examples=50, deadline=None)
    def test_projection_domain(self, binding, variables):
        header = sorted(variables, key=lambda variable: variable.name)
        (row,) = project_rows(header, [binding])
        assert row == tuple(binding.get(variable) for variable in header)


# ----------------------------------------------------------------------
# Datalog engine vs networkx: transitive closure
# ----------------------------------------------------------------------
class TestDatalogClosureProperties:
    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_transitive_closure_matches_networkx(self, edges):
        program = Program()
        for source, target in edges:
            program.add_fact(Atom("edge", (Const(source), Const(target))))
        X, Y, Z = Var("X"), Var("Y"), Var("Z")
        program.add_rule(Rule(Atom("tc", (X, Y)), (Atom("edge", (X, Y)),)))
        program.add_rule(
            Rule(Atom("tc", (X, Z)), (Atom("edge", (X, Y)), Atom("tc", (Y, Z))))
        )
        relations = DatalogEngine().evaluate(program)
        digraph = nx.DiGraph()
        digraph.add_nodes_from(range(10))
        digraph.add_edges_from(edges)
        # Expected: (s, t) such that t is reachable from s in one or more steps.
        expected = set()
        for source in digraph.nodes:
            for successor in digraph.successors(source):
                expected.add((source, successor))
                for target in nx.descendants(digraph, successor):
                    expected.add((source, target))
                expected.add((source, successor))
        computed = relations.get("tc", set())
        assert computed == expected


# ----------------------------------------------------------------------
# Stratification vs networkx
# ----------------------------------------------------------------------
_PREDICATES = [f"p{i}" for i in range(7)]


def _networkx_strata(graph: nx.DiGraph):
    """Strata from ``networkx``'s condensation (edges body -> head); ``None``
    when a negative edge lies inside a strongly connected component."""
    condensation = nx.condensation(graph)
    component_of = condensation.graph["mapping"]
    for source, target, negative in graph.edges(data="negative"):
        if negative and component_of[source] == component_of[target]:
            return None
    stratum = {}
    for component in nx.topological_sort(condensation):
        stratum[component] = max(
            (
                stratum[component_of[source]] + negative
                for member in condensation.nodes[component]["members"]
                for source, _, negative in graph.in_edges(member, data="negative")
                if component_of[source] != component
            ),
            default=0,
        )
    strata = [set() for _ in range(max(stratum.values(), default=0) + 1)]
    for predicate, component in component_of.items():
        strata[stratum[component]].add(predicate)
    return strata


class TestStratificationProperties:
    @given(
        st.lists(
            st.tuples(st.sampled_from(_PREDICATES), st.sampled_from(_PREDICATES), st.booleans()),
            max_size=14,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_components_and_strata_match_networkx(self, edges):
        X = Var("X")
        program = Program()
        graph = nx.DiGraph()
        for body, head, negative in edges:
            read = Atom(body, (X,))
            program.add_rule(Rule(Atom(head, (X,)), (Negation(read) if negative else read,)))
            negative = negative or graph.get_edge_data(body, head, {}).get("negative", False)
            graph.add_edge(body, head, negative=negative)

        expected = _networkx_strata(graph)
        if expected is None:
            for function in (components, stratify, recursive_predicates):
                with pytest.raises(StratificationError):
                    function(program)
            return
        assert stratify(program) == expected

        found = components(program)
        assert sorted(sorted(component.predicates) for component in found) == sorted(
            sorted(members) for members in nx.strongly_connected_components(graph)
        )
        position = {
            predicate: index
            for index, component in enumerate(found)
            for predicate in component.predicates
        }
        assert all(position[body] <= position[head] for body, head in graph.edges)
        cyclic = {
            predicate
            for members in nx.strongly_connected_components(graph)
            if len(members) > 1 or graph.has_edge(*members, *members)
            for predicate in members
        }
        assert recursive_predicates(program) == cyclic


# ----------------------------------------------------------------------
# Evaluating on top of a materialisation
# ----------------------------------------------------------------------
_VARS = [Var("X"), Var("Y"), Var("Z")]
_DOMAIN = range(4)


@st.composite
def layered_programs(draw):
    """A stratified program as ``(facts, [rules of layer 1, 2, ...])``.

    Layer ``k`` defines one predicate ``p<k>`` from the predicates of the
    layers up to ``k``: positive atoms may use ``p<k>`` itself (recursion),
    negated atoms, existential heads and aggregates read strictly lower
    layers only, comparisons relate the bound variables.
    """
    facts = Program()
    for name in ("e0", "e1"):
        for left, right in draw(
            st.sets(
                st.tuples(st.sampled_from(_DOMAIN), st.sampled_from(_DOMAIN)), min_size=2, max_size=8
            )
        ):
            facts.add_fact(Atom(name, (Const(left), Const(right))))
    arity = {"e0": 2, "e1": 2}
    term = st.one_of(st.sampled_from(_VARS), st.sampled_from(_DOMAIN).map(Const))

    def atom_over(predicates):
        name = draw(st.sampled_from(sorted(predicates)))
        return Atom(name, tuple(draw(term) for _ in range(arity[name])))

    layers = []
    for layer in range(1, draw(st.integers(2, 4)) + 1):
        name = f"p{layer}"
        lower = set(arity)
        kind = draw(st.sampled_from(["plain", "plain", "negation", "existential", "aggregate"]))
        arity[name] = 2 if kind in ("existential", "aggregate") else draw(st.integers(1, 2))
        readable = lower if kind in ("existential", "aggregate") else lower | {name}
        program = Program()
        for _ in range(draw(st.integers(1, 2))):
            body = [Atom("e0", (_VARS[0], draw(term)))]
            body += [atom_over(readable) for _ in range(draw(st.integers(0, 2)))]
            bound = sorted({v for atom in body for v in atom.variables()}, key=lambda v: v.name)
            if draw(st.booleans()):
                operator = draw(st.sampled_from(["=", "!=", "<", ">="]))
                body.append(Comparison(operator, draw(st.sampled_from(bound)), draw(term)))
            if kind == "negation":
                body.append(Negation(atom_over(lower)))
            head_term = st.one_of(st.sampled_from(bound), st.sampled_from(_DOMAIN).map(Const))
            if kind == "aggregate":
                group, counted = draw(st.sampled_from(bound)), draw(st.sampled_from(bound))
                program.aggregate_rules.append(
                    AggregateRule(
                        head=Atom(name, (group, Var("N"))),
                        body=tuple(body),
                        group_variables=(group,),
                        aggregates=(AggregateSpec("COUNT", counted, Var("N")),),
                    )
                )
            elif kind == "existential":
                head = Atom(name, (draw(head_term), Var("E")))
                program.add_rule(
                    Rule(head, tuple(body), existential_variables=(Var("E"),), label=f"r{layer}")
                )
            else:
                head = Atom(name, tuple(draw(head_term) for _ in range(arity[name])))
                program.add_rule(Rule(head, tuple(body)))
        layers.append(program)
    return facts, layers


def _merged(programs) -> Program:
    merged = Program()
    for program in programs:
        merged.extend(program)
    return merged


def _non_empty(relations):
    return {predicate: rows for predicate, rows in relations.items() if rows}


class TestMaterialisationProperties:
    @given(layered_programs(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_rules_on_a_materialised_base_equal_one_evaluation(self, generated, data):
        facts, layers = generated
        split = data.draw(st.integers(0, len(layers)))
        everything = DatalogEngine(max_facts=50_000).evaluate(_merged([facts, *layers]))

        engine = DatalogEngine(max_facts=50_000)
        base = engine.materialise(_merged([facts, *layers[:split]]))
        sizes = {predicate: len(relation) for predicate, relation in base.relations.items()}
        on_base = engine.evaluate(_merged(layers[split:]), base)

        assert _non_empty(on_base) == _non_empty(everything)
        assert sizes == {
            predicate: len(relation) for predicate, relation in base.relations.items()
        }


# ----------------------------------------------------------------------
# differential property: SparqLog vs native evaluator on random graphs
# ----------------------------------------------------------------------
_PROPERTY_QUERIES = [
    "PREFIX ex: <http://ex.org/> SELECT ?x ?y WHERE { ?x ex:p ?y }",
    "PREFIX ex: <http://ex.org/> SELECT ?x ?z WHERE { ?x ex:p ?y . ?y ex:q ?z }",
    "PREFIX ex: <http://ex.org/> SELECT ?x ?y WHERE { ?x ex:p ?y OPTIONAL { ?y ex:q ?z } }",
    "PREFIX ex: <http://ex.org/> SELECT DISTINCT ?x ?y WHERE { ?x ex:p+ ?y }",
    "PREFIX ex: <http://ex.org/> SELECT ?x ?y WHERE { ?x (ex:p|ex:q) ?y }",
    "PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x ex:p ?y MINUS { ?x ex:q ?y } }",
]


class TestTranslationDifferentialProperties:
    @given(edges_strategy, st.sampled_from(_PROPERTY_QUERIES))
    @settings(max_examples=40, deadline=None)
    def test_sparqlog_matches_reference_on_random_graphs(self, edges, query_text):
        dataset = Dataset.from_graph(EncodedGraph(graph_from_edges(edges)))
        native = NativeSparqlEngine(dataset).query(query_text)
        translated = SparqLogEngine(dataset, timeout_seconds=30).query(query_text)
        assert results_equal(native, translated)


# ----------------------------------------------------------------------
# differential property: planned BGP evaluation vs naive textual order
# ----------------------------------------------------------------------
_BGP_QUERIES = [
    "PREFIX ex: <http://ex.org/> SELECT ?x ?y WHERE { ?x ex:p ?y }",
    "PREFIX ex: <http://ex.org/> SELECT ?x ?z WHERE { ?x ex:p ?y . ?y ex:q ?z }",
    "PREFIX ex: <http://ex.org/> SELECT ?x ?y ?z WHERE { ?x ex:p ?y . ?x ex:q ?z }",
    "PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x ex:p ?y . ?y ex:q ?z . ?z ex:p ?x }",
    "PREFIX ex: <http://ex.org/> SELECT ?x ?y WHERE { ?x ex:p ?y . ?x ex:p ?y }",
    "PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x ex:p ?x }",
    "PREFIX ex: <http://ex.org/> SELECT ?x ?y WHERE { ?x ex:p ?y . ?a ex:q ?b }",
    "PREFIX ex: <http://ex.org/> ASK WHERE { ?x ex:p ?y . ?y ex:q ?z }",
    "PREFIX ex: <http://ex.org/> SELECT DISTINCT ?x ?y WHERE { ?x ex:p+ ?y . ?y ex:q ?z }",
    # Zero-length-admitting paths joined through a variable endpoint:
    # substitution must not admit non-node terms as zero-length matches.
    "PREFIX ex: <http://ex.org/> SELECT DISTINCT ?y ?z WHERE { ?x ex:p ?y . ?y ex:q? ?z }",
    "PREFIX ex: <http://ex.org/> SELECT DISTINCT ?y ?z WHERE { ?x ex:p ?y . ?y ex:q* ?z }",
]


# FILTER / OPTIONAL / MINUS / UNION nested every way the evaluation-tree pass
# (repro.sparql.evaltree) tells apart: a pipeline, a lone pattern or a UNION
# at the core; up to two OPTIONAL / MINUS around it, whose conditions split
# into a conjunct the right side binds and one it does not; FILTERs above
# that travel down through MINUS, stop at OPTIONAL and UNION, read a variable
# an OPTIONAL may leave unbound.
_CORES = [
    "?x ex:p ?y",
    "?x ex:p ?y . ?y ex:q ?z",
    "{ ?x ex:p ?y } UNION { ?x ex:q ?y }",
]
_WRAPPERS = [
    "",
    "OPTIONAL { ?y ex:q ?w FILTER(?w != ?y && ?w != ?x) }",
    "OPTIONAL { ?y ex:p ?w . ?w ex:q ?v FILTER(?v != ?y) FILTER(?w != ?x) }",
    "MINUS { ?x ex:q ?y }",
    "MINUS { ?y ex:p ?u FILTER(?u != ?x) }",
]
_OUTER_FILTERS = [
    "",
    "FILTER(?x != ?y)",
    "FILTER(?x != ?y && ?y != ex:n0) FILTER(!bound(?w))",
    "FILTER(bound(?w) && ?w != ex:n1)",
]
_NESTED_QUERIES = [
    f"PREFIX ex: <http://ex.org/> {form} {{ {core} {first} {second} {outer} }}"
    for core in _CORES
    for first in _WRAPPERS
    for second in _WRAPPERS
    for outer in _OUTER_FILTERS
    for form in ("SELECT * WHERE", "ASK")
]


class TestPlannerDifferentialProperties:
    @given(
        edges_strategy,
        st.sampled_from(_BGP_QUERIES + _NESTED_QUERIES),
    )
    @settings(max_examples=200, deadline=None)
    def test_planned_bgp_multiset_equals_textual_order(self, edges, query_text):
        """The prepared evaluation tree against the oracle that has none."""
        from repro.sparql.evaluator import SparqlEvaluator
        from repro.sparql.parser import parse_query
        from repro.sparql.profile import ExecutionProfile

        graph = graph_from_edges(edges)
        query = parse_query(query_text)
        planned = SparqlEvaluator(Dataset.from_graph(EncodedGraph(graph))).evaluate(query)
        naive = SparqlEvaluator(
            Dataset.from_graph(graph), profile=ExecutionProfile.NAIVE
        ).evaluate(query)
        if isinstance(planned, bool):
            assert planned == naive
        else:
            assert Counter(planned.rows()) == Counter(naive.rows())


# ----------------------------------------------------------------------
# differential property: the result boundary, every engine
# ----------------------------------------------------------------------
# The roots that reach the boundary differently: a pipeline and a lone
# path pattern emit tuples, UNION and OPTIONAL roots are walked as
# bindings and projected once; each under the modifier tail, an unbound
# projected variable included.
_BOUNDARY_CORES = [
    "?x ex:p ?y . ?y ex:q ?z",
    "?x ex:p+ ?z",
    "{ ?x ex:p ?z } UNION { ?x ex:q ?z }",
    "?x ex:p ?y OPTIONAL { ?y ex:q ?z }",
]
#: (form, its ORDER BY is a total order on the projected rows)
_BOUNDARY_FORMS = [
    ("SELECT ?z ?x WHERE {{ {} }}", False),
    ("SELECT ?x ?z WHERE {{ {} }} ORDER BY DESC(?z) ?x", True),
    ("SELECT DISTINCT ?z ?x WHERE {{ {} }}", False),
    ("SELECT ?x ?z WHERE {{ {} }} ORDER BY ?x ?z OFFSET 1 LIMIT 3", True),
    ("SELECT DISTINCT ?x ?missing ?z WHERE {{ {} }} ORDER BY ?z", False),
]


class TestResultBoundaryProperties:
    @given(
        edges_strategy,
        st.sampled_from(_BOUNDARY_CORES),
        st.sampled_from(_BOUNDARY_FORMS),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_engine_gives_one_sequence(self, edges, core, form):
        from repro.sparql.evaluator import SparqlEvaluator
        from repro.sparql.parser import parse_query
        from repro.sparql.profile import ExecutionProfile

        template, ordered = form
        text = "PREFIX ex: <http://ex.org/> " + template.format(core)
        query = parse_query(text)
        graph = graph_from_edges(edges)
        memory = Dataset.from_graph(graph)
        answers = [
            SparqlEvaluator(Dataset.from_graph(EncodedGraph(graph))).evaluate(query),
            SparqlEvaluator(memory, profile=ExecutionProfile.NAIVE).evaluate(query),
            SparqLogEngine(memory, timeout_seconds=30).query(text),
        ]
        for answer in answers[1:]:
            assert answer == answers[0]
            assert answer.variables == answers[0].variables
            if ordered:
                assert answer.rows() == answers[0].rows()
