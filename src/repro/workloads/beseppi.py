"""BeSEPPI-like workload: semantic-based property-path compliance testing.

BeSEPPI (Skubella, Janke, Staab 2019) ships a small, hand-crafted RDF
graph and 236 queries that probe the *correct and complete* handling of
every property-path constructor, with the expected answer attached to
every query.  The paper uses it for the Table 3 compliance study.

This module regenerates the suite: a fixed 23-triple graph containing
cycles, self-loops, an isolated node and a literal object (the structures
that trigger the known engine bugs), and per-constructor query families
whose sizes match the paper's Table 3 exactly:

=================  ====
Inverse              20
Sequence             24
Alternative          23
Zero or One          24
One or More          34
Zero or More         38
Negated              73
Total               236
=================  ====

Expected answers are computed by a small, self-contained implementation of
the W3C property-path semantics written directly from the spec (and kept
independent of the engines under test).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.rdf.graph import Dataset, Graph
from repro.store import create_graph
from repro.rdf.namespace import Namespace
from repro.rdf.terms import IRI, Literal, Term, Triple

B = Namespace("http://beseppi.example.org/")

#: The fixed benchmark graph (see module docstring).
_EDGES: List[Tuple[str, str, Union[str, Literal]]] = [
    ("n1", "p", "n2"),
    ("n2", "p", "n3"),
    ("n3", "p", "n1"),          # 3-cycle over p
    ("n3", "p", "n4"),
    ("n4", "p", "n5"),
    ("n5", "p", "n5"),          # self loop over p
    ("n1", "q", "n4"),
    ("n4", "q", "n6"),
    ("n6", "q", "n6"),          # self loop over q
    ("n6", "q", "n2"),
    ("n2", "r", "n5"),
    ("n5", "r", "n7"),
    ("n7", "r", "n2"),          # 3-cycle over r
    ("n8", "r", "n8"),          # isolated self loop
    ("n7", "p", Literal("leaf")),
    ("n1", "r", "n6"),
    ("n4", "r", "n1"),
    ("n2", "q", "n7"),
    ("n7", "q", "n4"),
    ("n3", "r", "n3"),
    ("n5", "q", "n1"),
    ("n6", "p", "n7"),
    ("n8", "p", "n1"),
]

PREDICATES = ("p", "q", "r")

#: A term that does not occur in the graph (zero-length path corner case).
OUTSIDE_NODE = "n99"


def beseppi_graph() -> Graph:
    """Return the fixed benchmark graph."""
    graph = create_graph()
    for subject, predicate, obj in _EDGES:
        object_term: Term = obj if isinstance(obj, Literal) else B[obj]
        graph.add(Triple(B[subject], B[predicate], object_term))
    return graph


# ----------------------------------------------------------------------
# a tiny, spec-level property path evaluator (the expected-answer oracle)
# ----------------------------------------------------------------------
PathSpec = Tuple  # recursive tuples, e.g. ("seq", ("link","p"), ("inv", ("link","q")))


def _oracle_pairs(spec: PathSpec, graph: Graph) -> List[Tuple[Term, Term]]:
    """Pairs matched by a non-closure path expression (bag semantics)."""
    kind = spec[0]
    if kind == "link":
        return [(t.subject, t.object) for t in graph.triples(None, B[spec[1]], None)]
    if kind == "inv":
        return [(o, s) for s, o in _oracle_pairs(spec[1], graph)]
    if kind == "seq":
        left = _oracle_pairs(spec[1], graph)
        right = _oracle_pairs(spec[2], graph)
        return [(x, z) for x, y in left for y2, z in right if y == y2]
    if kind == "alt":
        return _oracle_pairs(spec[1], graph) + _oracle_pairs(spec[2], graph)
    if kind == "neg":
        forward, inverse = spec[1], spec[2]
        pairs: List[Tuple[Term, Term]] = []
        if forward or not inverse:
            forbidden = {B[p] for p in forward}
            pairs += [
                (t.subject, t.object) for t in graph if t.predicate not in forbidden
            ]
        if inverse:
            forbidden = {B[p] for p in inverse}
            pairs += [
                (t.object, t.subject) for t in graph if t.predicate not in forbidden
            ]
        return pairs
    if kind in ("zoo", "oom", "zom"):
        raise ValueError("closure paths need endpoint information; use _oracle_closure")
    raise ValueError(f"unknown path spec {spec!r}")


def _oracle_closure(
    spec: PathSpec, graph: Graph, subject_term: Optional[Term], object_term: Optional[Term]
) -> Set[Tuple[Term, Term]]:
    """Pairs matched by ?, + or * (set semantics, spec Section 18.4)."""
    kind, inner = spec[0], spec[1]
    single = set(_oracle_pairs(inner, graph)) if inner[0] not in ("zoo", "oom", "zom") else None
    if single is None:
        raise ValueError("nested closure operators are not used by the suite")

    nodes = graph.nodes()
    zero: Set[Tuple[Term, Term]] = {(node, node) for node in nodes}
    if subject_term is not None and object_term is None:
        zero.add((subject_term, subject_term))
    if object_term is not None and subject_term is None:
        zero.add((object_term, object_term))
    if subject_term is not None and object_term is not None and subject_term == object_term:
        zero.add((subject_term, subject_term))

    if kind == "zoo":
        return zero | single

    # transitive closure of the single-step pairs
    closure = set(single)
    changed = True
    while changed:
        changed = False
        additions = {
            (x, z)
            for x, y in closure
            for y2, z in single
            if y == y2 and (x, z) not in closure
        }
        if additions:
            closure |= additions
            changed = True
    if kind == "oom":
        return closure
    return closure | zero


def _spec_to_sparql(spec: PathSpec) -> str:
    """Render a path spec as SPARQL property-path syntax."""
    kind = spec[0]
    if kind == "link":
        return f"b:{spec[1]}"
    if kind == "inv":
        return f"^{_spec_to_sparql(spec[1])}"
    if kind == "seq":
        return f"({_spec_to_sparql(spec[1])}/{_spec_to_sparql(spec[2])})"
    if kind == "alt":
        return f"({_spec_to_sparql(spec[1])}|{_spec_to_sparql(spec[2])})"
    if kind == "zoo":
        return f"({_spec_to_sparql(spec[1])})?"
    if kind == "oom":
        return f"({_spec_to_sparql(spec[1])})+"
    if kind == "zom":
        return f"({_spec_to_sparql(spec[1])})*"
    if kind == "neg":
        parts = [f"b:{p}" for p in spec[1]] + [f"^b:{p}" for p in spec[2]]
        return f"!({'|'.join(parts)})"
    raise ValueError(f"unknown path spec {spec!r}")


@dataclass
class BeSEPPIQuery:
    """One compliance query with its expected answer.

    ``expected_rows`` is a multiset of result tuples aligned with
    ``variables`` (empty tuple rows for ASK queries are not used —
    ``expected_boolean`` carries the expectation instead).
    """

    query_id: str
    category: str
    text: str
    variables: Tuple[str, ...]
    expected_rows: Optional[Counter] = None
    expected_boolean: Optional[bool] = None


def _endpoint_term(name: Optional[str]) -> Optional[Term]:
    if name is None:
        return None
    return B[name]


def _build_query(
    query_id: str,
    category: str,
    spec: PathSpec,
    subject: Optional[str],
    obj: Optional[str],
    graph: Graph,
) -> BeSEPPIQuery:
    """Construct the SPARQL text and the expected answer for one query."""
    prefix = "PREFIX b: <http://beseppi.example.org/>\n"
    path_text = _spec_to_sparql(spec)
    subject_term = _endpoint_term(subject)
    object_term = _endpoint_term(obj)

    if spec[0] in ("zoo", "oom", "zom"):
        pairs: Iterable[Tuple[Term, Term]] = _oracle_closure(
            spec, graph, subject_term, object_term
        )
    else:
        pairs = _oracle_pairs(spec, graph)

    subject_text = f"b:{subject}" if subject is not None else "?x"
    object_text = f"b:{obj}" if obj is not None else "?y"

    if subject is None and obj is None:
        variables = ("x", "y")
        rows = Counter((x, y) for x, y in pairs)
        text = f"{prefix}SELECT ?x ?y WHERE {{ ?x {path_text} ?y }}"
        return BeSEPPIQuery(query_id, category, text, variables, expected_rows=rows)
    if subject is not None and obj is None:
        variables = ("y",)
        rows = Counter((y,) for x, y in pairs if x == subject_term)
        text = f"{prefix}SELECT ?y WHERE {{ {subject_text} {path_text} ?y }}"
        return BeSEPPIQuery(query_id, category, text, variables, expected_rows=rows)
    if subject is None and obj is not None:
        variables = ("x",)
        rows = Counter((x,) for x, y in pairs if y == object_term)
        text = f"{prefix}SELECT ?x WHERE {{ ?x {path_text} {object_text} }}"
        return BeSEPPIQuery(query_id, category, text, variables, expected_rows=rows)
    # Both endpoints bound: ASK query.
    expected = any(x == subject_term and y == object_term for x, y in pairs)
    text = f"{prefix}ASK WHERE {{ {subject_text} {path_text} {object_text} }}"
    return BeSEPPIQuery(query_id, category, text, (), expected_boolean=expected)


def _endpoint_configurations() -> List[Tuple[Optional[str], Optional[str]]]:
    """The endpoint configurations cycled through by every category."""
    return [
        (None, None),
        ("n1", None),
        ("n3", None),
        ("n5", None),
        (None, "n5"),
        (None, "n2"),
        ("n1", "n5"),
        ("n8", None),
        (OUTSIDE_NODE, None),
        (None, OUTSIDE_NODE),
        (OUTSIDE_NODE, OUTSIDE_NODE),
        ("n6", "n6"),
    ]


def _category_specs() -> Dict[str, List[PathSpec]]:
    """Path templates per category (cycled against endpoint configurations)."""
    link = lambda p: ("link", p)  # noqa: E731 - tiny local helper
    specs: Dict[str, List[PathSpec]] = {
        "Inverse": [
            ("inv", link("p")),
            ("inv", link("q")),
            ("inv", link("r")),
            ("inv", ("seq", link("p"), link("q"))),
            ("seq", ("inv", link("p")), link("q")),
        ],
        "Sequence": [
            ("seq", link("p"), link("q")),
            ("seq", link("q"), link("r")),
            ("seq", link("p"), link("p")),
            ("seq", ("seq", link("p"), link("q")), link("r")),
            ("seq", link("r"), ("inv", link("q"))),
        ],
        "Alternative": [
            ("alt", link("p"), link("q")),
            ("alt", link("q"), link("r")),
            ("alt", link("p"), ("inv", link("p"))),
            ("alt", ("seq", link("p"), link("q")), link("r")),
            ("alt", link("p"), link("p")),
        ],
        "Zero or One": [
            ("zoo", link("p")),
            ("zoo", link("q")),
            ("zoo", link("r")),
            ("zoo", ("alt", link("p"), link("q"))),
            ("zoo", ("seq", link("p"), link("q"))),
        ],
        "One or More": [
            ("oom", link("p")),
            ("oom", link("q")),
            ("oom", link("r")),
            ("oom", ("alt", link("p"), link("q"))),
            ("oom", ("seq", link("p"), link("q"))),
            ("oom", ("inv", link("p"))),
            ("oom", ("alt", link("q"), link("r"))),
        ],
        "Zero or More": [
            ("zom", link("p")),
            ("zom", link("q")),
            ("zom", link("r")),
            ("zom", ("alt", link("p"), link("q"))),
            ("zom", ("seq", link("p"), link("q"))),
            ("zom", ("inv", link("q"))),
            ("zom", ("alt", link("p"), link("r"))),
        ],
        "Negated": [
            ("neg", ("p",), ()),
            ("neg", ("q",), ()),
            ("neg", ("r",), ()),
            ("neg", ("p", "q"), ()),
            ("neg", ("p", "r"), ()),
            ("neg", ("q", "r"), ()),
            ("neg", ("p", "q", "r"), ()),
            ("neg", (), ("p",)),
            ("neg", (), ("q",)),
            ("neg", (), ("r",)),
            ("neg", ("p",), ("q",)),
            ("neg", ("q",), ("r",)),
            ("neg", ("p", "q"), ("r",)),
        ],
    }
    return specs


#: Per-category query counts matching the paper's Table 3.
CATEGORY_COUNTS: Dict[str, int] = {
    "Inverse": 20,
    "Sequence": 24,
    "Alternative": 23,
    "Zero or One": 24,
    "One or More": 34,
    "Zero or More": 38,
    "Negated": 73,
}


class BeSEPPIWorkload:
    """The full 236-query compliance suite with expected answers."""

    name = "BeSEPPI"

    def __init__(self) -> None:
        self._graph = beseppi_graph()
        self._queries = self._build_queries()

    @property
    def graph(self) -> Graph:
        return self._graph

    def dataset(self) -> Dataset:
        return Dataset.from_graph(self._graph.copy())

    def queries(self) -> List[BeSEPPIQuery]:
        return list(self._queries)

    def queries_by_category(self) -> Dict[str, List[BeSEPPIQuery]]:
        grouped: Dict[str, List[BeSEPPIQuery]] = {}
        for query in self._queries:
            grouped.setdefault(query.category, []).append(query)
        return grouped

    def statistics(self) -> Dict[str, int]:
        return {
            "triples": len(self._graph),
            "predicates": len(self._graph.predicates()),
            "queries": len(self._queries),
        }

    def _build_queries(self) -> List[BeSEPPIQuery]:
        queries: List[BeSEPPIQuery] = []
        configurations = _endpoint_configurations()
        for category, specs in _category_specs().items():
            target = CATEGORY_COUNTS[category]
            # Configuration-major order so every path template of the
            # category is exercised even for the smaller families.
            combos = itertools.cycle(
                itertools.product(configurations, specs)
            )
            produced = 0
            seen: Set[Tuple] = set()
            while produced < target:
                (subject, obj), spec = next(combos)
                key = (spec, subject, obj)
                if key in seen:
                    # All distinct combinations exhausted: allow repeats with
                    # a different identifier (keeps counts faithful).
                    pass
                seen.add(key)
                produced += 1
                query_id = f"{category.replace(' ', '')}-{produced}"
                queries.append(
                    _build_query(query_id, category, spec, subject, obj, self._graph)
                )
        return queries
