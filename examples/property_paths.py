"""Property paths: recursive reachability queries over a country graph.

Reproduces the running example of Section 4.2 of the paper (which
countries are reachable from Spain?) and demonstrates every property-path
constructor, cross-checking SparqLog against the standard-compliant native
evaluator and showing the non-standard behaviour of the Virtuoso-like
baseline.

Run with:  python examples/property_paths.py
"""

from repro import (
    Dataset,
    SparqLogEngine,
    VirtuosoLikeEngine,
    create_engine,
    open_graph,
    parse_turtle,
)
from repro.baselines import EngineError

TURTLE_DATA = """
@prefix ex: <http://ex.org/> .

ex:spain   ex:borders ex:france .
ex:france  ex:borders ex:belgium .
ex:france  ex:borders ex:germany .
ex:belgium ex:borders ex:germany .
ex:germany ex:borders ex:austria .
ex:austria ex:borders ex:italy .
ex:italy   ex:borders ex:france .
"""

PREFIX = "PREFIX ex: <http://ex.org/>\n"

QUERIES = {
    "one-or-more (+) from Spain": "SELECT ?B WHERE { ex:spain ex:borders+ ?B }",
    "zero-or-more (*) from Spain": "SELECT ?B WHERE { ex:spain ex:borders* ?B }",
    "zero-or-one (?) from Spain": "SELECT ?B WHERE { ex:spain ex:borders? ?B }",
    "inverse (^) into Germany": "SELECT ?A WHERE { ?A ^ex:borders ex:germany }",
    "sequence (/) two hops": "SELECT ?B WHERE { ex:spain ex:borders/ex:borders ?B }",
    "bounded repetition {2,3}": "SELECT ?B WHERE { ex:spain ex:borders{2,3} ?B }",
    "negated property set": "SELECT ?A ?B WHERE { ?A !(ex:nothing) ?B } LIMIT 3",
    "two-variable transitive closure": "SELECT DISTINCT ?A ?B WHERE { ?A ex:borders+ ?B }",
}


def short(term) -> str:
    value = getattr(term, "value", str(term))
    return value.rsplit("/", 1)[-1]


def main() -> None:
    dataset = Dataset.from_graph(parse_turtle(TURTLE_DATA, graph=open_graph()))
    sparqlog = SparqLogEngine(dataset)
    native = create_engine(dataset)
    virtuoso = VirtuosoLikeEngine(dataset)

    for title, body in QUERIES.items():
        query = PREFIX + body
        print(f"=== {title} ===")
        result = sparqlog.query(query)
        rows = sorted(tuple(short(t) if t else "-" for t in row) for row in result.rows())
        print(f"  SparqLog       : {rows}")
        reference = native.query(query)
        agree = result.counter() == reference.counter()
        print(f"  Native (Fuseki-like) agrees: {agree}")
        try:
            virtuoso_result = virtuoso.query(query)
            deviation = "" if virtuoso_result.counter() == reference.counter() else "  (deviates!)"
            print(f"  Virtuoso-like  : {len(virtuoso_result)} rows{deviation}")
        except EngineError as error:
            print(f"  Virtuoso-like  : ERROR — {error}")
        print()


if __name__ == "__main__":
    main()
