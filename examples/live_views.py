"""Live views: continuous queries through incremental view maintenance.

The example opens a graph, materializes a two-hop join query as a live
view and subscribes to its deltas: every mutation of the graph updates
the view in O(|change|) through the differentiated operator pipeline
(see ``repro.ivm``) and pushes the exact rows that appeared or
disappeared to the subscriber — no polling, no re-evaluation.

Run with:  python examples/live_views.py
"""

from repro import Triple, create_engine, open_graph
from repro.rdf.namespace import Namespace

EX = Namespace("http://ex.org/")

FOLLOWS_OF_FOLLOWS = """
PREFIX ex: <http://ex.org/>
SELECT ?a ?c
WHERE { ?a ex:follows ?b . ?b ex:follows ?c . FILTER(?a != ?c) }
"""


def main() -> None:
    graph = open_graph()
    for who, whom in [("ada", "brin"), ("brin", "cody"), ("cody", "dana")]:
        graph.add(Triple(EX[who], EX.follows, EX[whom]))

    with create_engine(graph) as engine:
        view = engine.materialize(FOLLOWS_OF_FOLLOWS)
        print(f"view maintenance: {view.maintenance}")
        print("initial rows:")
        for a, c in view.rows():
            print(f"  {a} ..follows..> {c}")

        def on_change(events):
            for (a, c), weight in events:
                sign = "+" if weight > 0 else "-"
                print(f"  [{sign}] {a} ..follows..> {c}")

        view.on_change(on_change)

        print("\nadd ex:dana ex:follows ex:ada — new two-hop pairs stream in:")
        graph.add(Triple(EX.dana, EX.follows, EX.ada))

        print("\nremove ex:brin ex:follows ex:cody — their pairs retract:")
        graph.remove(Triple(EX.brin, EX.follows, EX.cody))

        print(f"\nfinal rows ({len(view)}):")
        for a, c in view.rows():
            print(f"  {a} ..follows..> {c}")
        print(f"\nengine metrics: "
              f"delta_batches={engine.metrics()['ivm_delta_batches_total']} "
              f"delta_rows={engine.metrics()['ivm_delta_rows_total']}")


if __name__ == "__main__":
    main()
