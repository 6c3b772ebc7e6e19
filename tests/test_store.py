"""Tests for the dictionary-encoded storage subsystem (repro.store)."""

import gc
import io
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf.graph import Dataset, Graph
from repro.rdf.ntriples import NTriplesParseError, parse_ntriples, serialize_ntriples
from repro.rdf.terms import BlankNode, IRI, Literal, Triple, Variable
from repro.sparql.evaluator import SparqlEvaluator
from repro.sparql.parser import parse_query
from repro.sparql.profile import ExecutionProfile
from repro.store import (
    EncodedGraph,
    GRAPH_BACKENDS,
    SnapshotError,
    TermDictionary,
    bulk_load_ntriples,
    bulk_load_path,
    bulk_load_turtle,
    create_graph,
    load_snapshot,
    save_snapshot,
)
from repro.store.dictionary import KIND_BLANK, KIND_IRI, KIND_LITERAL

from tests.helpers import EX, countries_graph


# ----------------------------------------------------------------------
# term strategies (hypothesis)
# ----------------------------------------------------------------------
_names = st.text(
    alphabet="abcdefgh0123456789", min_size=1, max_size=6
)

iris = st.builds(lambda n: IRI(f"http://ex.org/{n}"), _names)
bnodes = st.builds(BlankNode, _names)
plain_literals = st.builds(Literal, st.text(max_size=8))
typed_literals = st.builds(
    lambda lex, dt: Literal(lex, IRI(f"http://ex.org/dt/{dt}")),
    st.text(max_size=6),
    _names,
)
lang_literals = st.builds(
    lambda lex, tag: Literal(lex, None, tag),
    st.text(max_size=6),
    st.sampled_from(["en", "es-419", "de-CH-1901", "zh-Hant", "x-a-b"]),
)
terms = st.one_of(iris, bnodes, plain_literals, typed_literals, lang_literals)
ground_triples = st.builds(
    Triple, st.one_of(iris, bnodes), iris, terms
)


class TestTermDictionary:
    def test_ids_are_stable_and_bidirectional(self):
        dictionary = TermDictionary()
        first = dictionary.encode(EX.a)
        second = dictionary.encode(EX.b)
        assert first != second
        assert dictionary.encode(EX.a) == first
        assert dictionary.term(first) == EX.a
        assert dictionary.term(second) == EX.b
        assert len(dictionary) == 2

    def test_kind_tagging(self):
        dictionary = TermDictionary()
        assert dictionary.kind(dictionary.encode(EX.a)) == KIND_IRI
        assert dictionary.kind(dictionary.encode(BlankNode("b"))) == KIND_BLANK
        assert dictionary.kind(dictionary.encode(Literal("x"))) == KIND_LITERAL

    def test_distinct_literals_stay_distinct(self):
        # A plain literal and an explicitly xsd:string-typed literal are
        # different terms (dataclass equality) and must get different ids.
        from repro.rdf.terms import XSD_STRING

        dictionary = TermDictionary()
        plain = dictionary.encode(Literal("5"))
        typed = dictionary.encode(Literal("5", XSD_STRING))
        integer = dictionary.encode(Literal("5", IRI("http://www.w3.org/2001/XMLSchema#integer")))
        assert len({plain, typed, integer}) == 3

    def test_language_literal_interning_is_canonical(self):
        # Term-level and token-level interning must agree on language
        # literals despite the implied rdf:langString datatype.
        dictionary = TermDictionary()
        via_term = dictionary.encode(Literal("hola", None, "es-419"))
        via_token = dictionary.encode_literal("hola", None, "es-419")
        assert via_term == via_token
        assert dictionary.term(via_token) == Literal("hola", None, "es-419")

    def test_id_for_does_not_intern(self):
        dictionary = TermDictionary()
        assert dictionary.id_for(EX.a) is None
        assert len(dictionary) == 0
        assert EX.a not in dictionary

    def test_rejects_variables(self):
        with pytest.raises(TypeError):
            TermDictionary().encode(Variable("x"))

    @given(st.lists(terms, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, term_list):
        dictionary = TermDictionary()
        ids = [dictionary.encode(term) for term in term_list]
        # decode(encode(t)) == t, and equal terms share one id
        for term, term_id in zip(term_list, ids):
            assert dictionary.term(term_id) == term
            assert dictionary.id_for(term) == term_id
        assert len(dictionary) == len(set(term_list))


class TestEncodedGraphBasics:
    def test_len_contains_iter(self):
        graph = EncodedGraph()
        triple = Triple(EX.a, EX.p, EX.b)
        graph.add(triple)
        graph.add(triple)
        assert len(graph) == 1
        assert triple in graph
        assert list(graph) == [triple]

    def test_rejects_non_ground(self):
        graph = EncodedGraph()
        with pytest.raises(ValueError):
            graph.add(Triple(Variable("x"), EX.p, EX.b))
        with pytest.raises(ValueError):
            graph.add_triple(EX.a, EX.p, Variable("o"))

    def test_remove_unknown_term_is_noop(self):
        graph = EncodedGraph([Triple(EX.a, EX.p, EX.b)])
        graph.remove(Triple(EX.never, EX.seen, EX.before))
        assert len(graph) == 1
        # probing with unknown terms answers empty, not KeyError
        assert list(graph.triples(EX.never, None, None)) == []
        assert graph.pattern_cardinality(None, EX.seen, None) == 0

    def test_remove_churn_zeroes_the_statistics(self):
        graph = EncodedGraph()
        for i in range(200):
            triple = Triple(EX[f"s{i}"], EX.p, EX[f"o{i}"])
            graph.add(triple)
            graph.remove(triple)
        assert graph.predicate_cardinality(EX.p) == 0
        assert graph.distinct_subjects(EX.p) == graph.distinct_predicates() == 0

    def test_copy_shares_dictionary_but_not_indexes(self):
        graph = EncodedGraph([Triple(EX.a, EX.p, EX.b)])
        clone = graph.copy()
        clone.add(Triple(EX.a, EX.p, EX.c))
        assert len(graph) == 1
        assert len(clone) == 2
        assert clone.dictionary is graph.dictionary

    def test_version_counts_effective_mutations(self):
        graph = EncodedGraph()
        triple = Triple(EX.a, EX.p, EX.b)
        assert graph.version == 0
        graph.add(triple)
        graph.add(triple)  # duplicate: no bump
        assert graph.version == 1
        graph.remove(triple)
        graph.remove(triple)  # absent: no bump
        assert graph.version == 2

    @given(st.lists(st.tuples(st.booleans(), ground_triples), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_differential_against_seed_graph(self, operations):
        """Random add/remove churn keeps both backends observably equal."""
        seed, encoded = Graph(), EncodedGraph()
        for is_add, triple in operations:
            if is_add:
                seed.add(triple)
                encoded.add(triple)
            else:
                seed.remove(triple)
                encoded.remove(triple)
        assert Counter(iter(seed)) == Counter(iter(encoded))
        assert seed.subjects() == encoded.subjects()
        assert seed.predicates() == encoded.predicates()
        assert seed.objects() == encoded.objects()
        assert seed.terms() == encoded.terms()
        for _, triple in operations:
            subject, predicate, obj = triple
            for pattern in [
                (subject, None, None),
                (None, predicate, None),
                (None, None, obj),
                (subject, predicate, None),
                (None, predicate, obj),
                (subject, None, obj),
                (subject, predicate, obj),
            ]:
                matches = Counter(seed.triples(*pattern))
                assert Counter(encoded.triples(*pattern)) == matches, pattern
                # The planner's statistics, against brute-force counts.
                assert encoded.pattern_cardinality(*pattern) == sum(matches.values()), pattern
            with_predicate = list(seed.triples(None, predicate, None))
            assert encoded.distinct_subjects(predicate) == len({t.subject for t in with_predicate})
            assert encoded.distinct_objects(predicate) == len({t.object for t in with_predicate})


class TestBulkLoader:
    def test_matches_seed_parser(self):
        text = serialize_ntriples(countries_graph())
        assert Counter(iter(bulk_load_ntriples(text))) == Counter(
            iter(parse_ntriples(text))
        )

    def test_literals_comments_and_blank_nodes(self):
        text = "\n".join(
            [
                "# leading comment",
                '<http://e/s> <http://e/p> "plain" .',
                '<http://e/s> <http://e/p> "hola"@es-419 .',
                '<http://e/s> <http://e/p> "5"^^<http://www.w3.org/2001/XMLSchema#integer> .',
                '_:b1 <http://e/p> "esc\\"aped\\n" .',
                "",
                "<http://e/s> <http://e/p> _:b1 .",
            ]
        )
        graph = bulk_load_ntriples(text)
        assert Counter(iter(graph)) == Counter(iter(parse_ntriples(text)))
        assert Literal("hola", None, "es-419") in graph.terms()

    def test_accepts_line_iterables_and_files(self):
        text = serialize_ntriples(countries_graph())
        from_lines = bulk_load_ntriples(text.splitlines())
        from_file = bulk_load_ntriples(io.StringIO(text))
        assert Counter(iter(from_lines)) == Counter(iter(from_file))

    def test_error_reports_line_number(self):
        with pytest.raises(NTriplesParseError) as excinfo:
            bulk_load_ntriples('<http://e/s> <http://e/p> <http://e/o> .\nnot a triple .')
        assert excinfo.value.line_number == 2

    def test_literal_predicate_rejected(self):
        with pytest.raises(NTriplesParseError):
            bulk_load_ntriples('<http://e/s> "lit" <http://e/o> .')

    def test_bnode_object_dot_dialect_parity(self):
        # '_:b.' — the greedy blank-node label swallows the dot, so the
        # strict parser rejects the line; the fast path must agree
        # instead of backtracking its way into accepting it.
        line = "<http://e/s> <http://e/p> _:b."
        with pytest.raises(NTriplesParseError):
            parse_ntriples(line)
        with pytest.raises(NTriplesParseError):
            bulk_load_ntriples(line)
        # ...while a dot-terminated label before a spaced dot is legal in
        # both (label "b.").
        spaced = "<http://e/s> <http://e/p> _:b. ."
        assert Counter(iter(bulk_load_ntriples(spaced))) == Counter(
            iter(parse_ntriples(spaced))
        )

    def test_turtle_bulk_load(self):
        text = """
        @prefix ex: <http://ex.org/> .
        ex:a ex:p ex:b , ex:c ; ex:q "v"@de-CH-1901 .
        """
        graph = bulk_load_turtle(text)
        assert isinstance(graph, EncodedGraph)
        from repro.rdf.turtle import parse_turtle

        assert Counter(iter(graph)) == Counter(iter(parse_turtle(text)))

    def test_bulk_load_path_infers_format(self, tmp_path):
        nt = tmp_path / "data.nt"
        nt.write_text(serialize_ntriples(countries_graph()), encoding="utf-8")
        assert len(bulk_load_path(nt)) == len(countries_graph())
        ttl = tmp_path / "data.ttl"
        ttl.write_text("@prefix ex: <http://ex.org/> .\nex:a ex:p ex:b .\n", encoding="utf-8")
        assert len(bulk_load_path(ttl)) == 1
        with pytest.raises(ValueError):
            bulk_load_path(tmp_path / "data.unknown")

    def test_chunked_load_matches_one_shot(self):
        # Loading in chunks into one graph (incremental statistics path)
        # must be indistinguishable from a single load (rebuild path).
        lines = [
            f"<http://e/s{i % 5}> <http://e/p{i % 2}> <http://e/o{i % 7}> ."
            for i in range(40)
        ]
        one_shot = bulk_load_ntriples("\n".join(lines))
        chunked = bulk_load_ntriples("\n".join(lines[:20]))
        bulk_load_ntriples("\n".join(lines[20:]), chunked)
        assert Counter(iter(one_shot)) == Counter(iter(chunked))
        for index in range(2):
            predicate = IRI(f"http://e/p{index}")
            assert one_shot.pattern_cardinality(
                None, predicate, None
            ) == chunked.pattern_cardinality(None, predicate, None)
            assert one_shot.distinct_subjects(predicate) == chunked.distinct_subjects(
                predicate
            )
            assert one_shot.distinct_objects(predicate) == chunked.distinct_objects(
                predicate
            )
        for index in range(5):
            subject = IRI(f"http://e/s{index}")
            assert one_shot.pattern_cardinality(subject=subject) == chunked.pattern_cardinality(
                subject=subject
            )

    def test_failed_load_leaves_graph_consistent(self):
        # A parse error part-way through the load must not leave the
        # statistics (or the version stamp) behind the indexes.
        graph = EncodedGraph([Triple(EX.a, EX.p, EX.b)])
        version = graph.version
        with pytest.raises(NTriplesParseError):
            bulk_load_ntriples(
                '<http://ex.org/a> <http://ex.org/p> <http://ex.org/c> .\n'
                'not a triple .',
                graph,
            )
        assert len(graph) == 2
        assert graph.pattern_cardinality(EX.a, None, None) == 2
        assert graph.pattern_cardinality(obj=EX.c) == 1
        assert graph.version == version + 1

    def test_loads_into_existing_graph(self):
        graph = EncodedGraph([Triple(EX.a, EX.p, EX.b)])
        bulk_load_ntriples('<http://ex.org/a> <http://ex.org/p> <http://ex.org/c> .', graph)
        assert len(graph) == 2
        assert graph.pattern_cardinality(EX.a, None, None) == 2


class TestSnapshot:
    def _graph(self):
        return bulk_load_ntriples(
            "\n".join(
                [
                    '<http://e/s1> <http://e/p> <http://e/o1> .',
                    '<http://e/s1> <http://e/p> "x"@en-US .',
                    '<http://e/s2> <http://e/q> "7"^^<http://www.w3.org/2001/XMLSchema#integer> .',
                    '_:b <http://e/p> "plain" .',
                ]
            )
        )

    def test_round_trip_stream(self):
        graph = self._graph()
        buffer = io.BytesIO()
        save_snapshot(graph, buffer)
        buffer.seek(0)
        loaded = load_snapshot(buffer)
        assert Counter(iter(loaded)) == Counter(iter(graph))

    def test_round_trip_path(self, tmp_path):
        graph = self._graph()
        path = tmp_path / "graph.snap"
        save_snapshot(graph, path)
        loaded = load_snapshot(path)
        assert Counter(iter(loaded)) == Counter(iter(graph))

    def test_bad_magic_and_truncation(self, tmp_path):
        with pytest.raises(SnapshotError):
            load_snapshot(io.BytesIO(b"NOTASNAP" + b"\0" * 16))
        buffer = io.BytesIO()
        save_snapshot(self._graph(), buffer)
        truncated = buffer.getvalue()[:-5]
        with pytest.raises(SnapshotError):
            load_snapshot(io.BytesIO(truncated))

    def test_trailing_bytes_rejected(self):
        buffer = io.BytesIO()
        save_snapshot(self._graph(), buffer)
        with pytest.raises(SnapshotError):
            load_snapshot(io.BytesIO(buffer.getvalue() + b"\0" * 24))

    def test_out_of_range_triple_id_rejected(self):
        # Corrupt id streams must fail at load time, not as an IndexError
        # during a later decode.
        buffer = io.BytesIO()
        save_snapshot(self._graph(), buffer)
        data = bytearray(buffer.getvalue())
        data[-8:] = (1 << 40).to_bytes(8, "little")  # clobber the last oid
        with pytest.raises(SnapshotError):
            load_snapshot(io.BytesIO(bytes(data)))

    def test_corrupt_kind_tag_rejected(self):
        buffer = io.BytesIO()
        save_snapshot(self._graph(), buffer)
        data = bytearray(buffer.getvalue())
        # Flip the kind bits of the last object id while staying in range.
        original = int.from_bytes(data[-8:], "little")
        data[-8:] = (original ^ 0b11).to_bytes(8, "little")
        with pytest.raises(SnapshotError):
            load_snapshot(io.BytesIO(bytes(data)))

    def test_duplicate_triple_records_rejected(self):
        buffer = io.BytesIO()
        save_snapshot(self._graph(), buffer)
        data = bytearray(buffer.getvalue())
        # Duplicate the last id record and bump the declared triple count.
        n_offset = len(data) - 4 * 24 - 8
        count = int.from_bytes(data[n_offset:n_offset + 8], "little")
        assert count == 4
        data[n_offset:n_offset + 8] = (count + 1).to_bytes(8, "little")
        data.extend(data[-24:])
        with pytest.raises(SnapshotError):
            load_snapshot(io.BytesIO(bytes(data)))

    @given(st.lists(ground_triples, max_size=25))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, triple_list):
        """Snapshot load reproduces the triple multiset and the statistics."""
        graph = EncodedGraph(triple_list)
        buffer = io.BytesIO()
        save_snapshot(graph, buffer)
        buffer.seek(0)
        loaded = load_snapshot(buffer)
        assert Counter(iter(loaded)) == Counter(iter(graph))
        for triple in triple_list:
            subject, predicate, obj = triple
            for pattern in [
                (subject, None, None),
                (None, predicate, None),
                (None, None, obj),
                (subject, predicate, None),
                (None, predicate, obj),
                (subject, None, obj),
            ]:
                assert graph.pattern_cardinality(*pattern) == loaded.pattern_cardinality(
                    *pattern
                )
            assert graph.distinct_subjects(predicate) == loaded.distinct_subjects(predicate)
            assert graph.distinct_objects(predicate) == loaded.distinct_objects(predicate)
        assert graph.distinct_predicates() == loaded.distinct_predicates()


def test_encoded_store_retains_half_the_bytes_per_triple_at_most():
    """``tracemalloc`` bytes still allocated after loading the same document
    into both backends (a byte count, not a clock; measured ~0.19x).  12k
    distinct triples, DBLP-ish: 7 predicates, every other term reused 4-5
    times (prime moduli keep the lines distinct)."""
    n = 12_000
    text = "\n".join(
        f"<http://ex.org/s{i % 2503}> <http://ex.org/p{i % 7}> "
        + (f'"value {i % 701}" .' if i % 4 == 3 else f"<http://ex.org/o{(i // 3) % 2003}> .")
        for i in range(n)
    )

    def retained(load) -> int:
        gc.collect()
        tracemalloc.start()
        graph = load(text)
        gc.collect()
        current, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert len(graph) == n  # and keeps the graph alive through the measurement
        return current

    seed_bytes, encoded_bytes = retained(parse_ntriples), retained(bulk_load_ntriples)
    assert encoded_bytes <= 0.5 * seed_bytes, (encoded_bytes / n, seed_bytes / n)


class TestBackendFactory:
    def test_default_is_the_encoded_store(self):
        assert type(create_graph()) is EncodedGraph

    def test_named_backends(self):
        assert type(create_graph("hash")) is Graph
        assert type(create_graph("encoded")) is EncodedGraph
        assert set(GRAPH_BACKENDS) == {"hash", "encoded"}

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            create_graph("btree")

    def test_prefilled(self):
        triples = list(countries_graph())
        assert len(create_graph("encoded", triples)) == len(triples)


class TestPlannedQueryDifferential:
    """Planned evaluation on the encoded store answers as the unplanned one
    on the hash store."""

    QUERIES = [
        "SELECT ?a ?c WHERE { ?a ex:borders ?b . ?b ex:borders ?c }",
        "SELECT ?x WHERE { ?x ex:borders ex:germany . ?x ex:borders ex:belgium }",
        "SELECT ?s ?a ?b WHERE { ?s ex:borders ?a . ?s ex:borders ?b . ?s ex:borders ex:belgium }",
        "ASK WHERE { ex:spain ex:borders ?x . ?x ex:borders ?y }",
        "SELECT ?a ?b WHERE { ?a ex:borders+ ?b }",
        "SELECT (COUNT(?x) AS ?n) WHERE { ?s ex:borders ?x }",
    ]

    @pytest.mark.parametrize("query_text", QUERIES)
    def test_same_solutions(self, query_text):
        query = parse_query("PREFIX ex: <http://ex.org/>\n" + query_text)
        triples = list(countries_graph())
        results = []
        configurations = (("hash", ExecutionProfile.NAIVE), ("encoded", ExecutionProfile.FULL))
        for backend, profile in configurations:
            graph = create_graph(backend, triples)
            evaluator = SparqlEvaluator(Dataset.from_graph(graph), profile=profile)
            outcome = evaluator.evaluate(query)
            results.append(
                outcome if isinstance(outcome, bool) else Counter(outcome.rows())
            )
        assert results[0] == results[1]

    @given(st.lists(ground_triples, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_join_query_property(self, triple_list):
        query = parse_query(
            "SELECT ?s ?o ?o2 WHERE { ?s <http://ex.org/a> ?o . ?o <http://ex.org/a> ?o2 }"
        )
        rows = []
        configurations = (("hash", ExecutionProfile.NAIVE), ("encoded", ExecutionProfile.FULL))
        for backend, profile in configurations:
            graph = create_graph(backend, triple_list)
            result = SparqlEvaluator(Dataset.from_graph(graph), profile=profile).evaluate(query)
            rows.append(Counter(result.rows()))
        assert rows[0] == rows[1]


class TestIdLevelSurface:
    """The id-native executor's store surface: match_triple_ids & friends."""

    def _graph(self):
        graph = EncodedGraph()
        graph.add(Triple(EX.s1, EX.p, EX.o1))
        graph.add(Triple(EX.s1, EX.p, EX.o2))
        graph.add(Triple(EX.s1, EX.q, EX.o1))
        graph.add(Triple(EX.s2, EX.p, EX.o1))
        return graph

    def _ids(self, graph, *terms):
        return tuple(graph.dictionary.id_for(term) for term in terms)

    def test_match_triple_ids_agrees_with_triples_on_every_shape(self):
        graph = self._graph()
        s1, p, o1 = self._ids(graph, EX.s1, EX.p, EX.o1)
        shapes = [
            (None, None, None),
            (s1, None, None),
            (None, p, None),
            (None, None, o1),
            (s1, p, None),
            (s1, None, o1),
            (None, p, o1),
            (s1, p, o1),
        ]
        decode = graph.dictionary.term
        for sid, pid, oid in shapes:
            by_ids = Counter(
                Triple(decode(s), decode(q), decode(o))
                for s, q, o in graph.match_triple_ids(sid, pid, oid)
            )
            by_terms = Counter(
                graph.triples(
                    decode(sid) if sid is not None else None,
                    decode(pid) if pid is not None else None,
                    decode(oid) if oid is not None else None,
                )
            )
            assert by_ids == by_terms, (sid, pid, oid)
            assert graph.pattern_cardinality_ids(sid, pid, oid) == sum(
                by_ids.values()
            ), (sid, pid, oid)

    def test_match_triple_ids_misses_return_empty(self):
        graph = self._graph()
        s1, p = self._ids(graph, EX.s1, EX.p)
        absent = 1 << 20  # an id the dictionary never handed out
        assert list(graph.match_triple_ids(absent, None, None)) == []
        assert list(graph.match_triple_ids(s1, absent, None)) == []
        assert list(graph.match_triple_ids(s1, p, absent)) == []
        assert graph.pattern_cardinality_ids(absent) == 0

    def test_match_triple_ids_tracks_removal(self):
        graph = self._graph()
        s1, p, o2 = self._ids(graph, EX.s1, EX.p, EX.o2)
        assert graph.pattern_cardinality_ids(s1, p, None) == 2
        graph.remove(Triple(EX.s1, EX.p, EX.o2))
        assert list(graph.match_triple_ids(s1, p, None)) == [
            (s1, p, self._ids(graph, EX.o1)[0])
        ]
        assert graph.pattern_cardinality_ids(s1, p, o2) == 0
