"""Streaming bulk loaders for the dictionary-encoded store.

The seed ingestion path (``parse_ntriples`` into a hash-indexed ``Graph``)
materialises three fresh ``Term`` objects and a ``Triple`` per input line
and updates four counters per insert.  The bulk loader here cuts all of
that out:

* one combined regular expression splits each N-Triples line into its
  three raw tokens,
* a token -> id cache interns each *distinct* token string directly into
  the :class:`~repro.store.dictionary.TermDictionary` — a ``Term`` object
  is only built on a cache miss, never per line,
* id triples are appended straight into the
  :class:`~repro.store.encoded.EncodedGraph` indexes with statistics
  maintenance deferred to a single pass at the end.

Turtle input is streamed through the existing tokenizing parser with the
encoded graph as the sink, so prefixed names and literals land in the
dictionary without an intermediate hash graph or per-statement ``Triple``.
"""

from __future__ import annotations

import io
import os
import re
from typing import Iterable, Iterator, Optional, Union

from repro.rdf.ntriples import (
    BNODE_TOKEN_PATTERN,
    IRI_TOKEN_PATTERN,
    LITERAL_TOKEN_PATTERN,
    _LITERAL_RE,
    _unescape,
    parse_statement,
)
from repro.store.encoded import EncodedGraph

#: Sources a bulk loader accepts: a document string, an open text file, or
#: any iterable of lines.
Source = Union[str, io.TextIOBase, Iterable[str]]

#: One N-Triples statement: subject / predicate / object tokens and the
#: terminating dot, with optional trailing comment.  Composed from the
#: token fragments shared with :mod:`repro.rdf.ntriples`, and the
#: predicate group only admits IRIs, so predicate validation comes free
#: with the match.
_STATEMENT_RE = re.compile(
    r"\s*"
    f"({IRI_TOKEN_PATTERN}|{BNODE_TOKEN_PATTERN})"
    r"\s+"
    f"({IRI_TOKEN_PATTERN})"
    r"\s+"
    f"({IRI_TOKEN_PATTERN}|{BNODE_TOKEN_PATTERN}|{LITERAL_TOKEN_PATTERN})"
    r"\s*\.\s*(?:#.*)?$"
)


def _iter_lines(source: Source) -> Iterator[str]:
    if isinstance(source, str):
        return iter(source.splitlines())
    return iter(source)


def _read_text(source: Source) -> str:
    if isinstance(source, str):
        return source
    if hasattr(source, "read"):
        return source.read()
    return "\n".join(source)


def bulk_load_ntriples(
    source: Source, graph: Optional[EncodedGraph] = None
) -> EncodedGraph:
    """Load an N-Triples document into an :class:`EncodedGraph` in one pass.

    ``source`` may be the document text, an open text file, or an iterable
    of lines.  Accepts exactly the dialect of
    :func:`repro.rdf.ntriples.iter_ntriples` (strict term syntax, ``#``
    comment lines, tolerant surrounding whitespace) and raises
    :class:`NTriplesParseError` with the offending line number otherwise.
    """
    if graph is None:
        graph = EncodedGraph()
    dictionary = graph.dictionary
    encode_iri = dictionary.encode_iri
    encode_bnode = dictionary.encode_bnode
    encode_literal = dictionary.encode_literal
    add_ids = graph._add_ids
    match_statement = _STATEMENT_RE.match
    token_ids = {}
    # Fresh target: defer statistics to one rebuild pass at the end.
    # Pre-populated target: maintain them incrementally, so chunked loads
    # into one graph do not pay an O(whole-graph) rebuild per chunk.
    incremental = len(graph) > 0

    def encode_token(token: str) -> int:
        head = token[0]
        if head == "<":
            term_id = encode_iri(token[1:-1])
        elif head == "_":
            term_id = encode_bnode(token[2:])
        else:
            literal_match = _LITERAL_RE.match(token)
            lexical = literal_match.group(1)
            if "\\" in lexical:
                lexical = _unescape(lexical)
            datatype = literal_match.group(3)
            term_id = encode_literal(lexical, datatype, literal_match.group(2))
        token_ids[token] = term_id
        return term_id

    mutated = False

    def load_strict(line: str, line_number: int) -> bool:
        """Load one line through the strict per-term parser (seed dialect)."""
        encode = dictionary.encode
        subject, predicate, obj = parse_statement(line, line_number)
        return add_ids(
            encode(subject), encode(predicate), encode(obj), stats=incremental
        )

    # Listeners get the load's effective inserts as one batch, delivered
    # when the block ends: after the statistics and the version stamp
    # below, also when a parse error aborts the load part-way.
    with graph._one_batch():
        try:
            for line_number, line in enumerate(_iter_lines(source), start=1):
                if not line or line.isspace():
                    continue
                statement = match_statement(line)
                if statement is None:
                    stripped = line.lstrip()
                    if stripped.startswith("#"):
                        continue
                    # The strict parser accepts a few shapes the fast regex
                    # rejects (e.g. trailing text after the dot) and fails
                    # with the seed path's diagnostics.
                    mutated |= load_strict(line, line_number)
                    continue
                subject_token, predicate_token, object_token = statement.groups()
                if object_token[0] == "_" and line[statement.end(3)] == ".":
                    # A blank-node object directly followed by the dot: the
                    # strict parser's greedy label regex consumes that dot
                    # into the label, so defer to it rather than silently
                    # accepting a statement the seed path rejects.
                    mutated |= load_strict(line, line_number)
                    continue
                sid = token_ids.get(subject_token)
                if sid is None:
                    sid = encode_token(subject_token)
                pid = token_ids.get(predicate_token)
                if pid is None:
                    pid = encode_token(predicate_token)
                oid = token_ids.get(object_token)
                if oid is None:
                    oid = encode_token(object_token)
                mutated |= add_ids(sid, pid, oid, stats=incremental)
        finally:
            # Keep the graph observably consistent even when a parse error
            # aborts the load part-way: statistics must cover every triple
            # already inserted, and the version stamp must record the change.
            if not incremental:
                graph._rebuild_statistics()
                if mutated:
                    graph._version += 1
    return graph


def bulk_load_turtle(
    source: Source, graph: Optional[EncodedGraph] = None
) -> EncodedGraph:
    """Stream a Turtle document into an :class:`EncodedGraph` in one pass;
    listeners get its effective inserts as one batch, as from
    :func:`bulk_load_ntriples`."""
    from repro.rdf.turtle import parse_turtle

    if graph is None:
        graph = EncodedGraph()
    with graph._one_batch():
        parse_turtle(_read_text(source), graph=graph)
    return graph


def infer_format(path, format: Optional[str] = None) -> str:
    """``format`` when given, else what the file extension of ``path`` says."""
    if format is not None:
        return format
    suffix = os.path.splitext(os.fspath(path))[1].lower()
    if suffix in (".nt", ".ntriples"):
        return "ntriples"
    if suffix in (".ttl", ".turtle"):
        return "turtle"
    raise ValueError(f"cannot infer RDF format from {path!r}")


def bulk_load_path(
    path: Union[str, os.PathLike],
    format: Optional[str] = None,
    graph: Optional[EncodedGraph] = None,
) -> EncodedGraph:
    """Bulk-load an RDF file, inferring the format from its extension.

    ``format`` may be ``"ntriples"`` or ``"turtle"``; when omitted,
    ``.nt`` / ``.ntriples`` select N-Triples and ``.ttl`` / ``.turtle``
    select Turtle.
    """
    format = infer_format(path, format)
    with open(path, "r", encoding="utf-8") as handle:
        if format == "ntriples":
            return bulk_load_ntriples(handle, graph)
        if format == "turtle":
            return bulk_load_turtle(handle, graph)
    raise ValueError(f"unknown RDF format {format!r}")
