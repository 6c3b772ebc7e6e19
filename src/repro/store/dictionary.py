"""Bidirectional Term <-> integer-id interning with per-kind tagging.

The dictionary is the heart of the encoded store: every distinct RDF term
is assigned a stable integer id on first sight, and the id-encoded
indexes of :class:`repro.store.encoded.EncodedGraph` join over those ids
instead of boxed :class:`~repro.rdf.terms.Term` objects.

Ids are tagged with the term kind in their two low bits
(``id & _KIND_MASK``), so kind checks — "is this id a literal?" — never
require decoding, and the id stream of a snapshot is self-describing.
The id sequence is append-only: ids are never reused, and a term keeps
its id for the lifetime of the dictionary even when every triple using
it has been removed.

Interning is keyed by the *structural* identity of a term (IRI value,
blank-node label, literal lexical/datatype/language), not by ``Term``
object identity, so the bulk loader can intern raw token strings without
materialising a ``Term`` per occurrence.  Decoding is lazy: the ``Term``
object for an id is only constructed on first request and memoised.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.rdf.terms import BlankNode, IRI, Literal, RDF_LANGSTRING, Term

#: Kind tags stored in the two low bits of every id.
KIND_IRI = 0
KIND_BLANK = 1
KIND_LITERAL = 2

_KIND_SHIFT = 2
_KIND_MASK = 0b11

#: Structural key of a literal: (lexical, datatype-IRI-value or None, language
#: or None).  A language-tagged literal's implied ``rdf:langString`` datatype
#: is canonicalised away so token-level and Term-level interning agree.
LiteralKey = Tuple[str, Optional[str], Optional[str]]


def _literal_key(
    lexical: str, datatype_value: Optional[str], language: Optional[str]
) -> LiteralKey:
    if language is not None and datatype_value == RDF_LANGSTRING.value:
        datatype_value = None
    return (lexical, datatype_value, language)


def term_structure(term: Term) -> Tuple[int, Union[str, LiteralKey]]:
    """``(kind, key)`` under which ``term`` is (or would be) interned."""
    if isinstance(term, IRI):
        return KIND_IRI, term.value
    if isinstance(term, Literal):
        return KIND_LITERAL, _literal_key(
            term.lexical,
            term.datatype.value if term.datatype is not None else None,
            term.language,
        )
    if isinstance(term, BlankNode):
        return KIND_BLANK, term.label
    raise TypeError(f"{term!r} is not an RDF term")


class DictionaryCounters:
    """Optional encode/decode counters (see ``TermDictionary.enable_counters``)."""

    __slots__ = ("encodes", "decodes")

    def __init__(self) -> None:
        #: Interning operations (term/token -> id), hits and fresh ids alike.
        self.encodes = 0
        #: Decode operations (id -> Term), memoised hits included.
        self.decodes = 0


class TermDictionary:
    """Append-only bidirectional mapping between terms and tagged int ids."""

    __slots__ = (
        "_iri_ids",
        "_bnode_ids",
        "_literal_ids",
        "_keys",
        "_kinds",
        "_cache",
        "_counters",
        "compare_keys",
    )

    def __init__(self) -> None:
        self._iri_ids: Dict[str, int] = {}
        self._bnode_ids: Dict[str, int] = {}
        self._literal_ids: Dict[LiteralKey, int] = {}
        #: Per-id structural key (str for IRIs / blank nodes, LiteralKey tuple).
        self._keys: List[Union[str, LiteralKey]] = []
        self._kinds = bytearray()
        #: Per-id memoised Term; ``None`` until first decoded.
        self._cache: List[Optional[Term]] = []
        #: Observability counters; ``None`` (a bare identity check on the
        #: encode/decode paths) until enable_counters().
        self._counters: Optional[DictionaryCounters] = None
        #: Per-id memo of the id executor's FILTER comparison keys
        #: (:func:`repro.sparql.kernels.comparison_key`), filled on first
        #: comparison of a literal's id (other kinds compare on the id).  It lives here because it is valid exactly
        #: as long as the id space: a key is a function of the term and ids
        #: are never reused, so nothing ever invalidates an entry.  Interning
        #: never touches it — loads and writes do not pay for it.
        self.compare_keys: Dict[int, tuple] = {}

    def enable_counters(self) -> DictionaryCounters:
        """Switch on encode/decode counting (idempotent) and return it."""
        if self._counters is None:
            self._counters = DictionaryCounters()
        return self._counters

    # ------------------------------------------------------------------
    # interning (encode)
    # ------------------------------------------------------------------
    def _new_id(self, kind: int, key, term: Optional[Term]) -> int:
        term_id = (len(self._keys) << _KIND_SHIFT) | kind
        self._keys.append(key)
        self._kinds.append(kind)
        self._cache.append(term)
        return term_id

    def encode_iri(self, value: str) -> int:
        """Intern an IRI by its string value."""
        if self._counters is not None:
            self._counters.encodes += 1
        term_id = self._iri_ids.get(value)
        if term_id is None:
            term_id = self._iri_ids[value] = self._new_id(KIND_IRI, value, None)
        return term_id

    def encode_bnode(self, label: str) -> int:
        """Intern a blank node by its label."""
        if self._counters is not None:
            self._counters.encodes += 1
        term_id = self._bnode_ids.get(label)
        if term_id is None:
            term_id = self._bnode_ids[label] = self._new_id(KIND_BLANK, label, None)
        return term_id

    def encode_literal(
        self,
        lexical: str,
        datatype_value: Optional[str] = None,
        language: Optional[str] = None,
    ) -> int:
        """Intern a literal by its structural (lexical, datatype, language) key."""
        if self._counters is not None:
            self._counters.encodes += 1
        key = _literal_key(lexical, datatype_value, language)
        term_id = self._literal_ids.get(key)
        if term_id is None:
            term_id = self._literal_ids[key] = self._new_id(KIND_LITERAL, key, None)
        return term_id

    def encode(self, term: Term) -> int:
        """Intern a ``Term`` object, returning its (possibly new) id."""
        if self._counters is not None:
            self._counters.encodes += 1
        if isinstance(term, IRI):
            term_id = self._iri_ids.get(term.value)
            if term_id is None:
                term_id = self._iri_ids[term.value] = self._new_id(
                    KIND_IRI, term.value, term
                )
            return term_id
        if isinstance(term, Literal):
            key = _literal_key(
                term.lexical,
                term.datatype.value if term.datatype is not None else None,
                term.language,
            )
            term_id = self._literal_ids.get(key)
            if term_id is None:
                term_id = self._literal_ids[key] = self._new_id(
                    KIND_LITERAL, key, term
                )
            return term_id
        if isinstance(term, BlankNode):
            term_id = self._bnode_ids.get(term.label)
            if term_id is None:
                term_id = self._bnode_ids[term.label] = self._new_id(
                    KIND_BLANK, term.label, term
                )
            return term_id
        raise TypeError(f"cannot intern {term!r} as an RDF term")

    # ------------------------------------------------------------------
    # lookup without interning
    # ------------------------------------------------------------------
    def id_for(self, term: Term) -> Optional[int]:
        """Return the id of ``term`` or ``None`` when it was never interned."""
        if isinstance(term, IRI):
            return self._iri_ids.get(term.value)
        if isinstance(term, Literal):
            return self._literal_ids.get(
                _literal_key(
                    term.lexical,
                    term.datatype.value if term.datatype is not None else None,
                    term.language,
                )
            )
        if isinstance(term, BlankNode):
            return self._bnode_ids.get(term.label)
        return None

    def __contains__(self, term: Term) -> bool:
        return self.id_for(term) is not None

    # ------------------------------------------------------------------
    # decoding
    # ------------------------------------------------------------------
    def term(self, term_id: int) -> Term:
        """Decode an id back to its ``Term``, memoising the result."""
        if self._counters is not None:
            self._counters.decodes += 1
        index = term_id >> _KIND_SHIFT
        term = self._cache[index]
        if term is None:
            kind = self._kinds[index]
            key = self._keys[index]
            if kind == KIND_IRI:
                term = IRI(key)
            elif kind == KIND_BLANK:
                term = BlankNode(key)
            else:
                lexical, datatype_value, language = key
                datatype = IRI(datatype_value) if datatype_value is not None else None
                term = Literal(lexical, datatype, language)
            self._cache[index] = term
        return term

    def structural_key(self, term_id: int) -> Tuple[int, Union[str, LiteralKey]]:
        """``(kind, key)`` of an id: what it was interned under, no ``Term`` built."""
        index = term_id >> _KIND_SHIFT
        return self._kinds[index], self._keys[index]

    @staticmethod
    def kind(term_id: int) -> int:
        """Return the kind tag (KIND_IRI / KIND_BLANK / KIND_LITERAL) of an id."""
        return term_id & _KIND_MASK

    @staticmethod
    def is_literal(term_id: int) -> bool:
        """True when the id denotes a literal — no decode needed.

        The id-native FILTER fast path uses this to decide whether two
        distinct ids may still be ``=``-equal (only literals compare by
        value; IRIs and blank nodes compare by identity).
        """
        return term_id & _KIND_MASK == KIND_LITERAL

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._keys)

    def ids(self) -> Iterator[int]:
        """Yield every assigned id in assignment order."""
        for index, kind in enumerate(self._kinds):
            yield (index << _KIND_SHIFT) | kind

    def items(self) -> Iterator[Tuple[int, Term]]:
        """Yield (id, term) pairs, decoding lazily."""
        for term_id in self.ids():
            yield term_id, self.term(term_id)

    def __repr__(self) -> str:
        return f"TermDictionary({len(self)} terms)"
