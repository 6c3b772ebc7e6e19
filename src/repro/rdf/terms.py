"""Core RDF terms: IRIs, literals, blank nodes, variables and triples.

All terms are immutable, hashable value objects so they can be used as
dictionary keys, set members and constants inside the Datalog engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union


class Term:
    """Marker base class for RDF terms (IRI, Literal, BlankNode)."""

    __slots__ = ()


@dataclass(frozen=True, order=True)
class IRI(Term):
    """An Internationalised Resource Identifier.

    The value is stored as the plain IRI string (no surrounding angle
    brackets).  Two IRIs are equal iff their strings are equal.
    """

    value: str

    def __str__(self) -> str:
        return self.value

    def __repr__(self) -> str:
        return f"<{self.value}>"

    def n3(self) -> str:
        """Return the N-Triples / Turtle serialisation of this IRI."""
        return f"<{self.value}>"


# Well-known namespaces used throughout the code base.
_XSD = "http://www.w3.org/2001/XMLSchema#"
_RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
_RDFS = "http://www.w3.org/2000/01/rdf-schema#"


class _NamespaceConstants:
    """Convenience holders of frequently used IRIs."""

    __slots__ = ("_prefix",)

    def __init__(self, prefix: str) -> None:
        self._prefix = prefix

    def __getattr__(self, name: str) -> IRI:
        return IRI(self._prefix + name)

    def __getitem__(self, name: str) -> IRI:
        return IRI(self._prefix + name)

    @property
    def prefix(self) -> str:
        return self._prefix


XSD = _NamespaceConstants(_XSD)
RDF = _NamespaceConstants(_RDF)
RDFS = _NamespaceConstants(_RDFS)

XSD_STRING = IRI(_XSD + "string")
XSD_INTEGER = IRI(_XSD + "integer")
XSD_DECIMAL = IRI(_XSD + "decimal")
XSD_DOUBLE = IRI(_XSD + "double")
XSD_BOOLEAN = IRI(_XSD + "boolean")
XSD_DATETIME = IRI(_XSD + "dateTime")
RDF_LANGSTRING = IRI(_RDF + "langString")

_NUMERIC_DATATYPES = frozenset(
    {
        XSD_INTEGER,
        XSD_DECIMAL,
        XSD_DOUBLE,
        IRI(_XSD + "float"),
        IRI(_XSD + "int"),
        IRI(_XSD + "long"),
        IRI(_XSD + "short"),
        IRI(_XSD + "byte"),
        IRI(_XSD + "nonNegativeInteger"),
        IRI(_XSD + "positiveInteger"),
        IRI(_XSD + "negativeInteger"),
        IRI(_XSD + "nonPositiveInteger"),
        IRI(_XSD + "unsignedInt"),
        IRI(_XSD + "unsignedLong"),
    }
)

#: The same set as IRI strings, for code that classifies a literal from
#: its interned ``(lexical, datatype, language)`` key without a ``Literal``.
NUMERIC_DATATYPE_VALUES = frozenset(iri.value for iri in _NUMERIC_DATATYPES)


@dataclass(frozen=True)
class Literal(Term):
    """An RDF literal with an optional datatype IRI and language tag.

    The lexical form is kept verbatim.  ``as_python`` converts the value to
    a native Python object for numeric and boolean datatypes, which is what
    filter-expression evaluation and the Datalog built-ins operate on.
    """

    lexical: str
    datatype: Optional[IRI] = None
    language: Optional[str] = None

    def __post_init__(self) -> None:
        if self.language is not None and self.datatype is None:
            object.__setattr__(self, "datatype", RDF_LANGSTRING)

    def __str__(self) -> str:
        return self.lexical

    def __repr__(self) -> str:
        return self.n3()

    def n3(self) -> str:
        """Return the N-Triples serialisation of this literal."""
        escaped = (
            self.lexical.replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
            .replace("\r", "\\r")
            .replace("\t", "\\t")
        )
        if self.language:
            return f'"{escaped}"@{self.language}'
        if self.datatype and self.datatype != XSD_STRING:
            return f'"{escaped}"^^{self.datatype.n3()}'
        return f'"{escaped}"'

    @property
    def effective_datatype(self) -> IRI:
        """Return the datatype, defaulting to ``xsd:string``."""
        return self.datatype if self.datatype is not None else XSD_STRING

    def is_numeric(self) -> bool:
        """Return True when the literal has a numeric XSD datatype."""
        return self.effective_datatype in _NUMERIC_DATATYPES

    def as_python(self) -> Union[str, int, float, bool]:
        """Convert the literal to a native Python value where possible."""
        datatype = self.effective_datatype
        try:
            if datatype == XSD_INTEGER or datatype.value.endswith(
                ("#int", "#long", "#short", "#byte")
            ):
                return int(self.lexical)
            if datatype in (XSD_DECIMAL, XSD_DOUBLE) or datatype.value.endswith(
                "#float"
            ):
                return float(self.lexical)
            if datatype == XSD_BOOLEAN:
                return self.lexical.strip().lower() in ("true", "1")
            if datatype in _NUMERIC_DATATYPES:
                return float(self.lexical)
        except ValueError:
            return self.lexical
        return self.lexical

    @staticmethod
    def from_python(value: Union[str, int, float, bool]) -> "Literal":
        """Build a typed literal from a native Python value."""
        if isinstance(value, bool):
            return Literal("true" if value else "false", XSD_BOOLEAN)
        if isinstance(value, int):
            return Literal(str(value), XSD_INTEGER)
        if isinstance(value, float):
            return Literal(repr(value), XSD_DOUBLE)
        return Literal(str(value))


@dataclass(frozen=True, order=True)
class BlankNode(Term):
    """A blank node identified by a local label (scoped to one document)."""

    label: str

    def __str__(self) -> str:
        return f"_:{self.label}"

    def __repr__(self) -> str:
        return f"_:{self.label}"

    def n3(self) -> str:
        return f"_:{self.label}"


@dataclass(frozen=True, order=True)
class Variable:
    """A SPARQL query variable (``?name`` or ``$name``)."""

    name: str

    def __str__(self) -> str:
        return f"?{self.name}"

    def __repr__(self) -> str:
        return f"?{self.name}"

    def n3(self) -> str:
        return f"?{self.name}"


# A triple-pattern component may also be a variable; plain triples only
# contain ground terms.
TermOrVariable = Union[Term, Variable]


@dataclass(frozen=True)
class Triple:
    """An RDF triple (subject, predicate, object).

    When used as a *triple pattern*, any component may be a
    :class:`Variable`.
    """

    subject: TermOrVariable
    predicate: TermOrVariable
    object: TermOrVariable

    def __iter__(self):
        return iter((self.subject, self.predicate, self.object))

    def __repr__(self) -> str:
        return f"({self.subject!r} {self.predicate!r} {self.object!r})"

    def is_ground(self) -> bool:
        """Return True when no component is a variable."""
        return not any(isinstance(part, Variable) for part in self)

    def variables(self) -> set:
        """Return the set of variables occurring in the triple."""
        return {part for part in self if isinstance(part, Variable)}


def term_sort_key(term: Term) -> tuple:
    """A total order over ground terms used for deterministic output.

    Blank nodes sort first, then IRIs, then literals (by lexical form);
    the SPARQL ORDER BY semantics used by the solution translation relies
    on this ordering for mixed-type columns.
    """
    if term is None:
        return (0, "")
    if isinstance(term, BlankNode):
        return (1, term.label)
    if isinstance(term, IRI):
        return (2, term.value)
    if isinstance(term, Literal):
        value = term.as_python()
        if isinstance(value, bool):
            value = int(value)
        if isinstance(value, (int, float)):
            return (3, "", float(value))
        return (4, term.lexical)
    return (5, str(term))
