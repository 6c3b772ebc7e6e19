"""Datalog terms: constants, variables and Skolem function terms.

Constants wrap arbitrary hashable Python values.  In the SparqLog
translation the wrapped values are RDF terms (:class:`repro.rdf.IRI`,
:class:`repro.rdf.Literal`, :class:`repro.rdf.BlankNode`) plus a few plain
strings such as ``"default"`` and ``"null"``; keeping the RDF objects
intact avoids lossy string round-trips between the two layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Tuple, Union


@dataclass(frozen=True)
class Var:
    """A Datalog variable."""

    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const:
    """A Datalog constant wrapping an arbitrary hashable value."""

    value: Hashable

    def __repr__(self) -> str:
        return f"«{self.value!r}»"


class SkolemTerm:
    """A ground functional term ``f(a1, ..., an)``.

    Skolem terms serve two purposes in the reproduction, both taken from
    the paper: they implement the tuple IDs of the duplicate-preservation
    model (Appendix C), and they stand in for the labelled nulls that
    existential rule heads introduce during the chase.

    Immutable by convention.  Tuple IDs nest (the ID of a join holds the
    IDs of its operands) and every relation insert and index probe hashes
    them, so the hash is computed once, at construction.
    """

    __slots__ = ("functor", "arguments", "_hash")

    def __init__(self, functor: str, arguments: Tuple[Hashable, ...]) -> None:
        self.functor = functor
        self.arguments = arguments
        self._hash = hash((functor, arguments))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not SkolemTerm:
            return NotImplemented
        return (
            self._hash == other._hash
            and self.functor == other.functor
            and self.arguments == other.arguments
        )

    def __repr__(self) -> str:
        inner = ", ".join(repr(argument) for argument in self.arguments)
        return f"{self.functor}({inner})"


#: Ground values that may appear inside relations.
GroundValue = Union[Const, SkolemTerm]

#: Any term allowed in atoms.
Term = Union[Var, Const, SkolemTerm]


def is_ground(term: Term) -> bool:
    """Return True when the term contains no variable."""
    return not isinstance(term, Var)


def ground_value(term):
    """What a ground term is stored as in a relation: a constant's value."""
    if isinstance(term, Const):
        return term.value
    return term


def substitute(term: Term, substitution: dict) -> Term:
    """Apply a variable substitution to a term."""
    if isinstance(term, Var):
        return substitution.get(term, term)
    return term
