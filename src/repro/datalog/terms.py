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


@dataclass(frozen=True)
class SkolemTerm:
    """A ground functional term ``f(a1, ..., an)``.

    Skolem terms serve two purposes in the reproduction, both taken from
    the paper: they implement the tuple IDs of the duplicate-preservation
    model (Appendix C), and they stand in for the labelled nulls that
    existential rule heads introduce during the chase.

    The fixpoint builds none: it stores a tuple ID or null as an id of its
    functor and argument ids (:mod:`repro.datalog.values`), and a Skolem
    term is what such an id decodes to.
    """

    functor: str
    arguments: Tuple[Hashable, ...]

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
