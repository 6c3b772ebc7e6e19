"""Property path expression AST.

SPARQL 1.1 property paths are regular expressions over predicates.  The
grammar (Section 9 of the SPARQL 1.1 spec, and Appendix A.3 of the paper)
defines the following constructors, each of which gets its own node type:

==================  =======================  =========================
SPARQL syntax       Paper name               AST node
==================  =======================  =========================
``iri``             link path                :class:`LinkPath`
``^p``              inverse path             :class:`InversePath`
``p1 / p2``         sequence path            :class:`SequencePath`
``p1 | p2``         alternative path         :class:`AlternativePath`
``p?``              zero-or-one path         :class:`ZeroOrOnePath`
``p+``              one-or-more path         :class:`OneOrMorePath`
``p*``              zero-or-more path        :class:`ZeroOrMorePath`
``!(...)``          negated property set     :class:`NegatedPropertySet`
``p{n,m}``          bounded repetition       :class:`RepeatPath`
==================  =======================  =========================

``RepeatPath`` covers the gMark-style "exactly n", "n or more" and
"between 0 and n" repetitions the paper adds for benchmark coverage
(Section 4.3); it is expanded into sequences/alternatives before
translation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.rdf.terms import IRI


class PropertyPath:
    """Base class for property path expressions."""

    __slots__ = ()

    def is_recursive(self) -> bool:
        """Return True when the path contains a ``*``, ``+`` or unbounded repeat."""
        return False


@dataclass(frozen=True)
class LinkPath(PropertyPath):
    """A single predicate IRI: the base case of property paths."""

    iri: IRI

    def __repr__(self) -> str:
        return f"Link({self.iri.value})"


@dataclass(frozen=True)
class InversePath(PropertyPath):
    """``^path`` — follow the path backwards."""

    path: PropertyPath

    def __repr__(self) -> str:
        return f"Inverse({self.path!r})"

    def is_recursive(self) -> bool:
        return self.path.is_recursive()


@dataclass(frozen=True)
class SequencePath(PropertyPath):
    """``left / right`` — follow ``left`` then ``right``."""

    left: PropertyPath
    right: PropertyPath

    def __repr__(self) -> str:
        return f"Seq({self.left!r}, {self.right!r})"

    def is_recursive(self) -> bool:
        return self.left.is_recursive() or self.right.is_recursive()


@dataclass(frozen=True)
class AlternativePath(PropertyPath):
    """``left | right`` — follow either branch."""

    left: PropertyPath
    right: PropertyPath

    def __repr__(self) -> str:
        return f"Alt({self.left!r}, {self.right!r})"

    def is_recursive(self) -> bool:
        return self.left.is_recursive() or self.right.is_recursive()


@dataclass(frozen=True)
class ZeroOrOnePath(PropertyPath):
    """``path?`` — zero-length paths plus single traversals (set semantics)."""

    path: PropertyPath

    def __repr__(self) -> str:
        return f"ZeroOrOne({self.path!r})"

    def is_recursive(self) -> bool:
        return self.path.is_recursive()


@dataclass(frozen=True)
class OneOrMorePath(PropertyPath):
    """``path+`` — transitive closure, at least one traversal (set semantics)."""

    path: PropertyPath

    def __repr__(self) -> str:
        return f"OneOrMore({self.path!r})"

    def is_recursive(self) -> bool:
        return True


@dataclass(frozen=True)
class ZeroOrMorePath(PropertyPath):
    """``path*`` — reflexive-transitive closure (set semantics)."""

    path: PropertyPath

    def __repr__(self) -> str:
        return f"ZeroOrMore({self.path!r})"

    def is_recursive(self) -> bool:
        return True


@dataclass(frozen=True)
class NegatedPropertySet(PropertyPath):
    """``!(p1 | ^p2 | ...)`` — any edge whose predicate is not listed.

    ``forward`` holds the forbidden forward predicates, ``inverse`` the
    forbidden inverse ones.  The SPARQL semantics evaluates the forward and
    inverse parts independently and unions the results (Table 5 of the
    paper).
    """

    forward: Tuple[IRI, ...]
    inverse: Tuple[IRI, ...] = ()

    def __repr__(self) -> str:
        parts = [iri.value for iri in self.forward]
        parts += [f"^{iri.value}" for iri in self.inverse]
        return f"Negated({' | '.join(parts)})"


@dataclass(frozen=True)
class RepeatPath(PropertyPath):
    """``path{n}``, ``path{n,m}`` or ``path{n,}`` — bounded repetition.

    ``maximum`` is ``None`` for the unbounded form ``{n,}``.
    """

    path: PropertyPath
    minimum: int
    maximum: Optional[int] = None

    def __repr__(self) -> str:
        upper = "" if self.maximum is None else str(self.maximum)
        return f"Repeat({self.path!r}, {{{self.minimum},{upper}}})"

    def is_recursive(self) -> bool:
        return self.maximum is None or self.path.is_recursive()


def expand_repeat(path: RepeatPath) -> PropertyPath:
    """Rewrite a :class:`RepeatPath` into core path constructors.

    * ``p{n}``   becomes ``p / p / ... / p`` (n times),
    * ``p{n,}``  becomes ``p{n-1} / p+`` (or ``p*`` when n = 0),
    * ``p{0,m}`` becomes ``(p?){m}`` expressed as nested alternatives,
    * ``p{n,m}`` becomes ``p{n} / p{0,m-n}``.

    The expansion mirrors the treatment SparqLog applies before running
    the property-path translation (Section 4.3).
    """
    inner = path.path
    minimum, maximum = path.minimum, path.maximum

    def repeat_exact(base: PropertyPath, count: int) -> Optional[PropertyPath]:
        if count == 0:
            return None
        result = base
        for _ in range(count - 1):
            result = SequencePath(result, base)
        return result

    if maximum is None:
        if minimum == 0:
            return ZeroOrMorePath(inner)
        if minimum == 1:
            return OneOrMorePath(inner)
        prefix = repeat_exact(inner, minimum - 1)
        return SequencePath(prefix, OneOrMorePath(inner))

    if maximum < minimum:
        raise ValueError(f"invalid repetition bounds {{{minimum},{maximum}}}")

    if minimum == maximum:
        exact = repeat_exact(inner, minimum)
        if exact is None:
            raise ValueError("p{0} repetition is not a valid property path")
        return exact

    # p{0,m}: chain of optional hops.
    if minimum == 0:
        result: PropertyPath = ZeroOrOnePath(inner)
        for _ in range(maximum - 1):
            result = SequencePath(ZeroOrOnePath(inner), result)
        return result

    prefix = repeat_exact(inner, minimum)
    suffix = expand_repeat(RepeatPath(inner, 0, maximum - minimum))
    return SequencePath(prefix, suffix)


def matches_zero_length(path: PropertyPath) -> bool:
    """True when the path admits zero-length matches (pairs every node).

    Zero-length admission propagates through inverse, closure and
    repetition operators (``p{0,}`` directly; ``p+`` / ``p{n,}`` when the
    inner path itself admits zero length), through either side of an
    alternative, and through a sequence only when both halves admit it.
    Shared by the planner's cost model, the term-level ALP evaluator and
    the id-native path engine so all three agree on zero-length cases.
    """
    if isinstance(path, (ZeroOrMorePath, ZeroOrOnePath)):
        return True
    if isinstance(path, (InversePath, OneOrMorePath)):
        return matches_zero_length(path.path)
    if isinstance(path, RepeatPath):
        return path.minimum == 0 or matches_zero_length(path.path)
    if isinstance(path, AlternativePath):
        return matches_zero_length(path.left) or matches_zero_length(path.right)
    if isinstance(path, SequencePath):
        return matches_zero_length(path.left) and matches_zero_length(path.right)
    return False


def reverse_path(path: PropertyPath) -> PropertyPath:
    """Return a path matching exactly the reversed (end, start) pairs.

    The reversal is pushed down to the leaves (``^p`` at each link,
    sequence operands swapped, negated sets' parts exchanged).  An algebra
    identity the path engines are held to (``tests/test_idpaths.py``); the
    id engine itself expands backwards by binding a path's object instead.
    """
    if isinstance(path, LinkPath):
        return InversePath(path)
    if isinstance(path, InversePath):
        return path.path
    if isinstance(path, SequencePath):
        return SequencePath(reverse_path(path.right), reverse_path(path.left))
    if isinstance(path, AlternativePath):
        return AlternativePath(reverse_path(path.left), reverse_path(path.right))
    if isinstance(path, ZeroOrOnePath):
        return ZeroOrOnePath(reverse_path(path.path))
    if isinstance(path, OneOrMorePath):
        return OneOrMorePath(reverse_path(path.path))
    if isinstance(path, ZeroOrMorePath):
        return ZeroOrMorePath(reverse_path(path.path))
    if isinstance(path, RepeatPath):
        return RepeatPath(reverse_path(path.path), path.minimum, path.maximum)
    if isinstance(path, NegatedPropertySet):
        return NegatedPropertySet(forward=path.inverse, inverse=path.forward)
    raise TypeError(f"cannot reverse {path!r}")


def normalize_path(path: PropertyPath) -> PropertyPath:
    """Recursively expand every :class:`RepeatPath` in a path expression."""
    if isinstance(path, RepeatPath):
        return normalize_path(expand_repeat(path))
    if isinstance(path, InversePath):
        return InversePath(normalize_path(path.path))
    if isinstance(path, SequencePath):
        return SequencePath(normalize_path(path.left), normalize_path(path.right))
    if isinstance(path, AlternativePath):
        return AlternativePath(normalize_path(path.left), normalize_path(path.right))
    if isinstance(path, ZeroOrOnePath):
        return ZeroOrOnePath(normalize_path(path.path))
    if isinstance(path, OneOrMorePath):
        return OneOrMorePath(normalize_path(path.path))
    if isinstance(path, ZeroOrMorePath):
        return ZeroOrMorePath(normalize_path(path.path))
    return path
