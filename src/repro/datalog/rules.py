"""Datalog± rules, atoms, body elements and programs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple, Union

from repro.datalog.terms import Const, SkolemTerm, Term, Var


@dataclass(frozen=True)
class Atom:
    """A predicate applied to a tuple of terms."""

    predicate: str
    arguments: Tuple[Term, ...]

    def __repr__(self) -> str:
        inner = ", ".join(repr(argument) for argument in self.arguments)
        return f"{self.predicate}({inner})"

    @property
    def arity(self) -> int:
        return len(self.arguments)

    def variables(self) -> Set[Var]:
        """Return the set of variables in the atom."""
        return {argument for argument in self.arguments if isinstance(argument, Var)}

    def is_ground(self) -> bool:
        return not self.variables()

    def substitute(self, substitution: Dict[Var, Term]) -> "Atom":
        """Apply a substitution to all arguments."""
        return Atom(
            self.predicate,
            tuple(
                substitution.get(argument, argument)
                if isinstance(argument, Var)
                else argument
                for argument in self.arguments
            ),
        )


@dataclass(frozen=True)
class Negation:
    """A negated body atom (``not p(...)``), evaluated under stratification."""

    atom: Atom

    def variables(self) -> Set[Var]:
        return self.atom.variables()

    def __repr__(self) -> str:
        return f"not {self.atom!r}"


@dataclass(frozen=True)
class Comparison:
    """A built-in comparison between two terms (``X = Y``, ``X != c``, ...).

    Operators: ``=``, ``!=``, ``<``, ``<=``, ``>``, ``>=``.  RDF literals
    are compared with the SPARQL operator mapping; other values fall back
    to Python comparison.
    """

    operator: str
    left: Term
    right: Term

    def variables(self) -> Set[Var]:
        return {term for term in (self.left, self.right) if isinstance(term, Var)}

    def __repr__(self) -> str:
        return f"{self.left!r} {self.operator} {self.right!r}"


@dataclass(frozen=True)
class SkolemExpr:
    """A Skolem function application ``functor(args...)`` used in assignments."""

    functor: str
    arguments: Tuple[Term, ...]

    def variables(self) -> Set[Var]:
        return {argument for argument in self.arguments if isinstance(argument, Var)}

    def __repr__(self) -> str:
        inner = ", ".join(repr(argument) for argument in self.arguments)
        return f"#{self.functor}[{inner}]"


class TupleIdExpr(SkolemExpr):
    """A :class:`SkolemExpr` that builds a tuple ID of the bag model.

    Made only by :meth:`repro.core.skolem.SkolemFunctionGenerator.tuple_id_assignment`.
    An ID value only tells derivations apart — it goes into a head or into
    another tuple ID, and nothing joins or compares on it —, so the rewrite
    of :func:`repro.datalog.optimise.trim` may rename it one-to-one (fuse a
    chain of them into one term) where a plain :class:`SkolemExpr` keeps
    its value.  Evaluated exactly like its base class.
    """

    __slots__ = ()


@dataclass(frozen=True)
class Assignment:
    """A built-in assignment ``Var = expression``.

    The expression is either a constant, another variable, or a
    :class:`SkolemExpr`; the latter is how the translation generates tuple
    IDs (``ID = ["f1", X, Y, ...]`` in the paper's notation).
    """

    variable: Var
    expression: Union[Const, Var, SkolemExpr, SkolemTerm]

    def variables(self) -> Set[Var]:
        result = {self.variable}
        if isinstance(self.expression, Var):
            result.add(self.expression)
        elif isinstance(self.expression, SkolemExpr):
            result |= self.expression.variables()
        return result

    def input_variables(self) -> Set[Var]:
        """Variables that must be bound before the assignment can fire."""
        if isinstance(self.expression, Var):
            return {self.expression}
        if isinstance(self.expression, SkolemExpr):
            return self.expression.variables()
        return set()

    def __repr__(self) -> str:
        return f"{self.variable!r} := {self.expression!r}"


@dataclass(frozen=True)
class FilterCondition:
    """A SPARQL filter expression embedded in a rule body.

    The paper's translation copies filter constraints verbatim into the
    rule body and lets Vadalog evaluate them; we do the same by attaching
    the parsed SPARQL expression together with a mapping from SPARQL
    variables to the Datalog variables carrying their values.
    """

    expression: object  # repro.sparql.expressions.Expression
    variable_map: Tuple[Tuple[object, Var], ...]  # (sparql Variable, datalog Var)

    def variables(self) -> Set[Var]:
        return {datalog_var for _, datalog_var in self.variable_map}

    def __repr__(self) -> str:
        return f"filter[{self.expression!r}]"


BodyElement = Union[Atom, Negation, Comparison, Assignment, FilterCondition]


@dataclass(frozen=True)
class Rule:
    """A Datalog± rule ``head :- body`` with optional existential head variables."""

    head: Atom
    body: Tuple[BodyElement, ...]
    existential_variables: Tuple[Var, ...] = ()
    label: str = ""

    def __repr__(self) -> str:
        body = ", ".join(repr(element) for element in self.body)
        prefix = ""
        if self.existential_variables:
            quantified = ", ".join(repr(var) for var in self.existential_variables)
            prefix = f"∃{quantified} "
        return f"{prefix}{self.head!r} :- {body}."

    def positive_atoms(self) -> List[Atom]:
        return [element for element in self.body if isinstance(element, Atom)]

    def negated_atoms(self) -> List[Atom]:
        return [element.atom for element in self.body if isinstance(element, Negation)]

    def body_predicates(self) -> Set[str]:
        predicates = {atom.predicate for atom in self.positive_atoms()}
        predicates |= {atom.predicate for atom in self.negated_atoms()}
        return predicates

    def head_variables(self) -> Set[Var]:
        return self.head.variables()

    def frontier_variables(self) -> Set[Var]:
        """Head variables that also occur in the body (non-existential)."""
        body_vars: Set[Var] = set()
        for element in self.body:
            body_vars |= element.variables()
        return self.head_variables() & body_vars

    def is_safe(self) -> bool:
        """Safety: every head / negated / builtin variable is bound positively.

        Variables introduced by assignments count as bound, and existential
        head variables are exempt.
        """
        # By name: a variable's hash is Python code, a string's is not.
        bound: Set[str] = set()
        for element in self.body:
            if type(element) is Atom:
                bound.update([term.name for term in element.arguments if type(term) is Var])
            elif type(element) is Assignment:
                bound.add(element.variable.name)
        for argument in self.head.arguments:
            if (
                type(argument) is Var
                and argument.name not in bound
                and argument not in self.existential_variables
            ):
                return False
        for element in self.body:
            if type(element) in (Negation, Comparison) and not all(
                variable.name in bound for variable in element.variables()
            ):
                return False
        return True


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate computed by an :class:`AggregateRule`.

    ``operation`` is COUNT / SUM / MIN / MAX / AVG; ``argument`` is the
    body variable aggregated over (``None`` means COUNT(*)); ``target`` is
    the head variable receiving the value.  A value equal to ``unbound``
    (the translation's stand-in for an unbound variable) is skipped like a
    missing one.
    """

    operation: str
    argument: Optional[Var]
    target: Var
    distinct: bool = False
    unbound: Hashable = None


@dataclass(frozen=True)
class AggregateRule:
    """A grouping rule: evaluate the body, group by ``group_variables``.

    The head receives the group variables plus one value per
    :class:`AggregateSpec`.  Without group variables there is one group,
    also when the body has no solution.  ``solution_variables`` are what
    tells two body solutions apart for ``COUNT(DISTINCT *)`` (the
    translation's in-scope SPARQL variables, never a tuple ID); empty,
    every variable of the body.  Aggregate rules are evaluated after the
    fixpoint of the stratum containing their body predicates, mirroring
    Vadalog's (stratified) aggregation support.
    """

    head: Atom
    body: Tuple[BodyElement, ...]
    group_variables: Tuple[Var, ...]
    aggregates: Tuple[AggregateSpec, ...]
    label: str = ""
    solution_variables: Tuple[Var, ...] = ()

    def body_predicates(self) -> Set[str]:
        predicates: Set[str] = set()
        for element in self.body:
            if isinstance(element, Atom):
                predicates.add(element.predicate)
            elif isinstance(element, Negation):
                predicates.add(element.atom.predicate)
        return predicates


@dataclass
class Directive:
    """A system instruction attached to the program (``@output``, ``@post``)."""

    name: str
    arguments: Tuple[str, ...]

    def __repr__(self) -> str:
        inner = ", ".join(repr(a) for a in self.arguments)
        return f"@{self.name}({inner})."


@dataclass
class Program:
    """A Datalog± program: facts, rules, aggregate rules and directives."""

    rules: List[Rule] = field(default_factory=list)
    facts: List[Atom] = field(default_factory=list)
    aggregate_rules: List[AggregateRule] = field(default_factory=list)
    directives: List[Directive] = field(default_factory=list)

    def add_rule(self, rule: Rule) -> None:
        self.rules.append(rule)

    def add_fact(self, atom: Atom) -> None:
        if not atom.is_ground():
            raise ValueError(f"facts must be ground: {atom!r}")
        self.facts.append(atom)

    def add_directive(self, name: str, *arguments: str) -> None:
        self.directives.append(Directive(name, tuple(arguments)))

    def output_predicates(self) -> List[str]:
        """Predicates marked with ``@output``."""
        return [
            directive.arguments[0]
            for directive in self.directives
            if directive.name == "output"
        ]

    def post_directives(self, predicate: str) -> List[str]:
        """Return the ``@post`` instructions attached to ``predicate``."""
        return [
            directive.arguments[1]
            for directive in self.directives
            if directive.name == "post" and directive.arguments[0] == predicate
        ]

    def predicates(self) -> Set[str]:
        """Every predicate mentioned anywhere in the program."""
        result: Set[str] = set()
        for fact in self.facts:
            result.add(fact.predicate)
        for rule in self.rules:
            result.add(rule.head.predicate)
            result |= rule.body_predicates()
        for aggregate_rule in self.aggregate_rules:
            result.add(aggregate_rule.head.predicate)
            result |= aggregate_rule.body_predicates()
        return result

    def extend(self, other: "Program") -> None:
        """Merge another program into this one (used to combine T_D and T_Q)."""
        self.rules.extend(other.rules)
        self.facts.extend(other.facts)
        self.aggregate_rules.extend(other.aggregate_rules)
        self.directives.extend(other.directives)

    def __repr__(self) -> str:
        return (
            f"Program({len(self.facts)} facts, {len(self.rules)} rules, "
            f"{len(self.aggregate_rules)} aggregate rules)"
        )

    def pretty(self) -> str:
        """Render the program as Vadalog-style text (for docs and debugging)."""
        lines: List[str] = []
        for fact in self.facts:
            lines.append(f"{fact!r}.")
        for rule in self.rules:
            lines.append(repr(rule))
        for aggregate_rule in self.aggregate_rules:
            lines.append(
                f"{aggregate_rule.head!r} :- group_by{aggregate_rule.group_variables!r} "
                f"{', '.join(repr(e) for e in aggregate_rule.body)}."
            )
        for directive in self.directives:
            lines.append(repr(directive))
        return "\n".join(lines)
