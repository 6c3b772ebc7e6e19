"""Unfolding: evaluate a join, not a chain of materialised operators.

T_Q emits one rule per algebra operator, so a basic graph pattern of *n*
triple patterns arrives as *n* single-atom rules and *n - 1* two-atom
joins whose intermediate results follow the textual pattern order.  The
paper leaves join ordering and the elimination of those intermediates to
Vadalog; :func:`unfold` is that step for this engine.  A predicate that is
defined by one plain rule is replaced by its body wherever it is read, so
a chain of operators becomes one rule whose body the engine orders as a
whole.

The rewrite preserves the extension of every predicate it keeps, tuple
for tuple: under set semantics ``π(π_head(B) ⋈ R) = π(B ⋈ R)`` once the
callee's local variables are renamed apart, and Skolem assignments travel
with the body they belong to, so tuple IDs are built from the same
values by the same functors.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set

from repro.datalog.rules import (
    Assignment,
    Atom,
    BodyElement,
    Comparison,
    FilterCondition,
    Negation,
    Program,
    Rule,
    SkolemExpr,
)
from repro.datalog.stratify import components
from repro.datalog.terms import Var, ground_value


def unfold(program: Program, keep: Iterable[str]) -> Program:
    """Replace single-rule predicates by their bodies; ``keep`` stay defined.

    A predicate is unfolded when it is not in ``keep``, is defined by
    exactly one rule — safe, without existential variables, not recursive,
    no facts, no aggregate head —, is never read under negation or by an
    aggregate rule (a negated conjunction is not a body element, and an
    aggregate counts body solutions as a bag), and is either read once or
    has a single-atom body: a multi-atom body read several times is a
    shared subplan and stays materialised.  Callees are judged before
    their callers, so "single-atom" means the body with its own callees
    already unfolded.  Returns a new program unless nothing unfolds;
    ``program`` is not modified.
    """
    #: head -> its rule, ``None`` for a predicate with several
    rule_of: Dict[str, Optional[Rule]] = {}
    blocked: Set[str] = set(keep)
    uses: Dict[str, int] = {}
    for rule in program.rules:
        head = rule.head.predicate
        rule_of[head] = None if head in rule_of else rule
        for element in rule.body:
            if isinstance(element, Atom):
                uses[element.predicate] = uses.get(element.predicate, 0) + 1
            elif isinstance(element, Negation):
                blocked.add(element.atom.predicate)
    blocked.update(fact.predicate for fact in program.facts)
    for aggregate_rule in program.aggregate_rules:
        blocked.add(aggregate_rule.head.predicate)
        blocked |= aggregate_rule.body_predicates()

    #: unfolded predicate -> positive atoms of its body once that is unfolded
    atoms_of: Dict[str, int] = {}
    for component in components(program):
        if component.recursive:
            continue
        (predicate,) = component.predicates
        rule = rule_of.get(predicate)
        if (
            rule is None
            or predicate in blocked
            or predicate not in uses
            or rule.existential_variables
            or not rule.is_safe()
        ):
            continue
        atoms = sum(
            atoms_of.get(element.predicate, 1) for element in rule.body if isinstance(element, Atom)
        )
        if uses[predicate] == 1 or atoms == 1:
            atoms_of[predicate] = atoms
    if not atoms_of:
        return program

    unfolded = Program(
        facts=program.facts,
        aggregate_rules=program.aggregate_rules,
        directives=program.directives,
    )
    for rule in program.rules:
        if rule.head.predicate not in atoms_of:
            rule = _expanded(rule, rule_of, atoms_of)
            if rule is not None:
                unfolded.rules.append(rule)
    return unfolded


def _reads(element: BodyElement, unfolded: Dict[str, int]) -> bool:
    return isinstance(element, Atom) and element.predicate in unfolded


class _Renaming(dict):
    """Callee variable -> its name at one use; a local gets a fresh one on sight."""

    def __init__(self, fresh: Callable[[Var], Var]) -> None:
        self.fresh = fresh

    def __missing__(self, variable: Var) -> Var:
        self[variable] = renamed = self.fresh(variable)
        return renamed


def _expanded(
    rule: Rule, rule_of: Dict[str, Optional[Rule]], unfolded: Dict[str, int]
) -> Optional[Rule]:
    """``rule`` with every read of an unfolded predicate replaced by its body.

    ``None`` when a constant of a call clashes with a constant of the
    callee's head: the rule derives nothing.
    """
    if not any(_reads(element, unfolded) for element in rule.body):
        return rule
    taken = {variable.name for variable in rule.head.variables()}
    for element in rule.body:
        taken.update(variable.name for variable in element.variables())
    counter = 0

    def fresh(variable: Var) -> Var:
        """``variable`` itself if the rule has no such name yet, else a numbered one."""
        nonlocal counter
        name = variable.name
        while name in taken:
            counter += 1
            name = f"{variable.name}~{counter}"
        taken.add(name)
        return variable if name is variable.name else Var(name)

    body: List[BodyElement] = []
    # Depth-first through the nested calls, on an explicit stack: every
    # element of a callee's body is renamed once, straight to its final name.
    stack = [(iter(rule.body), None)]
    while stack:
        elements, renaming = stack[-1]
        for element in elements:
            if renaming is not None:
                element = _renamed(element, renaming)
            if _reads(element, unfolded):
                callee = rule_of[element.predicate]
                inner = _unify(callee.head, element, body, _Renaming(fresh))
                if inner is None:
                    return None
                stack.append((iter(callee.body), inner))
                break
            body.append(element)
        else:
            stack.pop()
    return Rule(rule.head, tuple(body), rule.existential_variables, rule.label)


def _unify(
    head: Atom, call: Atom, body: List[BodyElement], renaming: _Renaming
) -> Optional[_Renaming]:
    """The renaming of the callee's head variables at ``call``, links appended to ``body``.

    A head variable takes the name of the call's variable; anything else
    (a constant on either side, a head variable met before) becomes an
    assignment, which binds an unbound variable and compares a bound one.
    ``None`` when two constants differ.
    """
    for formal, actual in zip(head.arguments, call.arguments):
        if not isinstance(formal, Var):
            if isinstance(actual, Var):
                body.append(Assignment(actual, formal))
            elif ground_value(formal) != ground_value(actual):
                return None
        elif formal in renaming:
            if not isinstance(actual, Var):
                body.append(Assignment(renaming[formal], actual))
            elif actual != renaming[formal]:
                body.append(Assignment(actual, renaming[formal]))
        elif isinstance(actual, Var):
            renaming[formal] = actual
        else:
            body.append(Assignment(renaming[formal], actual))
    return renaming


def _renamed(element: BodyElement, renaming: _Renaming) -> BodyElement:
    def rename(term):
        return renaming[term] if isinstance(term, Var) else term

    if isinstance(element, Atom):
        # T_Q names a SPARQL variable alike in every rule: most atoms stay.
        arguments = tuple(map(rename, element.arguments))
        return element if arguments == element.arguments else Atom(element.predicate, arguments)
    if isinstance(element, Negation):
        return Negation(_renamed(element.atom, renaming))
    if isinstance(element, Comparison):
        return Comparison(element.operator, rename(element.left), rename(element.right))
    if isinstance(element, Assignment):
        expression = element.expression
        if isinstance(expression, SkolemExpr):
            expression = SkolemExpr(expression.functor, tuple(map(rename, expression.arguments)))
        return Assignment(renaming[element.variable], rename(expression))
    if isinstance(element, FilterCondition):
        return FilterCondition(
            element.expression,
            tuple((variable, renaming[carrier]) for variable, carrier in element.variable_map),
        )
    raise TypeError(f"unsupported body element {element!r}")
