"""Unfolding and trimming: evaluate a join, not a chain of materialised operators.

T_Q emits one rule per algebra operator, so a basic graph pattern of *n*
triple patterns arrives as *n* single-atom rules and *n - 1* two-atom
joins whose intermediate results follow the textual pattern order.  The
paper leaves join ordering and the elimination of those intermediates to
Vadalog; :func:`unfold` is that step for this engine.  A predicate that is
defined by one plain rule is replaced by its body wherever it is read, so
a chain of operators becomes one rule whose body the engine orders as a
whole.

:func:`unfold` preserves the extension of every predicate it keeps, tuple
for tuple: under set semantics ``π(π_head(B) ⋈ R) = π(B ⋈ R)`` once the
callee's local variables are renamed apart, and Skolem assignments travel
with the body they belong to, so tuple IDs are built from the same
values by the same functors.

:func:`trim` then pushes the projection the kept predicates make down into
the rules: a column of an intermediate predicate that no reader uses, and
an assignment whose variable nothing reads, are not computed.  It also
fuses a chain of tuple IDs (Appendix C's bag model: ``Id1 := f1[X, Y]``
read only by ``Id := f2[Id1, X]``) into one term, which renames ID values
one-to-one: the kept predicates come out tuple for tuple except for their
tuple-ID values, so the bag of their other columns is the same.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

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
    TupleIdExpr,
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
            if type(element) is Atom:
                uses[element.predicate] = uses.get(element.predicate, 0) + 1
            elif type(element) is Negation:
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
            atoms_of.get(element.predicate, 1) for element in rule.body if type(element) is Atom
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


class _Renaming(dict):
    """Callee variable name -> the variable it is at one use; a local gets a
    fresh one on sight.  Keyed by name: a string hashes in C, a ``Var`` not."""

    def __init__(self, fresh: Callable[[str], Var]) -> None:
        self.fresh = fresh

    def __missing__(self, name: str) -> Var:
        self[name] = renamed = self.fresh(name)
        return renamed


def _expanded(
    rule: Rule, rule_of: Dict[str, Optional[Rule]], unfolded: Dict[str, int]
) -> Optional[Rule]:
    """``rule`` with every read of an unfolded predicate replaced by its body.

    ``None`` when a constant of a call clashes with a constant of the
    callee's head: the rule derives nothing.
    """
    if not any(type(element) is Atom and element.predicate in unfolded for element in rule.body):
        return rule
    terms = list(rule.head.arguments)
    for element in rule.body:
        terms += _terms_of(element)
    taken = {term.name for term in terms if type(term) is Var}
    counter = 0

    def fresh(name: str) -> Var:
        """``name`` if the rule has no such variable yet, else a numbered one."""
        nonlocal counter
        renamed = name
        while renamed in taken:
            counter += 1
            renamed = f"{name}~{counter}"
        taken.add(renamed)
        return Var(renamed)

    body: List[BodyElement] = []
    # Depth-first through the nested calls, on an explicit stack: every
    # element of a callee's body is renamed once, straight to its final name.
    stack = [(iter(rule.body), None)]
    while stack:
        elements, renaming = stack[-1]
        for element in elements:
            if renaming is not None:
                element = _renamed(element, renaming)
            if type(element) is Atom and element.predicate in unfolded:
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
        if type(formal) is not Var:
            if type(actual) is Var:
                body.append(Assignment(actual, formal))
            elif ground_value(formal) != ground_value(actual):
                return None
        elif formal.name in renaming:
            if type(actual) is not Var:
                body.append(Assignment(renaming[formal.name], actual))
            elif actual != renaming[formal.name]:
                body.append(Assignment(actual, renaming[formal.name]))
        elif type(actual) is Var:
            renaming[formal.name] = actual
        else:
            body.append(Assignment(renaming[formal.name], actual))
    return renaming


def _renamed(element: BodyElement, renaming: _Renaming) -> BodyElement:
    kind = type(element)
    if kind is Atom:
        # T_Q names a SPARQL variable alike in every rule: most atoms stay.
        arguments = tuple([renaming[t.name] if type(t) is Var else t for t in element.arguments])
        return element if arguments == element.arguments else Atom(element.predicate, arguments)
    if kind is Assignment:
        expression = element.expression
        if isinstance(expression, SkolemExpr):
            # ``type(expression)``: a tuple ID stays marked.
            expression = type(expression)(
                expression.functor,
                tuple([renaming[t.name] if type(t) is Var else t for t in expression.arguments]),
            )
        elif type(expression) is Var:
            expression = renaming[expression.name]
        return Assignment(renaming[element.variable.name], expression)
    if kind is Negation:
        return Negation(_renamed(element.atom, renaming))
    if kind is Comparison:
        left, right = element.left, element.right
        return Comparison(
            element.operator,
            renaming[left.name] if type(left) is Var else left,
            renaming[right.name] if type(right) is Var else right,
        )
    if kind is FilterCondition:
        return FilterCondition(
            element.expression,
            tuple((variable, renaming[carrier.name]) for variable, carrier in element.variable_map),
        )
    raise TypeError(f"unsupported body element {element!r}")

def trim(program: Program, keep: Iterable[str]) -> Tuple[Program, Dict[str, object]]:
    """Drop the columns and assignments nothing reads; fuse tuple-ID chains.

    Three rewrites, run after :func:`unfold` on the predicates ``keep``
    names as the answer:

    * **dead columns** — a column of a predicate that is not kept, has
      rules (all safe, none existential) but no facts, is no aggregate
      head and is read by no aggregate rule and under no negation goes
      when every positive read of it is a variable the reading rule
      mentions nowhere else: the rules' heads and the reads lose it;
    * **dead assignments** — ``V := e`` goes when the rule mentions ``V``
      nowhere else;
    * **tuple-ID fusion** — ``A := f[a…]`` whose ``A`` only an argument of
      ``B := g[…A…]`` reads becomes part of ``B := g∘f[…a…]`` (a repeated
      argument kept once), where both are :class:`TupleIdExpr`; a tree of
      them becomes one term when its top occurs only in the head.

    The first two repeat until nothing changes, on one occurrence count
    per rule; a rule is looked at again only when one of its head columns
    went.  Both are exact.  Fusion renames ID values one-to-one: within a
    rule the fused term holds the values the chain held, and its top
    functor is the rule's own, so a kept predicate keeps its tuples up to
    their tuple-ID values.  A plain :class:`SkolemExpr` and a labelled
    null keep their values.

    Returns the rewritten program (``program`` itself when nothing
    changes; it is never modified) and what happened: ``columns_dropped``
    (``"predicate:position"``, positions as written), ``assignments_dropped``
    and ``chains_fused``.
    """
    rules = program.rules
    heads = [list(rule.head.arguments) for rule in rules]
    bodies: List[List[Optional[BodyElement]]] = [list(rule.body) for rule in rules]
    #: per rule, how often each variable (by name) occurs in it, head included
    counts: List[Dict[str, int]] = []
    #: per rule, the body positions of its assignments
    assignments: List[List[int]] = []
    # Predicates whose columns stay as they are.
    pinned = set(keep)
    pinned.update(fact.predicate for fact in program.facts)
    for aggregate_rule in program.aggregate_rules:
        pinned.add(aggregate_rule.head.predicate)
        pinned |= aggregate_rule.body_predicates()
    defined_by: Dict[str, List[int]] = defaultdict(list)
    #: predicate -> (rule, body position) of every positive read
    reads: Dict[str, List[Tuple[int, int]]] = defaultdict(list)
    changed: Set[int] = set()
    for index, rule in enumerate(rules):
        defined_by[rule.head.predicate].append(index)
        if rule.existential_variables:
            pinned.add(rule.head.predicate)
        terms = list(rule.head.arguments)
        positions = []
        for position, element in enumerate(rule.body):
            kind = type(element)
            if kind is Atom:
                reads[element.predicate].append((index, position))
            elif kind is Assignment:
                positions.append(position)
            elif kind is Negation:
                pinned.add(element.atom.predicate)
            terms += _terms_of(element)
        rule_counts: Dict[str, int] = {}
        for term in terms:
            if type(term) is Var:
                rule_counts[term.name] = rule_counts.get(term.name, 0) + 1
        if positions and _drop_dead_assignments(bodies[index], positions, rule_counts):
            changed.add(index)
        counts.append(rule_counts)
        assignments.append(positions)
    #: predicate -> the positions as written that it still has
    live: Dict[str, List[int]] = {}
    #: per rule, the predicates with live columns it reads
    reads_in: Dict[int, List[str]] = defaultdict(list)
    for predicate, places in reads.items():
        if predicate in pinned or predicate not in defined_by:
            continue
        arities = {len(heads[index]) for index in defined_by[predicate]}
        arities.update(len(bodies[index][position].arguments) for index, position in places)
        if len(arities) == 1:
            live[predicate] = list(range(arities.pop()))
            for index, _ in places:
                reads_in[index].append(predicate)

    columns_dropped: List[str] = []
    read_here = set(live)
    while read_here:
        dirty: Set[int] = set()
        for predicate in sorted(read_here):
            columns = live[predicate]
            places = reads[predicate]
            for column in reversed(range(len(columns))):
                for index, position in places:
                    term = bodies[index][position].arguments[column]
                    if type(term) is not Var or counts[index].get(term.name) != 1:
                        break
                else:
                    # An unsafe rule (an unbound head variable raises when
                    # it fires) leaves its predicate as written.
                    if not all(rules[index].is_safe() for index in defined_by[predicate]):
                        break
                    for index, position in places:
                        atom = bodies[index][position]
                        del counts[index][atom.arguments[column].name]
                        arguments = atom.arguments[:column] + atom.arguments[column + 1 :]
                        bodies[index][position] = Atom(predicate, arguments)
                        changed.add(index)
                    for index in defined_by[predicate]:
                        _forget(counts[index], (heads[index].pop(column),))
                        dirty.add(index)
                    columns_dropped.append(f"{predicate}:{columns.pop(column)}")
        changed |= dirty
        read_here = set()
        for index in dirty:
            _drop_dead_assignments(bodies[index], assignments[index], counts[index])
            read_here.update(reads_in.get(index, ()))
    assignments_dropped = sum(
        sum(bodies[index][position] is None for position in assignments[index])
        for index in changed
    )

    chains_fused = 0
    for index, body in enumerate(bodies):
        fused = _fuse_tuple_ids(heads[index], body, assignments[index], counts[index])
        if fused:
            chains_fused += fused
            changed.add(index)

    summary = {
        "columns_dropped": columns_dropped,
        "assignments_dropped": assignments_dropped,
        "chains_fused": chains_fused,
    }
    if not changed:
        return program, summary
    trimmed = Program(
        facts=program.facts,
        aggregate_rules=program.aggregate_rules,
        directives=program.directives,
    )
    for index, rule in enumerate(rules):
        if index in changed:
            head = rule.head
            if len(heads[index]) < len(head.arguments):
                head = Atom(head.predicate, tuple(heads[index]))
            rule = Rule(
                head,
                tuple([element for element in bodies[index] if element is not None]),
                rule.existential_variables,
                rule.label,
            )
        trimmed.rules.append(rule)
    return trimmed, summary


def _terms_of(element: BodyElement) -> Sequence:
    """The terms ``element`` mentions, repeats included."""
    kind = type(element)
    if kind is Atom:
        return element.arguments
    if kind is Assignment:
        expression = element.expression
        if isinstance(expression, SkolemExpr):
            return (element.variable, *expression.arguments)
        return (element.variable, expression)
    if kind is Negation:
        return element.atom.arguments
    if kind is Comparison:
        return (element.left, element.right)
    if kind is FilterCondition:
        return [carrier for _, carrier in element.variable_map]
    raise TypeError(f"unsupported body element {element!r}")


def _forget(counts: Dict[str, int], terms: Iterable) -> None:
    for term in terms:
        if type(term) is Var:
            left = counts[term.name] - 1
            if left:
                counts[term.name] = left
            else:
                del counts[term.name]


def _drop_dead_assignments(
    body: List[Optional[BodyElement]], positions: List[int], counts: Dict[str, int]
) -> bool:
    """Blank out every assignment whose variable occurs only there; whether one went."""
    dropped = again = False
    while True:
        for position in positions:
            element = body[position]
            if element is not None and counts[element.variable.name] == 1:
                body[position] = None
                _forget(counts, _terms_of(element))
                dropped = again = True
        if not again:
            return dropped
        again = False


def _fuse_tuple_ids(
    head: List, body: List[Optional[BodyElement]], positions: List[int], counts: Dict[str, int]
) -> int:
    """Fold every tuple ID read only by another tuple ID into it; how many went.

    ``counts`` is the rule's occurrence count: an ID occurring twice is
    bound once and read once."""
    #: name of an ID variable -> position of its assignment
    marked: Dict[str, int] = {}
    for position in positions:
        element = body[position]
        if element is not None and type(element.expression) is TupleIdExpr:
            marked[element.variable.name] = position
    if len(marked) < 2:
        return 0
    #: ID variable -> the IDs only it reads (by name)
    folded: Dict[str, List[str]] = {}
    inner: Set[str] = set()
    for outer, position in marked.items():
        for term in body[position].expression.arguments:
            if type(term) is Var:
                name = term.name
                if name in marked and counts[name] == 2 and name != outer:
                    folded.setdefault(outer, []).append(name)
                    inner.add(name)
    # A top ID changes value, so it may only go to the head: a value read
    # by anything else in the body would have to be renamed there too.
    # IDs that read each other in a cycle are bound by none: never a top.
    in_head = [term.name for term in head if type(term) is Var]
    fused = 0
    for top in folded:
        if top in inner or counts[top] != 1 + in_head.count(top):
            continue
        functors: List[str] = []
        arguments: List = []
        fused += _flatten_id(top, body, marked, folded, functors, arguments)
        kept, seen = [], set()
        for term in arguments:
            key = term.name if type(term) is Var else term
            if key not in seen:
                seen.add(key)
                kept.append(term)
        position = marked[top]
        element = body[position]
        expression = element.expression
        # ``type(expression)``: the fused term is a tuple ID like its parts.
        body[position] = Assignment(
            element.variable, type(expression)("∘".join(functors), tuple(kept))
        )
    return fused


def _flatten_id(
    name: str,
    body: List[Optional[BodyElement]],
    marked: Dict[str, int],
    folded: Dict[str, List[str]],
    functors: List[str],
    arguments: List,
) -> int:
    """Append the functors and arguments of ID ``name`` with what it folds
    in spliced in place, blanking the folded assignments; how many went."""
    expression = body[marked[name]].expression
    functors.append(expression.functor)
    inner = folded.get(name, ())
    fused = 0
    for term in expression.arguments:
        if inner and type(term) is Var and term.name in inner:
            fused += 1 + _flatten_id(term.name, body, marked, folded, functors, arguments)
            body[marked[term.name]] = None
        else:
            arguments.append(term)
    return fused
