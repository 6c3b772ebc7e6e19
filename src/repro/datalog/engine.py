"""Bottom-up evaluation of Datalog± programs, semi-naive where recursive.

The engine materialises the extension of every predicate, one strongly
connected component of the dependency graph after the other (the finest
stratification).  A component without recursion runs each of its rules
exactly once; a recursive one is evaluated with the semi-naive (delta)
technique.  Negated atoms, comparisons, assignments and embedded filter
conditions are evaluated as soon as their variables are bound.  A program
that declares ``@output`` predicates — T_Q always does — is first
rewritten by :func:`repro.datalog.optimise.unfold`, so that what is
evaluated is a few multi-atom joins rather than one materialised relation
per algebra operator, and then by :func:`repro.datalog.optimise.trim`,
so that only the tuple IDs the answer's bag needs are built, one interned
id per row.

Evaluation is two steps, :meth:`DatalogEngine.prepare` and
:meth:`DatalogEngine.run`, and :meth:`DatalogEngine.materialise` is one
after the other.  ``prepare`` does what depends on the program alone —
unfolding and trimming, the components and their rule groups — and returns a
:class:`PreparedProgram`.  ``run`` evaluates it on a base; the first run on
a base also *orders and compiles* every component as it reaches it: after
:func:`~repro.datalog.order.order_body` has fixed the body order from the live
relation sizes, every rule is lowered to a chain of steps over one
register file (:mod:`repro.datalog.steps`) whose last step appends the
head row to the rule's batch; a FILTER's ``=`` between a
variable an atom binds and one bound before it makes that atom's scan a
hash probe on the value's equality key (:mod:`repro.datalog.order`).  The
prepared program keeps
the ordered bodies and the compiled chains for as long as it is run on the
same base, so a second run only runs the fixpoint.  Reusing a body order
is exact, not approximate: with the program and the base fixed, evaluation
is deterministic, so every relation size the ordering would price on a
later run is the size it saw on the first.

The evaluated state is a :class:`Materialisation`: relations with their
lazily built hash indexes, the fact count and a value table
(:mod:`repro.datalog.values`).  The fixpoint runs on ids: facts are
interned when a program is bound to a base, rule constants pre-fill their
registers as ids, and a tuple ID or labelled null is interned from its
functor and argument ids, so every relation holds int tuples.  A term is
decoded only where it is read — by an embedded filter, a comparison, an
aggregate's arguments — and by whoever reads the result:
:meth:`Materialisation.tuples` (and so :meth:`DatalogEngine.evaluate`)
decodes every relation, T_S decodes the answer rows.  A program can be
evaluated *on top of* a materialisation: the base relations and table are
shared, the relations never written, and keep their indexes between
evaluations — which is how the SparqLog engine closes a dataset's T_D
program once and then runs only the query rules per query.  What a run
interns beyond the base's values and the program's constants goes when
the prepared program is released.

Existential head variables are instantiated with Skolem terms over the
frontier variables, which is exactly the abstraction the paper adopts for
its duplicate-preservation model (labelled nulls represented as Skolem
terms, Appendix C).
"""

from __future__ import annotations

import itertools
import time
from collections import defaultdict
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.datalog.rules import (
    AggregateRule,
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
from repro.datalog.optimise import trim, unfold
from repro.datalog.order import filter_equalities, order_body
from repro.datalog.steps import (
    BATCH,
    GroundTuple,
    Plan,
    RegisterFile,
    Registers,
    Relation,
    StepMaker,
    assignment_step,
    comparison_step,
    derive,
    filter_step,
    link,
    negation_step,
    scan_step,
    skolem_step,
    tuple_getter,
)
from repro.datalog.stratify import Component, components
from repro.datalog.terms import Var, ground_value
from repro.datalog.values import ValueTable
from repro.obs.tracer import NULL_SPAN, Tracer
from repro.rdf.terms import Literal, Term as RdfTerm
from repro.sparql.functions import aggregate


class EvaluationLimitExceeded(RuntimeError):
    """Raised when the fact limit or the wall-clock timeout is exceeded."""


class Materialisation:
    """An evaluated program: its relations, its value table, its fact count.

    ``relations`` has an entry for every predicate the evaluated program
    mentions (defined or only read), and holds id tuples: ``table``
    (:mod:`repro.datalog.values`) says what each id stands for.  Used as
    the ``base`` of a further evaluation, the relations are shared — read,
    indexed, never written —, so is the table, and ``fact_count`` carries
    over, so ``max_facts`` bounds base plus overlay exactly as it bounds
    one program evaluated in one go.
    """

    __slots__ = ("relations", "fact_count", "table", "__weakref__")

    def __init__(
        self, relations: Dict[str, Relation], fact_count: int, table: Optional[ValueTable] = None
    ) -> None:
        self.relations = relations
        self.fact_count = fact_count
        self.table = table

    def rows(self, predicate: str) -> Set[GroundTuple]:
        """The id tuples of ``predicate`` (the live set; empty if it has none)."""
        relation = self.relations.get(predicate)
        return relation.tuples if relation is not None else set()

    def tuples(self) -> Dict[str, Set[Tuple[object, ...]]]:
        """Predicate -> set of value tuples, decoded (fresh sets)."""
        if self.table is None:  # no run made it: it holds nothing
            return {}
        value = self.table.decoded().__getitem__
        return {
            predicate: {tuple(map(value, row)) for row in relation.tuples}
            for predicate, relation in self.relations.items()
        }


#: The base of a run on no base.  It has no table: such a run makes its own.
_EMPTY = Materialisation({}, 0)


#: A compiled rule as a run calls it: the plan that enumerates its body,
#: its batch, and what merges the batch into its head relation.  Whoever
#: runs the plan merges what is left of the batch after it.
RuleRun = Tuple[Plan, List[GroundTuple], Optional[Callable[[], None]]]


class _CompiledComponent:
    """One component as it runs on one base: ordered bodies, compiled plans.

    ``runs`` are its aggregate rules, then its rules — or, in a recursive
    component, their fixpoint, whose batch stays empty.  ``rounds`` and
    ``derived`` are the delta rounds and new facts of its most recent run;
    per rule ``i`` of ``ordered``, ``counts[2 * i]`` and ``counts[2 * i +
    1]`` are the rows its body found and the new ones its merges added in
    that run.
    """

    __slots__ = (
        "component", "ordered", "runs", "counts", "zeros", "rounds", "derived", "_rendered"
    )

    def __init__(
        self,
        component: Component,
        ordered: List[Tuple[object, List[BodyElement], List[Optional[float]]]],
        runs: List[RuleRun],
        counts: List[int],
    ) -> None:
        self.component = component
        #: (rule, ordered body, estimates) — aggregate rules first.
        self.ordered = ordered
        self.runs = runs
        self.counts = counts
        self.zeros = (0,) * len(counts)
        self.rounds = 0
        self.derived = 0
        self._rendered: Optional[List[Dict[str, object]]] = None

    def record(self) -> Dict[str, object]:
        """What a ``datalog.stratum`` span says of the most recent run."""
        if self._rendered is None:
            self._rendered = [
                {
                    "head": repr(rule.head),
                    "body": [list(pair) for pair in zip(map(repr, body), estimates)],
                }
                for rule, body, estimates in self.ordered
            ]
        counts = self.counts  # per rule: found, derived
        return {
            "predicates": sorted(self.component.predicates),
            "recursive": self.component.recursive,
            "rules": len(self.ordered),
            "rounds": self.rounds,
            "derived": self.derived,
            "plans": [
                {**plan, "found": counts[2 * at], "derived": counts[2 * at + 1]}
                for at, plan in enumerate(self._rendered)
            ],
        }


class _Bound:
    """What a prepared program keeps while it is run on one base by one engine.

    ``relations`` are the base's plus one scratch relation per predicate
    the program adds; ``scratch`` lists every relation a run fills (delta
    relations of recursive components included), ``compiled`` has a slot
    per rule group, filled when a run first reaches it.  ``table`` is the
    base's value table (a fresh one on no base), in which the program's
    constants were interned; ``facts`` are its facts as id rows per
    relation, and
    ``run`` is the table's token of the latest run (0 when none is open).
    """

    __slots__ = ("engine", "base", "relations", "scratch", "compiled", "table", "facts", "run")

    def __init__(
        self,
        engine: "DatalogEngine",
        base: Materialisation,
        relations: Dict[str, Relation],
        scratch: List[Relation],
        groups: int,
        table: ValueTable,
        facts: List[Tuple[Relation, List[GroundTuple]]],
    ) -> None:
        self.engine = engine
        self.base = base
        self.relations = relations
        self.scratch = scratch
        self.compiled: List[Optional[_CompiledComponent]] = [None] * groups
        self.table = table
        self.facts = facts
        self.run = 0


class PreparedProgram:
    """A program as :meth:`DatalogEngine.prepare` leaves it, ready to be run.

    Two lifetimes live here.  What depends on the program alone is fixed
    for good: the predicates it defines (which a base must not have), the
    ``unfolding`` record (``rules_before``, ``rules_after``, ``unfolded``,
    and what :func:`~repro.datalog.optimise.trim` did: ``columns_dropped``,
    ``assignments_dropped``, ``chains_fused``; ``None`` for a program
    without ``@output``), every predicate that needs
    a relation, the ground facts (per predicate) and, per component that has rules, its
    aggregate and plain rules in evaluation order.  What also depends on
    the base — scratch relations, ordered bodies, compiled plans — is built
    by the first :meth:`DatalogEngine.run` on that base, reused by later
    runs on the same base and replaced when another base is run on;
    :meth:`unbind` drops it (and every reference to the base) at once.

    The relations of a run's result are the prepared program's own: they
    are emptied when it runs again and by :meth:`release`, which also drops
    the ids the run interned; the program's constants and facts are
    interned when it is bound and stay as long as the base.  The tuple
    *sets* are never reused, so whoever holds one keeps it as it was.
    """

    __slots__ = ("defined", "unfolding", "predicates", "facts", "constants", "groups", "_bound")

    def __init__(
        self,
        defined: Set[str],
        unfolding: Optional[Dict[str, object]],
        predicates: Tuple[str, ...],
        facts: List[Tuple[str, List[Tuple[object, ...]]]],
        groups: List[Tuple[Component, List[AggregateRule], List[Rule]]],
    ) -> None:
        self.defined = defined
        self.unfolding = unfolding
        self.predicates = predicates
        self.facts = facts
        #: Every value the rules mention: interned when the program is bound,
        #: so that no rule compiled during a run adds to the table.
        self.constants = tuple(
            dict.fromkeys(
                value
                for _, aggregates, rules in groups
                for rule in (*aggregates, *rules)
                for value in _constants(rule)
            )
        )
        self.groups = groups
        self._bound: Optional[_Bound] = None

    def bound_to(self, base: Materialisation) -> bool:
        """Whether the base-level state is the one built on ``base``."""
        return self._bound is not None and self._bound.base is base

    def unbind(self) -> None:
        """Drop everything that depends on a base, the base included."""
        self.release()
        self._bound = None

    def release(self) -> None:
        """Empty the scratch relations and drop the ids the run added to the
        table (:meth:`ValueTable.end`): no derived tuple stays behind."""
        bound = self._bound
        if bound is not None:
            for relation in bound.scratch:
                if relation.tuples:
                    relation.replace(())
            bound.table.end(bound.run)
            bound.run = 0

    def evaluated(self) -> List[Dict[str, object]]:
        """Per component run on the current base, in order, what its
        ``datalog.stratum`` span says: ``predicates``, ``recursive``,
        ``rules``, the ``rounds`` and ``derived`` of the most recent run,
        and per rule (``plans``) the ordered body with the estimates and
        the rows that run's body ``found`` and its merges ``derived``."""
        if self._bound is None:
            return []
        return [compiled.record() for compiled in self._bound.compiled if compiled is not None]

    def _bind(self, engine: "DatalogEngine", base: Materialisation) -> _Bound:
        bound = self._bound
        if bound is None or bound.base is not base or bound.engine is not engine:
            clash = self.defined & base.relations.keys()
            if clash:
                raise ValueError(
                    f"program defines predicates of its base materialisation: {sorted(clash)}"
                )
            relations = dict(base.relations)
            scratch: List[Relation] = []
            for predicate in self.predicates:
                if predicate not in relations:
                    relations[predicate] = relation = Relation()
                    scratch.append(relation)
            table = base.table if base.table is not None else ValueTable()
            for value in self.constants:
                table.intern(value)
            facts = [
                (relations[predicate], table.intern_rows(rows)) for predicate, rows in self.facts
            ]
            bound = self._bound = _Bound(
                engine, base, relations, scratch, len(self.groups), table, facts
            )
        return bound


class DatalogEngine:
    """Evaluator producing the full materialisation of a program."""

    def __init__(
        self,
        max_facts: int = 5_000_000,
        timeout_seconds: Optional[float] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.max_facts = max_facts
        self.timeout_seconds = timeout_seconds
        #: Optional span tracer: one ``datalog.unfold`` span per rewritten
        #: program, one ``datalog.stratum`` span per evaluated component.
        self.tracer = tracer
        self._deadline: Optional[float] = None
        self._fact_count = 0
        self._probe_tick: Callable[[], int] = itertools.count(1).__next__
        #: Semi-naive delta rounds executed across every recursive component
        #: of the last evaluation — an observability counter (the metrics
        #: registry reads it through a callback), not a limit.
        self.fixpoint_iterations = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def evaluate(
        self, program: Program, base: Materialisation = _EMPTY
    ) -> Dict[str, Set[Tuple[object, ...]]]:
        """Evaluate the program and return predicate -> set of value tuples.

        With ``base``, the program runs on top of that materialisation and
        the result covers both.  The sets are decoded from the id rows
        (:meth:`Materialisation.tuples`).
        """
        return self.materialise(program, base).tuples()

    def materialise(self, program: Program, base: Materialisation = _EMPTY) -> Materialisation:
        """Evaluate ``program`` on top of ``base`` and keep the evaluated state.

        :meth:`prepare`, then :meth:`run`; the prepared program is dropped,
        so the result owns its relations.

        The program may read the base's predicates but not define them
        (``ValueError``): the base is closed under its own rules, and a new
        fact below them would leave it stale.

        A program with ``@output`` directives has named its answer, so it
        is unfolded and trimmed first (:func:`repro.datalog.optimise.unfold`,
        :func:`~repro.datalog.optimise.trim`): the output predicates come
        out tuple for tuple as written, except that tuple-ID values
        (:class:`~repro.datalog.rules.TupleIdExpr`) are renamed one-to-one,
        so the bag of their other columns — what T_S reads — is the same.
        Predicates the rewrite replaced by their bodies are not materialised
        at all.  A program without directives is evaluated exactly as
        written.
        """
        return self.run(self.prepare(program), base)

    def prepare(self, program: Program) -> PreparedProgram:
        """Everything evaluation needs that the program alone decides.

        Unfolds a program that declares ``@output``, then drops the
        columns and assignments nothing reads and fuses tuple-ID chains
        (:func:`~repro.datalog.optimise.trim`) — one ``datalog.unfold``
        span, annotated with the ``unfolding`` record —, walks the
        components and groups the rules by the component that derives
        them.  Reads no relation; ``program`` is not modified and may
        change afterwards.
        """
        tracer = self.tracer
        defined = {fact.predicate for fact in program.facts}
        defined.update(rule.head.predicate for rule in program.rules)
        defined.update(rule.head.predicate for rule in program.aggregate_rules)

        keep = program.output_predicates()
        unfolding: Optional[Dict[str, object]] = None
        if keep:
            # The program says which predicates are its answer: the others
            # need not exist, chains of them are evaluated as one join, and
            # what no reader uses of them is not computed.
            span = tracer.span("datalog.unfold", "datalog") if tracer is not None else NULL_SPAN
            with span:
                written, program = program, unfold(program, keep)
                remaining = {rule.head.predicate for rule in program.rules}
                heads = dict.fromkeys(rule.head.predicate for rule in written.rules)
                program, trimmed = trim(program, keep)
                unfolding = {
                    "rules_before": len(written.rules),
                    "rules_after": len(program.rules),
                    "unfolded": [head for head in heads if head not in remaining],
                    **trimmed,
                }
                span.annotate(**unfolding)

        rules_by_head: Dict[str, List[Rule]] = defaultdict(list)
        for rule in program.rules:
            rules_by_head[rule.head.predicate].append(rule)
        aggregates_by_head: Dict[str, List[AggregateRule]] = defaultdict(list)
        for aggregate_rule in program.aggregate_rules:
            aggregates_by_head[aggregate_rule.head.predicate].append(aggregate_rule)
        groups: List[Tuple[Component, List[AggregateRule], List[Rule]]] = []
        for component in components(program):
            rules = [
                rule
                for predicate in component.predicates
                for rule in rules_by_head.get(predicate, ())
            ]
            aggregates = [
                aggregate_rule
                for predicate in component.predicates
                for aggregate_rule in aggregates_by_head.get(predicate, ())
            ]
            if rules or aggregates:
                groups.append((component, aggregates, rules))
        facts: Dict[str, List[Tuple[object, ...]]] = {}
        for fact in program.facts:
            facts.setdefault(fact.predicate, []).append(tuple(map(ground_value, fact.arguments)))
        # An output predicate whose every rule the rewrite found unsatisfiable
        # is mentioned nowhere any more; it is empty, not absent.
        return PreparedProgram(
            defined, unfolding, (*program.predicates(), *keep), list(facts.items()), groups
        )

    def run(self, prepared: PreparedProgram, base: Materialisation = _EMPTY) -> Materialisation:
        """Evaluate a prepared program on top of ``base``.

        ``max_facts``, ``timeout_seconds`` and ``tracer`` are read now.  The
        first run on a base orders and compiles each component when it
        reaches it — everything the component reads from outside is then
        complete — and the prepared program keeps that; a later run on the
        same base empties the scratch relations and runs the plans (one
        ``datalog.stratum`` span per component either way).  A run that
        raised leaves nothing the next one could trip over.
        """
        self._deadline = (
            time.monotonic() + self.timeout_seconds
            if self.timeout_seconds is not None
            else None
        )
        self._fact_count = base.fact_count
        self.fixpoint_iterations = 0
        tracer = self.tracer

        prepared.release()
        bound = prepared._bind(self, base)
        relations = bound.relations
        bound.run = bound.table.begin()
        for relation, rows in bound.facts:  # counted as found / derived nowhere
            for start in range(0, len(rows), BATCH):
                self._merge(relation, rows[start : start + BATCH], [0, 0], 0, None)

        compiled_components = bound.compiled
        for position, group in enumerate(prepared.groups):
            span = tracer.span("datalog.stratum", "datalog") if tracer is not None else NULL_SPAN
            with span:
                self._check_limits()
                compiled = compiled_components[position]
                if compiled is None:
                    compiled = self._compile_component(*group, bound)
                    compiled_components[position] = compiled
                rounds, facts = self.fixpoint_iterations, self._fact_count
                compiled.counts[:] = compiled.zeros
                try:
                    for plan, rows, flush in compiled.runs:
                        plan()
                        if rows:
                            flush()
                except BaseException:
                    for _, rows, _ in compiled.runs:  # a limit hit half-way
                        rows.clear()
                    raise
                compiled.rounds = self.fixpoint_iterations - rounds
                compiled.derived = self._fact_count - facts
                if tracer is not None:
                    span.annotate(**compiled.record())
        return Materialisation(relations, self._fact_count, bound.table)

    def _compile_component(
        self,
        component: Component,
        aggregates: List[AggregateRule],
        rules: List[Rule],
        bound: _Bound,
    ) -> _CompiledComponent:
        """Order and compile one component's rules on the bound relations.

        Called when a run reaches the component: everything read from
        outside it is complete, so every body is ordered before anything
        runs.  Aggregate rules read strictly below their component and run
        first; a component without recursion then runs each rule once —
        no rule reads what another derives here.
        """
        relations, table = bound.relations, bound.table
        volatile = component.predicates if component.recursive else ()
        aggregate_bodies = [order_body(rule.body, relations, table) for rule in aggregates]
        bodies = [order_body(rule.body, relations, table, volatile) for rule in rules]
        # Per rule a batch and what merges it (and counts what the rule found
        # and derived); in a recursive component new rows are the next delta.
        counts = [0] * (2 * (len(aggregates) + len(rules)))
        fresh = {rule.head.predicate: [] for rule in rules} if component.recursive else {}

        def new_batch(at: int, head: str, keep: Optional[List[GroundTuple]] = None):
            rows: List[GroundTuple] = []
            return rows, partial(self._merge, relations[head], rows, counts, 2 * at, keep)

        runs: List[RuleRun] = []
        for at, (rule, (body, _)) in enumerate(zip(aggregates, aggregate_bodies)):
            batch = new_batch(at, rule.head.predicate)
            runs.append((self._compile_aggregate_rule(rule, body, relations, table, batch), *batch))
        ordered = [
            (rule, body, new_batch(at, rule.head.predicate, fresh.get(rule.head.predicate)))
            for at, (rule, (body, _)) in enumerate(zip(rules, bodies), len(aggregates))
        ]
        if component.recursive:
            fixpoint = self._compile_fixpoint(ordered, relations, table, bound.scratch, fresh)
            runs.append((fixpoint, [], None))  # its rules merge their own batches
        else:
            runs.extend(
                (self._compile_rule(rule, body, relations, table, batch), *batch)
                for rule, body, batch in ordered
            )
        return _CompiledComponent(
            component,
            [
                (rule, body, estimates)
                for rule, (body, estimates) in zip(
                    (*aggregates, *rules), (*aggregate_bodies, *bodies)
                )
            ],
            runs,
            counts,
        )

    # ------------------------------------------------------------------
    # fixpoint computation
    # ------------------------------------------------------------------
    def _compile_fixpoint(
        self,
        rules: Sequence[Tuple[Rule, List[BodyElement], Tuple[List[GroundTuple], Callable]]],
        relations: Dict[str, Relation],
        table: ValueTable,
        scratch: List[Relation],
        fresh: Dict[str, List[GroundTuple]],
    ) -> Plan:
        """Semi-naive evaluation of a recursive component's ordered rules.

        A round's delta is what the previous round's merges found new
        (their ``fresh`` list per head predicate).  The delta relations join
        ``scratch``: what empties the relations a run fills empties them too.
        """
        # Per recursive predicate the previous round's rows as a relation of
        # their own, refilled in place so each delta plan is compiled once
        # (when its delta is first non-empty: most never are).
        deltas: Dict[str, Relation] = defaultdict(Relation)
        plans: List[RuleRun] = []
        delta_plans: List[Tuple[Relation, RuleRun]] = []

        def compiled_on_first_run(*arguments) -> Plan:
            plan: Optional[Plan] = None

            def run() -> None:
                nonlocal plan
                if plan is None:
                    plan = self._compile_rule(*arguments)
                plan()

            return run

        for rule, body, batch in rules:
            plans.append((self._compile_rule(rule, body, relations, table, batch, fresh), *batch))
            for position, element in enumerate(body):
                if isinstance(element, Atom) and element.predicate in fresh:
                    delta = deltas[element.predicate]
                    plan = compiled_on_first_run(
                        rule, body, relations, table, batch, fresh, position, delta
                    )
                    delta_plans.append((delta, (plan, *batch)))
        scratch.extend(deltas.values())

        def fixpoint() -> None:
            try:
                # Initial round: evaluate every rule against the full relations.
                for plan, rows, flush in plans:
                    plan()
                    if rows:
                        flush()
                while any(fresh.values()):
                    self.fixpoint_iterations += 1
                    self._check_limits()
                    for predicate, rows in fresh.items():
                        if predicate in deltas:
                            deltas[predicate].replace(rows)
                        rows.clear()
                    for delta, (plan, rows, flush) in delta_plans:
                        if delta.tuples:
                            plan()
                            if rows:
                                flush()
            finally:
                # Empty already unless a limit was hit half-way through a round.
                for rows in fresh.values():
                    rows.clear()
                for _, batch, _ in plans:
                    batch.clear()

        return fixpoint

    # ------------------------------------------------------------------
    # rule compilation
    # ------------------------------------------------------------------
    def _compile_rule(
        self,
        rule: Rule,
        body: Sequence[BodyElement],
        relations: Dict[str, Relation],
        table: ValueTable,
        batch: Tuple[List[GroundTuple], Callable[[], None]],
        growing: Iterable[str] = (),
        delta_position: int = -1,
        delta: Optional[Relation] = None,
    ) -> Plan:
        """Lower ``rule`` with its ordered ``body`` to a callable plan.

        Calling the plan enumerates the body depth-first — the atom at
        ``delta_position`` over ``delta``, every other atom over its full,
        live relation — and appends each head tuple to ``batch``'s rows;
        its ``flush`` merges them into the head relation once they are
        :data:`~repro.datalog.steps.BATCH` (:func:`~repro.datalog.steps.derive`)
        and, for what is left, after the plan (a :data:`RuleRun`).  In a
        recursive component ``growing`` names the predicates the
        component's plans derive into meanwhile.
        """
        rows, flush = batch
        registers = RegisterFile(table)
        makers = self._lower_body(body, registers, relations, growing, delta_position, delta)

        frontier: Optional[List[int]] = None
        for argument in rule.head.arguments:
            if not isinstance(argument, Var) or argument in registers.slots:
                continue
            if argument not in rule.existential_variables:
                def unbound(regs: Registers, argument: Var = argument) -> None:
                    raise ValueError(f"unbound head variable {argument!r} in rule {rule!r}")

                return link(makers, unbound, registers)
            # An existential head variable: a Skolem term over the frontier,
            # whose order is fixed here rather than per derived row.
            if frontier is None:
                frontier = [
                    registers.slots[variable]
                    for variable in sorted(rule.frontier_variables(), key=lambda v: v.name)
                    if variable in registers.slots
                ]
            functor = f"∃{rule.label or rule.head.predicate}:{argument.name}"
            makers.append(skolem_step(table, functor, frontier, registers.bind(argument)))

        head = tuple_getter([registers.operand(argument) for argument in rule.head.arguments])
        last = partial(derive, head, rows.append, rows, flush)
        return link(makers, last, registers)

    def _lower_body(
        self,
        body: Sequence[BodyElement],
        registers: RegisterFile,
        relations: Dict[str, Relation],
        growing: Iterable[str] = (),
        delta_position: int = -1,
        delta: Optional[Relation] = None,
    ) -> List[StepMaker]:
        """One step maker per body element, allocating registers in body order."""
        makers: List[StepMaker] = []
        for position, element in enumerate(body):
            if isinstance(element, Atom):
                source = delta if position == delta_position else relations[element.predicate]
                # A rule may add to the very relation it is scanning.
                snapshot = source is not delta and element.predicate in growing
                makers.append(
                    scan_step(
                        element, source, registers, snapshot, self._probe_tick, self._check_limits
                    )
                )
            elif isinstance(element, Negation):
                makers.append(
                    negation_step(element.atom, relations[element.atom.predicate], registers)
                )
            elif isinstance(element, Comparison):
                makers.append(comparison_step(element, registers))
            elif isinstance(element, Assignment):
                makers.append(assignment_step(element, registers))
            elif isinstance(element, FilterCondition):
                makers.append(filter_step(element, registers))
            else:
                raise TypeError(f"unsupported body element {element!r}")
        return makers

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def _compile_aggregate_rule(
        self,
        aggregate_rule: AggregateRule,
        body: Sequence[BodyElement],
        relations: Dict[str, Relation],
        table: ValueTable,
        batch: Tuple[List[GroundTuple], Callable[[], None]],
    ) -> Plan:
        """Group the body's solutions and aggregate each group with
        :func:`repro.sparql.functions.aggregate`: argument values are
        decoded — a value that is no RDF term (a hand-written program's)
        as ``Literal.from_python`` makes it — and each result is stored as
        a run's id, one head row per group, into ``batch``."""
        rows, flush = batch
        registers = RegisterFile(table)
        makers = self._lower_body(body, registers, relations)
        # Every body solution, as a copy of the whole register file.
        members: List[Registers] = []
        enumerate_body = link(makers, lambda regs: members.append(regs[:]), registers)

        group_variables = aggregate_rule.group_variables
        group_of = tuple_getter([registers.operand(variable) for variable in group_variables])
        # What tells two solutions apart for COUNT(DISTINCT *).
        solution_of = tuple_getter(
            [registers.operand(v) for v in aggregate_rule.solution_variables or registers.slots]
        )
        # Per spec: its argument's register, or None for COUNT(*), and the
        # ids it skips — ``None``'s (id 0: unbound) and the stand-in's.
        arguments = [
            (
                None if spec.argument is None else registers.operand(spec.argument),
                frozenset({0, table.intern(spec.unbound)}),
            )
            for spec in aggregate_rule.aggregates
        ]
        value = table.value

        def evaluate() -> None:
            groups: Dict[Tuple, List[Registers]] = defaultdict(list)
            try:
                enumerate_body()
                for member in members:
                    groups[group_of(member)].append(member)
            finally:
                members.clear()
            if not group_variables and not groups:
                groups[()] = []  # no GROUP BY: one group, even of no solution
            for key, group in groups.items():
                values_by_target: Dict[Var, int] = {}
                for spec, (slot, skipped) in zip(aggregate_rule.aggregates, arguments):
                    if slot is None:  # COUNT(*): one value per solution
                        values: Sequence = list(map(solution_of, group)) if spec.distinct else group
                    else:
                        ids = [member[slot] for member in group if member[slot] not in skipped]
                        values = [
                            term if isinstance(term, RdfTerm) else Literal.from_python(term)
                            for term in map(value, ids)
                        ]
                    result = aggregate(spec.operation, values, spec.distinct)
                    values_by_target[spec.target] = table.add(result)
                row: List[int] = []
                for argument in aggregate_rule.head.arguments:
                    if not isinstance(argument, Var):
                        row.append(table.intern(ground_value(argument)))
                    elif argument in group_variables:
                        row.append(key[group_variables.index(argument)])
                    elif argument in values_by_target:
                        row.append(values_by_target[argument])
                    else:
                        row.append(group[0][registers.operand(argument)] if group else 0)
                derive(tuple, rows.append, rows, flush, row)

        return evaluate

    # ------------------------------------------------------------------
    # limits
    # ------------------------------------------------------------------
    def _merge(
        self,
        relation: Relation,
        rows: List[GroundTuple],
        counts: List[int],
        at: int,
        keep: Optional[List[GroundTuple]],
    ) -> None:
        """Merge a batch into ``relation`` and empty it: its new rows are
        counted as facts and appended to ``keep`` (the next round's delta),
        then ``max_facts`` and the deadline are checked.  ``counts[at]`` and
        ``counts[at + 1]`` add up a rule's found and derived rows."""
        derived = relation.merge(rows, keep)
        counts[at] += len(rows)
        counts[at + 1] += derived
        rows.clear()
        self._fact_count += derived
        if self._fact_count > self.max_facts:
            raise EvaluationLimitExceeded(f"derived more than {self.max_facts} facts")
        if self._deadline is not None and time.monotonic() >= self._deadline:
            self._check_limits()  # raises; read inline, as this runs per merge

    def _check_limits(self) -> None:
        if self._deadline is not None and time.monotonic() >= self._deadline:
            raise EvaluationLimitExceeded("evaluation timeout exceeded")


def _constants(rule) -> List[object]:
    """Every value a rule or aggregate rule mentions: what its compiled
    steps pre-fill registers with, and the values its aggregates skip."""
    atoms = [rule.head]
    terms: List[object] = []
    for element in rule.body:
        if isinstance(element, Negation):
            element = element.atom
        if isinstance(element, Atom):
            atoms.append(element)
        elif isinstance(element, Comparison):
            terms += (element.left, element.right)
        elif isinstance(element, Assignment):
            expression = element.expression
            terms += expression.arguments if isinstance(expression, SkolemExpr) else (expression,)
        elif isinstance(element, FilterCondition):
            # The constants a filter equality may key a scan by.
            terms += [operand for _, operand, _, _ in filter_equalities(element)]
    for atom in atoms:
        terms += atom.arguments
    values = [ground_value(term) for term in terms if not isinstance(term, Var)]
    values += [spec.unbound for spec in getattr(rule, "aggregates", ())]
    return values
