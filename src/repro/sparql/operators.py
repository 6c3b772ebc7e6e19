"""The physical plan IR: operator classes, their counters, ``explain``.

:class:`Scan`, :class:`HashProbe`, :class:`IndexNestedLoopJoin`,
:class:`Factor`, :class:`LeapfrogJoin`, :class:`Filter`, :class:`PathExpand`
and :class:`Project` describe *how* a BGP runs.  Operators carry the
estimates the lowering pass (:mod:`repro.sparql.physical`) used plus
mutable :class:`OperatorStats` row/probe counters filled in by an
execution (:mod:`repro.sparql.idexec`), and the whole tree renders
through :meth:`PhysicalPlan.explain`.  Data and rendering only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.rdf.terms import Variable
from repro.sparql.algebra import PathPattern, TriplePatternNode
from repro.sparql.expressions import (
    Comparison,
    Expression,
    FunctionCall,
    TermExpr,
    VariableExpr,
)
from repro.sparql.plan import BGPPlan


@dataclass(slots=True)
class OperatorStats:
    """Mutable per-operator counters for the most recent execution.

    ``probes`` counts index/engine lookups issued by the operator (or
    rows tested, for filters); ``rows`` counts rows the operator passed
    downstream; ``seconds`` is wall time measured only under
    ``execute_rows(..., timed=True)`` (self time for leaf and intersection
    operators, total pipeline time on the ``Project`` root).  Counters
    are reset at the start of every :func:`execute` call and written when
    an execution's stream ends or is closed, from counts it kept to itself
    — cached plans therefore report the numbers of exactly one run, never
    an accumulation across reuses or a mixture of two runs in flight.
    Surfaced through :meth:`PhysicalPlan.counters`
    for the bench metrics hooks and ``explain(counters=True)``.
    """

    rows: int = 0
    probes: int = 0
    seconds: float = 0.0

    def reset(self) -> None:
        self.rows = 0
        self.probes = 0
        self.seconds = 0.0


@dataclass(slots=True)
class FactorStats(OperatorStats):
    """A :class:`Factor`'s counters: ``probes`` are the prefix rows that
    reached the cut, ``rows`` the pairs it formed, ``runs`` the suffix runs
    (a key the memo did not hold) and ``hits`` the new live tuples whose
    key it did; the rest of the probes repeated a live tuple and were
    dropped."""

    runs: int = 0
    hits: int = 0

    def reset(self) -> None:
        OperatorStats.reset(self)
        self.runs = 0
        self.hits = 0


class PhysicalOperator:
    """Base class of physical plan operators."""

    def children(self) -> Tuple["PhysicalOperator", ...]:
        return ()

    def describe(self) -> str:  # pragma: no cover - every subclass overrides
        raise NotImplementedError


def condition_label(expression: Expression) -> str:
    """Compact, stable rendering of a FILTER conjunct for explain output."""
    if isinstance(expression, Comparison):
        return (
            f"({condition_label(expression.left)} {expression.operator} "
            f"{condition_label(expression.right)})"
        )
    if isinstance(expression, VariableExpr):
        return repr(expression.variable)
    if isinstance(expression, TermExpr):
        return repr(expression.term)
    if isinstance(expression, FunctionCall):
        arguments = ", ".join(condition_label(a) for a in expression.arguments)
        return f"{expression.name}({arguments})"
    return repr(expression)


@dataclass(eq=False)
class Scan(PhysicalOperator):
    """Index probes of one triple pattern (bound components substituted)."""

    node: TriplePatternNode
    estimate: float
    source_index: int
    #: The access path of a binary pipeline's scan when nothing is
    #: pre-bound — probe shape and how the store is read
    #: (:func:`repro.sparql.idexec.access_path`), e.g. ``"SP? entry"``.
    #: ``None`` under a :class:`LeapfrogJoin`, which reads sorted runs.
    access: Optional[str] = None
    stats: OperatorStats = field(default_factory=OperatorStats, repr=False)

    def describe(self) -> str:
        label = f"Scan {self.node!r} est={self.estimate:g}"
        return label if self.access is None else f"{label} probe={self.access}"


@dataclass(eq=False)
class PathExpand(PhysicalOperator):
    """Property-path expansion by the id path engine
    (:class:`~repro.sparql.idpaths.IdPathEngine`): bound endpoint ids in,
    id pairs out."""

    node: PathPattern
    estimate: float
    source_index: int
    stats: OperatorStats = field(default_factory=OperatorStats, repr=False)

    def describe(self) -> str:
        return f"PathExpand {self.node!r} est={self.estimate:g}"


@dataclass(eq=False)
class HashProbe(PhysicalOperator):
    """An implicit equality join: a pattern linked to the rows above it
    only by a FILTER conjunct ``?probe = ?build``.

    The pattern's matches do not depend on the outer row, so they are
    built once per execution into a table keyed by the equality key of
    ``?build`` and probed with the key of ``?probe`` per outer row — the
    join the conjunct spells out, instead of a cross product filtered
    afterwards.  ``probes`` counts outer rows, ``rows`` the pairs kept.
    ``build_estimate`` is the pattern's matches, ``estimate`` the rows
    one outer row meets (the share of them with one value of ``?build``).
    """

    node: TriplePatternNode
    condition: Comparison
    probe: Variable
    build: Variable
    build_estimate: float
    estimate: float
    source_index: int
    stats: OperatorStats = field(default_factory=OperatorStats, repr=False)

    def describe(self) -> str:
        return (
            f"HashProbe {self.node!r} on {condition_label(self.condition)} "
            f"build_est={self.build_estimate:g}"
        )


@dataclass(eq=False)
class Filter(PhysicalOperator):
    """FILTER conjuncts checked against each row of the wrapped input."""

    child: PhysicalOperator
    conditions: Tuple[Expression, ...]
    #: Where the conjuncts are decided: ``"id"`` (the comparison kernels
    #: on ids), ``"term"`` (decoded, term-level semantics) or ``"id+term"``
    #: for a mixed slot.
    kernel: str
    stats: OperatorStats = field(default_factory=OperatorStats, repr=False)

    def children(self) -> Tuple[PhysicalOperator, ...]:
        return (self.child,)

    def describe(self) -> str:
        rendered = " && ".join(condition_label(c) for c in self.conditions)
        return f"Filter {rendered} kernel={self.kernel}"


@dataclass(eq=False)
class IndexNestedLoopJoin(PhysicalOperator):
    """Binary pipeline: each input extends the rows of the previous ones."""

    inputs: Tuple[PhysicalOperator, ...]
    stats: OperatorStats = field(default_factory=OperatorStats, repr=False)

    def children(self) -> Tuple[PhysicalOperator, ...]:
        return self.inputs

    def describe(self) -> str:
        return f"IndexNestedLoopJoin steps={len(self.inputs)}"


@dataclass(eq=False)
class Factor(PhysicalOperator):
    """A join-project cut: the last input of a DISTINCT binary pipeline,
    whose ``inputs`` are the rest of the join (the *suffix*).

    After the prefix (the inputs before it) some variable is dead: read by
    nothing below and not projected.  So a prefix row counts only by its
    *live* variables, ``key`` (those the suffix reads) and ``keep`` (those
    only the projection or a conjunct across the cut reads).  A live tuple
    seen before is dropped; the suffix runs once per distinct key, into a
    memo of the distinct tuples of ``memo`` (the suffix variables read
    above it), and each new live tuple is paired with its key's list.  A
    :class:`Filter` around the factor holds the conjuncts that read across
    the cut; they run on the pairs.
    """

    inputs: Tuple[PhysicalOperator, ...]
    key: Tuple[Variable, ...]
    keep: Tuple[Variable, ...]
    memo: Tuple[Variable, ...]
    stats: FactorStats = field(default_factory=FactorStats, repr=False)

    def children(self) -> Tuple[PhysicalOperator, ...]:
        return self.inputs

    def describe(self) -> str:
        key, keep, memo = (
            ", ".join(repr(v) for v in part) for part in (self.key, self.keep, self.memo)
        )
        return f"Factor on ({key}) keep [{keep}] memo [{memo}]"


@dataclass(eq=False)
class LeapfrogJoin(PhysicalOperator):
    """Leapfrog-triejoin: multiway sorted intersection per variable level.

    ``var_order`` is the global variable elimination order;
    ``level_conditions`` holds, per level, the FILTER conjuncts checked as
    soon as that level binds their last variable (one over a variable no
    level binds: after the last, where it reads as a post-filter does).
    """

    scans: Tuple[Scan, ...]
    var_order: Tuple[Variable, ...]
    level_conditions: Tuple[Tuple[Expression, ...], ...]
    stats: OperatorStats = field(default_factory=OperatorStats, repr=False)

    def children(self) -> Tuple[PhysicalOperator, ...]:
        return self.scans

    def describe(self) -> str:
        order = ", ".join(repr(v) for v in self.var_order)
        label = f"LeapfrogJoin order=[{order}]"
        attached = [
            f"{condition_label(c)}@{variable!r}"
            for variable, slot in zip(self.var_order, self.level_conditions)
            for c in slot
        ]
        if attached:
            label += " filters=[" + ", ".join(attached) + "]"
        return label


@dataclass(eq=False)
class Project(PhysicalOperator):
    """Result boundary: decodes ids and fixes the output variable order.

    ``variables`` is what the plan decodes per result row: every plan
    variable, or the subset the query reads above the BGP.
    ``distinct`` plans emit each row once: a repeated id tuple is dropped
    before anything is decoded (``rows`` counts the rows that were not).
    """

    child: PhysicalOperator
    variables: Tuple[Variable, ...]
    distinct: bool = False
    stats: OperatorStats = field(default_factory=OperatorStats, repr=False)

    def children(self) -> Tuple[PhysicalOperator, ...]:
        return (self.child,)

    def describe(self) -> str:
        rendered = ", ".join(repr(v) for v in self.variables)
        return f"Project [{rendered}]{' distinct' if self.distinct else ''}"


@dataclass(eq=False)
class PhysicalPlan:
    """A lowered BGP: the operator DAG and the logical plan it came from."""

    root: Project
    source: BGPPlan
    #: Why a GYO-cyclic BGP was *not* given the leapfrog operator (e.g.
    #: ``"variable predicate"``); ``None`` for acyclic plans and for
    #: cyclic plans that did get it.  Surfaced as an evaluator counter, a
    #: trace annotation and a line of ``explain_analyze``, so WCOJ
    #: fallbacks are never silent.
    wcoj_fallback: Optional[str] = None
    _operator_cache: Optional[List[PhysicalOperator]] = field(
        default=None, repr=False
    )
    #: Compiled pipelines by ``root.distinct``
    #: (:func:`repro.sparql.idexec.run` fills and validates it).
    _compiled: Dict[bool, object] = field(
        default_factory=dict, repr=False
    )

    def operators(self) -> List[PhysicalOperator]:
        """Every operator of the DAG in depth-first pre-order.

        The DAG is immutable after lowering, so the walk is memoised —
        cached plans reset their counters on every reuse and must not
        pay a fresh traversal each time.
        """
        if self._operator_cache is None:
            result: List[PhysicalOperator] = []
            stack: List[PhysicalOperator] = [self.root]
            while stack:
                operator = stack.pop()
                result.append(operator)
                stack.extend(reversed(operator.children()))
            self._operator_cache = result
        return self._operator_cache

    def reset_stats(self) -> None:
        for operator in self.operators():
            operator.stats.reset()

    def counters(self) -> List[Dict[str, object]]:
        """Per-operator row/probe/time counters for the bench metrics hooks."""
        return [
            {
                "operator": type(operator).__name__,
                "describe": operator.describe(),
                "rows": operator.stats.rows,
                "probes": operator.stats.probes,
                "seconds": operator.stats.seconds,
            }
            for operator in self.operators()
        ]

    def _tree(self, label_of: Callable[[PhysicalOperator], str], top: bool = True) -> List[str]:
        """One line per operator, drawn as a tree under the root (``top``:
        the root line carries no branch of its own)."""
        lines: List[str] = []

        def render(operator: PhysicalOperator, prefix: str, is_last: bool, top: bool):
            if top:
                lines.append(label_of(operator))
                child_prefix = ""
            else:
                lines.append(prefix + ("└─ " if is_last else "├─ ") + label_of(operator))
                child_prefix = prefix + ("   " if is_last else "│  ")
            kids = operator.children()
            for index, kid in enumerate(kids):
                render(kid, child_prefix, index == len(kids) - 1, False)

        render(self.root, "", True, top)
        return lines

    def explain(self, counters: bool = False) -> str:
        """Tree rendering of the physical plan (golden-testable).

        With ``counters=True`` each line carries the accumulated
        row/probe counts of its operator.
        """

        def label_of(operator: PhysicalOperator) -> str:
            label = operator.describe()
            if counters:
                label += f" rows={operator.stats.rows} probes={operator.stats.probes}"
                label += _tallies(operator.stats)
            return label

        return "\n".join(self._tree(label_of))

    def analysis(self) -> List[Dict[str, object]]:
        """Structured per-operator analysis (pre-order, like ``counters``).

        Adds the planner's estimate and the estimation error to every
        operator that carries an estimate: ``actual`` is the mean rows
        produced per probe (the planner's estimates are per-probe
        expectations), ``est_error`` is ``estimate / actual`` and
        ``flagged`` marks errors beyond 10x in either direction.
        """
        entries = self.counters()
        for operator, entry in zip(self.operators(), entries):
            estimate = getattr(operator, "estimate", None)
            if estimate is None:
                continue
            entry["estimate"] = estimate
            rows, probes = entry["rows"], entry["probes"]
            if probes:
                actual = rows / probes
                entry["actual_per_probe"] = actual
                ratio = _estimation_error(estimate, actual)
                if ratio is not None:
                    entry["est_error"] = ratio
                    entry["flagged"] = not 0.1 <= ratio <= 10.0
        return entries

    def explain_analyze(self, total_seconds: Optional[float] = None) -> str:
        """Tree rendering annotated with wall time and estimation errors.

        Every line carries the measured time (self time for leaves and
        the leapfrog intersection, total pipeline time on ``Project``,
        zero for operators not separately measured), the actual
        row/probe counters, and — on estimate-carrying operators — the
        per-probe actual cardinality with the est/actual error, marked
        ``!`` beyond 10x either way.  Meaningful after
        ``execute_rows(..., timed=True)``; :meth:`SparqlEvaluator.explain_analyze
        <repro.sparql.evaluator.SparqlEvaluator.explain_analyze>` wraps
        execution and rendering in one call.
        """
        analysis = {
            id(operator): entry
            for operator, entry in zip(self.operators(), self.analysis())
        }
        lines: List[str] = []
        if total_seconds is not None:
            lines.append(f"EXPLAIN ANALYZE total={total_seconds * 1e3:.2f}ms")

        def annotate(operator: PhysicalOperator) -> str:
            entry = analysis[id(operator)]
            label = (
                f"{operator.describe()}"
                f" | time={entry['seconds'] * 1e3:.2f}ms"
                f" rows={entry['rows']} probes={entry['probes']}"
                f"{_tallies(operator.stats)}"
            )
            if "estimate" in entry:
                if "actual_per_probe" in entry:
                    label += f" actual={entry['actual_per_probe']:g}/probe"
                    ratio = entry.get("est_error")
                    if ratio is None:
                        label += " err=n/a"
                    else:
                        rendered = "inf" if ratio == float("inf") else f"{ratio:.2g}"
                        label += f" err={rendered}x"
                        if entry["flagged"]:
                            label += " !"
                else:
                    label += " err=n/a"
            return label

        lines += self._tree(annotate, top=not lines)
        if self.wcoj_fallback is not None:
            lines.append(f"-- wcoj fallback: {self.wcoj_fallback}")
        return "\n".join(lines)


def _tallies(stats: OperatorStats) -> str:
    """A :class:`Factor`'s suffix runs and memo hits, as ``explain`` shows them."""
    if isinstance(stats, FactorStats):
        return f" runs={stats.runs} hits={stats.hits}"
    return ""


def _estimation_error(estimate: float, actual: float) -> Optional[float]:
    """``estimate / actual`` with honest edge cases.

    ``actual == 0`` with a substantial estimate (>= 1 expected row) is
    an infinite overestimate; a sub-row estimate finding nothing is not
    an estimation error at all (``None`` — rendered ``n/a``).
    """
    if actual > 0:
        return estimate / actual
    return float("inf") if estimate >= 1.0 else None
