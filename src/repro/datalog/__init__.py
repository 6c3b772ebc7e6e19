"""Warded Datalog± engine — the "Vadalog substrate" of the reproduction.

The engine supports the language fragment SparqLog's translation targets:

* plain Datalog rules with full recursion,
* stratified negation,
* comparison and assignment built-ins in rule bodies (including Skolem
  function terms used as tuple IDs for bag semantics),
* embedded SPARQL filter conditions (the paper lets Vadalog evaluate the
  filter constraint verbatim; we do the same by attaching the expression),
* existential variables in rule heads (evaluated by skolemisation, which
  is how the paper's duplicate-preservation model abstracts labelled
  nulls),
* aggregation rules (GROUP BY with COUNT / SUM / MIN / MAX / AVG),
* `@output` / `@post` directives recorded on the program.

Evaluation is bottom-up, one strongly connected component of the
dependency graph after the other: a component without recursion runs each
rule once, a recursive one semi-naive; each rule is compiled once — and,
through ``DatalogEngine.prepare`` / ``run``, once for every run of the
same ``PreparedProgram`` on the same base.  A
program that declares ``@output`` predicates is first unfolded
(:mod:`repro.datalog.optimise`): single-rule predicates outside the answer
are replaced by their bodies, so chains of one-rule-per-operator
intermediates become joins the engine orders as a whole.  The evaluated
state (a ``Materialisation``) can serve as the read-only base of further
evaluations.  A wardedness analysis (:mod:`repro.datalog.wardedness`)
checks the syntactic Warded Datalog± condition of the generated programs.
"""

from repro.datalog.terms import Const, SkolemTerm, Var
from repro.datalog.rules import (
    AggregateRule,
    AggregateSpec,
    Assignment,
    Atom,
    Comparison,
    FilterCondition,
    Negation,
    Program,
    Rule,
)
from repro.datalog.engine import (
    DatalogEngine,
    EvaluationLimitExceeded,
    Materialisation,
    PreparedProgram,
)
from repro.datalog.optimise import unfold
from repro.datalog.stratify import StratificationError, stratify
from repro.datalog.wardedness import WardednessReport, analyze_wardedness

__all__ = [
    "AggregateRule",
    "AggregateSpec",
    "Assignment",
    "Atom",
    "Comparison",
    "Const",
    "DatalogEngine",
    "EvaluationLimitExceeded",
    "FilterCondition",
    "Materialisation",
    "Negation",
    "PreparedProgram",
    "Program",
    "Rule",
    "SkolemTerm",
    "StratificationError",
    "Var",
    "WardednessReport",
    "analyze_wardedness",
    "stratify",
    "unfold",
]
