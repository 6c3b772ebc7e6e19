"""SPARQL 1.1 front-end: tokenizer, parser, algebra and reference evaluator.

The parser turns a SPARQL query string into an algebra tree
(:mod:`repro.sparql.algebra`).  The same tree is consumed by two engines:

* the reference bag-semantics evaluator (:mod:`repro.sparql.evaluator`),
  which directly implements the W3C semantics and doubles as the
  "Fuseki-like" baseline, and
* the SparqLog translator (:mod:`repro.core`), which compiles the tree into
  a Warded Datalog± program.

Query planning and execution
----------------------------

Basic graph patterns are *not* executed in textual order.  The planner in
:mod:`repro.sparql.plan` prices every triple / path pattern against the
exact incremental statistics kept by :class:`repro.rdf.Graph`
(per-predicate cardinalities, distinct subject/object counts), greedily
orders the patterns by estimated cardinality with bound-variable
propagation, and materialises the result as a :class:`~repro.sparql.plan.BGPPlan`
— an explicit, inspectable plan object.  The same cardinality model
drives body-atom ordering in :class:`repro.datalog.engine.DatalogEngine`.

The ordered plan is then *lowered* to a physical operator DAG
(:func:`repro.sparql.physical.lower_plan`): the lowering pass picks
term-space or id-space operators per backend capability, attaches FILTER
conjuncts as ``Filter`` operators, and selects the leapfrog-triejoin
:class:`~repro.sparql.physical.LeapfrogJoin` operator — worst-case
optimal over the encoded store's sorted id runs — when statistics detect
a cyclic join graph, and a hash probe
(:class:`~repro.sparql.physical.HashProbe`) where a FILTER equality is a
pattern's only link to the rest.  :func:`repro.sparql.physical.execute`
is the one way to run a lowered plan (a binary plan of either space
compiled once by :mod:`repro.sparql.idexec`): a streaming pipeline in which each partial
solution substitutes its bound variables into the next pattern before
probing the SPO/POS/OSP indexes, so ASK and plain-LIMIT queries
short-circuit instead of materialising full intermediate multisets.
``SparqlEvaluator.explain()`` renders the lowered DAG, and executed plans
expose per-operator row/probe counters.

All of it is configured by one value, an
:class:`~repro.sparql.profile.ExecutionProfile` handed to
``SparqlEvaluator(dataset, profile=...)`` (and on to ``lower_plan``); a
profile with the planner off recovers the naive textual-order evaluation
the property-based tests use as the differential baseline.
"""

from repro.sparql.algebra import (
    AskQuery,
    BGP,
    Filter,
    GraphGraphPattern,
    Join,
    LeftJoin,
    Minus,
    PathPattern,
    Query,
    SelectQuery,
    TriplePatternNode,
    Union,
)
from repro.sparql.parser import parse_query, SparqlSyntaxError
from repro.sparql.paths import (
    AlternativePath,
    InversePath,
    LinkPath,
    NegatedPropertySet,
    OneOrMorePath,
    PropertyPath,
    RepeatPath,
    SequencePath,
    ZeroOrMorePath,
    ZeroOrOnePath,
)
from repro.sparql.evaluator import SparqlEvaluator
from repro.sparql.profile import ExecutionProfile
from repro.sparql.idpaths import IdPathEngine, supports_id_paths
from repro.sparql.physical import (
    IndexNestedLoopJoin,
    LeapfrogJoin,
    PhysicalPlan,
    lower_bgp,
    lower_plan,
    supports_leapfrog,
)
from repro.sparql.plan import BGPPlan, PlanStep, plan_bgp
from repro.sparql.solutions import Binding, SolutionSequence

__all__ = [
    "AlternativePath",
    "AskQuery",
    "BGP",
    "BGPPlan",
    "Binding",
    "ExecutionProfile",
    "Filter",
    "GraphGraphPattern",
    "IdPathEngine",
    "IndexNestedLoopJoin",
    "InversePath",
    "Join",
    "LeapfrogJoin",
    "LeftJoin",
    "LinkPath",
    "Minus",
    "NegatedPropertySet",
    "OneOrMorePath",
    "PathPattern",
    "PhysicalPlan",
    "PlanStep",
    "PropertyPath",
    "Query",
    "RepeatPath",
    "SelectQuery",
    "SequencePath",
    "SolutionSequence",
    "SparqlEvaluator",
    "SparqlSyntaxError",
    "TriplePatternNode",
    "Union",
    "ZeroOrMorePath",
    "ZeroOrOnePath",
    "lower_bgp",
    "lower_plan",
    "parse_query",
    "plan_bgp",
    "supports_id_paths",
    "supports_leapfrog",
]
