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

Basic graph patterns are *not* executed in textual order: they are
ordered by estimated cardinality, lowered to a physical operator DAG and
compiled, once per plan, into one streaming pipeline, so ASK and
plain-LIMIT queries short-circuit instead of materialising intermediate
multisets.  The modules, lowest first — each imports only modules above
it in this table:

=============  ============================================================
``evaltree``   algebra -> evaluation tree, once per query: ``Pipeline``,
               where each FILTER conjunct goes, ``prepare_query``
``ordering``   ``greedy_order`` / ``select_cheapest`` (shared with the
               Datalog engine's body ordering), ``is_cyclic`` (GYO)
``plan``       cost model over the graph's exact statistics, ``plan_bgp``
               -> ``BGPPlan`` (plans as data), ``attach_filters``
``operators``  the physical IR — ``Scan``, ``HashProbe``, ``PathExpand``,
               ``Filter``, ``IndexNestedLoopJoin``, ``Factor``,
               ``LeapfrogJoin``, ``Project`` — and ``PhysicalPlan``
               (counters, ``explain``)
``kernels``    the register file header; the id FILTER kernels
``leapfrog``   the worst-case-optimal join: eligibility, variable order,
               sorted intersection, its levels as pipeline steps
``idexec``     the one executor: the step compiler over the encoded
               store's ids (binary and hash probes, paths, leapfrog
               levels), result boundary
``physical``   ``lower_plan`` (operator choice per plan) and
               ``execute_rows``, the stream of term tuples
``modifiers``  grouping, aggregates and the ORDER BY -> DISTINCT -> OFFSET
               -> LIMIT tail over header-aligned tuples, shared with the
               solution translation T_S
``evaluator``  the walk over the evaluation tree, the plan cache,
               ``explain[_analyze]``
=============  ============================================================

All of it is configured by one value, an
:class:`~repro.sparql.profile.ExecutionProfile` handed to
``SparqlEvaluator(dataset, profile=...)``: ``FULL`` plans, on
:class:`~repro.store.encoded.EncodedGraph` only; ``NAIVE`` recovers the
textual-order evaluation over any store's term surface, which the
property-based tests use as the differential baseline.
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
from repro.sparql.idpaths import IdPathEngine
from repro.sparql.operators import IndexNestedLoopJoin, LeapfrogJoin, PhysicalPlan
from repro.sparql.physical import lower_bgp, lower_plan
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
]
