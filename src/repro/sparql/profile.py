"""Execution profiles: the one configuration value of the native engine.

An :class:`ExecutionProfile` is handed to
:func:`repro.create_engine` / :class:`~repro.sparql.evaluator.SparqlEvaluator`
(``profile=``) and travels unchanged to the evaluation-tree pass
(:func:`repro.sparql.evaltree.prepare_query`, the one reader of
``use_planner`` and, beside the lowering pass, of
``use_filter_pushdown``), down to
:func:`repro.sparql.physical.lower_plan` and into the plan-cache key.
Its fields exist for differential testing and ablation benchmarks; five
independent booleans make 32 nominal configurations of which only a
handful are meaningful, hence three named presets:

===================== ======== ============= ============
field                 ``FULL`` ``ID_NATIVE`` ``BASELINE``
===================== ======== ============= ============
``use_planner``       on       on            on
``use_id_execution``  on       on            off
``use_filter_pushdown`` on     on            off
``use_id_paths``      on       on            off
``use_wcoj``          on       off           off
===================== ======== ============= ============

``FULL``
    Everything on — the production configuration (cost-based planning,
    id-native joins, streaming filter pushdown, id-native paths, and the
    leapfrog-triejoin operator for cyclic BGPs).

``ID_NATIVE``
    The id-native binary-join pipeline with the WCOJ operator pinned off.
    Any divergence between ``FULL`` and ``ID_NATIVE`` isolates the
    leapfrog operator.

``BASELINE``
    Planned, decoded, post-filtered term-level evaluation — the
    differential reference for the id-space machinery.  Joins run in the
    same compiled pipeline as ``FULL`` with boxed terms in the registers
    (:class:`repro.sparql.idexec.KeySpace`), FILTERs apply after the
    join through the term-level interpreter, property paths use the
    spec's term-level ALP procedure.  The oracle that shares *no* code
    with the step compiler is the unplanned evaluation below.

A field can only switch a capability *off*: which operators run is
decided per backend capability, so ``FULL`` on the hash backend runs
the pipeline in term space.  Profiles are plain frozen (hashable)
dataclasses; ablations needing an unnamed configuration — e.g. the
all-off naive evaluator, ``BASELINE.with_options(use_planner=False)``
(no planner: pattern by pattern in textual order, joined through
``CompatIndex``) — use :meth:`ExecutionProfile.with_options`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar


@dataclass(frozen=True)
class ExecutionProfile:
    """An immutable bundle of the native engine's execution switches."""

    name: str = "custom"
    #: Cost-based BGP planning (off recovers textual-order evaluation).
    use_planner: bool = True
    #: Execute planned BGPs over integer term ids on encoded backends.
    use_id_execution: bool = True
    #: Push FILTER conjuncts into the streaming join pipeline.
    use_filter_pushdown: bool = True
    #: Evaluate property paths through the id-native engine.
    use_id_paths: bool = True
    #: Allow the leapfrog-triejoin operator for cyclic all-triple BGPs.
    use_wcoj: bool = True

    BASELINE: ClassVar["ExecutionProfile"]
    ID_NATIVE: ClassVar["ExecutionProfile"]
    FULL: ClassVar["ExecutionProfile"]

    def with_options(self, **overrides) -> "ExecutionProfile":
        """Return a copy with the given knobs overridden.

        The derived profile is renamed ``custom`` unless an explicit
        ``name=`` override is part of ``overrides``.
        """
        overrides.setdefault("name", "custom")
        return replace(self, **overrides)

    def __str__(self) -> str:
        return self.name


ExecutionProfile.FULL = ExecutionProfile(name="full")
ExecutionProfile.ID_NATIVE = ExecutionProfile(name="id_native", use_wcoj=False)
ExecutionProfile.BASELINE = ExecutionProfile(
    name="baseline",
    use_id_execution=False,
    use_filter_pushdown=False,
    use_id_paths=False,
    use_wcoj=False,
)
