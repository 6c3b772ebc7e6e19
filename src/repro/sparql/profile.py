"""Execution profiles: the one configuration value of the native engine.

An :class:`ExecutionProfile` is handed to
:func:`repro.create_engine` / :class:`~repro.sparql.evaluator.SparqlEvaluator`
(``profile=``) and travels unchanged to the evaluation-tree pass
(:func:`repro.sparql.evaltree.prepare_query`, the one reader of
``use_planner`` beside the evaluator's choice of substrate and, beside
the lowering pass, of ``use_filter_pushdown``), down to
:func:`repro.sparql.physical.lower_plan` and into the plan-cache key.
Its fields exist for differential testing and ablation benchmarks; three
independent booleans make eight nominal configurations of which only a
handful are meaningful, hence three named presets:

======================= ======== ============= ============
field                   ``FULL`` ``ID_NATIVE`` ``BASELINE``
======================= ======== ============= ============
``use_planner``         on       on            on
``use_filter_pushdown`` on       on            off
``use_wcoj``            on       off           off
======================= ======== ============= ============

``FULL``
    Everything on — the production configuration (cost-based planning,
    streaming filter pushdown and the leapfrog-triejoin operator for
    cyclic BGPs).

``ID_NATIVE``
    The binary-join pipeline with the WCOJ operator pinned off.  Any
    divergence between ``FULL`` and ``ID_NATIVE`` isolates the leapfrog
    operator.

``BASELINE``
    Planned binary joins with every FILTER conjunct post-filtered after
    the last step: the same compiled pipeline as ``ID_NATIVE`` without
    pushdown.  The oracle that shares *no* code with the step compiler is
    the unplanned evaluation below.

Planned evaluation (``use_planner`` on) runs on the dictionary-encoded
store only — ids in the registers, the id path engine, the id kernels —
and raises a ``TypeError`` on any other store.  With the planner off the
evaluator recovers the naive textual-order evaluation
(``FULL.with_options(use_planner=False)``: pattern by pattern, joined
through ``CompatIndex``, property paths by the term-level ALP procedure),
which reads only the term surface and so runs on either store.  Profiles
are plain frozen (hashable) dataclasses; an unnamed configuration comes
from :meth:`ExecutionProfile.with_options`.
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
    #: Push FILTER conjuncts into the streaming join pipeline.
    use_filter_pushdown: bool = True
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
    name="baseline", use_filter_pushdown=False, use_wcoj=False
)
