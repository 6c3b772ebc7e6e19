"""Execution profiles: the one configuration value of the native engine.

An :class:`ExecutionProfile` is handed to
:func:`repro.create_engine` / :class:`~repro.sparql.evaluator.SparqlEvaluator`
(``profile=``) and read by the evaluation-tree pass
(:func:`repro.sparql.evaltree.prepare_query`) and by the evaluator's
choice of substrate.  It has one field, hence two presets:

=================== ======== =========
field               ``FULL`` ``NAIVE``
=================== ======== =========
``use_planner``     on       off
=================== ======== =========

``FULL``
    The production configuration: cost-based planning, FILTER conjuncts
    pushed into the compiled pipeline, and the leapfrog-triejoin operator
    wherever the BGP's structure calls for it
    (:func:`repro.sparql.leapfrog.assessment`).  It runs on the
    dictionary-encoded store only — ids in the registers, the id path
    engine, the id kernels — and raises a ``TypeError`` on any other store.

``NAIVE``
    The textual-order evaluation: pattern by pattern, joined through
    ``CompatIndex``, property paths by the term-level ALP procedure.  It
    reads only the term surface, so it runs on either store; on a hash
    ``rdf.Graph`` copy it is the oracle that shares neither code nor store
    with ``FULL``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar


@dataclass(frozen=True)
class ExecutionProfile:
    """The native engine's configuration: planned or textual-order evaluation."""

    #: Cost-based BGP planning (off recovers textual-order evaluation).
    use_planner: bool = True

    FULL: ClassVar["ExecutionProfile"]
    NAIVE: ClassVar["ExecutionProfile"]

    def __str__(self) -> str:
        return "full" if self.use_planner else "naive"


ExecutionProfile.FULL = ExecutionProfile()
ExecutionProfile.NAIVE = ExecutionProfile(use_planner=False)
