"""Skolem function generation for the duplicate-preservation model.

Appendix C of the paper describes how SparqLog preserves SPARQL bag
semantics inside the set-semantics Datalog± engine: every rule that may
produce duplicates assigns a *tuple ID* to its head, computed by a Skolem
function over (a) a rule identifier and (b) the list of variables bound by
the positive body atoms.  Two derivations of the same tuple through
different groundings therefore receive different IDs and survive as
distinguishable duplicates, while the provenance stays inspectable.

The zero-or-one / zero-or-more / one-or-more property paths instead force
the ID to a fixed constant (the empty list in the paper, ``SET_ID`` here)
because the SPARQL standard mandates set semantics for them.

:meth:`SkolemFunctionGenerator.tuple_id_assignment` is the one place a
tuple ID is made, and it marks it: the expression is a
:class:`~repro.datalog.rules.TupleIdExpr`.  An ID value only has to tell
derivations apart, so the engine's rewrite
(:func:`repro.datalog.optimise.trim`) may drop an ID nothing reads and
fuse a chain of IDs into one term — a one-to-one renaming that keeps the
bag of data columns.  Every other Skolem term keeps its value.
"""

from __future__ import annotations

from typing import Iterable

from repro.datalog.rules import Assignment, TupleIdExpr
from repro.datalog.terms import Const, Var

#: The constant tuple ID shared by all set-semantics derivations
#: (the ``Id = []`` literal of the paper).
SET_ID = Const("[]")


class SkolemFunctionGenerator:
    """Factory of tuple-ID assignments (``ID = ["f<rule>", vars..., label]``)."""

    def __init__(self) -> None:
        self._rule_counter = 0

    def next_rule_id(self) -> int:
        """Return a fresh rule identifier."""
        self._rule_counter += 1
        return self._rule_counter

    def tuple_id_assignment(
        self,
        id_variable: Var,
        body_variables: Iterable[Var],
        label: str = "",
    ) -> Assignment:
        """Build the assignment that computes a fresh tuple ID.

        ``body_variables`` should be the variables occurring in positive
        body atoms of the rule (the paper's ``bodyVars``); they are sorted
        by name so the ID is independent of atom order.
        """
        rule_id = self.next_rule_id()
        # Deduplicated and sorted by name; a name hashes faster than a Var.
        by_name = {variable.name: variable for variable in body_variables}
        arguments = tuple([by_name[name] for name in sorted(by_name)])
        functor = f"f{rule_id}" + (f":{label}" if label else "")
        return Assignment(id_variable, TupleIdExpr(functor, arguments))

    @staticmethod
    def set_semantics_assignment(id_variable: Var) -> Assignment:
        """Force the tuple ID to the shared constant (set semantics)."""
        return Assignment(id_variable, SET_ID)
