"""Id-space building blocks of BGP execution over the encoded store.

The dictionary-encoded store (:mod:`repro.store.encoded`) keeps its
SPO/POS/OSP indexes over integer term ids.  On such a graph the physical
layer (:func:`repro.sparql.physical.execute` over an id-space plan) runs
the planner's index-nested-loop pipeline entirely in id space:

* partial solutions are plain ``{Variable: int}`` environments mutated
  in place down the depth-first pipeline (bind on match, unbind on
  backtrack) — no per-row allocation at all for intermediate rows,
* triple patterns probe :meth:`EncodedGraph.match_triple_ids` directly,
* FILTER conjuncts pushed between steps (:func:`repro.sparql.plan.attach_filters`)
  are compiled by :class:`IdFilter`: ``sameTerm`` and ``=`` / ``!=``
  comparisons decide on raw ids and kind tags whenever that is sound,
  and every other condition decodes *only the variables it mentions*,
* terms are decoded through the :class:`~repro.store.dictionary.TermDictionary`
  exactly once, at the result boundary, through a precomputed variable
  order so the :class:`~repro.sparql.solutions.Binding` construction
  skips its sort.

This module holds the two pieces of that which are not operators: the
capability check :func:`supports_id_execution` the lowering pass consults,
and the compiled FILTER conjunct :class:`IdFilter`.

Property paths run id-natively too: a path step hands its bound endpoint
*ids* straight to the :class:`~repro.sparql.idpaths.IdPathEngine`
(integer frontier expansion, statistics-driven direction selection) and
binds the resulting id pairs without a single decode.  Backends exposing
the join surface but not the navigation surface — and profiles with id
paths off — fall back to the term-level bridge: decode the bound
endpoints, run the evaluator's path machinery, re-intern the fresh
endpoint bindings.

When is the raw-id fast path sound?  Id equality always implies term
equality (interning is structural), so equal ids decide ``sameTerm``,
``=`` and ``!=`` immediately.  *Unequal* ids decide ``sameTerm`` always,
but decide ``=`` / ``!=`` only when the two ids are not both literals:
distinct literal ids may still be value-equal (``"1"^^xsd:integer`` vs
``"01"^^xsd:integer``), so that single case falls back to decoding.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.rdf.terms import Term, Variable
from repro.sparql.expressions import (
    Comparison,
    Expression,
    FunctionCall,
    TermExpr,
    VariableExpr,
    satisfies,
)
from repro.sparql.solutions import Binding
from repro.store.dictionary import TermDictionary

#: An id-space partial solution: variable -> interned term id.
IdEnv = Dict[Variable, int]


def supports_id_execution(graph: object) -> bool:
    """True when ``graph`` exposes the id-level store surface.

    Duck-typed rather than an ``isinstance`` check so alternative encoded
    backends (a future sharded store, mmap snapshots, ...) opt in by
    implementing ``match_triple_ids`` + ``dictionary``.
    """
    return hasattr(graph, "match_triple_ids") and hasattr(graph, "dictionary")


# ----------------------------------------------------------------------
# compiled FILTER conjuncts
# ----------------------------------------------------------------------
#: Operand of a fast probe: (is_variable, Variable | constant id).
_OperandSpec = Tuple[bool, object]


def _operand_spec(
    expression: Expression, dictionary: TermDictionary
) -> Optional[_OperandSpec]:
    """Compile a probe operand, or None when no id fast path exists.

    A constant that was never interned gets no spec: the dictionary can
    still intern it mid-execution (e.g. a zero-length path endpoint), so
    a stale "absent" verdict could go wrong — those conditions just take
    the decoding slow path.
    """
    if isinstance(expression, VariableExpr):
        return (True, expression.variable)
    if isinstance(expression, TermExpr):
        term_id = dictionary.id_for(expression.term)
        if term_id is None:
            return None
        return (False, term_id)
    return None


class IdFilter:
    """A FILTER conjunct compiled against a term dictionary.

    ``test`` first consults the raw-id probe (when one was compiled); a
    probe may return a definitive verdict or ``None`` for "undecidable on
    ids" (distinct literal ids under ``=``), in which case — like for any
    condition without a probe — only the variables the condition mentions
    are decoded and the full SPARQL semantics run on a tiny binding.
    """

    __slots__ = ("condition", "needed", "_probe")

    def __init__(self, condition: Expression, dictionary: TermDictionary) -> None:
        self.condition = condition
        self.needed = tuple(condition.variables())
        self._probe = self._compile_probe(condition, dictionary)

    @staticmethod
    def _compile_probe(condition: Expression, dictionary: TermDictionary):
        if (
            isinstance(condition, FunctionCall)
            and condition.name.upper() == "SAMETERM"
            and len(condition.arguments) == 2
        ):
            left = _operand_spec(condition.arguments[0], dictionary)
            right = _operand_spec(condition.arguments[1], dictionary)
            if left is not None and right is not None:
                return (left, right, None)
        if isinstance(condition, Comparison) and condition.operator in ("=", "!="):
            left = _operand_spec(condition.left, dictionary)
            right = _operand_spec(condition.right, dictionary)
            if left is not None and right is not None:
                return (left, right, condition.operator == "=")
        return None

    def test(self, env: IdEnv, dictionary: TermDictionary) -> bool:
        probe = self._probe
        if probe is not None:
            (left_is_var, left), (right_is_var, right), equality = probe
            left_id = env.get(left) if left_is_var else left
            right_id = env.get(right) if right_is_var else right
            if left_id is None or right_id is None:
                # An unbound variable raises in SPARQL; FILTER counts the
                # error as "not satisfied" for sameTerm, = and != alike.
                return False
            if equality is None:  # sameTerm: structural identity == id identity
                return left_id == right_id
            if left_id == right_id:
                return equality
            if not (
                TermDictionary.is_literal(left_id)
                and TermDictionary.is_literal(right_id)
            ):
                return not equality
            # Two distinct literal ids may still be value-equal: decode.
        decode = dictionary.term
        mapping: Dict[Variable, Term] = {}
        for variable in self.needed:
            term_id = env.get(variable)
            if term_id is not None:
                mapping[variable] = decode(term_id)
        return satisfies(self.condition, Binding(mapping))
