"""The register file of a compiled join and the FILTER kernels that read it.

Every compiled join — the pipeline of :mod:`repro.sparql.idexec`, a
leapfrog level (:mod:`repro.sparql.leapfrog`), a live view's seeds
(:mod:`repro.ivm.delta`) — runs over one *register file*, a plain list:
the header below, then whatever its compiler allocates behind it.

The kernels are the FILTER conjuncts decided without a term:
``= != < <= > >=`` between variables and/or constants and ``sameTerm``
run on ids, kind tags and — for literals — per-id *comparison keys*
(:func:`comparison_key`) memoised
in :attr:`TermDictionary.compare_keys
<repro.store.dictionary.TermDictionary.compare_keys>`: no ``Term``, no
expression evaluation.  Every other conjunct runs its closure from the
expression compiler (:func:`repro.sparql.expressions.compile_condition`),
compiled once with the pipeline over a register reader that decodes a
variable when the closure reads it; each run is counted as a term
fallback.  :func:`condition_kernel` tells the two apart by shape, which is
what ``explain`` prints.

:func:`equality_key` is the same equality rule for a value outside the
dictionary: the Datalog engine's value table keys a FILTER ``=`` probe by it.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.rdf.terms import NUMERIC_DATATYPE_VALUES, XSD_STRING, Literal, Term, Variable
from repro.sparql import expressions
from repro.sparql.expressions import Comparison, Expression, FunctionCall, TermExpr, VariableExpr
from repro.store.dictionary import (
    _KIND_MASK,
    KIND_BLANK,
    KIND_IRI,
    KIND_LITERAL,
    TermDictionary,
    term_structure,
)

Registers = List[object]
#: A compiled conjunct: the verdict for the row currently in the registers.
Test = Callable[[Registers], bool]
#: A compiled step: the result rows (term tuples) below the row currently in the registers.
Step = Callable[[Registers], Iterable[tuple]]

# Register file header.  Counters first, then what an execution brings
# along; everything after ``HEADER`` is allocated by the compiler.
FALLBACKS = 0  #: conjunct evaluations that ran on decoded terms
RESULTS = 1  #: rows emitted at the result boundary
FREE = 2  #: always ``None``: what a free pattern position reads
SINK = 3  #: written, never read: where a probe that binds nothing puts its rows
#: The store's id probes (:data:`repro.store.encoded.PROBE_SURFACE`), fetched
#: per execution: ``enable_counters()`` shadows them on the graph instance.
MATCH = 4  #: ``match_triple_ids``
MEMBER = 5  #: ``contains_ids``
OBJECTS = 6  #: ``object_entry_ids``
SUBJECTS = 7  #: ``subject_entry_ids``
PREDICATES = 8  #: ``predicate_entry_ids``
TIMED = 9  #: ``physical._timed_iter`` under ``execute_rows(timed=True)``, else ``None``
GRAPH = 10
HEADER: Tuple[object, ...] = (0, 0) + (None,) * 9

#: Held by the register of a pattern constant the dictionary has no id
#: for yet: equal to no id, so nothing matches it until it is resolved.
UNRESOLVED = object()


def resolve_constants(
    registers: Registers, unresolved: Sequence[Tuple[int, Term]], dictionary: TermDictionary
) -> List[Tuple[int, Term]]:
    """Write into ``registers`` the id of each ``(register, term)`` of
    ``unresolved`` the dictionary has by now; return those it still lacks.

    The dictionary only grows, so a resolved register never goes stale.
    """
    id_for = dictionary.id_for
    still = []
    for register, term in unresolved:
        term_id = id_for(term)
        if term_id is None:
            still.append((register, term))
        else:
            registers[register] = term_id
    return still


# ----------------------------------------------------------------------
# comparison keys
# ----------------------------------------------------------------------
def comparison_key(kind: int, key) -> Tuple[object, int, object, str]:
    """``(equality key, order class, order value, lexical form)`` of a term.

    ``kind`` / ``key`` are the term's interned structure
    (:meth:`TermDictionary.structural_key`,
    :func:`repro.store.dictionary.term_structure`).  The tuple restates
    :func:`repro.sparql.functions.term_compare` per operand, so that a
    comparison is a few tuple reads:

    * two terms are ``=`` exactly when their *equality keys* are equal —
      numeric literals by ``float(lexical)``, simple and ``xsd:string``
      literals by lexical form, everything else (IRIs, blank nodes,
      malformed or NaN numerics, language-tagged and other typed
      literals) by its full structure, i.e. only to itself;
    * ``< <= > >=`` compare the *order values* of two terms of the same
      even *order class* (0 IRI by value, 2 numeric by float, 4 any other
      literal by lexical form), compare lexical forms when exactly one
      side is a non-numeric literal and the other a literal, and are an
      error — false under FILTER — otherwise (odd classes: 1 blank node,
      3 malformed or NaN numeric).
    """
    if kind == KIND_IRI:
        return (0, key), 0, key, key
    if kind == KIND_BLANK:
        return (1, key), 1, None, key
    lexical, datatype, language = key
    if datatype in NUMERIC_DATATYPE_VALUES:
        try:
            value = float(lexical)
        except ValueError:
            value = None
        if value is not None and value == value:
            return (2, value), 2, value, lexical
        return (3,) + key, 3, None, lexical
    if language is None and (datatype is None or datatype == XSD_STRING.value):
        return (4, lexical), 4, lexical, lexical
    return (5,) + key, 4, lexical, lexical


def _key_miss(dictionary: TermDictionary) -> Callable[[int], tuple]:
    """The cold half of a key lookup: compute, memoise, return.

    Kernels read ``dictionary.compare_keys[term_id]`` inline and only
    call this on ``KeyError``.
    """
    keys = dictionary.compare_keys
    structural_key = dictionary.structural_key

    def miss(term_id: int) -> tuple:
        key = keys[term_id] = comparison_key(*structural_key(term_id))
        return key

    return miss


def equality_key_of(dictionary: TermDictionary) -> Callable[[int], object]:
    """Id -> a key two ids share exactly when they are ``=``: what a hash
    join on an equality conjunct is keyed by."""
    keys = dictionary.compare_keys
    miss = _key_miss(dictionary)

    def equality_key(term_id: int) -> object:
        if term_id & _KIND_MASK != KIND_LITERAL:
            # Equal only to itself; an int never collides with a literal's key.
            return term_id
        try:
            return keys[term_id][0]
        except KeyError:
            return miss(term_id)[0]

    return equality_key


def equality_key(value: object, ident: int) -> object:
    """The key of :func:`equality_key_of` for a value held outside a
    :class:`TermDictionary` (the Datalog engine's value table): a literal's
    equality key, and for anything else — an IRI, a blank node, a plain
    value, a Skolem key — ``ident``, its own id.  An int never equals a
    literal's tuple key, so only literals are ever equal across ids."""
    if isinstance(value, Literal):
        return comparison_key(*term_structure(value))[0]
    return ident


def _mixed_order(compare: Callable, left: tuple, right: tuple) -> bool:
    """Ordering of two terms of different order classes (see :func:`comparison_key`)."""
    left_class, right_class = left[1], right[1]
    if left_class >= 2 and right_class >= 2 and (left_class == 4 or right_class == 4):
        return compare(left[3], right[3])
    return False


# ----------------------------------------------------------------------
# compiled FILTER conjuncts
# ----------------------------------------------------------------------
_ORDERINGS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def kernel_operands(condition: Expression) -> Optional[Tuple[Expression, Expression]]:
    """The two operands of a conjunct the id kernels cover, else ``None``."""
    if isinstance(condition, Comparison):
        if condition.operator not in ("=", "!=") and condition.operator not in _ORDERINGS:
            return None
        operands = (condition.left, condition.right)
    elif (
        isinstance(condition, FunctionCall)
        and condition.name.upper() == "SAMETERM"
        and len(condition.arguments) == 2
    ):
        operands = (condition.arguments[0], condition.arguments[1])
    else:
        return None
    if all(isinstance(operand, (VariableExpr, TermExpr)) for operand in operands):
        return operands
    return None


def condition_kernel(condition: Expression) -> str:
    """``"id"`` when the conjunct runs as an id kernel, else ``"term"``.

    A property of the conjunct's shape alone — comparisons and
    ``sameTerm`` between variables and/or constants — so the lowering
    pass can print it without a dictionary.
    """
    return "id" if kernel_operands(condition) is not None else "term"


def _never(_registers: Registers) -> bool:
    return False


def compile_condition(
    condition: Expression,
    dictionary: TermDictionary,
    register_of: Dict[Variable, int],
    bound: Set[Variable],
) -> Test:
    """Compile a FILTER conjunct to a test over the register file.

    ``bound`` is the set of variables that hold an id where the test
    runs; ``register_of`` says where.  A kernel operand outside ``bound``
    is an unbound variable — an error, which FILTER reads as false — so
    the whole test folds to a constant.
    """
    operands = kernel_operands(condition)
    if operands is None:
        return _term_test(condition, dictionary, register_of, bound)
    variables = condition.variables()
    if not variables:
        verdict = expressions.compile_condition(condition, expressions.positional(()))(())
        return lambda _registers: verdict
    if not variables <= bound:
        return _never
    left, right = operands
    name = condition.operator if isinstance(condition, Comparison) else "sameTerm"
    if isinstance(left, TermExpr):
        # One constant at most from here on: keep it on the right.
        left, right = right, left
        name = _FLIPPED.get(name, name)
    first = register_of[left.variable]
    if name == "sameTerm":
        return _same_term_test(True, first, right, dictionary, register_of)
    if isinstance(right, VariableExpr):
        second = register_of[right.variable]
        if name in _ORDERINGS:
            return _ordering_test(_ORDERINGS[name], first, second, dictionary)
        return _equality_test(name == "=", first, second, dictionary)
    kind, key = term_structure(right.term)
    if name in _ORDERINGS:
        constant = comparison_key(kind, key)
        return _constant_ordering_test(_ORDERINGS[name], first, constant, dictionary)
    if kind != KIND_LITERAL:
        # An IRI or blank node is equal only to itself.
        return _same_term_test(name == "=", first, right, dictionary, register_of)
    return _constant_equality_test(name == "=", first, comparison_key(kind, key)[0], dictionary)


def _same_term_test(
    same: bool,
    first: int,
    right: Expression,
    dictionary: TermDictionary,
    register_of: Dict[Variable, int],
) -> Test:
    """``sameTerm`` (or its negation): structural identity, which interning
    makes id identity."""
    if isinstance(right, VariableExpr):
        second = register_of[right.variable]
        return lambda registers: (registers[first] == registers[second]) == same
    constant = dictionary.id_for(right.term)
    if constant is not None:
        return lambda registers: (registers[first] == constant) == same
    # Not interned now, but a compiled form outlives that (it is kept
    # across writes, and a zero-length path endpoint or an initial binding
    # interns without one): compare structures, which holds either way.
    structure = term_structure(right.term)
    structural_key = dictionary.structural_key
    return lambda registers: (structural_key(registers[first]) == structure) == same


# The kernels below consult the comparison-key memo for literal ids only:
# an IRI or blank node is equal only to itself (id equality) and ordered
# only against another IRI (by value, read from the dictionary), so a
# FILTER over a large scan of resources leaves nothing behind.
def _equality_test(equal: bool, first: int, second: int, dictionary: TermDictionary) -> Test:
    keys = dictionary.compare_keys
    miss = _key_miss(dictionary)

    def test(registers: Registers) -> bool:
        left = registers[first]
        right = registers[second]
        if left == right:
            return equal
        if left & _KIND_MASK != KIND_LITERAL or right & _KIND_MASK != KIND_LITERAL:
            return not equal
        try:
            left_key = keys[left]
        except KeyError:
            left_key = miss(left)
        try:
            right_key = keys[right]
        except KeyError:
            right_key = miss(right)
        return (left_key[0] == right_key[0]) == equal

    return test


def _constant_equality_test(
    equal: bool, first: int, constant: object, dictionary: TermDictionary
) -> Test:
    """``?x = "literal"``: ``constant`` is the literal's equality key."""
    keys = dictionary.compare_keys
    miss = _key_miss(dictionary)

    # Decided on keys alone, never on the constant's id: the constant need
    # not be in the dictionary, now or for as long as the plan is cached.
    def test(registers: Registers) -> bool:
        term_id = registers[first]
        if term_id & _KIND_MASK != KIND_LITERAL:
            return not equal
        try:
            key = keys[term_id]
        except KeyError:
            key = miss(term_id)
        return (key[0] == constant) == equal

    return test


def _ordering_test(compare: Callable, first: int, second: int, dictionary: TermDictionary) -> Test:
    keys = dictionary.compare_keys
    miss = _key_miss(dictionary)
    structural_key = dictionary.structural_key

    def test(registers: Registers) -> bool:
        left = registers[first]
        right = registers[second]
        if left & _KIND_MASK != KIND_LITERAL or right & _KIND_MASK != KIND_LITERAL:
            return (
                left & _KIND_MASK == KIND_IRI
                and right & _KIND_MASK == KIND_IRI
                and compare(structural_key(left)[1], structural_key(right)[1])
            )
        try:
            left_key = keys[left]
        except KeyError:
            left_key = miss(left)
        try:
            right_key = keys[right]
        except KeyError:
            right_key = miss(right)
        order_class = left_key[1]
        if order_class == right_key[1]:
            return not order_class & 1 and compare(left_key[2], right_key[2])
        return _mixed_order(compare, left_key, right_key)

    return test


def _constant_ordering_test(
    compare: Callable, first: int, constant: tuple, dictionary: TermDictionary
) -> Test:
    keys = dictionary.compare_keys
    miss = _key_miss(dictionary)
    structural_key = dictionary.structural_key
    constant_class = constant[1]
    constant_value = constant[2]

    def test(registers: Registers) -> bool:
        term_id = registers[first]
        if term_id & _KIND_MASK != KIND_LITERAL:
            return (
                constant_class == 0
                and term_id & _KIND_MASK == KIND_IRI
                and compare(structural_key(term_id)[1], constant_value)
            )
        try:
            key = keys[term_id]
        except KeyError:
            key = miss(term_id)
        if key[1] == constant_class:
            return not constant_class & 1 and compare(key[2], constant_value)
        return _mixed_order(compare, key, constant)

    return test


def register_reader(
    dictionary: TermDictionary, register_of: Dict[Variable, int], bound: Set[Variable]
) -> expressions.Reader:
    """The expression reader of a register file: a variable of ``bound`` is
    decoded from its register when the closure reads it, any other is unbound."""
    decode = dictionary.term

    def reader(variable: Variable) -> Callable[[Registers], Optional[Term]]:
        if variable not in bound:
            return expressions.unbound
        register = register_of[variable]
        return lambda registers: decode(registers[register])

    return reader


def _term_test(
    condition: Expression,
    dictionary: TermDictionary,
    register_of: Dict[Variable, int],
    bound: Set[Variable],
) -> Test:
    """The fallback: the conjunct's compiled closure over the registers."""
    verdict = expressions.compile_test(condition, register_reader(dictionary, register_of, bound))

    def test(registers: Registers) -> bool:
        registers[FALLBACKS] += 1
        try:
            return verdict(registers)
        except expressions.ExpressionError:  # FILTER reads an error as false
            return False

    return test


def compile_conditions(
    conditions: Sequence[Expression],
    dictionary: TermDictionary,
    register_of: Dict[Variable, int],
    bound: Set[Variable],
) -> Optional[Test]:
    """One test for a filter slot's conjunction; ``None`` for an empty slot."""
    tests = [compile_condition(c, dictionary, register_of, bound) for c in conditions]
    if not tests:
        return None
    if len(tests) == 1:
        return tests[0]

    def test(registers: Registers) -> bool:
        for conjunct in tests:
            if not conjunct(registers):
                return False
        return True

    return test
