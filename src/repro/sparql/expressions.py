"""SPARQL filter / projection expressions: the AST and its compiler.

Expressions appear in FILTER constraints, BIND assignments, ORDER BY keys,
aggregate arguments, GROUP BY keys and HAVING clauses.  Evaluation follows
the SPARQL 1.1 error semantics: an expression over a solution either
yields an RDF term or raises :class:`ExpressionError`; FILTER treats an
error as "not satisfied", while most functions propagate errors.

This module is the one implementation of those semantics, as a compiler.
An operator compiles its expression once, when it runs (a pipeline's
FILTER conjunct when the pipeline is compiled, so it is cached with the
plan), and calls the closure per row:

* :func:`compile_expression` ``(expression, reader) -> (row -> Term)``,
  which raises :class:`ExpressionError` as the semantics prescribes;
* :func:`compile_condition` ``(expression, reader) -> (row -> bool)``,
  FILTER semantics: an error counts as false (:func:`compile_test` is the
  same verdict raising the error, for a caller that catches it itself).

A *reader* maps a variable to its accessor on the rows the closure will
see; the accessor gives the variable's term, and anything that is not a
:class:`~repro.rdf.terms.Term` (``None``, or a non-RDF value of a rule's
register file) where it is unbound: :func:`positional` for term tuples
under a header, :func:`binding_reader` for a
:class:`~repro.sparql.solutions.Binding`, and the register readers of
:mod:`repro.sparql.kernels` (a decoded id) and :mod:`repro.datalog.steps`
(a rule's register file).

The node type and the function name are dispatched at compile time;
boolean nodes (comparisons, ``&&`` / ``||`` / ``!``, ``IN``, ``BOUND`` and
the built-in predicates of :data:`repro.sparql.functions.PREDICATES`)
give a Python ``bool`` where a verdict is wanted, and a constant REGEX
pattern or string needle is prepared once.  Compiling never raises: a
malformed constant regex, an unknown function, a wrong argument count or
``BOUND`` over a non-variable compile to a closure that raises
:class:`ExpressionError` when it runs.  :func:`evaluate` and
:func:`satisfies` compile and call once over a ``Binding``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.rdf.terms import Term, Variable
from repro.sparql.functions import (
    ARITHMETIC,
    COMPARISONS,
    FALSE,
    PREDICATES,
    TRUE,
    ExpressionError,
    builtin,
    effective_boolean_value,
    negative,
    regex_pattern,
    string_value,
    terms_equal,
)


class Expression:
    """Base class of all expression nodes."""

    __slots__ = ()

    def variables(self) -> set:
        """Return the set of variables mentioned by the expression."""
        return set()


@dataclass(frozen=True)
class VariableExpr(Expression):
    """A reference to a query variable."""

    variable: Variable

    def variables(self) -> set:
        return {self.variable}

    def __repr__(self) -> str:
        return repr(self.variable)


@dataclass(frozen=True)
class TermExpr(Expression):
    """A constant RDF term (IRI or literal)."""

    term: Term

    def __repr__(self) -> str:
        return repr(self.term)


@dataclass(frozen=True)
class And(Expression):
    """Logical conjunction with SPARQL three-valued error handling."""

    left: Expression
    right: Expression

    def variables(self) -> set:
        return self.left.variables() | self.right.variables()


@dataclass(frozen=True)
class Or(Expression):
    """Logical disjunction with SPARQL three-valued error handling."""

    left: Expression
    right: Expression

    def variables(self) -> set:
        return self.left.variables() | self.right.variables()


@dataclass(frozen=True)
class Not(Expression):
    """Logical negation."""

    operand: Expression

    def variables(self) -> set:
        return self.operand.variables()


@dataclass(frozen=True)
class Comparison(Expression):
    """A binary comparison: ``=``, ``!=``, ``<``, ``<=``, ``>``, ``>=``."""

    operator: str
    left: Expression
    right: Expression

    def variables(self) -> set:
        return self.left.variables() | self.right.variables()


@dataclass(frozen=True)
class Arithmetic(Expression):
    """A binary arithmetic operation: ``+``, ``-``, ``*``, ``/``."""

    operator: str
    left: Expression
    right: Expression

    def variables(self) -> set:
        return self.left.variables() | self.right.variables()


@dataclass(frozen=True)
class UnaryMinus(Expression):
    """Numeric negation (``-expr``)."""

    operand: Expression

    def variables(self) -> set:
        return self.operand.variables()


@dataclass(frozen=True)
class FunctionCall(Expression):
    """A call to a SPARQL built-in function, e.g. ``REGEX``, ``STR``.

    The function name is stored upper-cased.
    """

    name: str
    arguments: Tuple[Expression, ...]

    def variables(self) -> set:
        result = set()
        for argument in self.arguments:
            result |= argument.variables()
        return result

    def __repr__(self) -> str:
        return f"{self.name}({', '.join(map(repr, self.arguments))})"


@dataclass(frozen=True)
class InExpr(Expression):
    """``expr IN (a, b, ...)`` or ``expr NOT IN (...)``."""

    operand: Expression
    options: Tuple[Expression, ...]
    negated: bool = False

    def variables(self) -> set:
        result = self.operand.variables()
        for option in self.options:
            result |= option.variables()
        return result


@dataclass(frozen=True)
class Aggregate(Expression):
    """An aggregate expression inside a SELECT with GROUP BY.

    ``operation`` is one of COUNT, SUM, MIN, MAX, AVG, SAMPLE and
    ``argument`` is ``None`` only for ``COUNT(*)``.
    """

    operation: str
    argument: Optional[Expression]
    distinct: bool = False

    def variables(self) -> set:
        return self.argument.variables() if self.argument is not None else set()


#: A row as a compiled expression sees it: a term tuple, a register file, a Binding.
Row = Any
#: Variable -> its accessor on a row (not a ``Term``: unbound).
Reader = Callable[[Variable], Callable[[Row], Optional[Term]]]
Value = Callable[[Row], Term]
Test = Callable[[Row], bool]


def unbound(_row: Row) -> None:
    """The accessor of a variable the rows never bind."""
    return None


def positional(header: Sequence[Variable]) -> Reader:
    """The reader of term tuples aligned with ``header`` (matched by name)."""
    slot = {variable.name: position for position, variable in enumerate(header)}

    def reader(variable: Variable) -> Callable[[Row], Optional[Term]]:
        position = slot.get(variable.name)
        return unbound if position is None else operator.itemgetter(position)

    return reader


def binding_reader(variable: Variable) -> Callable[[Row], Optional[Term]]:
    """The reader of :class:`~repro.sparql.solutions.Binding` rows."""
    return lambda binding: binding.get(variable)


def compile_expression(expression: Expression, reader: Reader) -> Value:
    """``expression`` as a function of a row: its term, or :class:`ExpressionError`."""
    return _value(expression, reader)


def compile_test(expression: Expression, reader: Reader) -> Test:
    """``expression``'s effective boolean value on a row, or
    :class:`ExpressionError`: :func:`compile_condition` without the error
    handling, for a caller that catches the error itself (one call less per
    row)."""
    return _test(expression, reader)


def compile_condition(expression: Expression, reader: Reader) -> Test:
    """``expression`` as a FILTER verdict on a row: an error is false."""
    test = _test(expression, reader)

    def condition(row: Row) -> bool:
        try:
            return test(row)
        except ExpressionError:
            return False

    return condition


def evaluate(expression: Expression, binding) -> Term:
    """Evaluate ``expression`` once under a ``Binding`` (compile, then call)."""
    return compile_expression(expression, binding_reader)(binding)


def satisfies(expression: Expression, binding) -> bool:
    """FILTER semantics once under a ``Binding``: errors count as "not satisfied"."""
    return compile_condition(expression, binding_reader)(binding)


# ----------------------------------------------------------------------
# the compiler: one function per node kind, dispatched on its type
# ----------------------------------------------------------------------
def _is_test(expression: Expression) -> bool:
    """Whether the node's value is a truth value (compiled by ``_TESTS``)."""
    if type(expression) is FunctionCall:
        name = expression.name.upper()
        return name == "BOUND" or name in PREDICATES
    return type(expression) in _TESTS


def _value(expression: Expression, reader: Reader) -> Value:
    if _is_test(expression):
        test = _test(expression, reader)
        return lambda row: TRUE if test(row) else FALSE
    compile_node = _VALUES.get(type(expression))
    if compile_node is None:
        return _fails(f"unknown expression node: {expression!r}")
    return compile_node(expression, reader)


def _test(expression: Expression, reader: Reader) -> Test:
    """The node's effective boolean value; raises as its value would."""
    if _is_test(expression):
        return _TESTS[type(expression)](expression, reader)
    if type(expression) is TermExpr:
        try:
            verdict = effective_boolean_value(expression.term)
        except ExpressionError as error:
            return _fails(str(error))
        return lambda _row: verdict
    value = _value(expression, reader)
    return lambda row: effective_boolean_value(value(row))


def _fails(message: str) -> Callable[[Row], Any]:
    """What an expression that can only err compiles to."""

    def fail(_row: Row) -> Any:
        raise ExpressionError(message)

    return fail


def _variable(expression: VariableExpr, reader: Reader) -> Value:
    read = reader(expression.variable)
    message = f"unbound variable {expression.variable}"

    def value(row: Row) -> Term:
        term = read(row)
        if isinstance(term, Term):
            return term
        raise ExpressionError(message)

    return value


def _constant(expression: TermExpr, _reader: Reader) -> Value:
    term = expression.term
    return lambda _row: term


def _arithmetic(expression: Arithmetic, reader: Reader) -> Value:
    apply = ARITHMETIC.get(expression.operator)
    if apply is None:
        return _fails(f"unknown arithmetic operator {expression.operator!r}")
    left, right = _value(expression.left, reader), _value(expression.right, reader)
    return lambda row: apply(left(row), right(row))


def _negation(expression: UnaryMinus, reader: Reader) -> Value:
    operand = _value(expression.operand, reader)
    return lambda row: negative(operand(row))


def _aggregate(_expression: Aggregate, _reader: Reader) -> Value:
    return _fails("aggregate evaluated outside GROUP BY context")


def _applied(implementation: Callable, arguments: List[Value]) -> Callable[[Row], Any]:
    """``implementation`` over the arguments' values."""
    if len(arguments) == 1:
        (only,) = arguments
        return lambda row: implementation(only(row))
    if len(arguments) == 2:
        first, second = arguments
        return lambda row: implementation(first(row), second(row))
    return lambda row: implementation(*[argument(row) for argument in arguments])


def _call(expression: FunctionCall, reader: Reader) -> Value:
    """A built-in that returns a term; COALESCE and IF evaluate only what they take."""
    name = expression.name.upper()
    if name == "IF":
        if len(expression.arguments) != 3:
            return _fails(f"IF takes 3 arguments, got {len(expression.arguments)}")
        condition = _test(expression.arguments[0], reader)
        chosen, otherwise = (_value(argument, reader) for argument in expression.arguments[1:])
        return lambda row: chosen(row) if condition(row) else otherwise(row)
    arguments = [_value(argument, reader) for argument in expression.arguments]
    if name == "COALESCE":

        def coalesce(row: Row) -> Term:
            for argument in arguments:
                try:
                    return argument(row)
                except ExpressionError:
                    pass
            raise ExpressionError("COALESCE: all arguments errored")

        return coalesce
    try:
        implementation = builtin(name, len(arguments))
    except ExpressionError as error:
        return _fails(str(error))
    return _applied(implementation, arguments)


#: Predicates over a haystack and a constant needle: ``test(haystack, needle)``.
_NEEDLES = {"CONTAINS": str.__contains__, "STRSTARTS": str.startswith, "STRENDS": str.endswith}


def _predicate(expression: FunctionCall, reader: Reader) -> Test:
    name = expression.name.upper()
    arguments = expression.arguments
    if name == "BOUND":
        if len(arguments) != 1 or type(arguments[0]) is not VariableExpr:
            return _fails("BOUND expects a variable")
        read = reader(arguments[0].variable)
        return lambda row: isinstance(read(row), Term)
    try:
        implementation = builtin(name, len(arguments))
        if name == "REGEX" and all(type(argument) is TermExpr for argument in arguments[1:]):
            search = regex_pattern(*(argument.term for argument in arguments[1:])).search
            text = _value(arguments[0], reader)
            return lambda row: search(string_value(text(row))) is not None
        if name in _NEEDLES and type(arguments[1]) is TermExpr:
            test, needle = _NEEDLES[name], string_value(arguments[1].term)
            haystack = _value(arguments[0], reader)
            return lambda row: test(string_value(haystack(row)), needle)
    except ExpressionError as error:
        return _fails(str(error))
    return _applied(implementation, [_value(argument, reader) for argument in arguments])


def _comparison(expression: Comparison, reader: Reader) -> Test:
    compare = COMPARISONS.get(expression.operator)
    if compare is None:
        return _fails(f"unknown comparison operator {expression.operator!r}")
    left, right = expression.left, expression.right
    message = f"unbound variable in {expression.operator!r} comparison"
    # Variables and constants, the common operands, are read in place.
    if type(left) is VariableExpr and type(right) is VariableExpr:
        first, second = reader(left.variable), reader(right.variable)

        def both(row: Row) -> bool:
            left_term, right_term = first(row), second(row)
            if isinstance(left_term, Term) and isinstance(right_term, Term):
                return compare(left_term, right_term)
            raise ExpressionError(message)

        return both
    if type(left) is VariableExpr and type(right) is TermExpr:
        read, constant = reader(left.variable), right.term

        def against(row: Row) -> bool:
            term = read(row)
            if isinstance(term, Term):
                return compare(term, constant)
            raise ExpressionError(message)

        return against
    if type(right) is TermExpr:
        constant, value = right.term, _value(left, reader)
        return lambda row: compare(value(row), constant)
    if type(left) is TermExpr:
        constant, value = left.term, _value(right, reader)
        return lambda row: compare(constant, value(row))
    left_value, right_value = _value(left, reader), _value(right, reader)
    return lambda row: compare(left_value(row), right_value(row))


def _and(expression: And, reader: Reader) -> Test:
    # SPARQL's three-valued logic: an error on one side still gives false
    # when the other side is false.
    left, right = _test(expression.left, reader), _test(expression.right, reader)

    def test(row: Row) -> bool:
        try:
            verdict = left(row)
        except ExpressionError as error:
            try:
                if not right(row):
                    return False
            except ExpressionError:
                pass
            raise error
        return verdict and right(row)

    return test


def _or(expression: Or, reader: Reader) -> Test:
    left, right = _test(expression.left, reader), _test(expression.right, reader)

    def test(row: Row) -> bool:
        try:
            verdict = left(row)
        except ExpressionError as error:
            try:
                if right(row):
                    return True
            except ExpressionError:
                pass
            raise error
        return verdict or right(row)

    return test


def _not(expression: Not, reader: Reader) -> Test:
    operand = _test(expression.operand, reader)
    return lambda row: not operand(row)


def _in(expression: InExpr, reader: Reader) -> Test:
    operand = _value(expression.operand, reader)
    options = [_value(option, reader) for option in expression.options]
    negated = expression.negated

    def test(row: Row) -> bool:
        term = operand(row)
        error = None
        for option in options:
            try:
                if terms_equal(term, option(row)):
                    return not negated
            except ExpressionError as raised:
                error = raised
        if error is not None:
            raise error
        return negated

    return test


_TESTS = {
    And: _and,
    Or: _or,
    Not: _not,
    Comparison: _comparison,
    InExpr: _in,
    FunctionCall: _predicate,
}
_VALUES = {
    VariableExpr: _variable,
    TermExpr: _constant,
    Arithmetic: _arithmetic,
    UnaryMinus: _negation,
    FunctionCall: _call,
    Aggregate: _aggregate,
}

def conjuncts(expression: Expression) -> List[Expression]:
    """Split an expression into its top-level conjuncts.

    Under FILTER's error-as-false semantics ``FILTER(A && B)`` keeps
    exactly the rows kept by ``FILTER(A) FILTER(B)``: ``&&`` only yields
    true when both sides are error-free and true, and every other
    combination (false, or an error on either side) rejects the row either
    way.  That equivalence is what lets the evaluator push each conjunct
    independently to the earliest join step binding its variables.
    """
    if isinstance(expression, And):
        return conjuncts(expression.left) + conjuncts(expression.right)
    return [expression]
