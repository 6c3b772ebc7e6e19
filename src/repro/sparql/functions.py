"""SPARQL built-in functions, numbers, aggregates, comparison and EBV.

These routines implement the operator mapping of SPARQL 1.1 (Section 17)
for the functions SparqLog supports (Table 1 of the paper plus the
FEASIBLE-driven additions: UCASE, DATATYPE, CONTAINS, ...).  They operate
on :class:`repro.rdf.terms.Term` values and raise :class:`ExpressionError`
where the standard prescribes a type error.

Every built-in is one entry of :data:`BUILTINS`, name -> implementation
over already-evaluated argument terms; the expression compiler
(:mod:`repro.sparql.expressions`) looks a call up there once, through
:func:`builtin`.  The names in :data:`PREDICATES` return a Python ``bool``
— the compiler uses it as a FILTER verdict without building a literal —
and the others a term.  The §18.5 set functions are one function,
:func:`aggregate`, which the native grouping
(:func:`repro.sparql.modifiers.apply_grouping`) and the Datalog engine's
aggregate rules both call.

Numbers follow one rule, §17.3's numeric type promotion, and every
numeric result goes through it: :func:`numeric` reads a literal as a
*rank* — integer (with the types derived from it) < decimal < float <
double — and a value (``int``, an exact :class:`~decimal.Decimal`, or
``float``), :func:`numeric_literal` writes a rank and a value back (an
integer or decimal in its canonical lexical form).  An operation over two
numbers takes the larger rank, and integer ÷ integer is a decimal; the
arithmetic operators (:data:`ARITHMETIC`, :func:`negative`), ``ABS`` /
``CEIL`` / ``FLOOR`` / ``ROUND`` and ``SUM`` / ``AVG`` keep that type.
``ROUND`` and ``SUBSTR`` round half-way values up (``fn:round``,
:func:`_xpath_round`).  One deviation from the spec: a literal that is
neither numeric nor boolean but whose lexical form reads as a number
(plain literals holding digits are common in benchmark data) counts as
an xsd:double if the form has a ``.`` or an exponent, else as an
xsd:integer.  Division by zero is an error at every rank (F&O gives a
double INF or NaN).
"""

from __future__ import annotations

import math
import operator
import re
from decimal import Decimal
from functools import partial
from inspect import CO_VARARGS
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union
from urllib.parse import quote

from repro.rdf.terms import (
    BlankNode,
    IRI,
    Literal,
    NUMERIC_DATATYPE_VALUES,
    Term,
    XSD,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
    term_sort_key,
)


class ExpressionError(Exception):
    """A SPARQL expression evaluation error (type error, unbound var, ...)."""


Number = Union[int, Decimal, float]

TRUE = Literal("true", XSD_BOOLEAN)
FALSE = Literal("false", XSD_BOOLEAN)


def effective_boolean_value(term: Term) -> bool:
    """Compute the SPARQL Effective Boolean Value (EBV) of a term."""
    if isinstance(term, Literal):
        datatype = term.effective_datatype
        if datatype == XSD_BOOLEAN:
            return term.lexical.strip().lower() in ("true", "1")
        if term.is_numeric():
            try:
                return float(term.lexical) != 0.0
            except ValueError:
                return False
        if datatype == XSD_STRING or term.language is not None:
            return len(term.lexical) > 0
        raise ExpressionError(f"no EBV for literal {term!r}")
    raise ExpressionError(f"no EBV for {term!r}")


# ----------------------------------------------------------------------
# numbers (§17.3)
# ----------------------------------------------------------------------
#: The ranks of numeric type promotion, lowest first.
INTEGER, DECIMAL, FLOAT, DOUBLE = range(4)

_RANKS: Dict[IRI, int] = {IRI(value): INTEGER for value in NUMERIC_DATATYPE_VALUES}
_RANKS.update({XSD_DECIMAL: DECIMAL, XSD.float: FLOAT, XSD_DOUBLE: DOUBLE})
#: Per rank: its datatype and the Python type of its values.
_DATATYPES = (XSD_INTEGER, XSD_DECIMAL, XSD.float, XSD_DOUBLE)
_TYPES = (int, Decimal, float, float)


def _decimal(lexical: str) -> Decimal:
    value = Decimal(lexical)
    if not value.is_finite():
        raise ValueError(lexical)
    return value


_PARSERS = (int, _decimal, float, float)


def numeric(term: Term) -> Tuple[int, Number]:
    """The rank and the value of a number; anything else is an error (an
    ill-formed numeric literal, a boolean, a non-literal).  A literal of
    another datatype whose lexical form reads as a number counts as one:
    the module docstring's deviation."""
    if isinstance(term, Literal):
        lexical = term.lexical
        rank = _RANKS.get(term.datatype)
        try:
            if rank is not None:
                return rank, _PARSERS[rank](lexical)
            if term.datatype != XSD_BOOLEAN:
                if "." in lexical or "e" in lexical.lower():
                    return DOUBLE, float(lexical)
                return INTEGER, int(lexical)
        except (ValueError, ArithmeticError):
            pass
    raise ExpressionError(f"not a number: {term!r}")


#: How XML Schema writes the float and double values Python writes otherwise.
_SPECIAL = {"inf": "INF", "-inf": "-INF", "nan": "NaN"}


def numeric_literal(rank: int, value: Number) -> Literal:
    """The literal of ``value`` as a number of ``rank``: an integer or a
    decimal in its canonical lexical form (a decimal with at least one
    digit either side of the point), a float or double as Python writes it
    (``INF`` / ``-INF`` / ``NaN`` as XML Schema does)."""
    value = _TYPES[rank](value)
    if rank != DECIMAL:
        lexical = str(value)
        return Literal(_SPECIAL.get(lexical, lexical), _DATATYPES[rank])
    integral, _, fraction = format(value, "f").partition(".")
    fraction = fraction.rstrip("0") or "0"
    if integral == "-0" and fraction == "0":
        integral = "0"
    return Literal(f"{integral}.{fraction}", XSD_DECIMAL)


def _operate(
    apply: Callable[[Number, Number], Number], left: Tuple[int, Number], right: Tuple[int, Number]
) -> Tuple[int, Number]:
    """``apply`` over two (rank, value) numbers at the larger rank; integer
    division is at the decimal rank."""
    rank = max(left[0], right[0])
    if rank == INTEGER and apply is operator.truediv:
        rank = DECIMAL
    kind = _TYPES[rank]
    try:
        return rank, apply(kind(left[1]), kind(right[1]))
    except ArithmeticError as error:  # division by zero, decimal overflow
        raise ExpressionError(f"arithmetic error: {error!r}") from error


def _arithmetic(apply: Callable[[Number, Number], Number], left: Term, right: Term) -> Literal:
    return numeric_literal(*_operate(apply, numeric(left), numeric(right)))


#: Arithmetic operator -> implementation over two terms.
ARITHMETIC: Dict[str, Callable[[Term, Term], Literal]] = {
    symbol: partial(_arithmetic, apply)
    for symbol, apply in (
        ("+", operator.add),
        ("-", operator.sub),
        ("*", operator.mul),
        ("/", operator.truediv),
    )
}


def negative(term: Term) -> Literal:
    """Unary minus."""
    rank, value = numeric(term)
    return numeric_literal(rank, -value)


def string_value(term: Term) -> str:
    """Return the string value (STR) of a literal or IRI."""
    if isinstance(term, Literal):
        return term.lexical
    if isinstance(term, IRI):
        return term.value
    raise ExpressionError(f"no string value for {term!r}")


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------
def terms_equal(left: Term, right: Term) -> bool:
    """SPARQL ``=`` (RDFterm-equal, with numeric and string value equality)."""
    if isinstance(left, Literal) and isinstance(right, Literal):
        if left == right:
            return True
        if left.is_numeric() and right.is_numeric():
            try:
                return float(left.lexical) == float(right.lexical)
            except ValueError:
                return False
        # Simple literals and xsd:string literals compare by lexical form.
        left_simple = left.language is None and left.effective_datatype == XSD_STRING
        right_simple = right.language is None and right.effective_datatype == XSD_STRING
        if left_simple and right_simple:
            return left.lexical == right.lexical
        return False
    return left == right


def _ordered(compare: Callable[[object, object], bool], left: Term, right: Term) -> bool:
    """``compare`` (``operator.lt`` ...) on the order values of two terms."""
    if isinstance(left, Literal) and isinstance(right, Literal):
        if left.is_numeric() and right.is_numeric():
            try:
                left_value, right_value = float(left.lexical), float(right.lexical)
            except ValueError as error:
                raise ExpressionError("malformed numeric literal") from error
            return compare(left_value, right_value)
        return compare(left.lexical, right.lexical)
    if isinstance(left, IRI) and isinstance(right, IRI):
        return compare(left.value, right.value)
    raise ExpressionError(f"terms not order-comparable: {left!r} vs {right!r}")


#: Comparison operator -> test over two terms.  Equality covers IRIs,
#: blank nodes and literals; ordering requires both operands numeric
#: literals, both other literals (by lexical form: dateTime strings order
#: correctly this way) or both IRIs, and is an error otherwise.
COMPARISONS: Dict[str, Callable[[Term, Term], bool]] = {
    "=": terms_equal,
    "!=": lambda left, right: not terms_equal(left, right),
    "<": partial(_ordered, operator.lt),
    "<=": partial(_ordered, operator.le),
    ">": partial(_ordered, operator.gt),
    ">=": partial(_ordered, operator.ge),
}


def term_compare(operator: str, left: Term, right: Term) -> bool:
    """Evaluate a SPARQL comparison operator over two RDF terms."""
    compare = COMPARISONS.get(operator)
    if compare is None:
        raise ExpressionError(f"unknown comparison operator {operator!r}")
    return compare(left, right)


# ----------------------------------------------------------------------
# built-ins
# ----------------------------------------------------------------------
def regex_pattern(pattern: Term, flags: Optional[Term] = None) -> "re.Pattern":
    """The compiled regular expression of a REGEX / REPLACE pattern and flags."""
    source = string_value(pattern)
    flag_string = string_value(flags) if flags is not None else ""
    compiled = 0
    for letter, flag in (("i", re.IGNORECASE), ("s", re.DOTALL), ("m", re.MULTILINE), ("x", re.VERBOSE)):
        if letter in flag_string:
            compiled |= flag
    try:
        return re.compile(source, compiled)
    except re.error as error:
        raise ExpressionError(f"malformed regex {source!r}") from error


def _string_result(source: Term, new_value: str) -> Literal:
    """A string of the same kind as ``source``: its language tag / datatype kept."""
    if isinstance(source, Literal):
        return Literal(new_value, source.datatype, source.language)
    return Literal(new_value)


def _xpath_round(value: Number) -> Number:
    """``fn:round``: half-way values go up; infinities and NaN stay."""
    if isinstance(value, int) or not math.isfinite(value):
        return value
    return math.floor(value + type(value)("0.5"))


def _lang_matches(tag: Term, pattern: Term) -> bool:
    tag_value = string_value(tag).lower()
    range_value = string_value(pattern).lower()
    if range_value == "*":
        return bool(tag_value)
    return tag_value == range_value or tag_value.startswith(range_value + "-")


def _regex(text: Term, pattern: Term, flags: Optional[Term] = None) -> bool:
    value = string_value(text)
    return regex_pattern(pattern, flags).search(value) is not None


def _lang(term: Term) -> Literal:
    if not isinstance(term, Literal):
        raise ExpressionError("LANG expects a literal")
    return Literal(term.language or "")


def _datatype(term: Term) -> IRI:
    if not isinstance(term, Literal):
        raise ExpressionError("DATATYPE expects a literal")
    return term.effective_datatype


def _strbefore(haystack: Term, needle: Term) -> Literal:
    text = string_value(haystack)
    index = text.find(string_value(needle))
    return _string_result(haystack, text[:index]) if index >= 0 else Literal("")


def _strafter(haystack: Term, needle: Term) -> Literal:
    text, found = string_value(haystack), string_value(needle)
    index = text.find(found)
    return _string_result(haystack, text[index + len(found):]) if index >= 0 else Literal("")


def _substr(text: Term, start: Term, length: Optional[Term] = None) -> Literal:
    """``fn:substring``: the characters at 1-based positions ``p`` with
    ``round(start) <= p < round(start) + round(length)``."""
    value = string_value(text)
    first = _xpath_round(numeric(start)[1])
    last = math.inf if length is None else first + _xpath_round(numeric(length)[1])
    begin = max(first, 1)
    if first != first or not last > begin:  # NaN, or no position in range
        return _string_result(text, "")
    return _string_result(text, value[int(begin) - 1 : None if last == math.inf else int(last) - 1])


def _replace(text: Term, pattern: Term, replacement: Term) -> Literal:
    value = string_value(text)
    compiled = regex_pattern(pattern)
    try:
        return Literal(compiled.sub(string_value(replacement), value))
    except re.error as error:
        raise ExpressionError(f"malformed replacement {replacement!r}") from error


def _integral(to_integer: Callable[[Number], Number], term: Term) -> Literal:
    """CEIL / FLOOR / ROUND: an integral value of the argument's type."""
    rank, value = numeric(term)
    if math.isfinite(value):  # NaN and the infinities round to themselves
        value = to_integer(value)
    return numeric_literal(rank, value)


def _abs(term: Term) -> Literal:
    rank, value = numeric(term)
    return numeric_literal(rank, abs(value))


#: Built-in name (upper case) -> implementation over argument terms.
BUILTINS: Dict[str, Callable] = {
    # term tests and predicates: a Python bool (PREDICATES)
    "ISIRI": lambda term: isinstance(term, IRI),
    "ISURI": lambda term: isinstance(term, IRI),
    "ISBLANK": lambda term: isinstance(term, BlankNode),
    "ISLITERAL": lambda term: isinstance(term, Literal),
    "ISNUMERIC": lambda term: isinstance(term, Literal) and term.is_numeric(),
    "SAMETERM": lambda left, right: left == right,
    "LANGMATCHES": _lang_matches,
    "REGEX": _regex,
    "CONTAINS": lambda haystack, needle: string_value(needle) in string_value(haystack),
    "STRSTARTS": lambda haystack, needle: string_value(haystack).startswith(string_value(needle)),
    "STRENDS": lambda haystack, needle: string_value(haystack).endswith(string_value(needle)),
    # accessors
    "STR": lambda term: Literal(string_value(term)),
    "LANG": _lang,
    "DATATYPE": _datatype,
    "IRI": lambda term: IRI(string_value(term)),
    "URI": lambda term: IRI(string_value(term)),
    # strings
    "UCASE": lambda term: _string_result(term, string_value(term).upper()),
    "LCASE": lambda term: _string_result(term, string_value(term).lower()),
    "STRLEN": lambda term: Literal.from_python(len(string_value(term))),
    "STRBEFORE": _strbefore,
    "STRAFTER": _strafter,
    "SUBSTR": _substr,
    "CONCAT": lambda *arguments: Literal("".join(string_value(argument) for argument in arguments)),
    "REPLACE": _replace,
    # the UTF-8 bytes of everything but the unreserved characters, percent-encoded
    "ENCODE_FOR_URI": lambda term: Literal(quote(string_value(term), safe="")),
    # numerics
    "ABS": _abs,
    "CEIL": lambda term: _integral(math.ceil, term),
    "FLOOR": lambda term: _integral(math.floor, term),
    "ROUND": lambda term: _integral(_xpath_round, term),
}

#: The built-ins whose implementation returns a Python ``bool``.
PREDICATES = frozenset(
    ("ISIRI", "ISURI", "ISBLANK", "ISLITERAL", "ISNUMERIC", "SAMETERM", "LANGMATCHES", "REGEX",
     "CONTAINS", "STRSTARTS", "STRENDS")
)


def aggregate(operation: str, values: Sequence[Term], distinct: bool = False) -> Optional[Term]:
    """A §18.5 set function over the values of one group's argument, the
    ones whose evaluation erred already left out (``COUNT(*)``: one value
    per solution).  ``None`` — the target stays unbound — where the set
    function errs, as ``SUM`` / ``AVG`` over a non-number do, and for
    every function but ``COUNT`` over no value at all."""
    operation = operation.upper()
    if distinct:
        values = list(dict.fromkeys(values))
    if operation == "COUNT":
        return numeric_literal(INTEGER, len(values))
    if operation not in ("SUM", "AVG", "MIN", "MAX", "SAMPLE"):
        raise ValueError(f"unsupported aggregate {operation!r}")
    if not values:
        return None
    if operation == "SAMPLE":
        return values[0]
    if operation in ("MIN", "MAX"):
        ordered = sorted(values, key=term_sort_key)
        return ordered[0] if operation == "MIN" else ordered[-1]
    total: Tuple[int, Number] = (INTEGER, 0)
    try:
        for value in values:
            total = _operate(operator.add, total, numeric(value))
        if operation == "AVG":
            total = _operate(operator.truediv, total, (INTEGER, len(values)))
    except ExpressionError:
        return None
    return numeric_literal(*total)


def builtin(name: str, count: int) -> Callable:
    """The implementation of built-in ``name`` (upper case) called with
    ``count`` arguments; an unknown name or a wrong count is an error."""
    implementation = BUILTINS.get(name)
    if implementation is None:
        raise ExpressionError(f"unsupported function {name}")
    code = implementation.__code__
    most = code.co_argcount
    least = most - len(implementation.__defaults__ or ())
    if count < least or (count > most and not code.co_flags & CO_VARARGS):
        raise ExpressionError(f"{name} takes {least}..{most} arguments, got {count}")
    return implementation


def apply_function(name: str, arguments: List[Term]) -> Term:
    """Apply a SPARQL built-in to already-evaluated arguments."""
    name = name.upper()
    result = builtin(name, len(arguments))(*arguments)
    if name in PREDICATES:
        return TRUE if result else FALSE
    return result
