"""SPARQL built-in functions, comparison and effective boolean value.

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
and the others a term.
"""

from __future__ import annotations

import math
import operator
import re
from functools import partial
from inspect import CO_VARARGS
from typing import Callable, Dict, List, Optional, Union
from urllib.parse import quote

from repro.rdf.terms import (
    BlankNode,
    IRI,
    Literal,
    Term,
    XSD_BOOLEAN,
    XSD_STRING,
)


class ExpressionError(Exception):
    """A SPARQL expression evaluation error (type error, unbound var, ...)."""


Number = Union[int, float]

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


def numeric_value(term: Term) -> Number:
    """Return the numeric value of a literal or raise an error."""
    if isinstance(term, Literal):
        value = term.as_python()
        if isinstance(value, bool):
            raise ExpressionError(f"not a number: {term!r}")
        if isinstance(value, (int, float)):
            return value
        # Plain literals holding digits are accepted (common in benchmark data).
        try:
            if "." in term.lexical or "e" in term.lexical.lower():
                return float(term.lexical)
            return int(term.lexical)
        except ValueError as error:
            raise ExpressionError(f"not a number: {term!r}") from error
    raise ExpressionError(f"not a number: {term!r}")


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
    return math.floor(value + 0.5)


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
    first = _xpath_round(numeric_value(start))
    last = math.inf if length is None else first + _xpath_round(numeric_value(length))
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


def _integral(to_integer: Callable[[Number], int], term: Term) -> Literal:
    value = numeric_value(term)
    if isinstance(value, float) and not math.isfinite(value):
        return Literal.from_python(value)  # NaN and the infinities round to themselves
    return Literal.from_python(int(to_integer(value)))


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
    "ABS": lambda term: Literal.from_python(abs(numeric_value(term))),
    "CEIL": lambda term: _integral(math.ceil, term),
    "FLOOR": lambda term: _integral(math.floor, term),
    "ROUND": lambda term: _integral(round, term),
}

#: The built-ins whose implementation returns a Python ``bool``.
PREDICATES = frozenset(
    ("ISIRI", "ISURI", "ISBLANK", "ISLITERAL", "ISNUMERIC", "SAMETERM", "LANGMATCHES", "REGEX",
     "CONTAINS", "STRSTARTS", "STRENDS")
)


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
