"""Arithmetic expression language for Lagrangians and constraints.

Expressions are immutable trees over named variables.  The grammar
(documented in the README) has the usual precedence

    ^   >   unary -   >   * /   >   + -

with parentheses and the function calls sin, cos, tan, exp, log, sqrt.
Exponents must be numeric literals; integer exponents are evaluated by
repeated multiplication so they stay exact for dual numbers and negative
bases, while real exponents require a positive base.

``evaluate`` is generic over the scalar kind: any object implementing the
arithmetic operators (and ``sin``/``cos``/... methods for the function
nodes) can flow through the same tree, which is how plain floats and
hyper-dual numbers share one evaluator.

The grammar has no negative literals: ``-2`` parses as a negation node
around ``2``, so trees produced by ``parse`` serialize and reparse to
structurally identical trees.  (A hand-built ``Const(-2.0)`` is
non-canonical and comes back as the equivalent negation node.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import EvalError, ExprSyntaxError

__all__ = [
    "Expression",
    "Const",
    "Var",
    "Unary",
    "Binary",
    "Power",
    "FUNCTIONS",
    "parse",
    "evaluate",
    "free_vars",
    "serialize",
]

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt")

# Beyond this magnitude, integral float exponents are not evaluated by
# repeated multiplication; the base must then be positive.
MAX_INT_EXPONENT = 64


class Expression:
    """Base class for expression nodes.  Instances are immutable."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Expression):
    value: float


@dataclass(frozen=True)
class Var(Expression):
    name: str


@dataclass(frozen=True)
class Unary(Expression):
    op: str  # "neg" or a function name
    arg: Expression


@dataclass(frozen=True)
class Binary(Expression):
    op: str  # one of + - * /
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Power(Expression):
    base: Expression
    exponent: float

    @property
    def integer(self) -> bool:
        return self.exponent.is_integer() and abs(self.exponent) <= MAX_INT_EXPONENT


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_OPERATORS = "+-*/^()"


class _Token:
    __slots__ = ("kind", "text", "offset")

    def __init__(self, kind, text, offset):
        self.kind = kind  # "num" | "ident" | a literal operator | "end"
        self.text = text
        self.offset = offset


def _line_col(source: str, offset: int) -> tuple[int, int]:
    line = source.count("\n", 0, offset) + 1
    last_nl = source.rfind("\n", 0, offset)
    return line, offset - last_nl


def _syntax_error(source, offset, message):
    line, col = _line_col(source, offset)
    return ExprSyntaxError(message, offset, line, col)


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPERATORS:
            tokens.append(_Token(c, c, i))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            if j < n and source[j] == ".":
                j += 1
                while j < n and source[j].isdigit():
                    j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            try:
                float(text)
            except ValueError:
                raise _syntax_error(source, i, f"malformed number {text!r}") from None
            tokens.append(_Token("num", text, i))
            i = j
            continue
        if c.isalpha():
            j = i + 1
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token("ident", source[i:j], i))
            i = j
            continue
        raise _syntax_error(source, i, f"unexpected character {c!r}")
    tokens.append(_Token("end", "", n))
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent)
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise _syntax_error(
                self.source, tok.offset,
                f"expected {kind!r}, found {tok.text or 'end of input'!r}")
        return self.advance()

    def parse(self) -> Expression:
        e = self.sum()
        tok = self.peek()
        if tok.kind != "end":
            raise _syntax_error(self.source, tok.offset,
                                f"unexpected trailing input {tok.text!r}")
        return e

    def sum(self) -> Expression:
        e = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            e = Binary(op, e, self.term())
        return e

    def term(self) -> Expression:
        e = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            e = Binary(op, e, self.unary())
        return e

    def unary(self) -> Expression:
        if self.peek().kind == "-":
            self.advance()
            return Unary("neg", self.unary())
        return self.power()

    def power(self) -> Expression:
        e = self.atom()
        while self.peek().kind == "^":
            self.advance()
            e = Power(e, self.exponent())
        return e

    def exponent(self) -> float:
        # A (possibly parenthesized, possibly signed) numeric literal.
        parens = False
        if self.peek().kind == "(":
            self.advance()
            parens = True
        sign = 1.0
        if self.peek().kind == "-":
            self.advance()
            sign = -1.0
        tok = self.peek()
        if tok.kind != "num":
            raise _syntax_error(self.source, tok.offset,
                                "exponent must be a numeric literal")
        self.advance()
        if parens:
            self.expect(")")
        return sign * float(tok.text)

    def atom(self) -> Expression:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Const(float(tok.text))
        if tok.kind == "ident":
            self.advance()
            if self.peek().kind == "(":
                if tok.text not in FUNCTIONS:
                    raise _syntax_error(self.source, tok.offset,
                                        f"unknown function {tok.text!r}")
                self.advance()
                arg = self.sum()
                self.expect(")")
                return Unary(tok.text, arg)
            return Var(tok.text)
        if tok.kind == "(":
            self.advance()
            e = self.sum()
            self.expect(")")
            return e
        raise _syntax_error(self.source, tok.offset,
                            f"expected a value, found {tok.text or 'end of input'!r}")


def parse(source: str) -> Expression:
    """Parse expression source text into an immutable AST."""
    return _Parser(source).parse()


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _eval_error(node, message):
    return EvalError(f"{message} in {serialize(node)!r}")


def _unbound(name):
    return EvalError(f"unbound variable {name!r}")


def _divide(a, b, node):
    try:
        return a / b
    except ZeroDivisionError:
        raise _eval_error(node, "division by zero") from None


def _call_function(name, x, node):
    if isinstance(x, (int, float)):
        if name == "sqrt" and x < 0:
            raise _eval_error(node, f"sqrt of negative value {x!r}")
        if name == "log" and x <= 0:
            raise _eval_error(node, f"log of non-positive value {x!r}")
        function = getattr(math, name)
    else:
        function = getattr(type(x), name)
    try:   # also math's range and domain errors: exp(1000.0), sin(inf)
        return function(x)
    except (ArithmeticError, ValueError) as exc:
        raise _eval_error(node, str(exc)) from None


def power_value(x, exponent, integer, node=None):
    """x ** exponent with the documented semantics: integer exponents by
    left-to-right repeated multiplication, real exponents via ``powreal``
    (requires a positive base)."""
    if integer:
        n = int(exponent)
        if n == 0:
            return 1.0
        result = x
        for _ in range(abs(n) - 1):
            result = result * x
        if n < 0:
            try:
                return 1.0 / result
            except ZeroDivisionError:
                raise _eval_error(node, "zero base with negative exponent") from None
        return result
    try:
        if isinstance(x, (int, float)):
            if x <= 0:
                raise _eval_error(node, f"non-integer power of non-positive base {x!r}")
            return math.pow(x, exponent)
        return x.powreal(exponent)
    except (ArithmeticError, ValueError) as exc:
        raise _eval_error(node, str(exc)) from None


def evaluate(e: Expression, env: dict):
    """Evaluate ``e`` with variables bound by ``env``.

    ``env`` values may be any scalar kind supporting the arithmetic used in
    the tree (floats, hyper-duals).  ``env`` is never mutated.
    """
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise _unbound(e.name) from None
    if isinstance(e, Unary):
        x = evaluate(e.arg, env)
        if e.op == "neg":
            return -x
        return _call_function(e.op, x, e)
    if isinstance(e, Binary):
        a = evaluate(e.left, env)
        b = evaluate(e.right, env)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        return _divide(a, b, e)
    if isinstance(e, Power):
        x = evaluate(e.base, env)
        return power_value(x, e.exponent, e.integer, e)
    raise TypeError(f"not an expression node: {e!r}")


def free_vars(e: Expression) -> set[str]:
    """The set of variable names occurring in ``e``."""
    if isinstance(e, Const):
        return set()
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Unary):
        return free_vars(e.arg)
    if isinstance(e, Binary):
        return free_vars(e.left) | free_vars(e.right)
    if isinstance(e, Power):
        return free_vars(e.base)
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

# Precedence levels used to emit minimal parentheses.
_LEVEL_SUM, _LEVEL_TERM, _LEVEL_UNARY, _LEVEL_POWER, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(e: Expression) -> int:
    if isinstance(e, (Const, Var)):
        return _LEVEL_ATOM
    if isinstance(e, Unary):
        return _LEVEL_UNARY if e.op == "neg" else _LEVEL_ATOM
    if isinstance(e, Power):
        return _LEVEL_POWER
    return _LEVEL_TERM if e.op in ("*", "/") else _LEVEL_SUM


def _fmt_number(v: float) -> str:
    return repr(float(v))


def _emit(e: Expression, min_level: int) -> str:
    lvl = _level(e)
    if isinstance(e, Const):
        if e.value < 0:
            # A negative literal prints as a negation, one level down.
            text = "-" + _fmt_number(-e.value)
            lvl = _LEVEL_UNARY
        else:
            text = _fmt_number(e.value)
    elif isinstance(e, Var):
        text = e.name
    elif isinstance(e, Unary):
        if e.op == "neg":
            text = "-" + _emit(e.arg, _LEVEL_UNARY)
        else:
            text = f"{e.op}({_emit(e.arg, _LEVEL_SUM)})"
    elif isinstance(e, Power):
        if e.exponent < 0:
            exp_text = f"(-{_fmt_exponent(-e.exponent)})"
        else:
            exp_text = _fmt_exponent(e.exponent)
        text = f"{_emit(e.base, _LEVEL_ATOM)}^{exp_text}"
    elif isinstance(e, Binary):
        # Binary operators are left-associative, so the right operand of a
        # same-level chain keeps its parentheses.
        left = _emit(e.left, lvl)
        right = _emit(e.right, lvl + 1)
        text = f"{left} {e.op} {right}"
    else:
        raise TypeError(f"not an expression node: {e!r}")
    if lvl < min_level:
        return f"({text})"
    return text


def _fmt_exponent(v: float) -> str:
    if v.is_integer() and abs(v) <= MAX_INT_EXPONENT:
        return str(int(v))
    return _fmt_number(v)


def serialize(e: Expression) -> str:
    """Render ``e`` as source text; reparsing yields a structurally
    identical tree."""
    return _emit(e, _LEVEL_SUM)
