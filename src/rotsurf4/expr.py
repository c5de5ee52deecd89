"""Meridian profile expressions: parsing, exact symbolic derivatives, evaluation.

Accepted grammar, lowest to highest precedence::

    sum    := term  (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom (('^' | '**') unary)?        # right associative
    atom   := NUMBER | 'u' | NAME '(' sum ')' | '(' sum ')'

``NAME`` is one of ``sin cos exp log sqrt`` and ``u`` is the only variable.
``NUMBER`` covers decimal and scientific notation.

Trees are immutable dataclasses compared structurally.  ``differentiate``
returns a tree that shares subtrees, with its input and within itself: it
differentiates each node object once.  It folds only the identities that
evaluate to the same double in IEEE arithmetic for every finite input, sign
of zero and domain errors included:

* ``1*x`` and ``x*1`` become ``x``;
* ``x - 0`` becomes ``x`` (a positive zero only: ``-0 - (-0)`` is ``+0``);
* an operation on two constants becomes its value, when that is finite
  and raises no domain error.

``0*x``, ``x+0``, ``x^1`` and ``x^0`` are left alone.  ``0*x`` is ``-0``
for negative ``x`` and ``-0 + 0`` is ``+0``, so either fold can turn a
``-0`` result into ``0``; ``x^1`` is ``+0`` at ``x = -0``; and replacing
``0*x`` or ``x^0`` by a constant would drop a domain error raised inside
``x``.  Correctness is judged by evaluation, not by normal form.
Exponentiation with a negative base is exact for integer exponents and a
domain error otherwise.

Evaluation reads a tape (``_tape``) that holds each distinct subtree of
its trees once.  ``compile_expr`` builds nested closures of ``u`` from it
(``evaluate`` calls them once); ``Profile`` builds one tape of its three
trees, for a run over a whole u-grid that does the same float operations
and reports a miss where a closure would raise, and for the closures that
its first scalar read builds.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Union

__all__ = [
    "Constant",
    "Variable",
    "Unary",
    "Binary",
    "Expr",
    "Interval",
    "Profile",
    "ExprError",
    "ExprSyntaxError",
    "UnknownIdentifierError",
    "EvalDomainError",
    "parse",
    "unparse",
    "evaluate",
    "compile_expr",
    "differentiate",
    "format_number",
]


class ExprError(Exception):
    """Base class for expression parsing and evaluation failures."""


class ExprSyntaxError(ExprError):
    """Malformed input text; ``offset`` is the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ExprSyntaxError):
    pass


class EvalDomainError(ExprError):
    """Evaluation left the real domain; carries the offending subtree."""

    def __init__(self, node: "Expr | None", reason: str):
        if node is not None:
            try:
                where = f"`{unparse(node)}`"
            except RecursionError:  # a node too deep to print is named by its operator
                where = f"a `{node.op}` node"
            super().__init__(f"domain error in {where}: {reason}")
        else:
            super().__init__(reason)
        self.node = node


@dataclass(frozen=True)
class Constant:
    value: float


@dataclass(frozen=True)
class Variable:
    pass


@dataclass(frozen=True)
class Unary:
    op: str  # neg, sin, cos, exp, log, sqrt
    child: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str  # + - * / ^
    left: "Expr"
    right: "Expr"


Expr = Union[Constant, Variable, Unary, Binary]

UNARY_FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<pow>\*\*|\^)"
    r"|(?P<op>[-+*/()])"
    r"|(?P<space>\s+)"
    r"|(?P<bad>.)"
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    offset: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "space":
            continue
        if kind == "bad":
            raise ExprSyntaxError(f"unexpected character {m.group()!r}", m.start())
        tokens.append(_Token(kind, m.group(), m.start()))
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    # each nesting level costs three frames (parse_sum, parse_unary,
    # parse_atom): products are folded into the sum loop, powers into unary
    def parse_sum(self) -> Expr:
        node, op = None, None
        while True:
            term = self.parse_unary()
            while self.peek().kind == "op" and self.peek().text in "*/":
                term = Binary(self.advance().text, term, self.parse_unary())
            node = term if node is None else Binary(op, node, term)
            if not (self.peek().kind == "op" and self.peek().text in "+-"):
                return node
            op = self.advance().text

    def parse_unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            start = self.pos
            operand = self.parse_unary()
            # "-2" becomes a negative literal; "-(2)" keeps the negation node,
            # and "-2^3" never reaches here as a Constant (pow binds tighter).
            if isinstance(operand, Constant) and self.pos == start + 1:
                return Constant(-operand.value)
            return Unary("neg", operand)
        base = self.parse_atom()
        if self.peek().kind == "pow":
            self.advance()
            return Binary("^", base, self.parse_unary())
        return base

    def parse_atom(self) -> Expr:
        tok = self.advance()
        if tok.kind == "num":
            value = float(tok.text)
            if not math.isfinite(value):
                raise ExprSyntaxError("numeric literal overflows a double", tok.offset)
            return Constant(value)
        if tok.kind == "name":
            if tok.text == "u":
                return Variable()
            if tok.text in UNARY_FUNCTIONS:
                opener = self.advance()
                if not (opener.kind == "op" and opener.text == "("):
                    raise ExprSyntaxError(f"expected '(' after {tok.text!r}", opener.offset)
                arg = self.parse_sum()
                self.expect_close()
                return Unary(tok.text, arg)
            raise UnknownIdentifierError(f"unknown identifier {tok.text!r}", tok.offset)
        if tok.kind == "op" and tok.text == "(":
            node = self.parse_sum()
            self.expect_close()
            return node
        if tok.kind == "end":
            raise ExprSyntaxError("unexpected end of input", tok.offset)
        raise ExprSyntaxError(f"expected a value, found {tok.text!r}", tok.offset)

    def expect_close(self) -> None:
        tok = self.advance()
        if not (tok.kind == "op" and tok.text == ")"):
            raise ExprSyntaxError("expected ')'", tok.offset)


def parse(text: str) -> Expr:
    """Parse ``text`` into an expression tree.

    Raises :class:`ExprSyntaxError` (with byte offset) on malformed input,
    :class:`UnknownIdentifierError` for names other than ``u`` and the five
    supported functions, and rejects empty input.
    """
    if not text or text.strip() == "":
        raise ExprSyntaxError("empty expression", 0)
    parser = _Parser(_tokenize(text))
    node = parser.parse_sum()
    tail = parser.peek()
    if tail.kind != "end":
        raise ExprSyntaxError(f"unexpected trailing input {tail.text!r}", tail.offset)
    return node


# ---------------------------------------------------------------------------
# printing

_PREC_SUM, _PREC_TERM, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def format_number(v: float) -> str:
    """Shortest text that parses back to exactly ``v``."""
    if not math.isfinite(v):
        raise ValueError(f"cannot format non-finite constant {v!r}")
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def unparse(e: Expr) -> str:
    """Render a tree as text; ``parse(unparse(e))`` reproduces ``e`` exactly."""
    return _render(e, 0)


def _render(e: Expr, context: int) -> str:
    text, prec = _render_prec(e)
    return f"({text})" if prec < context else text


def _render_prec(e: Expr) -> tuple[str, int]:
    match e:
        case Constant(v):
            return format_number(v), (_PREC_NEG if v < 0 else _PREC_ATOM)
        case Variable():
            return "u", _PREC_ATOM
        case Unary("neg", Constant(v)) if v >= 0:
            # keep distinct from the folded negative literal
            return f"-({format_number(v)})", _PREC_NEG
        case Unary("neg", child):
            return "-" + _render(child, _PREC_NEG), _PREC_NEG
        case Unary(op, child):
            return f"{op}({_render(child, 0)})", _PREC_ATOM
        case Binary("+" | "-" as op, a, b):
            return _render(a, _PREC_SUM) + op + _render(b, _PREC_SUM + 1), _PREC_SUM
        case Binary("*" | "/" as op, a, b):
            return _render(a, _PREC_TERM) + op + _render(b, _PREC_TERM + 1), _PREC_TERM
        case Binary("^", a, b):
            return _render(a, _PREC_POW + 1) + "^" + _render(b, _PREC_NEG), _PREC_POW
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# evaluation

# The float function of each operator.  Out of its domain it raises:
# ValueError for log of a value <= 0 or sqrt of a value < 0 (and sin, cos
# at +-inf), OverflowError when exp overflows, ZeroDivisionError for a
# zero divisor.  The scalar closures turn that into an EvalDomainError
# naming the node, with the reason below (sin and cos keep the
# ValueError); a grid run into a miss.  Both also require a finite
# result of + - * /, and both evaluate ^ by ``_power``.
_UNARY_FN = {"neg": operator.neg, "sin": math.sin, "cos": math.cos,
             "exp": math.exp, "log": math.log, "sqrt": math.sqrt}
_BINARY_FN = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
              "^": math.pow}
_DOMAIN_REASON = {
    "exp": lambda v: "overflow",
    "log": lambda v: f"log of non-positive value {v!r}",
    "sqrt": lambda v: f"square root of negative value {v!r}",
}


def evaluate(e: Expr, u: float) -> float:
    """Evaluate at ``u``, as ``compile_expr(e)(u)``; raises
    :class:`EvalDomainError` when the result leaves the reals (log/sqrt of
    a negative, division by zero, overflow)."""
    return compile_expr(e)(u)


def _finite(e: Expr, v: float) -> float:
    if not math.isfinite(v):
        raise EvalDomainError(e, "non-finite result")
    return v


def _power(e: Expr, base: float, p: float) -> float:
    if base > 0.0:
        try:
            return _finite(e, math.pow(base, p))
        except OverflowError:
            raise EvalDomainError(e, "overflow") from None
    if base == 0.0:
        if p > 0.0:
            return 0.0
        if p == 0.0:
            return 1.0
        raise EvalDomainError(e, "zero raised to a negative power")
    # negative base is exact for integer exponents only
    if p != math.floor(p):
        raise EvalDomainError(e, f"negative base {base!r} with non-integer exponent {p!r}")
    try:
        return _finite(e, math.pow(base, p))
    except OverflowError:
        raise EvalDomainError(e, "overflow") from None


def _tape(trees) -> tuple[list[tuple], list[int], list[int | None]]:
    """Each distinct subtree of ``trees`` once, in left-to-right post-order,
    the positions of ``trees``, and the position of each entry's last reader
    (None for a root and an unread entry).  An entry is ``(op, a, b, node)`` with
    the operands' positions (``b`` None for a unary op), ``("const", value,
    sign, node)`` or ``("u", None, None, node)``: the sign tells apart the
    equal ``Constant(0.0)`` and ``Constant(-0.0)``.  ``node`` is the first
    occurrence, the one a tree walk evaluates, and so fails at, first.
    Objects that ``differentiate`` shares are visited once."""
    nodes, slots, seen = [], {}, {}

    def visit(e) -> int:
        i = seen.get(id(e))
        if i is not None:
            return i
        kind = type(e)
        if kind is Binary and e.op in _BINARY_FN:
            key = (e.op, visit(e.left), visit(e.right))
        elif kind is Unary and e.op in _UNARY_FN:
            key = (e.op, visit(e.child), None)
        elif kind is Constant:
            key = ("const", e.value, math.copysign(1.0, e.value))
        elif kind is Variable:
            key = ("u", None, None)
        else:
            raise TypeError(f"not an expression node: {e!r}")
        i = slots.setdefault(key, len(nodes))
        if i == len(nodes):
            nodes.append((*key, e))
        seen[id(e)] = i
        return i

    roots = [visit(e) for e in trees]
    last = [None] * len(nodes)
    for j, (op, a, b, _) in enumerate(nodes):
        if op != "u" and op != "const":
            last[a] = last[a if b is None else b] = j
    for r in roots:
        last[r] = None
    return nodes, roots, last


def _closures(nodes: list[tuple]) -> list[Callable[[float], float]]:
    """One closure of ``u`` per tape entry, calling those of its operands;
    each raises :class:`EvalDomainError` carrying its entry's node."""
    fns = []
    for op, a, b, e in nodes:
        if op == "u" or op == "const":
            fns.append(_compile_leaf(e))
        elif b is None:
            fns.append(_compile_unary(e, op, fns[a]))
        else:
            fns.append(_compile_binary(e, op, fns[a], fns[b]))
    return fns


def compile_expr(e: Expr) -> Callable[[float], float]:
    """Turn ``e`` into a function of ``u`` built from nested closures that
    raise :class:`EvalDomainError` carrying the node that left the reals."""
    nodes, (root,), _ = _tape((e,))
    return _closures(nodes)[root]


def _compile_leaf(e: Expr) -> Callable[[float], float]:
    if type(e) is Variable:
        return lambda u: u
    v = e.value
    return lambda u: v


def _compile_unary(e: Expr, op: str, c: Callable[[float], float]) -> Callable[[float], float]:
    if op == "neg":
        return lambda u: -c(u)
    fn, reason = _UNARY_FN[op], _DOMAIN_REASON.get(op)
    if reason is None:
        return lambda u: fn(c(u))

    def checked(u):
        v = c(u)
        try:
            return fn(v)
        except (ValueError, OverflowError):
            raise EvalDomainError(e, reason(v)) from None
    return checked


def _compile_binary(e: Expr, op: str, a: Callable[[float], float],
                    b: Callable[[float], float]) -> Callable[[float], float]:
    # + - * / inline the operators of _BINARY_FN, saving a call per node and point
    if op == "+":
        return lambda u: _finite(e, a(u) + b(u))
    if op == "-":
        return lambda u: _finite(e, a(u) - b(u))
    if op == "*":
        return lambda u: _finite(e, a(u) * b(u))
    if op == "/":
        def div(u):
            num, den = a(u), b(u)
            try:
                return _finite(e, num / den)
            except ZeroDivisionError:
                raise EvalDomainError(e, "division by zero") from None
        return div
    return lambda u: _power(e, a(u), b(u))


def _run_columns(nodes: list[tuple], roots: list[int], last: list[int | None],
                 us: list[float]) -> list[list[float]] | None:
    """The column of each root over the points ``us``, computed entry by
    entry over the whole list with the closures' float functions, so every
    element is bit-identical to the closure's value at its u.  Where some
    closure of the tape raises at some u, the run returns None (a miss).
    A column is dropped once its last reader (``last``) has run."""
    columns = []
    try:
        for j, (op, a, b, e) in enumerate(nodes):
            if op == "u":
                column = list(us)
            elif op == "const":
                column = [e.value] * len(us)
            elif b is None:
                column = list(map(_UNARY_FN[op], columns[a]))
            elif op == "^" and not min(columns[a], default=1.0) > 0.0:
                column = list(map(partial(_power, e), columns[a], columns[b]))
            else:  # + - * /, or ^ by _power's positive-base branch, list-wide
                column = list(map(_BINARY_FN[op], columns[a], columns[b]))
                if not all(map(math.isfinite, column)):
                    return None
            columns.append(column)
            if op != "u" and op != "const":
                if last[a] == j:
                    columns[a] = None
                if b is not None and last[b] == j:
                    columns[b] = None
    except (ArithmeticError, ValueError, EvalDomainError):
        return None
    return [columns[r] for r in roots]


# ---------------------------------------------------------------------------
# differentiation

_ONE = Constant(1.0)


def _fold(op: str, a: Expr, b: Expr) -> Expr:
    """``Binary(op, a, b)`` with the IEEE-exact identities of the module
    docstring folded."""
    if op == "*":
        if a == _ONE:
            return b
        if b == _ONE:
            return a
    elif (op == "-" and isinstance(b, Constant) and b.value == 0.0
          and math.copysign(1.0, b.value) > 0.0):
        return a
    node = Binary(op, a, b)
    if isinstance(a, Constant) and isinstance(b, Constant):
        # the float operation and checks of _compile_binary's closure
        x, y = a.value, b.value
        try:
            if op == "^":
                return Constant(_power(node, x, y))
            return Constant(_finite(node, _BINARY_FN[op](x, y)))
        except (EvalDomainError, ZeroDivisionError):
            pass  # keep the node, so the domain error is raised at eval time
    return node


def differentiate(e: Expr, _memo: dict | None = None) -> Expr:
    """Symbolic derivative with respect to ``u``.

    The power rule covers any constant real exponent (the rotational
    meridians use non-integer powers); a non-constant exponent falls back to
    ``a^b * (b' log a + b a'/a)``, whose domain is enforced at eval time.

    Each node is differentiated once: a subtree object met again is given
    its derivative object again, so the result shares subtrees.  ``_memo``
    (``id`` of a node -> its derivative) may be carried across calls on
    trees that stay alive meanwhile, as ``Profile.from_expr`` does for d1
    and d2: ``d(d(e))`` then reuses the derivatives of the subtrees that
    ``d(e)`` took over from ``e``.
    """
    if _memo is None:
        _memo = {}
    else:
        d = _memo.get(id(e))
        if d is not None:
            return d
    match e:
        case Constant(_):
            d = Constant(0.0)
        case Variable():
            d = Constant(1.0)
        case Unary("neg", child):
            d = Unary("neg", differentiate(child, _memo))
        case Unary("sin", child):
            d = _fold("*", Unary("cos", child), differentiate(child, _memo))
        case Unary("cos", child):
            d = Unary("neg", _fold("*", Unary("sin", child), differentiate(child, _memo)))
        case Unary("exp", child):
            d = _fold("*", e, differentiate(child, _memo))
        case Unary("log", child):
            d = _fold("/", differentiate(child, _memo), child)
        case Unary("sqrt", child):
            d = _fold("/", differentiate(child, _memo), _fold("*", Constant(2.0), e))
        case Binary("+" | "-" as op, a, b):
            d = _fold(op, differentiate(a, _memo), differentiate(b, _memo))
        case Binary("*", a, b):
            d = _fold(
                "+",
                _fold("*", differentiate(a, _memo), b),
                _fold("*", a, differentiate(b, _memo)),
            )
        case Binary("/", a, b):
            d = _fold(
                "/",
                _fold(
                    "-",
                    _fold("*", differentiate(a, _memo), b),
                    _fold("*", a, differentiate(b, _memo)),
                ),
                _fold("^", b, Constant(2.0)),
            )
        case Binary("^", a, Constant(p)):
            if p == 0.0:
                d = Constant(0.0)
            else:
                d = _fold(
                    "*",
                    _fold("*", Constant(p), _fold("^", a, Constant(p - 1.0))),
                    differentiate(a, _memo),
                )
        case Binary("^", a, b):
            inner = _fold(
                "+",
                _fold("*", differentiate(b, _memo), Unary("log", a)),
                _fold("/", _fold("*", b, differentiate(a, _memo)), a),
            )
            d = _fold("*", e, inner)
        case _:
            raise TypeError(f"not an expression node: {e!r}")
    _memo[id(e)] = d
    return d


# ---------------------------------------------------------------------------
# profiles

@dataclass(frozen=True)
class Interval:
    """A real interval, closed at ``hi``; bounds default to the whole line."""

    lo: float = -math.inf
    hi: float = math.inf
    open_lo: bool = False

    def contains(self, u: float) -> bool:
        if self.open_lo:
            if u <= self.lo:
                return False
        elif u < self.lo:
            return False
        return not u > self.hi  # true for NaN, like the lower tests


@dataclass(frozen=True)
class Profile:
    """A scalar function of ``u`` with exact symbolic first and second
    derivatives, carried as expression trees.  The three trees share one
    tape (``_tape``), built on construction: ``grid`` runs it over a
    u-grid, and the first scalar read (``value``, ``deriv1``, ``deriv2``)
    builds its closures, which later reads call."""

    expr: Expr
    d1: Expr
    d2: Expr
    domain: Interval = Interval()
    _dag: tuple = field(init=False, repr=False, compare=False)  # _tape's (nodes, roots, last)
    # the closed whole line contains every float (NaN too, as contains()
    # says), so evaluation can skip the interval test
    _whole_line: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_dag", _tape((self.expr, self.d1, self.d2)))
        object.__setattr__(self, "_whole_line", self.domain == Interval())

    # Until the first scalar read, ``self._value`` (and the two others)
    # finds these methods.  They build the closures and store them as plain
    # instance attributes, which shadow the methods from then on: a later
    # read costs what it would after an eager build, and a grid-only
    # profile builds none.  (A ``__getattr__`` hook would slow every
    # attribute read of the class.)
    def _value(self, u: float) -> float:
        self._build_closures()
        return self._value(u)

    def _deriv1(self, u: float) -> float:
        self._build_closures()
        return self._deriv1(u)

    def _deriv2(self, u: float) -> float:
        self._build_closures()
        return self._deriv2(u)

    def _build_closures(self) -> None:
        nodes, roots, _ = self._dag
        fns = _closures(nodes)
        for name, root in zip(("_value", "_deriv1", "_deriv2"), roots):
            object.__setattr__(self, name, fns[root])

    @classmethod
    def from_expr(cls, expr: Expr, domain: Interval = Interval()) -> "Profile":
        memo = {}  # shared: d2 reuses the derivatives of the subtrees d1 takes from expr
        d1 = differentiate(expr, memo)
        return cls(expr, d1, differentiate(d1, memo), domain)

    @classmethod
    def from_text(cls, text: str, domain: Interval = Interval()) -> "Profile":
        return cls.from_expr(parse(text), domain)

    def _check_domain(self, u: float) -> None:
        if not self._whole_line and not self.domain.contains(u):
            raise EvalDomainError(
                None,
                f"u={u!r} outside the profile domain "
                f"({self.domain.lo!r}, {self.domain.hi!r})",
            )

    def value(self, u: float) -> float:
        self._check_domain(u)
        return self._value(u)

    def deriv1(self, u: float) -> float:
        self._check_domain(u)
        return self._deriv1(u)

    def deriv2(self, u: float) -> float:
        self._check_domain(u)
        return self._deriv2(u)

    def grid(self, us: list[float]) -> list[list[float]] | None:
        """[values, first, second derivatives] at the points ``us``, each
        bit-identical to ``value``, ``deriv1`` and ``deriv2``; None where
        one of those would raise at some u."""
        if not (self._whole_line or all(map(self.domain.contains, us))):
            return None
        return _run_columns(*self._dag, us)
