"""Meridian profile expressions: parsing, exact symbolic derivatives, evaluation.

Accepted grammar, lowest to highest precedence::

    sum    := term  (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom (('^' | '**') unary)?        # right associative
    atom   := NUMBER | 'u' | NAME '(' sum ')' | '(' sum ')'

``NAME`` is one of ``sin cos exp log sqrt`` and ``u`` is the only variable.
``NUMBER`` covers decimal and scientific notation.

Trees are immutable records compared structurally.  ``differentiate``
runs on the tape of its input (below), so it differentiates each distinct
subtree once and returns a tree that shares subtrees, with its input and
within itself.  It folds only the identities that evaluate to the same
double in IEEE arithmetic for every finite input, sign of zero and domain
errors included:

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

A tape (``_Tape``) holds each distinct subtree once; the parser and the
derivative rules add its entries, and node objects are made from them only
when a tree is read.  ``compile_expr`` builds nested closures of ``u`` from
it (``evaluate`` calls them once).  A ``Profile`` holds one tape of its
three trees, for a grid run that does the same float operations, reports a
miss where a closure would raise and makes no node object, and for the
closures that its first scalar read builds.  ``Profile.from_text`` parses
straight onto the tape and derives d1 and d2 there.
"""

from __future__ import annotations

import math
import operator
import re
from functools import partial
from typing import Callable, Union

from ._record import FrozenRecord, set_field

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


class Constant(FrozenRecord):
    __match_args__ = ("value",)

    def __init__(self, value: float):
        set_field(self, "value", value)


class Variable(FrozenRecord):
    pass


class Unary(FrozenRecord):
    __match_args__ = ("op", "child")

    def __init__(self, op: str, child: "Expr"):  # op: neg, sin, cos, exp, log, sqrt
        set_field(self, "op", op)
        set_field(self, "child", child)


class Binary(FrozenRecord):
    __match_args__ = ("op", "left", "right")

    def __init__(self, op: str, left: "Expr", right: "Expr"):  # op: + - * / ^
        set_field(self, "op", op)
        set_field(self, "left", left)
        set_field(self, "right", right)


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


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """``(kind, text, offset)`` of each token of ``text``, then ``end``."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "space":
            continue
        if kind == "bad":
            raise ExprSyntaxError(f"unexpected character {m.group()!r}", m.start())
        tokens.append((kind, m.group(), m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Parses tokens onto a tape; each method returns the entry it parsed."""

    def __init__(self, tokens: list[tuple[str, str, int]], tape: "_Tape"):
        self.tokens = tokens
        self.pos = 0
        self.tape = tape

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at_op(self, ops: str) -> bool:
        kind, text, _ = self.tokens[self.pos]
        return kind == "op" and text in ops

    # each nesting level costs three frames (parse_sum, parse_unary,
    # parse_atom): products are folded into the sum loop, powers into unary
    def parse_sum(self) -> int:
        node, op = None, None
        while True:
            term = self.parse_unary()
            while self.at_op("*/"):
                term = self.tape.op(self.advance()[1], term, self.parse_unary())
            node = term if node is None else self.tape.op(op, node, term)
            if not self.at_op("+-"):
                return node
            op = self.advance()[1]

    def parse_unary(self) -> int:
        if self.at_op("-"):
            self.advance()
            # "-2" becomes a negative literal; "-(2)" keeps the negation node,
            # and so does "-2^3" (pow binds tighter)
            if self.peek()[0] == "num" and self.tokens[self.pos + 1][0] != "pow":
                return self.parse_atom(-1.0)
            return self.tape.op("neg", self.parse_unary())
        base = self.parse_atom()
        if self.peek()[0] == "pow":
            self.advance()
            return self.tape.op("^", base, self.parse_unary())
        return base

    def parse_atom(self, sign: float = 1.0) -> int:
        kind, text, offset = self.advance()
        if kind == "num":
            value = sign * float(text)  # exact: a sign flip
            if not math.isfinite(value):
                raise ExprSyntaxError("numeric literal overflows a double", offset)
            return self.tape.entry(value)
        if kind == "name":
            if text == "u":
                return self.tape.op("u", None)
            if text in UNARY_FUNCTIONS:
                self.expect("(", f"expected '(' after {text!r}")
                arg = self.parse_sum()
                self.expect(")", "expected ')'")
                return self.tape.op(text, arg)
            raise UnknownIdentifierError(f"unknown identifier {text!r}", offset)
        if kind == "op" and text == "(":
            node = self.parse_sum()
            self.expect(")", "expected ')'")
            return node
        if kind == "end":
            raise ExprSyntaxError("unexpected end of input", offset)
        raise ExprSyntaxError(f"expected a value, found {text!r}", offset)

    def expect(self, op: str, message: str) -> None:
        kind, text, offset = self.advance()
        if not (kind == "op" and text == op):
            raise ExprSyntaxError(message, offset)


def parse(text: str) -> Expr:
    """Parse ``text`` into an expression tree (equal subtrees are one object).

    Raises :class:`ExprSyntaxError` (with byte offset) on malformed input,
    :class:`UnknownIdentifierError` for names other than ``u`` and the five
    supported functions, and rejects empty input.
    """
    tape = _Tape()
    root = _parse_onto(tape, text)
    return tape.fill()[root]


def _parse_onto(tape: "_Tape", text: str) -> int:
    """The entry of ``text`` parsed onto ``tape``; raises as ``parse``."""
    if not text or text.strip() == "":
        raise ExprSyntaxError("empty expression", 0)
    parser = _Parser(_tokenize(text), tape)
    root = parser.parse_sum()
    kind, text, offset = parser.peek()
    if kind != "end":
        raise ExprSyntaxError(f"unexpected trailing input {text!r}", offset)
    return root


# ---------------------------------------------------------------------------
# printing

_PREC_SUM, _PREC_TERM, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def format_number(v: float) -> str:
    """Shortest text that parses back to exactly ``v``."""
    if not math.isfinite(v):
        raise ValueError(f"cannot format non-finite constant {v!r}")
    if v == int(v) and abs(v) < 1e16:
        return str(int(v)) if v or math.copysign(1.0, v) > 0.0 else "-0"
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
            return format_number(v), (_PREC_NEG if math.copysign(1.0, v) < 0.0 else _PREC_ATOM)
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


def _closures(tape: "_Tape") -> list[Callable[[float], float]]:
    """One closure of ``u`` per tape entry, calling those of its operands;
    each raises :class:`EvalDomainError` carrying its entry's node."""
    fns = []
    for (op, a, b), e in zip(tape.nodes, tape.fill()):
        if op == "u":
            fns.append(lambda u: u)
        elif op == "const":
            fns.append(lambda u, v=a: v)
        elif b is None:
            fns.append(_compile_unary(e, op, fns[a]))
        else:
            fns.append(_compile_binary(e, op, fns[a], fns[b]))
    return fns


def compile_expr(e: Expr) -> Callable[[float], float]:
    """Turn ``e`` into a function of ``u`` built from nested closures that
    raise :class:`EvalDomainError` carrying the node that left the reals."""
    tape, (root,) = _tape((e,))
    return _closures(tape)[root]


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
        for j, (op, a, b) in enumerate(nodes):
            if op == "u":
                column = list(us)
            elif op == "const":
                column = [a] * len(us)
            elif b is None:
                column = list(map(_UNARY_FN[op], columns[a]))
            elif op == "^" and not min(columns[a], default=1.0) > 0.0:
                column = list(map(partial(_power, None), columns[a], columns[b]))
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
# the tape and differentiation

class _Tape:
    """Hash-consed entries, each distinct subtree once, after its operands.
    An entry is ``(op, a, b)`` with the operands' positions (``b`` None for
    a unary op), ``("const", value, sign)`` or ``("u", None, None)``: the
    sign tells apart the equal ``Constant(0.0)`` and ``Constant(-0.0)``.
    ``fill`` makes the node objects when a tree is read.

    A derivative is an entry position, or a float: a constant that becomes
    an entry only when a kept node reads it, so no folded constant is one."""

    def __init__(self) -> None:
        self.nodes: list[tuple] = []
        self.slots: dict[tuple, int] = {}
        self.seen: dict[int, int] = {}  # id of a visited node -> its entry
        self.derived: dict[int, int | float] = {}  # entry -> its derivative
        self.trees: list = []  # the node object of each entry, as far as made

    def fill(self) -> list:
        """The node object of every entry, made for those that lack one in a
        forward pass, so equal subtrees are one object and nothing recurses."""
        trees = self.trees
        for op, a, b in self.nodes[len(trees):]:
            trees.append(Constant(a) if op == "const" else Variable() if op == "u" else
                         Unary(op, trees[a]) if b is None else Binary(op, trees[a], trees[b]))
        return trees

    def visit(self, e) -> int:
        """The entry of tree ``e``, its subtrees added in left-to-right
        post-order; node objects met again are visited once.  A new entry
        keeps ``e`` as its node object (the first occurrence, which a tree
        walk evaluates, and so fails at, first); so a tape is visited before
        any ``op`` or ``entry`` adds to it."""
        i = self.seen.get(id(e))
        if i is not None:
            return i
        kind = type(e)
        if kind is Binary and e.op in _BINARY_FN:
            key = (e.op, self.visit(e.left), self.visit(e.right))
        elif kind is Unary and e.op in _UNARY_FN:
            key = (e.op, self.visit(e.child), None)
        elif kind is Constant:
            key = ("const", e.value, math.copysign(1.0, e.value))
        elif kind is Variable:
            key = ("u", None, None)
        else:
            raise TypeError(f"not an expression node: {e!r}")
        nodes = self.nodes
        i = self.slots.setdefault(key, len(nodes))
        if i == len(nodes):
            self.trees.append(e)
            nodes.append(key)
        self.seen[id(e)] = i
        return i

    def entry(self, x: int | float) -> int:
        """The position of ``x``, adding a float as a constant entry."""
        if type(x) is not float:
            return x
        key = ("const", x, math.copysign(1.0, x))
        i = self.slots.get(key)
        if i is None:
            i = self.slots[key] = len(self.nodes)
            self.nodes.append(key)
        return i

    def op(self, op: str, a: int | float | None, b: int | float | None = None) -> int:
        """The entry ``(op, a, b)``, added if absent."""
        if type(a) is float:
            a = self.entry(a)
        if type(b) is float:
            b = self.entry(b)
        key = (op, a, b)
        i = self.slots.get(key)
        if i is None:
            i = self.slots[key] = len(self.nodes)
            self.nodes.append(key)
        return i

    def fold(self, op: str, a: int | float, b: int | float) -> int | float:
        """``(op, a, b)`` with the IEEE-exact identities of the module
        docstring folded.  Two constants fold with the closure's own float
        operation and checks, and stay a node exactly where those raise."""
        nodes = self.nodes
        x = a if type(a) is float else nodes[a][1] if nodes[a][0] == "const" else None
        y = b if type(b) is float else nodes[b][1] if nodes[b][0] == "const" else None
        if op == "*":
            if x == 1.0:
                return b
            if y == 1.0:
                return a
        elif op == "-" and y == 0.0 and math.copysign(1.0, y) > 0.0:
            return a
        if x is not None and y is not None:
            try:
                if op == "^":
                    return _power(None, x, y)
                return _finite(None, _BINARY_FN[op](x, y))
            except (EvalDomainError, ZeroDivisionError):
                pass  # keep the node, so the domain error is raised at eval time
        return self.op(op, a, b)

    def derive(self, i: int) -> int | float:
        """The derivative of entry ``i``, built once per entry."""
        d = self.derived.get(i)
        if d is not None:
            return d
        op, a, b = self.nodes[i]
        fold, derive = self.fold, self.derive
        if op == "const":
            d = 0.0
        elif op == "u":
            d = 1.0
        elif op == "+" or op == "-":
            d = fold(op, derive(a), derive(b))
        elif op == "*":
            d = fold("+", fold("*", derive(a), b), fold("*", a, derive(b)))
        elif op == "/":
            d = fold("/", fold("-", fold("*", derive(a), b), fold("*", a, derive(b))),
                     fold("^", b, 2.0))
        elif op == "^" and self.nodes[b][0] == "const":
            p = self.nodes[b][1]
            d = 0.0 if p == 0.0 else fold("*", fold("*", b, fold("^", a, p - 1.0)), derive(a))
        elif op == "^":
            d = fold("*", i, fold("+", fold("*", derive(b), self.op("log", a)),
                                  fold("/", fold("*", b, derive(a)), a)))
        elif op == "neg":
            d = self.op("neg", derive(a))
        elif op == "sin":
            d = fold("*", self.op("cos", a), derive(a))
        elif op == "cos":
            d = self.op("neg", fold("*", self.op("sin", a), derive(a)))
        elif op == "exp":
            d = fold("*", i, derive(a))
        elif op == "log":
            d = fold("/", derive(a), a)
        else:  # sqrt
            d = fold("/", derive(a), fold("*", 2.0, i))
        self.derived[i] = d
        return d

    def dag(self, roots: list[int], end: int | None = None) -> tuple[list, list, list]:
        """The entries before ``end`` (all by default), ``roots`` and the position
        of each entry's last reader among them (None for a root and an unread entry)."""
        nodes = self.nodes if end is None else self.nodes[:end]
        last = [None] * len(nodes)
        for j, (op, a, b) in enumerate(nodes):
            if op != "u" and op != "const":
                last[a] = last[a if b is None else b] = j
        for r in roots:
            last[r] = None
        return nodes, roots, last


def _tape(trees) -> tuple[_Tape, list[int]]:
    """A tape of ``trees`` and their entries, added in left-to-right post-order."""
    tape = _Tape()
    return tape, [tape.visit(e) for e in trees]


def differentiate(e: Expr) -> Expr:
    """Symbolic derivative with respect to ``u``.

    The power rule covers any constant real exponent (the rotational
    meridians use non-integer powers); a non-constant exponent falls back to
    ``a^b * (b' log a + b a'/a)``, whose domain is enforced at eval time.

    The rules run on the tape of ``e`` (``_Tape``), as in
    ``Profile.from_expr``: each distinct subtree is differentiated once, and
    the result shares subtrees with ``e`` and within itself.
    """
    tape = _Tape()
    root = tape.entry(tape.derive(tape.visit(e)))
    return tape.fill()[root]


# ---------------------------------------------------------------------------
# profiles

class Interval(FrozenRecord):
    """A real interval, closed at ``hi``; bounds default to the whole line."""

    __match_args__ = ("lo", "hi", "open_lo")

    def __init__(self, lo: float = -math.inf, hi: float = math.inf, open_lo: bool = False):
        set_field(self, "lo", lo)
        set_field(self, "hi", hi)
        set_field(self, "open_lo", open_lo)

    def contains(self, u: float) -> bool:
        if self.open_lo:
            if u <= self.lo:
                return False
        elif u < self.lo:
            return False
        return not u > self.hi  # true for NaN, like the lower tests


_TREES, _CLOSURES = ("expr", "d1", "d2"), ("_value", "_deriv1", "_deriv2")


class _Lazy:
    """Until the first read, a profile's ``name`` finds this non-data
    descriptor on the class.  It makes what ``make`` makes of the profile's
    tape (``_Tape.fill``'s trees or ``_closures``), stores the item of each
    root under ``names`` as plain instance attributes, which shadow it from
    then on, and returns its own.  So a later read costs what it would after
    an eager build, a grid-only profile builds nothing, and ``==``, ``hash``
    and ``repr`` see the trees.  (A ``__getattr__`` hook would slow every
    attribute read of the class.)"""

    def __init__(self, make: Callable, names: tuple[str, ...], name: str):
        self.make, self.names, self.name = make, names, name

    def __get__(self, profile: Profile | None, owner: type | None = None):
        if profile is None:
            return self
        made = self.make(profile._tape)
        for name, root in zip(self.names, profile._dag[1]):
            set_field(profile, name, made[root])
        return getattr(profile, self.name)


class Profile(FrozenRecord):
    """A scalar function of ``u`` with exact symbolic first and second
    derivatives, carried as expression trees.  The three trees share one
    tape (``_Tape``): ``from_text`` and ``from_expr`` derive d1 and d2 on
    it, the constructor visits any three trees into it.  ``grid`` runs it
    over a u-grid, making no node object.  The trees of a derived profile
    are made on the first read of one or of a scalar (``value``, ``deriv1``,
    ``deriv2``), which also builds the closures (``_Lazy``)."""

    __match_args__ = (*_TREES, "domain")
    expr, d1, d2 = (_Lazy(_Tape.fill, _TREES, name) for name in _TREES)
    # ``_closures`` is looked up at each build, as a call in a method would be
    _value, _deriv1, _deriv2 = (_Lazy(lambda tape: _closures(tape), _CLOSURES, name)
                                for name in _CLOSURES)

    def __init__(self, expr: Expr, d1: Expr, d2: Expr, domain: Interval = Interval()):
        set_field(self, "expr", expr)
        set_field(self, "d1", d1)
        set_field(self, "d2", d2)
        set_field(self, "domain", domain)
        self._set_tape(*_tape((expr, d1, d2)))

    def _set_tape(self, tape: _Tape, roots: list[int]) -> None:
        set_field(self, "_tape", tape)
        set_field(self, "_dag", tape.dag(roots))  # _Tape.dag's (nodes, roots, last)
        # the closed whole line contains every float (NaN too, as contains()
        # says), so evaluation can skip the interval test
        set_field(self, "_whole_line", self.domain == Interval())

    @classmethod
    def from_expr(cls, expr: Expr, domain: Interval = Interval()) -> "Profile":
        """``expr`` and its two derivatives, derived on the tape of ``expr``:
        d2 reuses the derivatives of the entries that d1 reads."""
        return cls._derived(_Tape.visit, expr, domain)

    @classmethod
    def from_text(cls, text: str, domain: Interval = Interval()) -> "Profile":
        """``from_expr(parse(text))``, with the text parsed onto the tape."""
        return cls._derived(_parse_onto, text, domain)

    @classmethod
    def _derived(cls, add: Callable, source, domain: Interval) -> "Profile":
        """The profile of the entry that ``add(tape, source)`` puts on a new tape."""
        tape = _Tape()
        roots = [add(tape, source)]
        for _ in range(2):
            roots.append(tape.entry(tape.derive(roots[-1])))
        profile = object.__new__(cls)  # __init__ would need the trees
        set_field(profile, "domain", domain)  # vars() would slow every read
        profile._set_tape(tape, roots)
        return profile

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

    def values(self, us: list[float]) -> list[float] | None:
        """The values of ``grid(us)``, None only where ``value`` raises at some
        u: a run of the tape's prefix up to the value root, ``expr``'s entries."""
        if not (self._whole_line or all(map(self.domain.contains, us))):
            return None
        root = self._dag[1][0]
        columns = _run_columns(*self._tape.dag([root], root + 1), us)
        return None if columns is None else columns[0]
