"""Parser for a small non-commutative operator expression language.

Grammar (whitespace insignificant; ^ binds tighter than *, which binds
tighter than + and -):

    expr   := term { ("+" | "-") term }
    term   := factor { "*" factor }
    factor := atom [ "^" uint ]
    atom   := "a" | "ad" | "N" | uint | "m" | "r" | "(" expr ")"

a is the lowering operator, ad the raising operator, and N abbreviates
ad*a.  The symbols m and r stand for nonnegative integers and must be
bound when parsing; they appear in the AST as integer literals.
A uint is a run of ASCII digits 0-9; other Unicode digits such as "²"
are rejected.  Exponents are nonnegative integer literals, and
parentheses nest at most MAX_NESTING levels deep.  q is not a symbol of
the language; deformation lives in the coefficients, not the grammar.  A
Unicode minus sign is accepted for "-".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .boson import NormalForm


class ParseError(ValueError):
    """Malformed operator expression; position is a 0-based offset."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Lit:
    value: int


@dataclass(frozen=True)
class Atom:
    name: str  # "a" | "ad" | "N"


@dataclass(frozen=True)
class Pow:
    base: "OpExpr"
    exponent: int


@dataclass(frozen=True)
class Prod:
    left: "OpExpr"
    right: "OpExpr"


@dataclass(frozen=True)
class Sum:
    left: "OpExpr"
    right: "OpExpr"
    sign: int  # +1 for addition, -1 for subtraction


OpExpr = Union[Lit, Atom, Pow, Prod, Sum]

# each open parenthesis holds four parser frames, so this bound keeps the
# parse well inside Python's default recursion limit of 1000
MAX_NESTING = 200

_MINUS = {"-", "−"}
_DIGITS = frozenset("0123456789")  # ASCII only: str.isdigit also admits "²"
_ATOMS = {"a": NormalForm.lowering, "ad": NormalForm.raising, "N": NormalForm.number}


class _Parser:
    def __init__(self, text: str, bindings: dict[str, int | None]) -> None:
        self.text = text
        self.pos = 0
        self.depth = 0  # parentheses open at pos
        self.bindings = bindings

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str | None:
        return self.text[self.pos] if self.pos < len(self.text) else None

    def read_uint(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _DIGITS:
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an unsigned integer", start)
        return int(self.text[start : self.pos])

    def parse_expr(self) -> OpExpr:
        node = self.parse_term()
        while True:
            self.skip_ws()
            ch = self.peek()
            if ch == "+" or ch in _MINUS:
                self.pos += 1
                rhs = self.parse_term()
                node = Sum(node, rhs, -1 if ch in _MINUS else 1)
            else:
                return node

    def parse_term(self) -> OpExpr:
        node = self.parse_factor()
        while True:
            self.skip_ws()
            if self.peek() == "*":
                self.pos += 1
                node = Prod(node, self.parse_factor())
            else:
                return node

    def parse_factor(self) -> OpExpr:
        node = self.parse_atom()
        self.skip_ws()
        if self.peek() == "^":
            self.pos += 1
            self.skip_ws()
            return Pow(node, self.read_uint())
        return node

    def parse_atom(self) -> OpExpr:
        self.skip_ws()
        at = self.pos
        ch = self.peek()
        if ch is None:
            raise ParseError("unexpected end of input", at)
        if ch == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_NESTING} levels", at
                )
            self.pos += 1
            self.depth += 1
            node = self.parse_expr()
            self.depth -= 1
            self.skip_ws()
            if self.peek() != ")":
                raise ParseError("expected ')'", self.pos)
            self.pos += 1
            return node
        if ch in _DIGITS:
            return Lit(self.read_uint())
        if ch.isalpha():
            while self.pos < len(self.text) and self.text[self.pos].isalpha():
                self.pos += 1
            name = self.text[at : self.pos]
            if name in _ATOMS:
                return Atom(name)
            if name in self.bindings:
                bound = self.bindings[name]
                if bound is None:
                    raise ParseError(f"symbol '{name}' is not bound", at)
                return Lit(bound)
            raise ParseError(f"unknown symbol '{name}'", at)
        raise ParseError(f"unexpected character {ch!r}", at)


def parse(text: str, m: int | None = None, r: int | None = None) -> OpExpr:
    """Parse an operator expression; m and r substitute bound values."""
    for name, value in (("m", m), ("r", r)):
        if value is not None and value < 0:
            raise ValueError(f"binding for '{name}' must be nonnegative")
    p = _Parser(text, {"m": m, "r": r})
    node = p.parse_expr()
    p.skip_ws()
    if p.pos != len(text):
        raise ParseError("unexpected trailing input", p.pos)
    return node


def to_normal_form(node: OpExpr) -> NormalForm:
    """Evaluate an AST in the normal-ordering engine.

    The walk keeps its own stack, so the left-deep Sum and Prod chains of
    long sums and products cost no Python recursion.  An entry (node,
    False) is still to be visited; (node, True) has its operands' values
    on top of the value stack, the left one below the right one.
    """
    todo: list[tuple[OpExpr, bool]] = [(node, False)]
    values: list[NormalForm] = []
    while todo:
        node, ready = todo.pop()
        if isinstance(node, Lit):
            values.append(NormalForm.identity() * node.value)
        elif isinstance(node, Atom):
            values.append(_ATOMS[node.name]())
        elif not isinstance(node, (Pow, Prod, Sum)):
            raise TypeError(f"not an operator expression node: {node!r}")
        elif not ready:
            todo.append((node, True))
            if isinstance(node, Pow):
                todo.append((node.base, False))
            else:
                todo += [(node.right, False), (node.left, False)]
        elif isinstance(node, Pow):
            values.append(values.pop() ** node.exponent)
        else:
            right = values.pop()
            left = values.pop()
            if isinstance(node, Prod):
                values.append(left * right)
            else:
                values.append(left + right if node.sign > 0 else left - right)
    return values[0]


def normal_order(text: str, m: int | None = None, r: int | None = None) -> NormalForm:
    """Parse and normally order an operator expression in one step."""
    return to_normal_form(parse(text, m=m, r=r))
