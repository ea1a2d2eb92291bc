"""A tiny expression language for functions of one variable ``x``.

Grammar (EBNF):

    expr    = term   { ("+" | "-") term } ;
    term    = factor { ("*" | "/") factor } ;
    factor  = "-" factor | power ;
    power   = atom [ "^" number ] ;
    atom    = number | "x" | "pi" | "e"
            | name "(" expr ")" | "(" expr ")" ;
    name    = "sin" | "cos" | "exp" | "erf" | "abs" ;
    number  = digits [ "." digits ] [ ("e" | "E") [sign] digits ] ;

Exponents are numeric literals only, so every expression has closed-form
derivatives of all orders except through ``abs``.  One table,
``_FUNCTIONS``, gives each name its numpy evaluation and its derivative;
``erf`` delegates to ``special_functions.erf``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import List, Union, get_args

import numpy as np

from .errors import (
    DivisionByZero,
    ExprSyntaxError,
    NonDifferentiable,
    UnknownFunction,
)
from .special_functions import TWO_OVER_SQRT_PI, erf

# ---------------------------------------------------------------- AST


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class Add:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Sub:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Mul:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Div:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: float


@dataclass(frozen=True)
class Fun:
    name: str
    arg: "Node"


Node = Union[Num, Var, Neg, Add, Sub, Mul, Div, Pow, Fun]
_NODES = get_args(Node)


#: each function's numpy evaluation and its derivative at the argument u, as
#: a tree (None: not differentiable); erf is looked up at call time
_FUNCTIONS = {
    "sin": (np.sin, lambda u: Fun("cos", u)),
    "cos": (np.cos, lambda u: Neg(Fun("sin", u))),
    "exp": (np.exp, lambda u: Fun("exp", u)),
    # erf'(u) = 2/sqrt(pi) e^{-u^2}
    "erf": (lambda u: erf(u),
            lambda u: _mul(Num(TWO_OVER_SQRT_PI), Fun("exp", Neg(Pow(u, 2.0))))),
    "abs": (np.abs, None),
}
_CONSTANTS = {"pi": math.pi, "e": math.e}

# ---------------------------------------------------------------- parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        kind = m.lastgroup      # "num", "name" or "op"
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", off)
        self.advance()

    def parse(self) -> Node:
        node = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"trailing input {val!r}", off)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in ("+", "-"):
                self.advance()
                rhs = self.term()
                node = Add(node, rhs) if val == "+" else Sub(node, rhs)
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in ("*", "/"):
                self.advance()
                rhs = self.factor()
                node = Mul(node, rhs) if val == "*" else Div(node, rhs)
            else:
                return node

    def factor(self) -> Node:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        kind, val, off = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            kind2, val2, off2 = self.peek()
            neg = False
            if kind2 == "op" and val2 == "-":
                neg = True
                self.advance()
                kind2, val2, off2 = self.peek()
            if kind2 != "num":
                raise ExprSyntaxError("exponent must be a numeric literal", off2)
            self.advance()
            expo = float(val2)
            return Pow(base, -expo if neg else expo)
        return base

    def atom(self) -> Node:
        kind, val, off = self.advance()
        if kind == "num":
            return Num(float(val))
        if kind == "name":
            if val == "x":
                return Var()
            if val in _CONSTANTS:
                return Num(_CONSTANTS[val])
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "(":
                if val not in _FUNCTIONS:
                    raise UnknownFunction(f"unknown function {val!r} at offset {off}")
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Fun(val, arg)
            raise ExprSyntaxError(f"unknown name {val!r}", off)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"unexpected token {val!r}" if val else "unexpected end of input", off)


def parse(text: str) -> Node:
    """Parse an expression in the variable x into an AST."""
    return _Parser(text).parse()


# ---------------------------------------------------------------- evaluation


def evaluate(node: Node, x):
    """Evaluate an AST at scalar or array x.  A subtree reached more than
    once, as in a derivative chain, is computed once and its value dropped
    after its last use; a tree without sharing holds no stored value."""
    xv = np.asarray(x, dtype=float)
    out = _eval(node, xv, _uses(node), {})
    out = np.asarray(out, dtype=float) + np.zeros_like(xv)
    return float(out) if np.ndim(x) == 0 else out


def _uses(root: Node) -> dict:
    """How many times each node is reached from root: its edges in."""
    uses, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) in uses:
            uses[id(node)] += 1
        else:
            uses[id(node)] = 1
            stack += [v for v in vars(node).values() if isinstance(v, _NODES)]
    return uses


def _eval(node: Node, x, uses: dict, memo: dict):
    key = id(node)
    if key in memo:
        uses[key] -= 1
        return memo.pop(key) if uses[key] == 1 else memo[key]
    if isinstance(node, Num):
        out = node.value
    elif isinstance(node, Var):
        out = x
    elif isinstance(node, Neg):
        out = -_eval(node.arg, x, uses, memo)
    elif isinstance(node, Add):
        out = _eval(node.left, x, uses, memo) + _eval(node.right, x, uses, memo)
    elif isinstance(node, Sub):
        out = _eval(node.left, x, uses, memo) - _eval(node.right, x, uses, memo)
    elif isinstance(node, Mul):
        out = _eval(node.left, x, uses, memo) * _eval(node.right, x, uses, memo)
    elif isinstance(node, Div):
        den = np.asarray(_eval(node.right, x, uses, memo))
        if np.any(den == 0.0):
            raise DivisionByZero("division by zero during evaluation")
        out = _eval(node.left, x, uses, memo) / den
    elif isinstance(node, Pow):
        out = np.power(_eval(node.base, x, uses, memo), node.exponent)
    elif isinstance(node, Fun):
        out = _FUNCTIONS[node.name][0](_eval(node.arg, x, uses, memo))
    else:
        raise TypeError(f"unknown node {node!r}")
    if uses[key] > 1:
        memo[key] = out
    return out


# ---------------------------------------------------------------- calculus


def _is_zero(node: Node) -> bool:
    return isinstance(node, Num) and node.value == 0.0


def _is_one(node: Node) -> bool:
    return isinstance(node, Num) and node.value == 1.0


def _add(a: Node, b: Node) -> Node:
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value + b.value)
    return Add(a, b)


def _sub(a: Node, b: Node) -> Node:
    if _is_zero(b):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value - b.value)
    return Sub(a, b)


def _mul(a: Node, b: Node) -> Node:
    if _is_zero(a) or _is_zero(b):
        return Num(0.0)
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value * b.value)
    return Mul(a, b)


def differentiate(node: Node, order: int = 1) -> Node:
    """Symbolic derivative of given order with light simplification."""
    return derivatives(node, order)[-1]


def derivatives(node: Node, order: int) -> List[Node]:
    """[node, node', ..., node^(order)]; one memo over the chain differentiates
    each distinct subtree once, so the trees share subtrees by identity."""
    if order < 0:
        raise ValueError("order must be >= 0")
    chain, memo = [node], {}
    for _ in range(order):
        chain.append(_d(chain[-1], memo))
    return chain


def _d(node: Node, memo: dict) -> Node:
    # every key is a subtree of a tree in the chain, so its id stays taken
    if id(node) in memo:
        return memo[id(node)]
    if isinstance(node, Num):
        out = Num(0.0)
    elif isinstance(node, Var):
        out = Num(1.0)
    elif isinstance(node, Neg):
        inner = _d(node.arg, memo)
        out = Num(0.0) if _is_zero(inner) else Neg(inner)
    elif isinstance(node, Add):
        out = _add(_d(node.left, memo), _d(node.right, memo))
    elif isinstance(node, Sub):
        out = _sub(_d(node.left, memo), _d(node.right, memo))
    elif isinstance(node, Mul):
        out = _add(_mul(_d(node.left, memo), node.right), _mul(node.left, _d(node.right, memo)))
    elif isinstance(node, Div):
        # (u/v)' = u'/v - u v'/v^2
        u, v = node.left, node.right
        out = _sub(Div(_d(u, memo), v), Div(_mul(u, _d(v, memo)), Pow(v, 2.0)))
    elif isinstance(node, Pow):
        chain = _mul(Num(node.exponent), Pow(node.base, node.exponent - 1.0))
        out = Num(0.0) if node.exponent == 0.0 else _mul(chain, _d(node.base, memo))
    elif isinstance(node, Fun):
        outer = _FUNCTIONS[node.name][1]
        if outer is None:
            raise NonDifferentiable(f"{node.name} is not differentiable at 0")
        out = _mul(outer(node.arg), _d(node.arg, memo))
    else:
        raise TypeError(f"unknown node {node!r}")
    memo[id(node)] = out
    return out


# ---------------------------------------------------------------- printing


def serialize(node: Node) -> str:
    """Render an AST as a string that re-parses to an equal tree."""
    return _ser(node, 0)


# precedence levels: add 1, mul 2, unary 3, power 4
def _ser(node: Node, parent: int) -> str:
    if isinstance(node, Num):
        v = node.value
        return repr(v) if v >= 0 else f"({v!r})"
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Neg):
        s = f"-{_ser(node.arg, 3)}"
        return f"({s})" if parent > 2 else s
    if isinstance(node, (Add, Sub)):
        op = "+" if isinstance(node, Add) else "-"
        s = f"{_ser(node.left, 1)} {op} {_ser(node.right, 2)}"
        return f"({s})" if parent > 1 else s
    if isinstance(node, (Mul, Div)):
        op = "*" if isinstance(node, Mul) else "/"
        s = f"{_ser(node.left, 2)} {op} {_ser(node.right, 3)}"
        return f"({s})" if parent > 2 else s
    if isinstance(node, Pow):
        expo = node.exponent
        etext = repr(expo) if expo >= 0 else f"-{-expo!r}"
        return f"{_ser(node.base, 5)}^{etext}"
    if isinstance(node, Fun):
        return f"{node.name}({_ser(node.arg, 0)})"
    raise TypeError(f"unknown node {node!r}")
