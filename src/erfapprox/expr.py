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
derivatives of all orders except through ``abs``.  An expression nests at
most ``MAX_DEPTH`` levels, or it is a syntax error.  Arithmetic is one
node, ``Bin(op, left, right)``, and ``Neg`` keeps -0.0 apart from
``0 - u``.  One table, ``_FUNCTIONS``, gives each name its numpy
evaluation and its derivative; ``erf`` delegates to ``special_functions.erf``.

``compile`` turns a tree, or all levels of a derivative chain, into one
flat ``Program``: a table with one step per structurally distinct node,
and per root the steps it reaches; ``derivatives`` keeps each such node of
a chain as one object, so a high order stays as small as its program.
``evaluate`` runs one level of a program, or several levels together, in
one loop; a caller that evaluates a chain many times compiles it once.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass, field
from typing import List, Tuple, Union

import numpy as np

from .errors import (
    DivisionByZero,
    ExprSyntaxError,
    NonDifferentiable,
    PreconditionViolated,
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
class Bin:
    op: str             # "+", "-", "*" or "/"
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


Node = Union[Num, Var, Neg, Bin, Pow, Fun]


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


#: the deepest an expression may nest: each group "( )", function call,
#: unary minus, power and binary operator on the way down to a number or x
#: is one level, so the parser, which recurses, stays well inside Python's
#: recursion limit
MAX_DEPTH = 64


class _Parser:
    """Recursive descent; each rule returns (node, depth), depth being the
    number of levels (see ``MAX_DEPTH``) its text nests."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.open = 0       # the groups, calls and minus signs around the next token

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
        node, _ = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"trailing input {val!r}", off)
        return node

    @staticmethod
    def deeper(depth: int, off: int) -> int:
        """depth + 1, the depth of one level around a part of that depth; an
        ExprSyntaxError at offset off beyond MAX_DEPTH."""
        if depth >= MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels", off)
        return depth + 1

    def inside(self, off: int, rule):
        """rule's (node, depth + 1) one level down, refused before it recurses
        when the levels already open reach MAX_DEPTH."""
        self.open = self.deeper(self.open, off)
        node, depth = rule()
        self.open -= 1
        return node, self.deeper(depth, off)

    def binary(self, ops: str, operand):
        node, depth = operand()
        while self.peek()[0] == "op" and self.peek()[1] in ops:
            _, op, off = self.advance()
            right, right_depth = operand()
            node, depth = Bin(op, node, right), self.deeper(max(depth, right_depth), off)
        return node, depth

    def expr(self):
        return self.binary("+-", self.term)

    def term(self):
        return self.binary("*/", self.factor)

    def factor(self):
        kind, val, off = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            node, depth = self.inside(off, self.factor)
            return Neg(node), depth
        return self.power()

    def power(self):
        base, depth = self.atom()
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
            return Pow(base, -expo if neg else expo), self.deeper(depth, off)
        return base, depth

    def atom(self):
        kind, val, off = self.advance()
        if kind == "num":
            return Num(float(val)), 0
        if kind == "name":
            if val == "x":
                return Var(), 0
            if val in _CONSTANTS:
                return Num(_CONSTANTS[val]), 0
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "(":
                if val not in _FUNCTIONS:
                    raise UnknownFunction(f"unknown function {val!r} at offset {off}")
                self.advance()
                arg, depth = self.inside(off, self.expr)
                self.expect_op(")")
                return Fun(val, arg), depth
            raise ExprSyntaxError(f"unknown name {val!r}", off)
        if kind == "op" and val == "(":
            node, depth = self.inside(off, self.expr)
            self.expect_op(")")
            return node, depth
        raise ExprSyntaxError(f"unexpected token {val!r}" if val else "unexpected end of input", off)


def parse(text: str) -> Node:
    """Parse an expression in the variable x into an AST."""
    return _Parser(text).parse()


# ---------------------------------------------------------------- evaluation


@dataclass(frozen=True)
class Program:
    """The DAGs of one or more roots, compiled by ``compile`` into one
    table.  ``steps`` holds one (kind, operand slots, constant) per
    structurally distinct node; its value goes to the slot of its own
    index.  The constant is a Num's value, a Bin's op, a Pow's exponent or
    a Fun's name.  ``levels[k]`` holds the steps root k reaches, in root
    k's own post order and its root's last, each as (step, slots freed
    after it, spare).  The spare is a slot freed after the step that holds
    an array numpy made for this call (a Neg, Bin or Pow step's value), or
    None: a Neg or Bin step may write its value into that array.

    ``plan`` gives the pass of several levels at once, made on first use
    and kept with the program."""

    steps: Tuple[tuple, ...]
    levels: Tuple[Tuple[tuple, ...], ...]
    plans: dict = field(default_factory=dict, compare=False, repr=False)

    def plan(self, levels: Tuple[int, ...]) -> Tuple[tuple, ...]:
        """The pass of the levels in levels: the steps of each level in
        turn, in that level's order, those an earlier one ran left out,
        each as (step, slots freed after it, spare) with no level's root
        ever freed.  One level's pass is ``levels[k]`` itself."""
        if len(levels) == 1:
            return self.levels[levels[0]]
        if levels not in self.plans:
            order = {i: None for k in levels for i, _, _ in self.levels[k]}
            roots = {self.levels[k][-1][0] for k in levels}
            self.plans[levels] = _schedule(self.steps, order, roots)
        return self.plans[levels]


def _operands(node: Node) -> tuple:
    """node's operands in the order a tree walk evaluates them."""
    if isinstance(node, (Num, Var)):
        return ()
    if isinstance(node, (Neg, Fun)):
        return (node.arg,)
    if isinstance(node, Pow):
        return (node.base,)
    if isinstance(node, Bin):
        return (node.left, node.right)
    raise TypeError(f"unknown node {node!r}")


def _post_order(root: Node, done: dict, operands=_operands):
    """Each node under root whose id is not in done, after its operands
    (those operands(node) names, first one first).  The caller puts each
    node it is given into done, which stops the walk there on a later
    visit; an explicit stack, so no recursion follows the tree's height."""
    stack = [root]
    while stack:
        node = stack[-1]
        if id(node) in done:
            stack.pop()
            continue
        pending = [op for op in operands(node) if id(op) not in done]
        if pending:
            stack.extend(reversed(pending))
            continue
        stack.pop()
        yield node


#: each op's IEEE arithmetic, which rounds exactly, so a Bin (or Neg) step may
#: write into a spare array; a Fun's numpy loop may round differently in place
_ARITHMETIC = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}
#: the steps whose array is the program's own: a Fun's comes from whatever
#: ``_FUNCTIONS`` holds when it runs, which may keep it
_OWNED = (Neg, Bin, Pow)


def _constant(node: Node):
    """The constant a step of node keeps: a Num's value, a Bin's op, a
    Pow's exponent or a Fun's name (None for Var and Neg)."""
    kind = type(node)
    return (node.value if kind is Num else node.op if kind is Bin
            else node.exponent if kind is Pow else node.name if kind is Fun else None)


def _intern(root: Node, nodes: list, index: dict, slot: dict) -> Node:
    """root with structurally equal subtrees made one object.  A subtree's
    key is its kind, its operands' positions in nodes and its constant,
    by its bits for a float (so 0.0 and -0.0 stay apart); index maps each
    key to its position, and a new key appends its node, rebuilt over the
    interned operands when they differ, to nodes in post order.  Trees
    interned into one (nodes, index) share every subtree they have in
    common.

    slot maps id(node) to its position for every node walked, and the walk
    stops at a node already in it, so trees interned with one slot visit
    each node once; every node it names must stay alive while it is used,
    or a new node could take its id."""
    for node in _post_order(root, slot):
        kind, operands, const = type(node), _operands(node), _constant(node)
        args = tuple(slot[id(op)] for op in operands)
        key = (kind, args, struct.pack("<d", const) if kind in (Num, Pow) else const)
        if key not in index:
            index[key] = len(nodes)
            ops = [nodes[a] for a in args]
            if all(op is new for op, new in zip(operands, ops)):
                nodes.append(node)
            else:       # Bin(op, l, r) and Fun(name, u) take their constant first
                nodes.append(Pow(ops[0], const) if kind is Pow else Neg(ops[0])
                             if kind is Neg else kind(const, *ops))
        slot[id(node)] = index[key]
    return nodes[slot[id(root)]]


def _schedule(steps, order, keep=()) -> Tuple[tuple, ...]:
    """The steps of order (step indices, operands first) as (step, slots
    freed after it, spare): each slot but those in keep is freed after its
    last use in order, and the spare is the first slot freed after the
    step whose kind (``steps[slot][0]``) makes an array of its own."""
    last = {a: i for i in order for a in steps[i][1]}
    frees = {i: [] for i in order}
    for a, i in last.items():
        if a not in keep:
            frees[i].append(a)
    return tuple((i, tuple(free), next((a for a in free if steps[a][0] in _OWNED), None))
                 for i, free in frees.items())


def compile(*roots: Node) -> Program:
    """roots, such as a derivative chain, as one Program: one table with a
    step per structurally distinct node of them all (see ``_intern``), so
    0.0 and -0.0 stay two steps, and one level per root.  Level k runs the
    steps of ``compile(roots[k])`` in its order, renumbered into the shared
    table, and frees each slot after its last use in that level."""
    nodes, index, slot = [], {}, {}
    tops = [_intern(root, nodes, index, slot) for root in roots]
    at = {id(node): i for i, node in enumerate(nodes)}
    steps = tuple((kind, args, _constant(node)) for (kind, args, _), node in zip(index, nodes))
    levels = []
    for top in tops:
        order = {}      # the walk's done, in post order; nodes keeps each id taken
        for node in _post_order(top, order):
            order[id(node)] = at[id(node)]
        levels.append(_schedule(steps, order.values()))
    return Program(steps, tuple(levels))


def _combine(op: str, left, right, out):
    """A Bin step's value, written into out when it is an array.  Its
    locals die on return, so the loop holds no operand past its last use."""
    if op == "/" and np.any(right == 0.0):
        raise DivisionByZero("division by zero during evaluation")
    return _ARITHMETIC[op](left, right, out=out)


def evaluate(program: Union[Program, Node], x, level: Union[int, Tuple[int, ...]] = 0):
    """Evaluate one level of a Program, or an AST compiled for this call,
    at scalar or array x, in one pass over that level's steps; given a
    tuple of levels, the tuple of their values, from one pass over the
    union of their steps (``Program.plan``).  Each step runs once per call
    and its value is dropped after its last use in the pass, but a root's
    is kept; levels whose roots are one step share its value.  An
    arithmetic step writes into its spare array when that has x's shape,
    so a call allocates about one array per transcendental step.  A Fun
    looks up its function in ``_FUNCTIONS`` when it runs."""
    if not isinstance(program, Program):
        program = compile(program)
    xv = np.asarray(x, dtype=float)
    levels = level if isinstance(level, tuple) else (level,)

    def spare_of(slot):
        value = None if slot is None else values[slot]
        return value if isinstance(value, np.ndarray) and value.shape == xv.shape else None

    steps = program.steps
    values = [None] * len(steps)
    for i, frees, spare in program.plan(levels):
        kind, args, const = steps[i]
        if kind is Num:
            out = const
        elif kind is Var:
            out = xv
        elif kind is Neg:
            out = np.negative(values[args[0]], out=spare_of(spare))
        elif kind is Pow:
            out = np.power(values[args[0]], const)
        elif kind is Fun:
            out = _FUNCTIONS[const][0](values[args[0]])
        else:
            out = _combine(const, values[args[0]], values[args[1]], spare_of(spare))
        values[i] = out
        for a in frees:
            values[a] = None
    roots = {}
    for k in levels:
        root = program.levels[k][-1][0]
        if root in roots:
            continue
        # adding +0.0 broadcasts a constant to x's shape and turns -0.0 into
        # 0.0; a root's array is written only now, once no step reads it
        out = spare_of(root) if steps[root][0] in _OWNED else None
        if out is None:
            out = np.asarray(values[root], dtype=float) + np.zeros_like(xv)
        else:
            out += 0.0
        roots[root] = float(out) if np.ndim(x) == 0 else out
    outs = tuple(roots[program.levels[k][-1][0]] for k in levels)
    return outs if isinstance(level, tuple) else outs[0]


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
    return Bin("+", a, b)


def _sub(a: Node, b: Node) -> Node:
    if _is_zero(b):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value - b.value)
    return Bin("-", a, b)


def _mul(a: Node, b: Node) -> Node:
    if _is_zero(a) or _is_zero(b):
        return Num(0.0)
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value * b.value)
    return Bin("*", a, b)


def derivatives(node: Node, order: int) -> List[Node]:
    """[node, node', ..., node^(order)], each level interned (``_intern``)
    into one table before it is differentiated, so structurally equal
    subtrees of the whole chain are one object, and one memo over the
    chain differentiates each of them once.  One slot serves the whole
    chain, so interning a level walks only the nodes its derivative made
    new: node keeps its own tree alive, and memo every derivative tree."""
    if order < 0:
        raise PreconditionViolated(f"order must be >= 0, got {order}")
    nodes, index, slot, memo = [], {}, {}, {}
    chain = [_intern(node, nodes, index, slot)]
    for _ in range(order):
        chain.append(_intern(_d(chain[-1], memo), nodes, index, slot))
    return chain


def _d(root: Node, memo: dict) -> Node:
    """root's derivative.  A post-order walk builds each node's derivative
    after those of the operands its rule reads, and finds theirs in memo by
    identity."""
    # every key is a subtree of a tree in the chain, so its id stays taken
    for node in _post_order(root, memo, _read_derivatives):
        kind = type(node)
        if kind is Num:
            out = Num(0.0)
        elif kind is Var:
            out = Num(1.0)
        elif kind is Neg:
            inner = memo[id(node.arg)]
            out = Num(0.0) if _is_zero(inner) else Neg(inner)
        elif kind is Bin:
            u, v = node.left, node.right
            du, dv = memo[id(u)], memo[id(v)]
            if node.op in "+-":
                out = (_add if node.op == "+" else _sub)(du, dv)
            elif node.op == "*":
                out = _add(_mul(du, v), _mul(u, dv))
            else:       # (u/v)' = u'/v - u v'/v^2
                out = _sub(Bin("/", du, v), Bin("/", _mul(u, dv), Pow(v, 2.0)))
        elif kind is Pow:
            chain = _mul(Num(node.exponent), Pow(node.base, node.exponent - 1.0))
            out = Num(0.0) if node.exponent == 0.0 else _mul(chain, memo[id(node.base)])
        else:
            outer = _FUNCTIONS[node.name][1]
            if outer is None:
                raise NonDifferentiable(f"{node.name} is not differentiable at 0")
            out = _mul(outer(node.arg), memo[id(node.arg)])
        memo[id(node)] = out
    return memo[id(root)]


def _read_derivatives(node: Node) -> tuple:
    """The operands whose derivatives node's rule reads: u^0 is constant,
    so its rule reads none."""
    return () if isinstance(node, Pow) and node.exponent == 0.0 else _operands(node)
