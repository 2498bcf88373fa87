"""Minimal arithmetic AST for expression rate laws.

Expressions are built from species symbols, numeric constants, and
``+ - * / ^`` (with ``**`` accepted for powers). They evaluate on scaled
species counts and must return a nonnegative finite value; that is
checked at evaluation time, not statically.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .errors import ParseError, RateEvaluationError


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*', '/', '^'
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Neg:
    operand: "Node"


Node = Num | Var | BinOp | Neg


_TOKEN_CHARS = set("+-*/^()")


def tokenize(text: str, line: int = 1, col_offset: int = 0):
    """Yield (kind, value, col) tokens; kind in {num, name, op}."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        col = col_offset + i + 1
        if ch in _TOKEN_CHARS:
            if ch == "*" and i + 1 < n and text[i + 1] == "*":
                tokens.append(("op", "^", col))
                i += 2
            else:
                tokens.append(("op", ch, col))
                i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] in ".eE" or
                             (text[j] in "+-" and j > i and text[j - 1] in "eE")):
                j += 1
            try:
                value = float(text[i:j])
            except ValueError:
                raise ParseError(f"bad number {text[i:j]!r}", line, col, col_offset + j + 1)
            tokens.append(("num", value, col))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], col))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    return tokens


def parse_expression(text: str, line: int = 1, col_offset: int = 0) -> Node:
    """Recursive-descent parse with the usual precedence (^ > unary - > * / > + -)."""
    tokens = tokenize(text, line, col_offset)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def error(msg):
        tok = peek()
        col = tok[2] if tok else col_offset + len(text) + 1
        raise ParseError(msg, line, col)

    def atom() -> Node:
        tok = peek()
        if tok is None:
            error("expected operand")
        kind, value, _ = take()
        if kind == "num":
            return Num(value)
        if kind == "name":
            return Var(value)
        if kind == "op" and value == "(":
            node = addsub()
            closing = peek()
            if closing is None or closing[1] != ")":
                error("expected ')'")
            take()
            return node
        if kind == "op" and value == "-":
            return Neg(power())
        error(f"unexpected token {value!r}")

    def power() -> Node:
        base = atom()
        tok = peek()
        if tok is not None and tok[0] == "op" and tok[1] == "^":
            take()
            # right-associative
            return BinOp("^", base, power())
        return base

    def muldiv() -> Node:
        node = power()
        while True:
            tok = peek()
            if tok is None or tok[0] != "op" or tok[1] not in "*/":
                return node
            _, op, _ = take()
            node = BinOp(op, node, power())

    def addsub() -> Node:
        node = muldiv()
        while True:
            tok = peek()
            if tok is None or tok[0] != "op" or tok[1] not in "+-":
                return node
            _, op, _ = take()
            node = BinOp(op, node, muldiv())

    node = addsub()
    if pos != len(tokens):
        error(f"trailing input {tokens[pos][1]!r}")
    return node


def variables(node: Node) -> set[str]:
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Num):
        return set()
    if isinstance(node, Neg):
        return variables(node.operand)
    return variables(node.left) | variables(node.right)


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
        "/": operator.truediv, "^": operator.pow}


def compile_expression(node: Node, reader):
    """Compile ``node`` once into a function of a state.

    ``reader(name)`` returns the function that reads symbol ``name``
    from the state, or None for an unknown symbol (which raises
    RateEvaluationError when evaluated). Each binary operation raises
    RateEvaluationError on failure or on a non-finite result. Operands
    are evaluated left then right, so the values equal those of a walk
    over the tree bit for bit.
    """
    if isinstance(node, Num):
        value = node.value
        return lambda state: value
    if isinstance(node, Var):
        read = reader(node.name)
        if read is None:
            name = node.name

            def unknown(state):
                raise RateEvaluationError(f"unknown symbol {name!r}")
            return unknown
        return read
    if isinstance(node, Neg):
        operand = compile_expression(node.operand, reader)
        return lambda state: -operand(state)
    left = compile_expression(node.left, reader)
    right = compile_expression(node.right, reader)
    op = _OPS[node.op]

    def binop(state):
        a = left(state)
        b = right(state)
        try:
            out = op(a, b)
        except (ZeroDivisionError, OverflowError, ValueError) as exc:
            raise RateEvaluationError(f"expression failed: {exc}")
        if isinstance(out, complex) or not math.isfinite(out):
            raise RateEvaluationError("expression produced a non-finite value")
        return out

    return binop


def evaluate(node: Node, env) -> float:
    """Evaluate over a name -> value mapping; raises RateEvaluationError
    on an unknown symbol or a non-finite subresult."""
    def reader(name):
        return (lambda state: state[name]) if name in env else None

    return compile_expression(node, reader)(env)


def to_text(node: Node) -> str:
    """Deterministic source form (fully parenthesized only where needed)."""
    def fmt(n: Node, parent_prec: int) -> str:
        if isinstance(n, Num):
            v = n.value
            return str(int(v)) if float(v).is_integer() and abs(v) < 1e15 else repr(v)
        if isinstance(n, Var):
            return n.name
        if isinstance(n, Neg):
            inner = fmt(n.operand, 3)
            text = f"-{inner}"
            return f"({text})" if parent_prec > 2 else text
        prec = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}[n.op]
        left = fmt(n.left, prec)
        right = fmt(n.right, prec + 1)
        text = f"{left}{n.op}{right}"
        return f"({text})" if prec < parent_prec else text

    return fmt(node, 0)


class PolynomialError(Exception):
    """Raised when an AST is not a polynomial in the requested variables."""


def as_polynomial(node: Node, poly_vars: list[str], env) -> dict[tuple[int, ...], float]:
    """Expand an AST into a polynomial over ``poly_vars``.

    All other symbols are bound numerically from ``env``. The result maps
    exponent tuples to coefficients. Division by anything containing a
    polynomial variable, or a non-integer power of one, raises
    PolynomialError (callers then fall back to Monte Carlo).
    """
    index = {name: i for i, name in enumerate(poly_vars)}
    zero = tuple([0] * len(poly_vars))

    def const(c: float):
        return {zero: c} if c != 0.0 else {}

    def add(p, q, sign=1.0):
        out = dict(p)
        for k, v in q.items():
            out[k] = out.get(k, 0.0) + sign * v
            if out[k] == 0.0:
                del out[k]
        return out

    def mul(p, q):
        out: dict[tuple[int, ...], float] = {}
        for ka, va in p.items():
            for kb, vb in q.items():
                key = tuple(a + b for a, b in zip(ka, kb))
                out[key] = out.get(key, 0.0) + va * vb
        return {k: v for k, v in out.items() if v != 0.0}

    def rec(n: Node) -> dict[tuple[int, ...], float]:
        if isinstance(n, Num):
            return const(n.value)
        if isinstance(n, Var):
            if n.name in index:
                key = tuple(1 if i == index[n.name] else 0 for i in range(len(poly_vars)))
                return {key: 1.0}
            return const(float(env[n.name]))
        if isinstance(n, Neg):
            return add({}, rec(n.operand), sign=-1.0)
        left = rec(n.left)
        right = rec(n.right)
        if n.op == "+":
            return add(left, right)
        if n.op == "-":
            return add(left, right, sign=-1.0)
        if n.op == "*":
            return mul(left, right)
        if n.op == "/":
            if any(k != zero for k in right):
                raise PolynomialError("division by a polynomial variable")
            divisor = right.get(zero, 0.0)
            if divisor == 0.0:
                raise PolynomialError("division by zero constant")
            return {k: v / divisor for k, v in left.items()}
        # power
        if any(k != zero for k in right):
            raise PolynomialError("variable exponent")
        exponent = right.get(zero, 0.0)
        if exponent != int(exponent) or exponent < 0:
            if any(k != zero for k in left):
                raise PolynomialError("non-integer power of a polynomial variable")
            return const(left.get(zero, 0.0) ** exponent)
        out = const(1.0)
        for _ in range(int(exponent)):
            out = mul(out, left)
        return out

    return rec(node)
