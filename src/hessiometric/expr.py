"""Parser and jet evaluator for fundamental-equation expressions.

Grammar (precedence-climbing): ``^`` binds tightest and is
right-associative, then unary minus, then ``* /``, then ``+ -``.
Identifiers are ``[A-Za-z][A-Za-z0-9_]*``; numbers are decimal with an
optional exponent.  ``log`` is accepted as an alias of ``ln``.  There is
no implicit multiplication.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from . import jets
from .errors import DomainError, ExprSyntaxError, UnknownIdentifierError
from .jets import Jet


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Name:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Ast"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Ast"
    right: "Ast"


@dataclass(frozen=True)
class Call:
    fn: str  # ln, exp, sqrt
    arg: "Ast"


Ast = Union[Num, Name, Neg, BinOp, Call]

_FUNCTIONS = {"ln", "exp", "sqrt"}
_ALIASES = {"log": "ln"}

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()])"
    r")"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            # skip pure whitespace tail
            rest = text[pos:]
            if rest.strip() == "":
                break
            bad = pos + len(rest) - len(rest.lstrip())
            raise ExprSyntaxError(f"unexpected character {text[bad]!r}", bad)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


_BINARY_BP = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}
_UNARY_BP = 25


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, text, offset = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected {op!r}", offset)
        self.advance()

    def parse(self):
        ast = self.expression(0)
        kind, text, offset = self.peek()
        if kind != "eof":
            raise ExprSyntaxError(f"unexpected token {text!r}", offset)
        return ast

    def expression(self, min_bp):
        left = self.atom()
        while True:
            kind, text, _ = self.peek()
            if kind != "op" or text not in _BINARY_BP:
                break
            bp = _BINARY_BP[text]
            if bp < min_bp:
                break
            self.advance()
            # ^ is right-associative: recurse at the same binding power
            right = self.expression(bp if text == "^" else bp + 1)
            left = BinOp(text, left, right)
        return left

    def atom(self):
        kind, text, offset = self.advance()
        if kind == "number":
            return Num(float(text))
        if kind == "ident":
            nxt_kind, nxt_text, _ = self.peek()
            if nxt_kind == "op" and nxt_text == "(":
                fn = _ALIASES.get(text, text)
                if fn not in _FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {text!r}", offset)
                self.advance()
                arg = self.expression(0)
                self.expect_op(")")
                return Call(fn, arg)
            return Name(text)
        if kind == "op" and text == "-":
            return Neg(self.expression(_UNARY_BP))
        if kind == "op" and text == "(":
            inner = self.expression(0)
            self.expect_op(")")
            return inner
        raise ExprSyntaxError(f"unexpected token {text or 'end of input'!r}", offset)


def parse(text: str) -> Ast:
    """Parse expression text into an AST."""
    if not text or text.strip() == "":
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(text).parse()


def pretty(ast: Ast) -> str:
    """Fully parenthesized text form; re-parses to an identical AST."""
    if isinstance(ast, Num):
        return repr(ast.value)
    if isinstance(ast, Name):
        return ast.name
    if isinstance(ast, Neg):
        return f"(-{pretty(ast.operand)})"
    if isinstance(ast, BinOp):
        return f"({pretty(ast.left)}{ast.op}{pretty(ast.right)})"
    if isinstance(ast, Call):
        return f"{ast.fn}({pretty(ast.arg)})"
    raise TypeError(f"not an AST node: {ast!r}")


def names_in(ast: Ast):
    """All identifiers appearing in the expression."""
    if isinstance(ast, Name):
        yield ast.name
    elif isinstance(ast, Neg):
        yield from names_in(ast.operand)
    elif isinstance(ast, BinOp):
        yield from names_in(ast.left)
        yield from names_in(ast.right)
    elif isinstance(ast, Call):
        yield from names_in(ast.arg)


def validate(ast: Ast, variables: Sequence[str], parameters: Sequence[str]) -> None:
    """Check that every identifier is a declared variable or parameter.

    Raises :class:`UnknownIdentifierError` listing the offenders.
    """
    known = set(variables) | set(parameters)
    unknown = {n for n in names_in(ast) if n not in known}
    if unknown:
        raise UnknownIdentifierError(unknown)


_SHAPE = ""  # environment key of a jet giving the walk its shape; no identifier
_CALLS = {"ln": jets.ln, "exp": jets.exp, "sqrt": jets.sqrt}
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "/": operator.truediv}
_FOLD = {"+": lambda a, b, order: a + b, "-": lambda a, b, order: a - b,
         "*": lambda a, b, order: a * b + 0.0,
         "/": lambda a, b, order: a * jets.constant_value(jets._reciprocal, b, order) + 0.0,
         "^": lambda a, b, order: jets.constant_value(jets.pow_const, a, order, b)}


def eval_on(ast: Ast, env: Mapping[str, Union[Jet, float]]) -> Jet:
    """Evaluate an AST over an environment of jets (one per variable, all
    of one batch shape) and floats (constants such as parameters)."""
    like = env.get(_SHAPE) or next(v for v in env.values() if isinstance(v, Jet))
    result = _walk(ast, env, like)
    return result if isinstance(result, Jet) else like.constant_like(result)


def _walk(ast, env, like):
    """Jet of ``ast``, or a float c for a constant subtree: every operation
    on c rounds exactly as on ``like.constant_like(c)``.  A constant whose
    jet would carry nonzero slots (-0.0 after a negation, NaN when it is
    not finite) stays a jet."""
    if isinstance(ast, Num):
        return float(ast.value)
    if isinstance(ast, Name):
        return env[ast.name]
    if isinstance(ast, Neg):
        operand = _walk(ast.operand, env, like)
        return -(like.constant_like(operand) if isinstance(operand, float) else operand)
    if isinstance(ast, Call):
        arg = _walk(ast.arg, env, like)
        if isinstance(arg, float):
            value = jets.constant_value(_CALLS[ast.fn], arg, like.order)
            if math.isfinite(value):
                return value
            arg = like.constant_like(arg)
        return _CALLS[ast.fn](arg)
    if not isinstance(ast, BinOp):
        raise TypeError(f"not an AST node: {ast!r}")
    left = _walk(ast.left, env, like)
    right = _walk(ast.right, env, like)
    if isinstance(left, float) and isinstance(right, float):
        value = _FOLD[ast.op](left, right, like.order)
        if math.isfinite(value):
            return value
        left, right = like.constant_like(left), like.constant_like(right)
    if ast.op in _ARITHMETIC:
        return _ARITHMETIC[ast.op](left, right)
    if isinstance(right, float):
        return jets.pow_const(left, right)
    if isinstance(left, float):
        left = like.constant_like(left)
    # an exponent constant over the batch uses the power rule
    c = right.coeffs
    if not c[1:].any() and (c.ndim == 1 or (c[0] == c[0, 0]).all()):
        return jets.pow_const(left, c.flat[0])
    return left ** right


def eval_finite(ast: Ast, env: Mapping[str, Jet]) -> Jet:
    """:func:`eval_on`, then one finiteness check of the finished jet:
    infinite inputs and numpy overflow, at any point of a batch, end here
    as a DomainError."""
    jet = eval_on(ast, env)
    if not np.isfinite(jet.coeffs).all():
        raise DomainError("expression value or derivatives are not finite")
    return jet


def environment(variables: Sequence[str], params: Mapping[str, float], values,
                gradients, order: int) -> dict:
    """Environment of :func:`eval_on`: the variables as affine jets with values
    (n,) or (n, P) and gradients (n, dim), in one coefficient block, and the
    parameters as floats.  A variable with no derivative (order 0, or a gradient
    row of +0.0) and one point, or one nonzero value over the batch, is a float."""
    block = jets.affine_jets(values, gradients, order)
    constant = ([True] * len(block) if order == 0 else
                (~np.asarray(gradients, dtype=float).view(np.int64).any(axis=1)).tolist())
    env = {_SHAPE: block[0]}
    for name, jet, x, fold in zip(variables, block, values.tolist(), constant):
        if fold and isinstance(x, list):  # a batch: nonzero and equal is equal bit for bit
            fold = x[0] != 0.0 and x.count(x[0]) == len(x)
            x = x[0]
        env[name] = x if fold else jet
    env.update((name, float(value)) for name, value in params.items())
    return env


def eval_jet(ast: Ast, variables: Sequence[str], point, params: Mapping[str, float],
             order: int) -> Jet:
    """Jet of the expression at ``point``, with all derivatives through
    ``order`` taken with respect to ``variables`` in the given order (a
    batched jet for points of shape (P, len(variables)))."""
    point = np.atleast_1d(np.asarray(point, dtype=float))
    if point.shape[-1] != len(variables):
        raise ValueError(f"point has {point.shape[-1]} components for "
                         f"{len(variables)} variables")
    return eval_finite(ast, environment(variables, params, point.T,
                                        np.eye(len(variables)), order))
