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

_ALIASES = {"log": "ln"}
# levels of one expression: each parenthesis, call, unary minus and binary operator
# adds one (`U+U+U` and `((U))` have two); keeps the AST walks' recursion shallow
MAX_DEPTH = 100

IDENTIFIER = r"[A-Za-z][A-Za-z0-9_]*"
_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    rf"|(?P<ident>{IDENTIFIER})"
    r"|(?P<op>[-+*/^()])"
    r")"
)


def _tokenize(text):
    tokens, pos, end = [], 0, len(text.rstrip())  # up to a whitespace tail
    while pos < end:
        m = _TOKEN_RE.match(text, pos)  # each match takes one token
        if m is None:
            bad = len(text) - len(text[pos:].lstrip())
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
        ast, _ = self.expression(0, 0)
        kind, text, offset = self.peek()
        if kind != "eof":
            raise ExprSyntaxError(f"unexpected token {text!r}", offset)
        return ast

    def check_depth(self, levels, offset):
        if levels > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nests deeper than {MAX_DEPTH} levels", offset)

    def expression(self, min_bp, depth):
        """(ast, reach) of the expression at the next token, ``depth`` levels down:
        ``reach`` is the level of its deepest node, parentheses counted."""
        self.check_depth(depth, self.peek()[2])
        left, reach = self.atom(depth)
        while True:
            kind, text, offset = self.peek()
            if kind != "op" or text not in _BINARY_BP:
                break
            bp = _BINARY_BP[text]
            if bp < min_bp:
                break
            self.advance()
            # ^ is right-associative: recurse at the same binding power
            right, right_reach = self.expression(bp if text == "^" else bp + 1, depth + 1)
            left, reach = BinOp(text, left, right), max(reach + 1, right_reach)
            self.check_depth(reach, offset)  # the left operand went one level down
        return left, reach

    def atom(self, depth):
        kind, text, offset = self.advance()
        if kind == "number":
            return Num(float(text)), depth
        if kind == "ident":
            nxt_kind, nxt_text, _ = self.peek()
            if nxt_kind == "op" and nxt_text == "(":
                fn = _ALIASES.get(text, text)
                if fn not in _CALLS:
                    raise ExprSyntaxError(f"unknown function {text!r}", offset)
                self.advance()
                arg, reach = self.expression(0, depth + 1)
                self.expect_op(")")
                return Call(fn, arg), reach
            return Name(text), depth
        if kind == "op" and text == "-":
            operand, reach = self.expression(_UNARY_BP, depth + 1)
            return Neg(operand), reach
        if kind == "op" and text == "(":
            inner, reach = self.expression(0, depth + 1)
            self.expect_op(")")
            return inner, reach
        raise ExprSyntaxError(f"unexpected token {text or 'end of input'!r}", offset)


def parse(text: str) -> Ast:
    """Parse expression text into an AST of at most :data:`MAX_DEPTH` levels."""
    if not text or text.strip() == "":
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(text).parse()


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
_FOLD = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b + 0.0,
         "/": lambda a, b: a * jets.constant_value(jets._reciprocal, b) + 0.0,
         "^": lambda a, b: jets.constant_value(jets.pow_const, a, b)}


def eval_on(ast: Ast, env: Mapping[str, Union[Jet, float]]) -> Jet:
    """Evaluate an AST over an environment of jets (one per variable, all
    of one batch shape) and floats (constants such as parameters)."""
    like = env.get(_SHAPE) or next(v for v in env.values() if isinstance(v, Jet))
    result = _walk(ast, env, like)
    return result if isinstance(result, Jet) else like.constant_like(result)


def _walk(ast, env, like):
    """Jet of ``ast``, or a float c for a constant subtree without calls: every
    operation on c rounds exactly as on ``like.constant_like(c)``.  A constant whose
    jet would carry nonzero slots (-0.0 after a negation, NaN where an infinite value
    meets a zero slot) stays a jet; as an exponent only its value is read."""
    if isinstance(ast, Name):
        return env[ast.name]
    if isinstance(ast, BinOp):
        left = _walk(ast.left, env, like)
        right = _walk(ast.right, env, like)
        if ast.op == "^" and isinstance(right, Jet):
            c = right.coeffs  # an exponent constant over the batch uses the power rule
            if not c[1:].any() and (c.ndim == 1 or c[0].size and (c[0] == c[0, 0]).all()):
                right = float(c.flat[0])
        if isinstance(left, float) and isinstance(right, float):
            value = _FOLD[ast.op](left, right)
            if math.isfinite(value):
                return value
            left = like.constant_like(left)
            right = right if ast.op == "^" else like.constant_like(right)
        if ast.op in _ARITHMETIC:
            return _ARITHMETIC[ast.op](left, right)
        return (like.constant_like(left) if isinstance(left, float) else left) ** right
    if isinstance(ast, Num):
        return float(ast.value)
    if isinstance(ast, Neg):
        operand = _walk(ast.operand, env, like)
        return -(like.constant_like(operand) if isinstance(operand, float) else operand)
    if isinstance(ast, Call):
        arg = _walk(ast.arg, env, like)
        return _CALLS[ast.fn](like.constant_like(arg) if isinstance(arg, float) else arg)
    raise TypeError(f"not an AST node: {ast!r}")


def eval_finite(ast: Ast, env: Mapping[str, Jet]) -> Jet:
    """:func:`eval_on`, then one finiteness check of the finished jet's derivatives
    (coefficients times factorials, as the tensors gather them): infinite inputs
    and numpy overflow, at any point of a batch, end here as a DomainError."""
    jet = eval_on(ast, env)
    if not np.isfinite(jet.coeffs.T * jets._space(jet.dim, jet.order)[3]).all():
        raise DomainError("expression value or derivatives are not finite")
    return jet


def environment(variables: Sequence[str], params: Mapping[str, float], values,
                gradients, order: int) -> dict:
    """Environment of :func:`eval_on`: the variables as affine jets with values
    (n,) or (n, P) and gradients (n, dim), in one coefficient block, and the
    parameters as floats.  A variable with no derivative (order 0, or a gradient
    row of +0.0) and one point, or one nonzero value over the batch, is a float."""
    block = jets.affine_jets(values, gradients, order)
    # +0.0 is the one float whose bits are all zero
    constant = ([True] * len(block) if order == 0 else
                [not any(row) for row in gradients.view(np.int64).tolist()])
    env = {_SHAPE: block[0]}
    for name, jet, x, fold in zip(variables, block, values.tolist(), constant):
        if fold and isinstance(x, list):  # a batch: nonzero and equal is equal bit for bit
            fold = len(x) > 0 and x[0] != 0.0 and x.count(x[0]) == len(x)
            x = x[0] if fold else x
        env[name] = x if fold else jet
    env.update({name: float(value) for name, value in params.items()})
    return env


def eval_jet(ast: Ast, variables: Sequence[str], point, params: Mapping[str, float],
             order: int, chart=None) -> Jet:
    """Jet of the expression at ``point``, with all derivatives through
    ``order`` taken in the affine chart z whose n x r Jacobian dx/dz is
    ``chart`` (the identity, i.e. the ``variables`` in the given order, by
    default); a batched jet for points of shape (P, len(variables))."""
    point = np.atleast_1d(np.asarray(point, dtype=float))
    if point.shape[-1] != len(variables):
        raise ValueError(f"point has {point.shape[-1]} components for "
                         f"{len(variables)} variables")
    chart = np.eye(len(variables)) if chart is None else chart
    return eval_finite(ast, environment(variables, params, point.T, chart, order))
