"""Tiny arithmetic expression language for descriptor definition files.

Grammar (usual precedence, ^ binds tightest and right-associatively):

    expr    := term  (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := ('+' | '-') unary | power
    power   := postfix ('^' unary)?
    postfix := atom '!'*
    atom    := NUMBER | IDENT | '(' expr ')'

Identifiers are free variables supplied at evaluation time (numpy arrays
broadcast through).  '!' is the factorial of a *constant* nonnegative
integer subexpression (e.g. ``t^2/(2!*xi1)``); it is folded at parse time
and rejected on anything non-constant.

The text is read by Python's own parser once ``^`` is respelled ``**`` and
``X!`` is respelled ``X[0]`` (a subscript binds exactly as tightly as
``!``); the tree is then checked node by node against the grammar above,
and only the checked tree is compiled, with no builtins, so source text is
parsed but never executed.
"""

from __future__ import annotations

import ast
import math
import re
from dataclasses import dataclass, field

__all__ = ["Expression", "ExprError", "parse_expression"]

_NUMBER = r"\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?"
_WHOLE_NUMBER = re.compile(rf"(?<![\w.])(?:{_NUMBER})")
_UNEXPECTED = re.compile(r"[^A-Za-z0-9_.+\-*/^!()\s]|\*\*")
_WIDTH = {"^": 2, "!": 3}  # respelled as '**' and '[0]'
_OPERATORS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_NO_BUILTINS = {"__builtins__": {}}


class ExprError(ValueError):
    """Syntax or evaluation error, carrying the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


@dataclass(frozen=True)
class Expression:
    """A parsed expression; call it with keyword or dict arguments."""

    source: str
    _code: object = field(compare=False, repr=False)
    _names: dict = field(compare=False, repr=False)  # variable -> its first source position

    def __call__(self, env=None, **kws):
        if kws or not isinstance(env, dict):
            env = dict(env or {}, **kws)
        try:  # the code only loads names, so it never writes to the caller's env
            return eval(self._code, _NO_BUILTINS, env)
        except NameError as exc:
            raise ExprError(f"unknown variable {exc.name!r}", self._names[exc.name]) from None

    @property
    def variable_names(self) -> frozenset[str]:
        return frozenset(self._names)

    def __reduce__(self):
        return parse_expression, (self.source,)


def _respell(src: str) -> tuple[str, list[int]]:
    """Python spelling of src, and the source position of each of its characters."""
    bad = _UNEXPECTED.search(src)
    if bad:
        raise ExprError(f"unexpected character {bad[0][-1]!r}", bad.end() - 1)
    chars = list(re.sub(r"\s", " ", src))
    for m in _WHOLE_NUMBER.finditer(src):  # Python rejects the leading zeros of 007
        if m[0].isdigit():
            chars[m.start() : m.end()] = (m[0].lstrip("0") or "0").rjust(len(m[0]))
    text = "".join(chars)
    start = len(text) - len(text.lstrip())  # Python rejects leading whitespace
    origin = [pos for pos in range(start, len(src)) for _ in range(_WIDTH.get(src[pos], 1))]
    return text[start:].replace("^", "**").replace("!", "[0]"), origin + [len(src)]


def _compile(node: ast.expr):
    return compile(ast.Expression(node), "<expression>", "eval")


def parse_expression(src: str) -> Expression:
    text, origin = _respell(src)
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        pos = origin[min((exc.offset or 0) - 1, len(text))]  # offset 0: end of input
        raise ExprError(exc.msg, pos) from None

    def check(node, names: dict):
        """node checked in place: float constants, factorials folded, unary '+' dropped."""
        pos, literal = origin[node.col_offset], text[node.col_offset : node.end_col_offset]
        if isinstance(node, ast.Name):
            names.setdefault(node.id, pos)
        elif isinstance(node, ast.Constant) and re.fullmatch(_NUMBER, literal):
            node.value = float(literal)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, _OPERATORS):
            node.left, node.right = check(node.left, names), check(node.right, names)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            node.operand = check(node.operand, names)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.UAdd):
            return check(node.operand, names)
        elif isinstance(node, ast.Subscript):  # a respelled '!': the source holds no '['
            bang, inner = origin[node.end_col_offset - 3], {}
            operand = check(node.value, inner)
            if inner:
                raise ExprError("'!' applies only to constant expressions", bang)
            value = eval(_compile(operand), _NO_BUILTINS)
            if value < 0 or value != int(value):
                raise ExprError(f"'!' needs a nonnegative integer, got {value}", bang)
            return ast.copy_location(ast.Constant(float(math.factorial(int(value)))), node)
        else:
            snippet = src[pos : origin[node.end_col_offset - 1] + 1]
            raise ExprError(f"{snippet!r} is outside the expression grammar", pos)
        return node

    names = {}
    return Expression(src, _compile(check(tree.body, names)), names)
