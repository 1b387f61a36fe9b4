"""Proposition expressions over named projectors.

Grammar, loosest to tightest binding: ``=>`` (right associative), ``|``,
``&``, ``!``; parentheses group.  Leaves are identifiers naming projectors.

``parse_prop`` parses by operator precedence on two explicit stacks, one of
operands and one of pending ``!``, ``(`` and binary operators, and every
tree walk is one ``fold`` on an explicit stack, so no expression is too
deep to parse, print or evaluate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

from .errors import ParseError


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class Not:
    operand: "PropExpr"


@dataclass(frozen=True)
class And:
    left: "PropExpr"
    right: "PropExpr"


@dataclass(frozen=True)
class Or:
    left: "PropExpr"
    right: "PropExpr"


@dataclass(frozen=True)
class Implies:
    left: "PropExpr"
    right: "PropExpr"


PropExpr = Name | Not | And | Or | Implies

_TOKEN = re.compile(r"\s*(=>|[!&|()]|[A-Za-z_][A-Za-z0-9_]*)")
_BINARY = {"=>": Implies, "|": Or, "&": And}
_PRECEDENCE = {Implies: 0, Or: 1, And: 2, Not: 3, Name: 4}
_SYMBOL = {Implies: " => ", Or: " | ", And: " & "}


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            column = len(text) - len(rest) + 1
            raise ParseError(f"unexpected character {rest[0]!r}", f"column {column}")
        tokens.append((match.group(1), match.start(1) + 1))
        pos = match.end()
    return tokens


def parse_prop(text: str) -> PropExpr:
    """Parse a proposition expression; raises ParseError with a column."""
    operands: list[PropExpr] = []
    pending: list = []  # Not, a binary node type, or None for "("

    def reduce() -> None:
        kind = pending.pop()
        if kind is Not:
            operands.append(Not(operands.pop()))
        else:
            right = operands.pop()
            operands.append(kind(operands.pop(), right))

    want_operand = True
    for token, column in _tokenize(text) + [(None, len(text) + 1)]:
        if want_operand:
            if token in ("!", "("):
                pending.append(Not if token == "!" else None)
            elif token is None:
                raise ParseError("unexpected end of expression", f"column {column}")
            elif token in _BINARY or token == ")":
                raise ParseError(f"unexpected token {token!r}", f"column {column}")
            else:
                operands.append(Name(token))
                want_operand = False
        elif token in _BINARY:
            kind = _BINARY[token]
            # reduce tighter operators, and equal ones unless right associative
            bound = _PRECEDENCE[kind] + (kind is Implies)
            while (pending and pending[-1] is not None
                   and _PRECEDENCE[pending[-1]] >= bound):
                reduce()
            pending.append(kind)
            want_operand = True
        else:  # ")", the end, or a token that cannot follow an operand
            while pending and pending[-1] is not None:
                reduce()
            if token == ")" and pending:
                pending.pop()
            elif pending:
                raise ParseError("expected ')'", f"column {column}")
            elif token is not None:
                raise ParseError(f"unexpected token {token!r}", f"column {column}")
    return operands.pop()


def fold(expr: PropExpr, leaf: Callable, combine: Callable):
    """Post-order fold on an explicit stack: ``leaf(name)`` at each leaf and
    ``combine(node, *child_values)`` at each connective.  Left subtrees come
    before right ones, so the calls are those of a recursive walk, in order."""
    values: list = []
    stack: list = [(expr, False)]
    while stack:
        node, ready = stack.pop()
        if isinstance(node, Name):
            values.append(leaf(node))
        elif ready:
            arity = 1 if isinstance(node, Not) else 2
            parts = values[-arity:]
            del values[-arity:]
            values.append(combine(node, *parts))
        else:
            stack.append((node, True))
            if isinstance(node, Not):
                stack.append((node.operand, False))
            else:
                stack += [(node.right, False), (node.left, False)]
    return values.pop()


def _pretty_node(node: PropExpr, *parts: tuple[str, int]) -> tuple[str, int]:
    prec = _PRECEDENCE[type(node)]
    if isinstance(node, Not):
        (inner, inner_prec), = parts
        return ("!" + (f"({inner})" if inner_prec < prec else inner)), prec
    (left, left_prec), (right, right_prec) = parts
    # left-assoc operators need parens on an equal-precedence right child,
    # the right-assoc arrow on an equal-precedence left child
    arrow = isinstance(node, Implies)
    if left_prec < prec + arrow:
        left = f"({left})"
    if right_prec < prec + (not arrow):
        right = f"({right})"
    return f"{left}{_SYMBOL[type(node)]}{right}", prec


def pretty(expr: PropExpr) -> str:
    """Render with minimal parentheses; parse_prop(pretty(e)) == e."""
    return fold(expr, lambda name: (name.ident, _PRECEDENCE[Name]),
                _pretty_node)[0]


def leaf_names(expr: PropExpr) -> tuple[str, ...]:
    """Sorted identifiers appearing in the expression."""
    found: set[str] = set()
    fold(expr, lambda name: found.add(name.ident), lambda node, *parts: None)
    return tuple(sorted(found))
