"""The proposition language: parsing, printing and folding.

``reference_parse_prop``, ``reference_pretty`` and ``reference_leaf_names``
below are the earlier recursive versions, kept verbatim as the reference the
explicit-stack versions in ``qtopos.props`` must agree with.  They recurse,
so they only ever see shallow trees here; deep trees are compared through
``pretty`` strings or fold results, since dataclass ``==``, ``hash`` and
``repr`` recurse too.
"""
from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtopos.errors import ParseError
from qtopos.props import (
    And,
    Implies,
    Name,
    Not,
    Or,
    PropExpr,
    _tokenize,
    fold,
    leaf_names,
    parse_prop,
    pretty,
)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> str | None:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][0]
        return None

    def column(self) -> int:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][1]
        return len(self.text) + 1

    def take(self) -> str:
        token = self.peek()
        self.pos += 1
        return token

    def parse(self) -> PropExpr:
        expr = self.implies()
        if self.peek() is not None:
            raise ParseError(f"unexpected token {self.peek()!r}",
                             f"column {self.column()}")
        return expr

    def implies(self) -> PropExpr:
        left = self.disjunction()
        if self.peek() == "=>":
            self.take()
            return Implies(left, self.implies())
        return left

    def disjunction(self) -> PropExpr:
        expr = self.conjunction()
        while self.peek() == "|":
            self.take()
            expr = Or(expr, self.conjunction())
        return expr

    def conjunction(self) -> PropExpr:
        expr = self.unary()
        while self.peek() == "&":
            self.take()
            expr = And(expr, self.unary())
        return expr

    def unary(self) -> PropExpr:
        if self.peek() == "!":
            self.take()
            return Not(self.unary())
        return self.atom()

    def atom(self) -> PropExpr:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of expression",
                             f"column {self.column()}")
        if token == "(":
            self.take()
            expr = self.implies()
            if self.peek() != ")":
                raise ParseError("expected ')'", f"column {self.column()}")
            self.take()
            return expr
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", token):
            self.take()
            return Name(token)
        raise ParseError(f"unexpected token {token!r}", f"column {self.column()}")


def reference_parse_prop(text: str) -> PropExpr:
    """Parse a proposition expression; raises ParseError with a column."""
    return _Parser(text).parse()


_PRECEDENCE = {Implies: 0, Or: 1, And: 2, Not: 3, Name: 4}


def reference_pretty(expr: PropExpr) -> str:
    """Render with minimal parentheses; parse_prop(pretty(e)) == e."""
    prec = _PRECEDENCE[type(expr)]
    if isinstance(expr, Name):
        return expr.ident
    if isinstance(expr, Not):
        inner = reference_pretty(expr.operand)
        if _PRECEDENCE[type(expr.operand)] < prec:
            inner = f"({inner})"
        return f"!{inner}"
    if isinstance(expr, And):
        symbol, left_tight = " & ", False
    elif isinstance(expr, Or):
        symbol, left_tight = " | ", False
    else:
        symbol, left_tight = " => ", True
    left = reference_pretty(expr.left)
    right = reference_pretty(expr.right)
    # left-assoc operators need parens on an equal-precedence right child,
    # the right-assoc arrow on an equal-precedence left child
    if _PRECEDENCE[type(expr.left)] < prec or (
            left_tight and _PRECEDENCE[type(expr.left)] == prec):
        left = f"({left})"
    if _PRECEDENCE[type(expr.right)] < prec or (
            not left_tight and _PRECEDENCE[type(expr.right)] == prec):
        right = f"({right})"
    return f"{left}{symbol}{right}"


def reference_leaf_names(expr: PropExpr) -> tuple[str, ...]:
    """Sorted identifiers appearing in the expression."""
    found: set[str] = set()

    def walk(node: PropExpr) -> None:
        if isinstance(node, Name):
            found.add(node.ident)
        elif isinstance(node, Not):
            walk(node.operand)
        else:
            walk(node.left)
            walk(node.right)

    walk(expr)
    return tuple(sorted(found))


class TestParsing:
    def test_precedence_and_over_implies(self):
        assert parse_prop("P & Q => R") == \
            Implies(And(Name("P"), Name("Q")), Name("R"))

    def test_not_binds_tightest(self):
        assert parse_prop("!P | Q") == Or(Not(Name("P")), Name("Q"))
        assert parse_prop("!P & Q") == And(Not(Name("P")), Name("Q"))

    def test_implies_right_associative(self):
        assert parse_prop("A => B => C") == \
            Implies(Name("A"), Implies(Name("B"), Name("C")))

    def test_and_over_or(self):
        assert parse_prop("A | B & C") == Or(Name("A"), And(Name("B"), Name("C")))

    def test_left_associative_chains(self):
        assert parse_prop("A & B & C") == And(And(Name("A"), Name("B")), Name("C"))
        assert parse_prop("A | B | C") == Or(Or(Name("A"), Name("B")), Name("C"))

    def test_parentheses_override(self):
        assert parse_prop("A & (B | C)") == And(Name("A"), Or(Name("B"), Name("C")))
        assert parse_prop("(A => B) => C") == \
            Implies(Implies(Name("A"), Name("B")), Name("C"))

    def test_double_negation(self):
        assert parse_prop("!!P") == Not(Not(Name("P")))

    def test_identifier_characters(self):
        assert parse_prop("_p2 & Q_x") == And(Name("_p2"), Name("Q_x"))

    def test_whitespace_insensitive(self):
        assert parse_prop("A=>B") == parse_prop("  A  =>  B ")


class TestParseErrors:
    @pytest.mark.parametrize("text", ["", "A &", "(A", "A )", "& A", "A B"])
    def test_malformed(self, text):
        with pytest.raises(ParseError):
            parse_prop(text)

    def test_bad_character_column(self):
        with pytest.raises(ParseError) as info:
            parse_prop("AB @ C")
        assert "column 4" in str(info.value)

    def test_trailing_token_column(self):
        with pytest.raises(ParseError) as info:
            parse_prop("A B")
        assert "column 3" in str(info.value)


def _random_expr(rng: np.random.Generator, depth: int):
    names = ["P", "Q", "R", "S_1", "tiny"]
    if depth == 0 or rng.random() < 0.3:
        return Name(names[int(rng.integers(0, len(names)))])
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return Not(_random_expr(rng, depth - 1))
    left = _random_expr(rng, depth - 1)
    right = _random_expr(rng, depth - 1)
    return (And, Or, Implies)[kind - 1](left, right)


class TestPretty:
    def test_round_trip_corpus(self):
        rng = np.random.default_rng(417)
        for _ in range(100):
            expr = _random_expr(rng, depth=5)
            assert parse_prop(pretty(expr)) == expr

    def test_minimal_parens_examples(self):
        assert pretty(Implies(And(Name("P"), Name("Q")), Name("R"))) == \
            "P & Q => R"
        assert pretty(Or(Not(Name("P")), Name("Q"))) == "!P | Q"
        assert pretty(Implies(Name("A"), Implies(Name("B"), Name("C")))) == \
            "A => B => C"
        assert pretty(Implies(Implies(Name("A"), Name("B")), Name("C"))) == \
            "(A => B) => C"
        assert pretty(And(Name("A"), Or(Name("B"), Name("C")))) == \
            "A & (B | C)"
        assert pretty(Not(And(Name("A"), Name("B")))) == "!(A & B)"

    def test_leaf_names(self):
        expr = parse_prop("!P & (Q => P) | R")
        assert leaf_names(expr) == ("P", "Q", "R")


_TOKENS = ["!", "&", "|", "=>", "(", ")", "P", "Q", "R_1"]
_GRAMMATICAL = st.recursive(
    st.sampled_from(["P", "Q", "R_1"]),
    lambda inner: st.one_of(
        inner.map(lambda text: "!" + text),
        inner.map(lambda text: f"( {text})"),
        st.tuples(inner, st.sampled_from([" & ", "|", " => "]),
                  inner).map("".join)),
    max_leaves=8)


def _splice(args) -> str:
    """Replace one character by a token, or drop it."""
    text, at, token = args
    return text[:at] + token + text[at + 1:]


# Grammatical strings exercise precedence; one splice makes a near miss whose
# error column matters; token soup, with spacing the tokenizer must see
# through ("a b" is two names, "= >" no arrow) and a bad character, covers
# the rest.
_EXPRESSION_TEXT = st.one_of(
    _GRAMMATICAL,
    st.tuples(_GRAMMATICAL, st.integers(0, 40),
              st.sampled_from(["", "@", *_TOKENS])).map(_splice),
    st.lists(st.sampled_from([*_TOKENS, " ", "a b", "= >", "@"]),
             max_size=12).map("".join))


class TestAgainstReference:
    @settings(max_examples=2000, deadline=None, derandomize=True,
              database=None)
    @given(_EXPRESSION_TEXT)
    def test_same_tree_or_same_error(self, text):
        try:
            expected = reference_pretty(reference_parse_prop(text))
        except ParseError as exc:
            with pytest.raises(ParseError) as info:
                parse_prop(text)
            assert str(info.value) == str(exc)
        else:
            assert pretty(parse_prop(text)) == expected

    def test_random_trees_print_and_list_names_alike(self):
        rng = np.random.default_rng(1961)
        for _ in range(2000):
            expr = _random_expr(rng, depth=int(rng.integers(0, 7)))
            assert pretty(expr) == reference_pretty(expr)
            assert leaf_names(expr) == reference_leaf_names(expr)
            assert parse_prop(pretty(expr)) == expr


def _recursive_calls(expr, calls):
    if isinstance(expr, Name):
        calls.append(expr.ident)
    elif isinstance(expr, Not):
        _recursive_calls(expr.operand, calls)
        calls.append("!")
    else:
        _recursive_calls(expr.left, calls)
        _recursive_calls(expr.right, calls)
        calls.append(type(expr).__name__)
    return calls


class TestFold:
    def test_calls_come_in_recursive_order(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            expr = _random_expr(rng, depth=6)
            calls = []
            fold(expr, lambda name: calls.append(name.ident),
                 lambda node, *parts: calls.append(
                     "!" if isinstance(node, Not) else type(node).__name__))
            assert calls == _recursive_calls(expr, [])

    def test_children_arrive_left_to_right(self):
        expr = parse_prop("A => !B & (C | D)")
        shape = fold(expr, lambda name: name.ident,
                     lambda node, *parts: (type(node).__name__, *parts))
        assert shape == ("Implies", "A",
                         ("And", ("Not", "B"), ("Or", "C", "D")))

    def test_first_error_stands(self):
        def leaf(name):
            if name.ident != "ok":
                raise KeyError(name.ident)
            return 1

        with pytest.raises(KeyError, match="first"):
            fold(parse_prop("ok & !first | (second => ok)"), leaf,
                 lambda node, *parts: sum(parts))


DEPTH = 10_000


class TestDeepExpressions:
    # A recursive walk overflows Python's stack at a few hundred levels.
    def test_nested_parentheses(self):
        text = "(" * DEPTH + "P" + ")" * DEPTH
        assert pretty(parse_prop(text)) == "P"

    def test_stacked_negations(self):
        text = "!" * DEPTH + "P"
        expr = parse_prop(text)
        assert pretty(expr) == text
        assert leaf_names(expr) == ("P",)

    @pytest.mark.parametrize("symbol", [" & ", " | ", " => "])
    def test_long_chains(self, symbol):
        # minimal parentheses reproduce the chain exactly: & and | nest to
        # the left, => to the right
        text = symbol.join(f"P{i % 7}" for i in range(DEPTH))
        expr = parse_prop(text)
        assert pretty(expr) == text
        assert leaf_names(expr) == tuple(f"P{i}" for i in range(7))
        assert fold(expr, lambda name: 1,
                    lambda node, *parts: sum(parts)) == DEPTH

    def test_unclosed_deep_parenthesis_reports_the_end(self):
        with pytest.raises(ParseError) as info:
            parse_prop("(" * DEPTH + "P")
        assert str(info.value) == f"expected ')' (at column {DEPTH + 2})"
