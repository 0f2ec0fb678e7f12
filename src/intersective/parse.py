"""Parser for integer polynomial expressions in the variable x.

Grammar: integer literals, x, binary + - *, ^ with a nonnegative integer
literal exponent (at most 64), parentheses nested at most MAX_DEPTH deep, and
a leading unary minus at the start of any (sub)expression. parse_poly expands
products exactly, so parsing is a fixed point on the canonical printed form of
a polynomial; parse_factors stops short of the top-level product and returns
its multiplicands. A product or power whose degree would exceed MAX_DEGREE is
rejected before it is expanded.
"""

from __future__ import annotations

import math
import re

from .polys import NEG_INF, IntPoly

MAX_EXPONENT = 64
MAX_DEGREE = 1024
MAX_DEPTH = 100  # parentheses; the recursive descent uses 4 frames per level


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens, pos = [], 1
    # [0-9]: str.isdigit also accepts "²" and "٣", and \d accepts "٣"
    for tok in re.findall(r"[0-9]+\.?|\s+|.", text):
        if tok[0] in "0123456789":
            if tok[-1] == ".":
                raise ParseError("non-integer literal", pos + len(tok) - 1)
            tokens.append(("int", int(tok), pos))
        elif tok in "x+-*^()":
            tokens.append((tok, None, pos))
        elif not tok.isspace():
            raise ParseError(f"unexpected character {tok!r}", pos)
        pos += len(tok)
    tokens.append(("end", None, len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expr(self) -> list[IntPoly]:
        """The multiplicands of a top-level product; a sum is one factor."""
        fs = []
        if self.peek()[0] == "-":
            self.take()
            fs.append(IntPoly.constant(-1))
        fs += self.term()
        while self.peek()[0] in ("+", "-"):
            op, _, _ = self.take()
            rhs = _product(self.term())
            fs = [_product(fs) + rhs if op == "+" else _product(fs) - rhs]
        return fs

    def term(self) -> list[IntPoly]:
        fs = self.factor()
        while self.peek()[0] == "*":
            _, _, pos = self.take()
            rhs = self.factor()
            if _degree(fs) + _degree(rhs) > MAX_DEGREE:
                raise ParseError(f"degree exceeds {MAX_DEGREE}", pos)
            fs += rhs
        return fs

    def factor(self) -> list[IntPoly]:
        """A power f^k as k copies of f."""
        base = self.primary()
        if self.peek()[0] == "^":
            _, _, pos = self.take()
            kind, value, vpos = self.peek()
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer", pos)
            self.take()
            if value > MAX_EXPONENT:
                raise ParseError(f"exponent exceeds {MAX_EXPONENT}", vpos)
            if base.degree * value > MAX_DEGREE:
                raise ParseError(f"degree exceeds {MAX_DEGREE}", pos)
            return [base] * value
        return [base]

    def primary(self) -> IntPoly:
        kind, value, pos = self.take()
        if kind == "int":
            return IntPoly.constant(value)
        if kind == "x":
            return IntPoly.x()
        if kind == "(":
            self.depth += 1
            if self.depth > MAX_DEPTH:
                raise ParseError(f"parentheses nested deeper than {MAX_DEPTH}", pos)
            inner = _product(self.expr())
            kind2, _, pos2 = self.take()
            if kind2 != ")":
                raise ParseError("expected ')'", pos2)
            self.depth -= 1
            return inner
        raise ParseError("expected a term", pos)


def _product(fs: list[IntPoly]) -> IntPoly:
    return math.prod(fs, start=IntPoly.constant(1))


def _degree(fs: list[IntPoly]) -> float:
    """Degree of the product of fs, without forming it."""
    return NEG_INF if any(f.is_zero for f in fs) else sum(f.degree for f in fs)


def parse_factors(text: str) -> list[IntPoly]:
    """The multiplicands of the expression's top-level product, whose
    product is the expression: "(x^2+1)^2*(x-3)" gives x^2+1 twice and x-3,
    and a top-level sum such as "x^2-1" is one factor."""
    if not text.strip():
        raise ParseError("empty expression", 1)
    parser = _Parser(_tokenize(text))
    fs = parser.expr()
    kind, _, pos = parser.peek()
    if kind != "end":
        raise ParseError("unexpected trailing input", pos)
    return fs


def parse_poly(text: str) -> IntPoly:
    """Parse an expression like "(x^3-19)*(x^2+x+1)" into an IntPoly."""
    return _product(parse_factors(text))
