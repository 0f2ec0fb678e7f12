"""Parser for integer polynomial expressions in the variable x.

Grammar: integer literals, x, binary + - *, ^ with a nonnegative integer
literal exponent (at most 64), parentheses nested at most MAX_DEPTH deep, and
a leading unary minus at the start of any (sub)expression. Products are
expanded exactly, so parsing is a fixed point on the canonical printed form of
a polynomial. A product or power whose degree would exceed MAX_DEGREE is
rejected before it is expanded.
"""

from __future__ import annotations

from .polys import IntPoly

MAX_EXPONENT = 64
MAX_DEGREE = 1024
MAX_DEPTH = 100  # parentheses; the recursive descent uses 4 frames per level


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            if j < len(text) and text[j] == ".":
                raise ParseError("non-integer literal", j + 1)
            tokens.append(("int", int(text[i:j]), i + 1))
            i = j
            continue
        if ch == "x":
            tokens.append(("x", None, i + 1))
        elif ch in "+-*^()":
            tokens.append((ch, None, i + 1))
        else:
            raise ParseError(f"unexpected character {ch!r}", i + 1)
        i += 1
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

    def expr(self) -> IntPoly:
        negate = False
        if self.peek()[0] == "-":
            self.take()
            negate = True
        acc = self.term()
        if negate:
            acc = -acc
        while self.peek()[0] in ("+", "-"):
            op, _, _ = self.take()
            rhs = self.term()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def term(self) -> IntPoly:
        acc = self.factor()
        while self.peek()[0] == "*":
            _, _, pos = self.take()
            rhs = self.factor()
            if acc.degree + rhs.degree > MAX_DEGREE:
                raise ParseError(f"degree exceeds {MAX_DEGREE}", pos)
            acc = acc * rhs
        return acc

    def factor(self) -> IntPoly:
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
            return base ** value
        return base

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
            inner = self.expr()
            kind2, _, pos2 = self.take()
            if kind2 != ")":
                raise ParseError("expected ')'", pos2)
            self.depth -= 1
            return inner
        raise ParseError("expected a term", pos)


def parse_poly(text: str) -> IntPoly:
    """Parse an expression like "(x^3-19)*(x^2+x+1)" into an IntPoly."""
    if not text or not text.strip():
        raise ParseError("empty expression", 1)
    parser = _Parser(_tokenize(text))
    poly = parser.expr()
    kind, _, pos = parser.peek()
    if kind != "end":
        raise ParseError("unexpected trailing input", pos)
    return poly
