"""Minimal s-expression reader with source positions.

Tokens: parens, symbols (ASCII alphanumerics plus ``-_?*``), and signed
decimal numbers. ``;`` starts a comment running to end of line.
"""
from __future__ import annotations

import bisect

from .errors import ParseError
from .terms import Record


class SSym(Record):
    __slots__ = ("text", "line", "col")


class SNum(Record):
    __slots__ = ("text", "line", "col")

    @property
    def is_int(self):
        return "." not in self.text

    @property
    def value(self):
        if not self.is_int:
            return float(self.text)
        try:
            return int(self.text)
        except ValueError:  # more digits than int() converts
            raise ParseError(f"integer literal too long: {len(self.text.lstrip('+-'))} digits",
                             self.line, self.col) from None


class SList(Record):
    __slots__ = ("items", "line", "col")


_SYMCHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_?*")
_NUMCHARS = set("0123456789.")


class _Lexer:
    def __init__(self, text):
        self.text = text
        self.line_starts = [0]
        for i, c in enumerate(text):
            if c == "\n":
                self.line_starts.append(i + 1)

    def pos(self, i):
        ln = bisect.bisect_right(self.line_starts, i) - 1
        return ln + 1, i - self.line_starts[ln] + 1

    def tokens(self):
        text, n, i = self.text, len(self.text), 0
        while i < n:
            c = text[i]
            if c in " \t\r\n":
                i += 1
            elif c == ";":
                while i < n and text[i] != "\n":
                    i += 1
            elif c in "()":
                yield (c,) + self.pos(i)
                i += 1
            elif c.isdigit() or (c in "+-" and i + 1 < n and text[i + 1].isdigit()):
                start = i
                i += 1
                while i < n and text[i] in _NUMCHARS:
                    i += 1
                word = text[start:i]
                line, col = self.pos(start)
                if word.count(".") > 1:
                    raise ParseError(f"bad number {word!r}", line, col)
                yield (SNum(word, line, col), line, col)
            elif c in _SYMCHARS:
                start = i
                while i < n and text[i] in _SYMCHARS:
                    i += 1
                line, col = self.pos(start)
                yield (SSym(text[start:i], line, col), line, col)
            else:
                line, col = self.pos(i)
                raise ParseError(f"unexpected character {c!r}", line, col)
        yield (None,) + self.pos(n)


def read_all(text: str) -> list:
    """Parse every top-level s-expression in the input."""
    toks = list(_Lexer(text).tokens())
    pos = 0
    out = []

    def read_one():
        nonlocal pos
        tok, line, col = toks[pos]  # never the end: both callers look first
        pos += 1
        if tok == "(":
            items = []
            while True:
                nxt, _, _ = toks[pos]
                if nxt is None:
                    raise ParseError("unclosed parenthesis", line, col)
                if nxt == ")":
                    pos += 1
                    return SList(tuple(items), line, col)
                items.append(read_one())
        if tok == ")":
            raise ParseError("unmatched ')'", line, col)
        return tok

    while toks[pos][0] is not None:
        out.append(read_one())
    return out
