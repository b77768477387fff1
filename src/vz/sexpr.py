"""Minimal s-expression reader with source positions.

The input is ASCII. Its tokens are parens; numbers, an optional sign, a
digit, then digits and at most one dot (``[+-]?[0-9][0-9.]*``); and
symbols, runs of letters, digits and ``-_?*``. Spaces, tabs, carriage
returns, newlines and comments (``;`` to the end of the line) separate
them; any other character is an error. Lists nest at most MAX_NESTING
deep.
"""
from __future__ import annotations

import re

from .errors import ParseError
from .terms import Record

# The deepest that lists may nest. Every later pass over a term or
# formula (the parser, modal_depth, printing, matching, saturate,
# anti-unification) recurses a few frames per level, so this one bound
# keeps them all inside Python's recursion limit.
MAX_NESTING = 100


class SSym(Record):
    __slots__ = ("text", "line", "col")


class SNum(Record):
    __slots__ = ("text", "line", "col")

    @property
    def is_int(self):
        return "." not in self.text

    @property
    def value(self):
        """The integer an is_int literal names."""
        try:
            return int(self.text)
        except ValueError:  # more digits than int() converts
            raise ParseError(f"integer literal too long: {len(self.text.lstrip('+-'))} digits",
                             self.line, self.col) from None


class SList(Record):
    __slots__ = ("items", "line", "col")


# One match per token or newline, with the spaces before it (never the
# spaces alone); a comment is a match of no kind. [0-9] and the symbol
# class are ASCII only, unlike \d and \w.
_TOKEN = re.compile(r"[ \t\r]*(?:;.*|(?P<newline>\n)|(?P<open>\()|(?P<close>\))"
                    r"|(?P<num>[+-]?[0-9][0-9.]*)|(?P<sym>[A-Za-z0-9_?*-]+)|(?P<bad>[^ \t\r]))")


def _tokens(text):
    """Yield (kind, text, line, col) for each paren and atom; kind is
    "open", "close", "num" or "sym". One scan of the whole text, which
    counts the lines at its newlines."""
    line, start = 1, 0  # the current line and the offset it starts at
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        if kind == "newline":
            line, start = line + 1, m.end()
            continue
        word, col = m.group(kind), m.start(kind) - start + 1
        if kind == "bad":
            raise ParseError(f"unexpected character {word!r}", line, col)
        if kind == "num" and word.count(".") > 1:
            raise ParseError(f"bad number {word!r}", line, col)
        yield kind, word, line, col


def read_all(text: str) -> list:
    """Parse every top-level s-expression in the input. The whole text is
    lexed first, so a lexical fault is named before a structural one."""
    stack = [([], None, None)]  # each open list's items and (line, col), the top level first
    for kind, word, line, col in list(_tokens(text)):
        if kind == "open":
            if len(stack) > MAX_NESTING:
                raise ParseError(f"lists nest more than {MAX_NESTING} deep", line, col)
            stack.append(([], line, col))
        elif kind == "close":
            if len(stack) == 1:
                raise ParseError("unmatched ')'", line, col)
            items, open_line, open_col = stack.pop()
            stack[-1][0].append(SList(tuple(items), open_line, open_col))
        else:
            stack[-1][0].append((SNum if kind == "num" else SSym)(word, line, col))
    if len(stack) > 1:
        _, line, col = stack[-1]  # the innermost list left open
        raise ParseError("unclosed parenthesis", line, col)
    return stack[0][0]
