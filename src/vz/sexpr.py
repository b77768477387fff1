"""Minimal s-expression reader with source positions.

The input is ASCII. Its tokens are parens; numbers, an optional sign, a
digit, then digits and at most one dot (``[+-]?[0-9][0-9.]*``); and
symbols, runs of letters, digits and ``-_?*``. Spaces, tabs, carriage
returns, newlines and comments (``;`` to the end of the line) separate
them; any other character is an error. Lists nest at most MAX_NESTING
deep.

A node's ``pos`` is the ordinal of its token (a list's open paren) among
the text's tokens and comments; ``locate`` counts lines only for an error.
"""
from __future__ import annotations

import itertools
import re

from .errors import ParseError
from .terms import Record

# The deepest that lists may nest. Every later pass over a term or
# formula (the parser, modal_depth, printing, matching, saturate,
# anti-unification) recurses a few frames per level, so this one bound
# keeps them all inside Python's recursion limit.
MAX_NESTING = 100


class SSym(Record):
    __slots__ = ("text", "pos")


class SNum(Record):
    __slots__ = ("text", "pos")

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
                             self.pos) from None


class SList(Record):
    __slots__ = ("items", "pos")


# One match per comment, paren or atom, and one per character that starts
# none of them (a lexical fault, as is a number with two dots). [0-9] and
# the symbol class are ASCII only, unlike \d and \w.
_TOKEN = re.compile(r";.*|[()]|[+-]?[0-9][0-9.]*|[A-Za-z0-9_?*-]+|[^ \t\r\n]")

# An atom's class by its first character; after a sign, a digit starts a number
_ATOM = dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_?*-", SSym)
_ATOM.update(dict.fromkeys("0123456789", SNum))


def _atom_class(tok):
    """SSym or SNum for an atom token; None for a paren, a comment or a fault."""
    cls = SNum if tok[0] in "+-" and tok[1:2].isdigit() else _ATOM.get(tok[0])
    return None if cls is SNum and tok.count(".") > 1 else cls


def read_all(text: str) -> list:
    """Parse every top-level s-expression in the input. A lexical fault
    is named before a structural one, wherever each stands."""
    items, stack = [], []  # the innermost open list's items; each open list's outer items and pos
    for pos, tok in enumerate(_TOKEN.findall(text)):
        if tok == "(":
            if len(stack) == MAX_NESTING:
                _fail(text, f"lists nest more than {MAX_NESTING} deep", pos)
            stack.append((items, pos))
            items = []
        elif tok == ")":
            if not stack:
                _fail(text, "unmatched ')'", pos)
            outer, start = stack.pop()
            outer.append(SList(tuple(items), start))
            items = outer
        elif _ATOM.get(tok[0]) is SSym and tok[0] != "-":
            items.append(SSym(tok, pos))
        elif cls := _atom_class(tok):  # a number, or an atom that starts with "-"
            items.append(cls(tok, pos))
        elif tok[0] != ";":
            _fail(text)
    if stack:
        _fail(text, "unclosed parenthesis", stack[-1][1])  # the innermost list left open
    return items


def _fail(text, message=None, pos=None):
    """Raise the first lexical fault in text, else ParseError(message) at token pos."""
    for i, tok in enumerate(_TOKEN.findall(text)):
        if tok[0] not in "();" and _atom_class(tok) is None:
            what = "bad number" if tok.count(".") > 1 else "unexpected character"
            message, pos = f"{what} {tok!r}", i
            break
    raise locate(ParseError(message, pos), text)


def where(text, pos) -> tuple[int, int]:
    """The 1-based line and column in text of the token that pos counts to."""
    start = next(itertools.islice(_TOKEN.finditer(text), pos, None)).start()
    return text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start)


def locate(exc, text):
    """exc, given the line and column in text of the token at its pos."""
    if exc.pos is not None and exc.line is None:
        exc.line, exc.col = where(text, exc.pos)
    return exc
