"""Canonical pretty-printer for terms and formulas.

The printed form is whitespace-normalized, deterministic, and
re-parseable: parse(print(f)) is alpha-equal to f. Bound variables print
bare (their binder carries the sort); free variables print with a ``?``
prefix.
"""
from __future__ import annotations

from .errors import UnknownSymbol
from .terms import (KEYWORDS, And, Application, Atom, Constant, Exists, ForAll, Iff,
                    Implies, Modal, ModalOp, Not, Or, Ought, SymbolVariable, Variable,
                    children)


def print_real(x: float) -> str:
    s = repr(float(x))
    if "e" in s or "E" in s:
        # canonical format forbids scientific notation
        s = format(float(x), "f").rstrip("0")
        if s.endswith("."):
            s += "0"
    return s


_closed: dict = {}  # node -> its text under no binder; nodes are interned, so live on


def print_term(x, bound=frozenset()) -> str:
    """Print a term or formula; ``bound`` holds the variables bound by
    enclosing quantifiers. A node printed under no binder has one text,
    which is kept and served again."""
    if not bound:
        try:
            if (text := _closed.get(x)) is not None:
                return text
        except TypeError:  # unhashable, so not a term: _PRINT has no entry for it
            pass
    entry = _PRINT.get(type(x))
    if entry is None:
        raise UnknownSymbol(f"not a term or formula: {x!r}")
    text = entry(x, bound)
    if not bound:
        _closed[x] = text
    return text


print_formula = print_term


def _form(head: str, subs, bound) -> str:
    return f"({' '.join([head, *[print_term(sub, bound) for sub in subs]])})"


def _connective(x, bound) -> str:
    return _form(KEYWORDS[type(x)], children(x), bound)


def _quantified(x, bound) -> str:
    binders = " ".join(f"({v.name} {v.sort.value})" for v in x.vars)
    return _form(f"{KEYWORDS[type(x)]} ({binders})", (x.body,), bound | set(x.vars))


_OPS = {op: op.value for op in ModalOp}

# The printer of each term and formula class: (node, bound) -> text.
_PRINT = {
    Variable: lambda x, bound: x.name if x in bound else f"?{x.name}",
    Constant: lambda x, bound: x.name,
    Application: lambda x, bound: _form(f"?{x.symbol.name}" if type(x.symbol) is SymbolVariable
                                        else x.symbol.name, x.args, bound),
    Atom: lambda x, bound: print_term(x.pred, bound),
    Modal: lambda x, bound: _form(_OPS[x.op], (*x.agents, x.time, x.body), bound),
    **dict.fromkeys((ForAll, Exists), _quantified),
    **dict.fromkeys((Not, And, Or, Implies, Iff, Ought), _connective),
}
