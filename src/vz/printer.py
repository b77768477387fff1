"""Canonical pretty-printer for terms and formulas.

The printed form is whitespace-normalized, deterministic, and
re-parseable: parse(print(f)) is alpha-equal to f. Bound variables print
bare (their binder carries the sort); free variables print with a ``?``
prefix.
"""
from __future__ import annotations

from .terms import (KEYWORDS, Application, Atom, Constant, Exists, ForAll,
                    Modal, SymbolVariable, Variable, children)


def print_real(x: float) -> str:
    s = repr(float(x))
    if "e" in s or "E" in s:
        # canonical format forbids scientific notation
        s = format(float(x), "f").rstrip("0")
        if s.endswith("."):
            s += "0"
    return s


def print_term(x, bound=frozenset(), memo=None) -> str:
    """Print a term or formula; ``bound`` holds the variables bound by
    enclosing quantifiers. A node printed under no binder has one text;
    ``memo``, if given, keeps it by id(node), so the caller must hold every
    node it prints with one memo for as long as it keeps that memo."""
    closed = memo is not None and not bound
    if closed and id(x) in memo:
        return memo[id(x)]
    if isinstance(x, Variable):
        return x.name if x in bound else f"?{x.name}"
    if isinstance(x, Constant):
        return x.name
    if isinstance(x, Atom):
        return print_term(x.pred, bound, memo)
    if isinstance(x, Application):
        head = f"?{x.symbol.name}" if isinstance(x.symbol, SymbolVariable) else x.symbol.name
    elif isinstance(x, (ForAll, Exists)):
        binders = " ".join(f"({v.name} {v.sort.value})" for v in x.vars)
        head = f"{KEYWORDS[type(x)]} ({binders})"
        bound = bound | set(x.vars)
    elif isinstance(x, Modal):
        head = x.op.value
    else:
        head = KEYWORDS[type(x)]
    parts = [head]
    for sub in children(x):
        parts.append(print_term(sub, bound, memo))
    text = f"({' '.join(parts)})"
    if closed:
        memo[id(x)] = text
    return text


print_formula = print_term
