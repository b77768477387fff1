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


def print_term(x, bound=frozenset()) -> str:
    """Print a term or formula; ``bound`` holds the variables bound by
    enclosing quantifiers."""
    if isinstance(x, Variable):
        return x.name if x in bound else f"?{x.name}"
    if isinstance(x, Constant):
        return x.name
    if isinstance(x, Atom):
        return print_term(x.pred, bound)
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
        parts.append(print_term(sub, bound))
    return f"({' '.join(parts)})"


print_formula = print_term
