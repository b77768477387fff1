"""Substitutions (dicts) and one-sided matching."""
from __future__ import annotations

from .errors import VzError
from .terms import (Application, Constant, Exists, ForAll, FunctionSymbol,
                    Modal, SymbolVariable, Variable, children, fits, rebuild,
                    sort_of)


def apply_substitution(s: dict, x):
    """Replace every free occurrence of a variable bound in s, and in
    higher-order mode every bound symbol variable; quantified occurrences
    are untouched. A substitution is a dict from Variables to terms and
    from SymbolVariables to FunctionSymbols."""
    if isinstance(x, Variable):
        return s.get(x, x)
    if isinstance(x, Constant):
        return x
    if isinstance(x, (ForAll, Exists)):
        s = {v: t for v, t in s.items() if v not in x.vars}
    kids = [apply_substitution(s, sub) for sub in children(x)]
    if isinstance(x, Application) and isinstance(x.symbol, SymbolVariable):
        return Application(s.get(x.symbol, x.symbol), tuple(kids))
    return rebuild(x, kids)


def match(pattern, target) -> dict | None:
    """One-sided matching: find s with apply_substitution(s, pattern) ==
    target (up to alpha under binders). Returns None when no match. Each
    binding is checked here to preserve sorts (and signatures)."""
    s: dict = {}
    return s if _match(pattern, target, s, {}) else None


def _match(p, t, s, bound_map):
    # bound_map: target bound variable -> pattern bound variable
    if isinstance(p, Variable):
        if p in bound_map.values():
            # p is a binder-bound pattern variable: must correspond exactly
            return isinstance(t, Variable) and bound_map.get(t) == p
        if p in s:
            return s[p] == t
        if isinstance(t, Variable) and t in bound_map:
            return False
        try:
            if not fits(sort_of(t), p.sort):
                return False
        except VzError:
            return False
        s[p] = t
        return True
    if isinstance(p, Constant):
        return p == t
    if type(p) is not type(t):
        return False
    if isinstance(p, Application):
        psym = p.symbol
        if isinstance(psym, SymbolVariable):
            tsym = t.symbol
            if not isinstance(tsym, FunctionSymbol):
                return False
            if psym.arg_sorts != tsym.arg_sorts or psym.result_sort != tsym.result_sort:
                return False
            if psym in s:
                if s[psym] != tsym:
                    return False
            else:
                s[psym] = tsym
        elif psym != t.symbol:
            return False
    elif isinstance(p, (ForAll, Exists)):
        if len(p.vars) != len(t.vars):
            return False
        if any(pv.sort != tv.sort for pv, tv in zip(p.vars, t.vars)):
            return False
        bound_map = dict(bound_map)
        bound_map.update({tv: pv for pv, tv in zip(p.vars, t.vars)})
    elif isinstance(p, Modal) and p.op != t.op:
        return False
    pk, tk = children(p), children(t)
    return len(pk) == len(tk) and all(_match(a, b, s, bound_map) for a, b in zip(pk, tk))
