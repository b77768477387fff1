"""Substitutions and one-sided matching."""
from __future__ import annotations

from .errors import SortMismatch, VzError
from .terms import (Application, Constant, Exists, ForAll, FunctionSymbol,
                    Modal, Record, SymbolVariable, Variable, children, fits,
                    rebuild, sort_of)


class Substitution(Record, var_bindings=(), sym_bindings=()):
    """Finite, sort-preserving map from variables to terms (and, in
    higher-order mode, from symbol variables to function symbols): tuples
    of (Variable, Term) and (SymbolVariable, FunctionSymbol) pairs, in
    name order."""
    __slots__ = ("var_bindings", "sym_bindings")

    def __post_init__(self):
        for v, t in self.var_bindings:
            if not fits(sort_of(t), v.sort):
                raise SortMismatch(f"binding {v!r} -> {t!r} violates sorts")
        for sv, fs in self.sym_bindings:
            if sv.arg_sorts != fs.arg_sorts or sv.result_sort != fs.result_sort:
                raise SortMismatch(f"binding {sv!r} -> {fs!r} changes signature")

    @classmethod
    def of(cls, mapping=None, symbols=None):
        vb = tuple(sorted((mapping or {}).items(), key=lambda kv: kv[0].name))
        sb = tuple(sorted((symbols or {}).items(), key=lambda kv: kv[0].name))
        return cls(vb, sb)

    @property
    def vars(self) -> dict:
        return dict(self.var_bindings)

    @property
    def symbols(self) -> dict:
        return dict(self.sym_bindings)

    def __repr__(self):
        items = [f"{v!r}->{t!r}" for v, t in self.var_bindings]
        items += [f"{sv!r}->{fs!r}" for sv, fs in self.sym_bindings]
        return "{" + ", ".join(items) + "}"


def apply_substitution(s: Substitution, x):
    """Replace every free occurrence of a bound variable; quantified
    occurrences are untouched."""
    return _apply(s.vars, s.symbols, x)


def _apply(vb, sb, node):
    if isinstance(node, Variable):
        return vb.get(node, node)
    if isinstance(node, Constant):
        return node
    if isinstance(node, (ForAll, Exists)):
        vb = {v: t for v, t in vb.items() if v not in node.vars}
    kids = [_apply(vb, sb, sub) for sub in children(node)]
    if isinstance(node, Application) and isinstance(node.symbol, SymbolVariable):
        return Application(sb.get(node.symbol, node.symbol), tuple(kids))
    return rebuild(node, kids)


def match(pattern, target) -> Substitution | None:
    """One-sided matching: find s with apply_substitution(s, pattern) ==
    target (up to alpha under binders). Returns None when no match."""
    vb: dict = {}
    sb: dict = {}
    if _match(pattern, target, vb, sb, {}):
        return Substitution.of(vb, sb)
    return None


def _match(p, t, vb, sb, bound_map):
    # bound_map: target bound variable -> pattern bound variable
    if isinstance(p, Variable):
        if p in bound_map.values():
            # p is a binder-bound pattern variable: must correspond exactly
            return isinstance(t, Variable) and bound_map.get(t) == p
        if p in vb:
            return vb[p] == t
        if isinstance(t, Variable) and t in bound_map:
            return False
        try:
            if not fits(sort_of(t), p.sort):
                return False
        except VzError:
            return False
        vb[p] = t
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
            if psym in sb:
                if sb[psym] != tsym:
                    return False
            else:
                sb[psym] = tsym
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
    return len(pk) == len(tk) and all(_match(a, b, vb, sb, bound_map) for a, b in zip(pk, tk))
