"""Substitutions and one-sided matching."""
from __future__ import annotations

from dataclasses import dataclass

from .errors import SortMismatch
from .terms import (And, Application, Atom, Constant, Exists, ForAll, Formula,
                    FunctionSymbol, Iff, Implies, Modal, Not, Or, Ought,
                    SymbolVariable, Term, Variable, fits, sort_of)


@dataclass(frozen=True)
class Substitution:
    """Finite, sort-preserving map from variables to terms (and, in
    higher-order mode, from symbol variables to function symbols)."""
    var_bindings: tuple[tuple[Variable, Term], ...] = ()
    sym_bindings: tuple[tuple[SymbolVariable, FunctionSymbol], ...] = ()

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

    def is_empty(self) -> bool:
        return not self.var_bindings and not self.sym_bindings

    def __repr__(self):
        items = [f"{v!r}->{t!r}" for v, t in self.var_bindings]
        items += [f"{sv!r}->{fs!r}" for sv, fs in self.sym_bindings]
        return "{" + ", ".join(items) + "}"


EMPTY = Substitution()


def apply_substitution(s: Substitution, x):
    """Replace every free occurrence of a bound variable; quantified
    occurrences are untouched."""
    return _apply(s.vars, s.symbols, x)


def _apply(vb, sb, node):
    if isinstance(node, Variable):
        return vb.get(node, node)
    if isinstance(node, Constant):
        return node
    if isinstance(node, Application):
        sym = node.symbol
        if isinstance(sym, SymbolVariable):
            sym = sb.get(sym, sym)
        return Application(sym, tuple(_apply(vb, sb, a) for a in node.args))
    if isinstance(node, Atom):
        return Atom(_apply(vb, sb, node.pred))
    if isinstance(node, Not):
        return Not(_apply(vb, sb, node.body))
    if isinstance(node, And):
        return And(tuple(_apply(vb, sb, p) for p in node.parts))
    if isinstance(node, Or):
        return Or(tuple(_apply(vb, sb, p) for p in node.parts))
    if isinstance(node, Implies):
        return Implies(_apply(vb, sb, node.lhs), _apply(vb, sb, node.rhs))
    if isinstance(node, Iff):
        return Iff(_apply(vb, sb, node.lhs), _apply(vb, sb, node.rhs))
    if isinstance(node, (ForAll, Exists)):
        inner = {v: t for v, t in vb.items() if v not in node.vars}
        return type(node)(node.vars, _apply(inner, sb, node.body))
    if isinstance(node, Modal):
        return Modal(node.op,
                     tuple(_apply(vb, sb, a) for a in node.agents),
                     _apply(vb, sb, node.time),
                     _apply(vb, sb, node.body))
    if isinstance(node, Ought):
        return Ought(_apply(vb, sb, node.agent), _apply(vb, sb, node.time),
                     _apply(vb, sb, node.condition), _apply(vb, sb, node.body))
    raise TypeError(f"not a term or formula: {node!r}")


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
        except Exception:
            return False
        vb[p] = t
        return True
    if isinstance(p, Constant):
        return p == t
    if isinstance(p, Application):
        if not isinstance(t, Application):
            return False
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
        if len(p.args) != len(t.args):
            return False
        return all(_match(pa, ta, vb, sb, bound_map) for pa, ta in zip(p.args, t.args))
    if isinstance(p, Atom):
        return isinstance(t, Atom) and _match(p.pred, t.pred, vb, sb, bound_map)
    if isinstance(p, Not):
        return isinstance(t, Not) and _match(p.body, t.body, vb, sb, bound_map)
    if isinstance(p, (And, Or)):
        return (type(p) is type(t) and len(p.parts) == len(t.parts)
                and all(_match(pp, tp, vb, sb, bound_map) for pp, tp in zip(p.parts, t.parts)))
    if isinstance(p, (Implies, Iff)):
        return (type(p) is type(t)
                and _match(p.lhs, t.lhs, vb, sb, bound_map)
                and _match(p.rhs, t.rhs, vb, sb, bound_map))
    if isinstance(p, (ForAll, Exists)):
        if type(p) is not type(t) or len(p.vars) != len(t.vars):
            return False
        if any(pv.sort != tv.sort for pv, tv in zip(p.vars, t.vars)):
            return False
        inner = dict(bound_map)
        inner.update({tv: pv for pv, tv in zip(p.vars, t.vars)})
        return _match(p.body, t.body, vb, sb, inner)
    if isinstance(p, Modal):
        return (isinstance(t, Modal) and p.op == t.op and len(p.agents) == len(t.agents)
                and all(_match(pa, ta, vb, sb, bound_map) for pa, ta in zip(p.agents, t.agents))
                and _match(p.time, t.time, vb, sb, bound_map)
                and _match(p.body, t.body, vb, sb, bound_map))
    if isinstance(p, Ought):
        return (isinstance(t, Ought)
                and _match(p.agent, t.agent, vb, sb, bound_map)
                and _match(p.time, t.time, vb, sb, bound_map)
                and _match(p.condition, t.condition, vb, sb, bound_map)
                and _match(p.body, t.body, vb, sb, bound_map))
    raise TypeError(f"not a term or formula: {p!r}")
