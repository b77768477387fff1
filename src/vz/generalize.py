"""Anti-unification (least general generalization) and set-level
generalization.

First-order mode abstracts differing subterms into variables; the
higher-order mode additionally abstracts differing function symbols of
identical signature into second-order symbol variables. Variable naming
is deterministic: X0, X1, ... / P0, P1, ... in leftmost-first order of
introduction, memoized per witness tuple so repeated disagreements
reuse the same variable.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import Incompatible, NoAlignment
from .printer import print_formula, print_term
from .subst import Substitution, apply_substitution, match
from .terms import (KEYWORDS, TERMS, And, Application, Atom, Exists, ForAll,
                    FunctionSymbol, Modal, Or, Sort, SymbolVariable, Term,
                    Variable, children, free_variables, rebuild, sort_of)

FIRST_ORDER = "fo"
HIGHER_ORDER = "ho"


class VarNamer:
    """Shared memo for introduced variables across several
    anti-unifications; the key is the tuple of witnessing subterms."""

    def __init__(self):
        self.vars: dict[tuple, Variable] = {}
        self.syms: dict[tuple, SymbolVariable] = {}

    def variable(self, witnesses: tuple, sort: Sort) -> Variable:
        v = self.vars.get(witnesses)
        if v is None:
            v = Variable(f"X{len(self.vars)}", sort)
            self.vars[witnesses] = v
        return v

    def symbol(self, witnesses: tuple) -> SymbolVariable:
        sv = self.syms.get(witnesses)
        if sv is None:
            first = witnesses[0]
            sv = SymbolVariable(f"P{len(self.syms)}", first.arg_sorts, first.result_sort)
            self.syms[witnesses] = sv
        return sv

    def substitutions(self, n: int) -> list[Substitution]:
        out = []
        for i in range(n):
            vb = {v: w[i] for w, v in self.vars.items()}
            sb = {sv: w[i] for w, sv in self.syms.items()}
            out.append(Substitution.of(vb, sb))
        return out


def _common_sort(terms) -> Sort:
    sorts = {sort_of(t) for t in terms}
    if len(sorts) == 1:
        return sorts.pop()
    if sorts <= {Sort.ACTION, Sort.EVENT}:
        return Sort.EVENT
    raise Incompatible(f"no common sort for {[print_term(t) for t in terms]}")


def _au_terms(terms: tuple, mode: str, namer: VarNamer) -> Term:
    if all(t == terms[0] for t in terms[1:]):
        return terms[0]
    if all(isinstance(t, Application) for t in terms):
        arity = len(terms[0].args)
        if all(len(t.args) == arity for t in terms[1:]):
            syms = tuple(t.symbol for t in terms)
            same_symbol = all(s == syms[0] for s in syms[1:])
            if same_symbol:
                args = tuple(_au_terms(tuple(t.args[i] for t in terms), mode, namer)
                             for i in range(arity))
                return Application(syms[0], args)
            if mode == HIGHER_ORDER and all(isinstance(s, FunctionSymbol) for s in syms) \
                    and all(s.arg_sorts == syms[0].arg_sorts
                            and s.result_sort == syms[0].result_sort for s in syms[1:]):
                sv = namer.symbol(syms)
                args = tuple(_au_terms(tuple(t.args[i] for t in terms), mode, namer)
                             for i in range(arity))
                return Application(sv, args)
    return namer.variable(terms, _common_sort(terms))


def _au_formulas(fs: tuple, mode: str, namer: VarNamer):
    """Anti-unify a tuple of formulas (or, by handing them to _au_terms,
    of terms)."""
    first = fs[0]
    if isinstance(first, TERMS):
        return _au_terms(fs, mode, namer)
    if all(f == first for f in fs[1:]):
        return first
    kinds = {type(f) for f in fs}
    if len(kinds) != 1:
        raise Incompatible("formulas with different root connectives")
    if isinstance(first, Atom):
        pred = _au_terms(tuple(f.pred for f in fs), mode, namer)
        if not isinstance(pred, Application):
            raise Incompatible("atoms cannot generalize to a bare variable")
        return Atom(pred)
    if isinstance(first, (And, Or)) and any(len(f.parts) != len(first.parts) for f in fs[1:]):
        raise Incompatible("connectives of different arity")
    if isinstance(first, (ForAll, Exists)):
        n = len(first.vars)
        if any(len(f.vars) != n for f in fs[1:]) or \
                any(f.vars[i].sort != first.vars[i].sort for f in fs[1:] for i in range(n)):
            raise Incompatible("binders disagree")
        # rename every input's binders to the first input's
        bodies = [fs[0].body]
        for f in fs[1:]:
            ren = Substitution.of({fv: pv for fv, pv in zip(f.vars, first.vars)})
            bodies.append(apply_substitution(ren, f.body))
        return type(first)(first.vars, _au_formulas(tuple(bodies), mode, namer))
    if isinstance(first, Modal) and \
            any(f.op is not first.op or len(f.agents) != len(first.agents) for f in fs[1:]):
        raise Incompatible("modal operators disagree")
    return rebuild(first, [_au_formulas(col, mode, namer)
                           for col in zip(*(children(f) for f in fs))])


@dataclass(frozen=True)
class Generalization:
    pattern: object  # Term | Formula
    substitutions: tuple[Substitution, ...]


def anti_unify(inputs, mode: str = FIRST_ORDER, namer: VarNamer | None = None) -> Generalization:
    """Least general generalization of a nonempty list of terms or
    formulas."""
    if not inputs:
        raise Incompatible("anti-unification needs at least one input")
    inputs = tuple(inputs)
    namer = namer or VarNamer()
    pattern = _au_formulas(inputs, mode, namer)
    return Generalization(pattern, tuple(namer.substitutions(len(inputs))))


# ---------------------------------------------------------------------------
# Set-level generalization


def _structure_key(f, mode: str) -> str:
    """Alignment key: connective/modal skeleton plus predicate symbols
    (signatures only, in higher-order mode)."""
    def sym(s):
        if mode == HIGHER_ORDER:
            return f"#{','.join(x.value for x in s.arg_sorts)}->{s.result_sort.value}"
        return s.name

    def walk(node):
        if isinstance(node, Atom):
            # predicate symbol and arity only; term arguments are blanked
            # so differing constants still align
            return f"({sym(node.pred.symbol)}/{len(node.pred.args)})"
        subs = [walk(sub) for sub in children(node) if not isinstance(sub, TERMS)]
        if isinstance(node, (ForAll, Exists)):
            head = f"{KEYWORDS[type(node)]}/{len(node.vars)}"
        elif isinstance(node, Modal):
            head = f"{node.op.value}/{len(node.agents)}"
        else:
            head = KEYWORDS[type(node)]
        return f"({' '.join([head, *subs])})"

    return walk(f)


def _namer_keys(tup, mode):
    """The memo keys anti-unifying one aligned tuple introduces, or None
    when the tuple is incompatible. Which keys _au_formulas reaches never
    depends on the variables the namer hands back, so the variables a set
    of tuples introduces with one shared namer are the union of their
    keys."""
    namer = VarNamer()
    try:
        _au_formulas(tup, mode, namer)
    except Incompatible:
        return None
    return {("v", w) for w in namer.vars} | {("s", w) for w in namer.syms}


@dataclass(frozen=True)
class SetGeneralization:
    patterns: tuple  # open formulas, free introduced variables
    substitutions: tuple[Substitution, ...]
    total: bool
    introduced: tuple[Variable, ...]

    def closed_patterns(self) -> tuple:
        """Patterns with introduced free variables universally closed;
        variables already free in the inputs stay free."""
        out = []
        for p in self.patterns:
            vs = tuple(v for v in self.introduced if v in free_variables(p))
            out.append(ForAll(vs, p) if vs else p)
        return tuple(out)


def generalize_sets(gammas, mode: str = FIRST_ORDER,
                    namer: VarNamer | None = None) -> SetGeneralization:
    """Align formulas across the input sets, anti-unify each aligned
    tuple, and report whether every input formula was covered."""
    gammas = [tuple(g) for g in gammas]
    if not gammas or any(not g for g in gammas):
        raise NoAlignment("every input set must be nonempty")
    namer = namer or VarNamer()

    keyed = []
    for g in gammas:
        d: dict[str, list] = {}
        for f in g:
            d.setdefault(_structure_key(f, mode), []).append(f)
        for fs in d.values():
            fs.sort(key=print_formula)
        keyed.append(d)

    common = sorted(set(keyed[0]).intersection(*[set(k) for k in keyed[1:]]))
    aligned: list[tuple] = []
    used = [set() for _ in gammas]
    for key in common:
        lists = [k[key] for k in keyed]
        width = min(len(l) for l in lists)
        base = lists[0][:width]
        chosen = [base]
        for lst in lists[1:]:
            if len(lst) <= 5 and width > 1:
                # keys[i][k]: what row i costs with lst[k] appended
                keys = [[_namer_keys(row + (g,), mode) for g in lst]
                        for row in zip(*chosen)]
                best, best_cost = None, None
                for perm in itertools.permutations(range(len(lst)), width):
                    rows = [keys[i][k] for i, k in enumerate(perm)]
                    cost = 10 ** 9 if None in rows else len(set().union(*rows))
                    if best_cost is None or cost < best_cost:
                        best, best_cost = perm, cost
                chosen.append([lst[k] for k in best])
            else:
                chosen.append(lst[:width])
        for i in range(width):
            tup = tuple(chosen[j][i] for j in range(len(gammas)))
            aligned.append(tup)
            for j, f in enumerate(tup):
                used[j].add(print_formula(f))

    if not aligned:
        raise NoAlignment("input sets share no alignable formula")

    patterns = []
    for tup in aligned:
        patterns.append(_au_formulas(tup, mode, namer))

    total = all(len(used[j]) == len({print_formula(f) for f in gammas[j]})
                for j in range(len(gammas)))
    if total:
        # mechanical verification: every input formula is an instance of
        # some pattern
        for g in gammas:
            for f in g:
                if not any(match(p, f) is not None for p in patterns):
                    total = False

    introduced = tuple(namer.vars.values())
    return SetGeneralization(tuple(patterns), tuple(namer.substitutions(len(gammas))),
                             total, introduced)

