"""Anti-unification (least general generalization) and set-level
generalization.

First-order mode abstracts differing subterms into variables; the
higher-order mode additionally abstracts differing function symbols of
identical signature into second-order symbol variables.

Anti-unifying n inputs is a left fold: the pattern of the first k inputs
is extended by input k+1 alone. Where they disagree the pattern holds a
hole, drawn from a table keyed by (pattern node, input node), so at any
fold width one witness tuple (the inputs' subterms at the position)
always gets the same hole. At the end each hole becomes a variable X0,
X1, ... (or P0, P1, ...) in leftmost-first order, memoized per witness
tuple, so repeated disagreements share a variable. A name the inputs
use is skipped: an introduced variable is fresh, as in Plotkin's least
general generalization, and no binder of the inputs captures it.
"""
from __future__ import annotations

import functools
import itertools

from .errors import Incompatible, NoAlignment
from .printer import print_formula
from .scenario import FIRST_ORDER, HIGHER_ORDER
from .subst import apply_substitution, match
from .terms import (KEYWORDS, TERMS, And, Application, Atom, Exists, ForAll,
                    FunctionSymbol, Modal, Or, Record, Sort, SymbolVariable,
                    Variable, children, free_variables, rebuild, sort_of)

class _Hole:
    """A term position where the inputs folded so far disagree. Its key
    is the (pattern node, input node) pair it was made for: it stands for
    the pattern node's witnesses followed by the input node. A hole is
    equal only to itself, so it never equals an input Variable."""
    __slots__ = ("key", "sort")

    def __init__(self, key, sort):
        self.key = key
        self.sort = sort


class _SymbolHole:
    """The same for the function symbol of an application (higher-order
    mode); never equal to an input SymbolVariable."""
    __slots__ = ("key", "arg_sorts", "result_sort")

    def __init__(self, key, arg_sorts, result_sort):
        self.key = key
        self.arg_sorts = arg_sorts
        self.result_sort = result_sort


_TERM_NODES = TERMS + (_Hole,)


def _witnesses(node, n: int) -> tuple:
    """The n input subterms (or symbols) that a pattern node of an n-wide
    fold stands for."""
    if isinstance(node, (_Hole, _SymbolHole)):
        pattern, last = node.key
        return _witnesses(pattern, n - 1) + (last,)
    if isinstance(node, Application):
        rows = zip(_witnesses(node.symbol, n), *(_witnesses(a, n) for a in node.args))
        return tuple(Application(sym, tuple(args)) for sym, *args in rows)
    return (node,) * n


def _variable_names(node, out: set):
    """Add to out the name of every variable, free or bound, and of every
    symbol variable of a term or formula."""
    if isinstance(node, Variable):
        out.add(node.name)
    elif isinstance(node, (ForAll, Exists)):
        out.update(v.name for v in node.vars)
    elif isinstance(node, Application) and isinstance(node.symbol, SymbolVariable):
        out.add(node.symbol.name)
    for sub in children(node):
        _variable_names(sub, out)


class VarNamer:
    """Names the holes of folded patterns, skipping every variable name
    that ``inputs`` use. The key of a variable is the tuple of subterms
    witnessing it, so several anti-unifications over the same inputs that
    share a namer share their variables; such a namer is made with the
    inputs of all of them."""

    def __init__(self, inputs=()):
        self.vars: dict[tuple, Variable] = {}
        self.syms: dict[tuple, SymbolVariable] = {}
        # the names in use: those of the inputs and those introduced
        self.taken: set[str] = set()
        for x in inputs:
            _variable_names(x, self.taken)

    def _fresh(self, prefix: str, k: int) -> str:
        """The first unused name prefix + str(i) with i >= k: the k names
        this prefix has already given out all have a smaller i."""
        while f"{prefix}{k}" in self.taken:
            k += 1
        name = f"{prefix}{k}"
        self.taken.add(name)
        return name

    def variable(self, witnesses: tuple, sort: Sort) -> Variable:
        v = self.vars.get(witnesses)
        if v is None:
            v = Variable(self._fresh("X", len(self.vars)), sort)
            self.vars[witnesses] = v
        return v

    def symbol(self, witnesses: tuple) -> SymbolVariable:
        sv = self.syms.get(witnesses)
        if sv is None:
            first = witnesses[0]
            sv = SymbolVariable(self._fresh("P", len(self.syms)), first.arg_sorts,
                                first.result_sort)
            self.syms[witnesses] = sv
        return sv

    def name(self, pattern, n: int):
        """The pattern of an n-wide fold with each hole replaced by its
        variable, leftmost first."""
        if isinstance(pattern, _Hole):
            return self.variable(_witnesses(pattern, n), pattern.sort)
        if isinstance(pattern, Application) and isinstance(pattern.symbol, _SymbolHole):
            sv = self.symbol(_witnesses(pattern.symbol, n))
            return Application(sv, tuple(self.name(a, n) for a in pattern.args))
        return rebuild(pattern, [self.name(sub, n) for sub in children(pattern)])

    def substitutions(self, n: int) -> list[dict]:
        """Per input, the dict that maps each variable and symbol variable
        to its witness in that input."""
        named = [*self.vars.items(), *self.syms.items()]
        return [{v: w[i] for w, v in named} for i in range(n)]


def _common_sort(a, b) -> Sort:
    """The sort that generalizes a pattern node (or hole) and an input
    term."""
    sorts = {x.symbol.result_sort if isinstance(x, Application)
             else x.sort if isinstance(x, _Hole) else sort_of(x) for x in (a, b)}
    if len(sorts) == 1:
        return sorts.pop()
    if sorts <= {Sort.ACTION, Sort.EVENT}:
        return Sort.EVENT
    raise Incompatible(f"no common sort for {' and '.join(sorted(s.value for s in sorts))}")


class _Fold:
    """One left fold of anti-unification steps. ``step(p, g)`` generalizes
    the pattern p of the inputs folded so far with one more input g; every
    step of one fold draws its holes from the same table. ``seen`` holds
    the holes the steps returned since it was last reset."""

    def __init__(self, mode: str):
        self.mode = mode
        self.table: dict[tuple, _Hole | _SymbolHole] = {}
        self.seen: set = set()

    def _hole(self, p, g) -> _Hole:
        h = self.table.get((p, g))
        if h is None:
            h = self.table[(p, g)] = _Hole((p, g), _common_sort(p, g))
        self.seen.add(h)
        return h

    def _symbol(self, s, g) -> _SymbolHole | None:
        """The hole for symbol (or symbol hole) s and symbol g; None unless
        higher-order mode abstracts them."""
        if self.mode != HIGHER_ORDER or not isinstance(s, (FunctionSymbol, _SymbolHole)) \
                or not isinstance(g, FunctionSymbol) \
                or s.arg_sorts != g.arg_sorts or s.result_sort != g.result_sort:
            return None
        h = self.table.get((s, g))
        if h is None:
            h = self.table[(s, g)] = _SymbolHole((s, g), g.arg_sorts, g.result_sort)
        self.seen.add(h)
        return h

    def step(self, p, g):
        """p generalized with g (a term or formula each)."""
        if p == g:
            return p
        if isinstance(p, _TERM_NODES):
            if isinstance(p, Application) and isinstance(g, Application) \
                    and len(p.args) == len(g.args):
                sym = p.symbol if p.symbol == g.symbol else self._symbol(p.symbol, g.symbol)
                if sym is not None:
                    return Application(sym, tuple(map(self.step, p.args, g.args)))
            # a hole stays a hole: a disagreeing position cannot agree again
            return self._hole(p, g)
        if type(p) is not type(g):
            raise Incompatible("formulas with different root connectives")
        if isinstance(p, Atom):
            pred = self.step(p.pred, g.pred)
            if not isinstance(pred, Application):
                raise Incompatible("atoms cannot generalize to a bare variable")
            return Atom(pred)
        if isinstance(p, (And, Or)) and len(p.parts) != len(g.parts):
            raise Incompatible("connectives of different arity")
        if isinstance(p, (ForAll, Exists)):
            if [v.sort for v in p.vars] != [v.sort for v in g.vars]:
                raise Incompatible("binders disagree")
            # rename g's binders to the pattern's, which are the first input's
            ren = dict(zip(g.vars, p.vars))
            return type(p)(p.vars, self.step(p.body, apply_substitution(ren, g.body)))
        if isinstance(p, Modal) and (p.op is not g.op or len(p.agents) != len(g.agents)):
            raise Incompatible("modal operators disagree")
        return rebuild(p, map(self.step, children(p), children(g)))

    def extend(self, p, g):
        """(p generalized with g, the holes that pattern holds); or the
        Incompatible raised when the two do not generalize, and p itself
        when p is one."""
        if isinstance(p, Incompatible):
            return p
        self.seen = set()
        try:
            return self.step(p, g), self.seen
        except Incompatible as exc:
            return exc


class Generalization(Record):
    __slots__ = ("pattern", "substitutions")  # a Term or Formula, a tuple of dicts


def anti_unify(inputs, mode: str = FIRST_ORDER, namer: VarNamer | None = None) -> Generalization:
    """Least general generalization of a nonempty list of terms or
    formulas."""
    if not inputs:
        raise Incompatible("anti-unification needs at least one input")
    inputs = tuple(inputs)
    namer = namer or VarNamer(inputs)
    pattern = functools.reduce(_Fold(mode).step, inputs)
    return Generalization(namer.name(pattern, len(inputs)),
                          tuple(namer.substitutions(len(inputs))))


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


class SetGeneralization(Record):
    # patterns: open formulas, free introduced variables; introduced: those variables
    __slots__ = ("patterns", "substitutions", "total", "introduced")

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
    tuple, and report whether every input formula was covered.

    Formulas align when their structure keys agree; within one key the
    formulas of each set are taken in printed order. Each aligned row
    keeps its anti-unification pattern, and the next set's candidates for
    the rows (at most 5) are permuted to introduce the fewest distinct
    variables, the first permutation winning ties."""
    gammas = [tuple(g) for g in gammas]
    if not gammas or any(not g for g in gammas):
        raise NoAlignment("every input set must be nonempty")
    namer = namer or VarNamer(itertools.chain(*gammas))
    fold = _Fold(mode)

    keyed = []  # per set: structure key -> its formulas in printed order
    for g in gammas:
        d: dict[str, list] = {}
        for f in g:
            d.setdefault(_structure_key(f, mode), []).append(f)
        for entries in d.values():
            entries.sort(key=print_formula)
        keyed.append(d)

    common = sorted(set(keyed[0]).intersection(*keyed[1:]))
    rows: list = []  # the pattern of each aligned tuple, or the Incompatible it raised
    used = [set() for _ in gammas]
    for key in common:
        lists = [k[key] for k in keyed]
        width = min(len(l) for l in lists)
        chosen = [lists[0][:width]]
        pats = list(chosen[0])
        for lst in lists[1:]:
            if len(lst) <= 5 and width > 1:
                # ext[i][k]: row i's pattern extended by lst[k], with its holes
                ext = [[fold.extend(p, g) for g in lst] for p in pats]
                best, best_cost = None, None
                for perm in itertools.permutations(range(len(lst)), width):
                    picked = [ext[i][k] for i, k in enumerate(perm)]
                    cost = 10 ** 9 if any(isinstance(e, Incompatible) for e in picked) else \
                        len(set().union(*(holes for _, holes in picked)))
                    if best_cost is None or cost < best_cost:
                        best, best_cost = perm, cost
                picked = [ext[i][k] for i, k in enumerate(best)]
            else:
                best = range(width)
                picked = [fold.extend(p, g) for p, g in zip(pats, lst)]
            chosen.append([lst[k] for k in best])
            pats = [e if isinstance(e, Incompatible) else e[0] for e in picked]
        for j, c in enumerate(chosen):
            used[j].update(map(print_formula, c))
        rows += pats

    if not rows:
        raise NoAlignment("input sets share no alignable formula")
    for row in rows:
        if isinstance(row, Incompatible):
            raise row  # the first failed row's own disagreement
    patterns = [namer.name(row, len(gammas)) for row in rows]

    total = all(len(u) == len({print_formula(f) for entries in k.values() for f in entries})
                for u, k in zip(used, keyed))
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

