"""Sorted terms and modal formulas.

Values are immutable (frozen dataclasses) and hashable, so they can be
used freely as dict keys and set members. Action is a subsort of Event;
everything else is flat.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union

from .errors import ArityMismatch, SortMismatch, UnknownSymbol


class Sort(enum.Enum):
    AGENT = "agent"
    ACTION_TYPE = "action-type"
    ACTION = "action"
    EVENT = "event"
    MOMENT = "moment"
    FLUENT = "fluent"
    BOOLEAN = "boolean"
    REAL = "real"

    def __repr__(self):
        return f"Sort.{self.name}"


def fits(actual: Sort, required: Sort) -> bool:
    """Subsort-aware acceptance: Action is accepted wherever Event is."""
    return actual is required or (actual is Sort.ACTION and required is Sort.EVENT)


@dataclass(frozen=True)
class Variable:
    name: str
    sort: Sort

    def __repr__(self):
        return f"?{self.name}:{self.sort.value}"


@dataclass(frozen=True)
class Constant:
    name: str
    sort: Sort

    def __repr__(self):
        return f"{self.name}:{self.sort.value}"


@dataclass(frozen=True)
class FunctionSymbol:
    name: str
    arg_sorts: tuple[Sort, ...]
    result_sort: Sort

    def __repr__(self):
        return self.name

    def __call__(self, *args):
        return Application(self, tuple(args))


@dataclass(frozen=True)
class SymbolVariable:
    """Second-order variable standing for a function symbol of a fixed
    signature; produced only by higher-order anti-unification."""
    name: str
    arg_sorts: tuple[Sort, ...]
    result_sort: Sort

    def __repr__(self):
        return f"?{self.name}"


@dataclass(frozen=True)
class Application:
    symbol: Union[FunctionSymbol, SymbolVariable]
    args: tuple["Term", ...] = ()

    def __repr__(self):
        if not self.args:
            return f"({self.symbol.name})"
        return f"({self.symbol.name} {' '.join(map(repr, self.args))})"


Term = Union[Variable, Constant, Application]
# The same classes as a tuple: isinstance on a tuple is much faster than on
# a typing.Union.
TERMS = (Variable, Constant, Application)


def moment(n: int) -> Constant:
    if n < 0:
        raise SortMismatch(f"moments are non-negative, got {n}")
    return Constant(str(n), Sort.MOMENT)


def moment_value(t: Term) -> int:
    if isinstance(t, Constant) and t.sort is Sort.MOMENT:
        return int(t.name)
    raise SortMismatch(f"not a moment constant: {t!r}")


# Built-in event-calculus vocabulary.
ACTION = FunctionSymbol("action", (Sort.AGENT, Sort.ACTION_TYPE), Sort.ACTION)
INITIALLY = FunctionSymbol("initially", (Sort.FLUENT,), Sort.BOOLEAN)
HOLDS = FunctionSymbol("holds", (Sort.FLUENT, Sort.MOMENT), Sort.BOOLEAN)
HAPPENS = FunctionSymbol("happens", (Sort.EVENT, Sort.MOMENT), Sort.BOOLEAN)
CLIPPED = FunctionSymbol("clipped", (Sort.MOMENT, Sort.FLUENT, Sort.MOMENT), Sort.BOOLEAN)
INITIATES = FunctionSymbol("initiates", (Sort.EVENT, Sort.FLUENT, Sort.MOMENT), Sort.BOOLEAN)
TERMINATES = FunctionSymbol("terminates", (Sort.EVENT, Sort.FLUENT, Sort.MOMENT), Sort.BOOLEAN)
PRIOR = FunctionSymbol("prior", (Sort.MOMENT, Sort.MOMENT), Sort.BOOLEAN)

BUILTIN_SYMBOLS = {
    s.name: s
    for s in (ACTION, INITIALLY, HOLDS, HAPPENS, CLIPPED, INITIATES, TERMINATES, PRIOR)
}


def sort_of(t: Term) -> Sort:
    """Declared or derived sort of a term, checking arities and argument
    sorts along the way."""
    if isinstance(t, (Variable, Constant)):
        return t.sort
    if isinstance(t, Application):
        sym = t.symbol
        if len(t.args) != len(sym.arg_sorts):
            raise ArityMismatch(f"{sym.name} expects {len(sym.arg_sorts)} args, got {len(t.args)}")
        for arg, want in zip(t.args, sym.arg_sorts):
            got = sort_of(arg)
            if not fits(got, want):
                raise SortMismatch(f"{sym.name}: expected {want.value}, got {got.value} ({arg!r})")
        return sym.result_sort
    raise UnknownSymbol(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# Formulas


class ModalOp(enum.Enum):
    PERCEIVES = "perceives"
    KNOWS = "knows"
    BELIEVES = "believes"
    DESIRES = "desires"
    INTENDS = "intends"
    COMMON = "common"        # no agent
    SAYS = "says"            # one agent: public announcement
    SAYS_TO = "says-to"      # two agents


# How many agent arguments each modal operator carries.
MODAL_ARITY = {
    ModalOp.PERCEIVES: 1,
    ModalOp.KNOWS: 1,
    ModalOp.BELIEVES: 1,
    ModalOp.DESIRES: 1,
    ModalOp.INTENDS: 1,
    ModalOp.COMMON: 0,
    ModalOp.SAYS: 1,
    ModalOp.SAYS_TO: 2,
}


@dataclass(frozen=True)
class Atom:
    pred: Application

    def __repr__(self):
        return repr(self.pred)


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    parts: tuple["Formula", ...]


@dataclass(frozen=True)
class Or:
    parts: tuple["Formula", ...]


@dataclass(frozen=True)
class Implies:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class Iff:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class ForAll:
    vars: tuple[Variable, ...]
    body: "Formula"


@dataclass(frozen=True)
class Exists:
    vars: tuple[Variable, ...]
    body: "Formula"


@dataclass(frozen=True)
class Modal:
    op: ModalOp
    agents: tuple[Term, ...]
    time: Term
    body: "Formula"


@dataclass(frozen=True)
class Ought:
    """Dyadic deontic operator; the deontic body is restricted to a
    (possibly negated) happens(action(a*, alpha), t') atom."""
    agent: Term
    time: Term
    condition: "Formula"
    body: "Formula"

    def __post_init__(self):
        inner = self.body.body if isinstance(self.body, Not) else self.body
        if not (isinstance(inner, Atom) and inner.pred.symbol is HAPPENS):
            raise SortMismatch("ought body must be a (negated) happens atom")
        ev = inner.pred.args[0]
        if not (isinstance(ev, Application) and ev.symbol is ACTION):
            raise SortMismatch("ought body must concern an action event")


Formula = Union[Atom, Not, And, Or, Implies, Iff, ForAll, Exists, Modal, Ought]


# The s-expression keyword of each connective; a Modal's keyword is its
# op's value.
KEYWORDS = {Not: "not", And: "and", Or: "or", Implies: "implies", Iff: "iff",
            ForAll: "forall", Exists: "exists", Ought: "ought"}


def children(node) -> tuple:
    """The subterms and subformulas of a term or formula in field order;
    () for variables and constants."""
    if isinstance(node, Application):
        return node.args
    if isinstance(node, (Variable, Constant)):
        return ()
    if isinstance(node, Atom):
        return (node.pred,)
    if isinstance(node, (Not, ForAll, Exists)):
        return (node.body,)
    if isinstance(node, (And, Or)):
        return node.parts
    if isinstance(node, (Implies, Iff)):
        return (node.lhs, node.rhs)
    if isinstance(node, Modal):
        return node.agents + (node.time, node.body)
    if isinstance(node, Ought):
        return (node.agent, node.time, node.condition, node.body)
    raise UnknownSymbol(f"not a term or formula: {node!r}")


def rebuild(node, kids):
    """A copy of ``node`` whose children (in the order ``children`` gives
    them) are ``kids``; the symbol, binders and modal operator are kept."""
    kids = tuple(kids)
    if isinstance(node, Application):
        return Application(node.symbol, kids)
    if isinstance(node, (Variable, Constant)):
        return node
    if isinstance(node, (Atom, Not, Implies, Iff, Ought)):
        return type(node)(*kids)
    if isinstance(node, (And, Or)):
        return type(node)(kids)
    if isinstance(node, (ForAll, Exists)):
        return type(node)(node.vars, *kids)
    if isinstance(node, Modal):
        return Modal(node.op, kids[:-2], kids[-2], kids[-1])
    raise UnknownSymbol(f"not a term or formula: {node!r}")


def free_variables(x) -> set:
    """Free Variables (and SymbolVariables) of a term or formula."""
    out = set()

    def walk(node, bound):
        if isinstance(node, Variable):
            if node not in bound:
                out.add(node)
            return
        if isinstance(node, Application) and isinstance(node.symbol, SymbolVariable):
            out.add(node.symbol)
        elif isinstance(node, (ForAll, Exists)):
            bound = bound | set(node.vars)
        for sub in children(node):
            walk(sub, bound)

    walk(x, frozenset())
    return out


def is_ground(x) -> bool:
    return not free_variables(x)


# ---------------------------------------------------------------------------
# Alpha-equivalence via canonical renumbering of bound variables.


def _canon(node, env, counter):
    if isinstance(node, Variable):
        return env.get(node, node)
    if isinstance(node, (ForAll, Exists)):
        env2 = dict(env)
        fresh = []
        for v in node.vars:
            nv = Variable(f"·{counter[0]}", v.sort)
            counter[0] += 1
            env2[v] = nv
            fresh.append(nv)
        body = _canon(node.body, env2, counter)
        return type(node)(tuple(fresh), body)
    return rebuild(node, [_canon(sub, env, counter) for sub in children(node)])


def canonical(x):
    """Rename bound variables to a de-Bruijn-style canonical scheme; two
    values are alpha-equivalent iff their canonical forms are equal."""
    return _canon(x, {}, [0])


def alpha_equal(a, b) -> bool:
    return canonical(a) == canonical(b)


def _canon_free(root):
    env: dict = {}
    senv: dict = {}
    counter = [0]

    def walk(node, bound):
        if isinstance(node, Variable):
            if node in bound:
                return node
            if node not in env:
                env[node] = Variable(f"·f{counter[0]}", node.sort)
                counter[0] += 1
            return env[node]
        if isinstance(node, Application) and isinstance(node.symbol, SymbolVariable):
            sym = node.symbol
            if sym not in senv:
                senv[sym] = SymbolVariable(f"·p{len(senv)}", sym.arg_sorts, sym.result_sort)
            return Application(senv[sym], tuple(walk(a, bound) for a in node.args))
        if isinstance(node, (ForAll, Exists)):
            bound = bound | set(node.vars)
        return rebuild(node, [walk(sub, bound) for sub in children(node)])

    return walk(root, frozenset())


def renaming_equal(a, b) -> bool:
    """Equality up to consistent renaming of both bound and free
    variables (and symbol variables)."""
    return _canon_free(canonical(a)) == _canon_free(canonical(b))
