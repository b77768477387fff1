"""Sorted terms and modal formulas, and the record base of vz's values.

Terms and formulas are immutable records and hashable, so they can be
used freely as dict keys and set members. Action is a subsort of Event;
everything else is flat.
"""
from __future__ import annotations

import enum
import functools
import types
from typing import Union

from .errors import ArityMismatch, SortMismatch, UnknownSymbol


class Record:
    """Base of vz's value classes. A subclass names its fields in
    ``__slots__``. Class keywords give the trailing fields defaults.

    Unless its body defines them, each subclass gets an ``__init__`` that
    takes the fields in order and then calls ``__post_init__`` if there is
    one, an ``__eq__`` that holds between records of the same class with
    equal fields, and a ``__hash__`` of the tuple of the fields. These are
    compiled once per shape (field count, and whether there is a
    ``__post_init__``) and copied to each class with its own field names.
    A record refuses assignment, so its hash is computed on first use and
    kept in the private ``_hash`` slot, which is not a field and holds
    None until then; a record with an unhashable field raises on every
    hash."""

    __slots__ = ("_hash",)
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **defaults):
        cls._fields = fields = cls.__slots__
        # the slot descriptors' setters write a field past the refusing __setattr__
        setters = {f"_set_f{i}_": getattr(cls, f).__set__ for i, f in enumerate(fields)}
        setters["_set__hash"] = Record._hash.__set__
        rename = {f"_f{i}_": f for i, f in enumerate(fields)}.get
        trailing = fields[len(fields) - len(defaults):]
        for name, template in _shape(len(fields), hasattr(cls, "__post_init__")).items():
            if name not in cls.__dict__:
                code = template.__code__
                code = code.replace(co_names=tuple(rename(n, n) for n in code.co_names),
                                    co_varnames=tuple(rename(n, n) for n in code.co_varnames))
                method = types.FunctionType(code, setters, name)
                if name == "__init__":
                    method.__defaults__ = tuple(defaults[f] for f in trailing)
                setattr(cls, name, method)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


@functools.cache
def _shape(n: int, post_init: bool) -> dict:
    """Record's methods for n fields, named ``_f0_`` to ``_f{n-1}_`` and
    set by the globals ``_set_f0_`` to ``_set_f{n-1}_``; compiled once."""
    fields = [f"_f{i}_" for i in range(n)]
    mine = "".join(f"self.{f}, " for f in fields)
    theirs = "".join(f"other.{f}, " for f in fields)
    body = "".join(f"\n    _set{f}(self, {f})" for f in fields)
    body += "\n    _set__hash(self, None)"
    if post_init:
        body += "\n    self.__post_init__()"
    source = (f"def __init__(self, {', '.join(fields)}):{body}\n"
              f"def __eq__(self, other):\n"
              f"    if other.__class__ is self.__class__:\n"
              f"        return ({mine}) == ({theirs})\n"
              f"    return NotImplemented\n"
              f"def __hash__(self):\n"
              f"    h = self._hash\n"
              f"    if h is None:\n"
              f"        h = hash(({mine}))\n"
              f"        _set__hash(self, h)\n"
              f"    return h\n")
    methods: dict = {}
    exec(source, methods)
    return {name: methods[name] for name in ("__init__", "__eq__", "__hash__")}


class Sort(enum.Enum):
    AGENT = "agent"
    ACTION_TYPE = "action-type"
    ACTION = "action"
    EVENT = "event"
    MOMENT = "moment"
    FLUENT = "fluent"
    BOOLEAN = "boolean"
    REAL = "real"

    __hash__ = object.__hash__  # members are singletons

    def __repr__(self):
        return f"Sort.{self.name}"


def fits(actual: Sort, required: Sort) -> bool:
    """Subsort-aware acceptance: Action is accepted wherever Event is."""
    return actual is required or (actual is Sort.ACTION and required is Sort.EVENT)


class Variable(Record):
    __slots__ = ("name", "sort")

    def __repr__(self):
        return f"?{self.name}:{self.sort.value}"


class Constant(Record):
    __slots__ = ("name", "sort")

    def __repr__(self):
        return f"{self.name}:{self.sort.value}"


class FunctionSymbol(Record):
    __slots__ = ("name", "arg_sorts", "result_sort")  # str, tuple of Sorts, Sort

    def __repr__(self):
        return self.name

    def __call__(self, *args):
        return Application(self, tuple(args))


class SymbolVariable(Record):
    """Second-order variable standing for a function symbol of a fixed
    signature; produced only by higher-order anti-unification."""
    __slots__ = ("name", "arg_sorts", "result_sort")

    def __repr__(self):
        return f"?{self.name}"


class Application(Record, args=()):
    __slots__ = ("symbol", "args")  # a FunctionSymbol or SymbolVariable, a tuple of Terms

    def __repr__(self):
        if not self.args:
            return f"({self.symbol.name})"
        return f"({self.symbol.name} {' '.join(map(repr, self.args))})"


Term = Union[Variable, Constant, Application]
# The same classes as a tuple: isinstance on a tuple is much faster than on
# a typing.Union.
TERMS = (Variable, Constant, Application)


@functools.cache
def moment(n: int) -> Constant:
    """The one constant of moment n: its hash is computed once, and equal
    moments compare by identity. A negative n raises on every call."""
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

    __hash__ = object.__hash__  # members are singletons


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


class Atom(Record):
    __slots__ = ("pred",)  # an Application

    def __repr__(self):
        return repr(self.pred)


class Not(Record):
    __slots__ = ("body",)


class And(Record):
    __slots__ = ("parts",)  # a tuple of Formulas


class Or(Record):
    __slots__ = ("parts",)


class Implies(Record):
    __slots__ = ("lhs", "rhs")


class Iff(Record):
    __slots__ = ("lhs", "rhs")


class ForAll(Record):
    __slots__ = ("vars", "body")  # a tuple of Variables, a Formula


class Exists(Record):
    __slots__ = ("vars", "body")


class Modal(Record):
    __slots__ = ("op", "agents", "time", "body")  # a ModalOp, a tuple of Terms, a Term, a Formula


class Ought(Record):
    """Dyadic deontic operator; the deontic body is restricted to a
    (possibly negated) happens(action(a*, alpha), t') atom."""
    __slots__ = ("agent", "time", "condition", "body")

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


def modal_depth(f: Formula) -> int:
    """Nesting depth of modal and deontic operators."""
    if isinstance(f, (Atom, TERMS)):
        return 0
    depth = max(map(modal_depth, children(f)), default=0)
    return depth + 1 if isinstance(f, (Modal, Ought)) else depth


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
