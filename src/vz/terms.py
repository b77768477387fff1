"""Sorted terms and modal formulas, and the record base of vz's values.

Terms and formulas are interned: one object per value, compared and
hashed by identity, and kept for the life of the process (which suits a
batch command). Action is a subsort of Event; everything else is flat.
"""
from __future__ import annotations

import enum
import functools
import types

from .errors import SortMismatch, UnknownSymbol


class Record:
    """Base of vz's value classes. A subclass names its fields in
    ``__slots__``; class keywords other than ``interned`` give the
    trailing fields defaults. Records refuse assignment.

    Unless its body defines one, a subclass gets an ``__init__`` that
    takes the fields in order and then calls ``__post_init__`` if there is
    one. A class defined with ``interned=True``, as terms and formulas
    are, gets instead a ``__new__`` that returns the one object of the
    class with those fields, checked by ``__post_init__`` when first made
    and kept in the class's table; it compares and hashes by identity.
    Other records compare equal when of one class with equal fields, and
    hash the tuple of their fields on each call. Each shape's constructor
    (field count, ``__post_init__`` or not, interned or not) is compiled
    once and copied to each class with its own names."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, interned=False, **defaults):
        cls._fields = fields = cls.__slots__
        # the slot descriptors' setters write a field past the refusing __setattr__
        env = {f"_set_f{i}_": getattr(cls, f).__set__ for i, f in enumerate(fields)}
        env.update(_new=object.__new__, _table={})
        rename = {f"_f{i}_": f for i, f in enumerate(fields)}.get
        name, method = _shape(len(fields), hasattr(cls, "__post_init__"), interned)
        if name not in cls.__dict__:
            code = method.__code__
            code = code.replace(co_names=tuple(rename(n, n) for n in code.co_names),
                                co_varnames=tuple(rename(n, n) for n in code.co_varnames))
            method = types.FunctionType(code, env, name)
            method.__defaults__ = tuple(defaults[f] for f in fields[len(fields) - len(defaults):])
            setattr(cls, name, staticmethod(method) if interned else method)
        if interned:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return _values(self) == _values(other)
        return NotImplemented

    def __hash__(self):
        return hash(_values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


def _values(x: Record) -> tuple:
    return tuple(getattr(x, f) for f in x._fields)


@functools.cache
def _shape(n: int, post_init: bool, interned: bool) -> tuple:
    """Record's constructor for n fields ``_f0_``…``_f{n-1}_``, set by the
    globals ``_set_f0_``…, as (name, function): ``__new__``, which keeps
    its objects in the global ``_table``, when interned, else ``__init__``."""
    fields = [f"_f{i}_" for i in range(n)]
    params, key = ", ".join(fields), "".join(f"{f}, " for f in fields)
    sets = "".join(f"\n    _set{f}(self, {f})" for f in fields)
    post = "\n    self.__post_init__()" if post_init else ""
    source = (f"def __new__(cls, {params}):\n"
              f"    self = _table.get(({key}))\n"
              f"    if self is not None:\n"
              f"        return self\n"
              f"    self = _new(cls){sets}{post}\n"
              f"    _table[({key})] = self\n"
              f"    return self\n") if interned else (
              f"def __init__(self, {params}):{sets}{post}\n")
    exec(source, {}, methods := {})
    return methods.popitem()


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


class Variable(Record, interned=True):
    __slots__ = ("name", "sort")

    def __repr__(self):
        return f"?{self.name}:{self.sort.value}"


class Constant(Record, interned=True):
    __slots__ = ("name", "sort")

    def __repr__(self):
        return f"{self.name}:{self.sort.value}"


class FunctionSymbol(Record, interned=True):
    __slots__ = ("name", "arg_sorts", "result_sort")  # str, tuple of Sorts, Sort

    def __repr__(self):
        return self.name

    def __call__(self, *args):
        return Application(self, tuple(args))


class SymbolVariable(Record, interned=True):
    """Second-order variable standing for a function symbol of a fixed
    signature; produced only by higher-order anti-unification."""
    __slots__ = ("name", "arg_sorts", "result_sort")

    def __repr__(self):
        return f"?{self.name}"


class Application(Record, interned=True, args=()):
    __slots__ = ("symbol", "args")  # a FunctionSymbol or SymbolVariable, a tuple of Terms

    def __repr__(self):
        if not self.args:
            return f"({self.symbol.name})"
        return f"({self.symbol.name} {' '.join(map(repr, self.args))})"


Term = Variable | Constant | Application
# The same classes as a tuple: isinstance on a tuple is much faster than on
# a union.
TERMS = (Variable, Constant, Application)


def moment(n: int) -> Constant:
    """The constant of moment n; a negative n raises."""
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
    """The sort a term was built with: its symbol's result sort for an
    application. The reader is the sort check: it builds only terms whose
    arguments fit their symbols' argument sorts."""
    return t.symbol.result_sort if isinstance(t, Application) else t.sort


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


class Atom(Record, interned=True):
    __slots__ = ("pred",)  # an Application

    def __repr__(self):
        return repr(self.pred)


class Not(Record, interned=True):
    __slots__ = ("body",)


class And(Record, interned=True):
    __slots__ = ("parts",)  # a tuple of Formulas


class Or(Record, interned=True):
    __slots__ = ("parts",)


class Implies(Record, interned=True):
    __slots__ = ("lhs", "rhs")


class Iff(Record, interned=True):
    __slots__ = ("lhs", "rhs")


class ForAll(Record, interned=True):
    __slots__ = ("vars", "body")  # a tuple of Variables, a Formula


class Exists(Record, interned=True):
    __slots__ = ("vars", "body")


class Modal(Record, interned=True):
    __slots__ = ("op", "agents", "time", "body")  # a ModalOp, a tuple of Terms, a Term, a Formula


class Ought(Record, interned=True):
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


Formula = Atom | Not | And | Or | Implies | Iff | ForAll | Exists | Modal | Ought


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
    _add_free(x, frozenset(), out)
    return out


def _add_free(node, bound, out: set):
    """Add to out the free variables of node under the bound ones. A
    module-level function, not a closure, which would refer to itself
    and leave a reference cycle on each call."""
    if isinstance(node, Variable):
        if node not in bound:
            out.add(node)
        return
    if isinstance(node, Application) and isinstance(node.symbol, SymbolVariable):
        out.add(node.symbol)
    elif isinstance(node, (ForAll, Exists)):
        bound = bound | set(node.vars)
    for sub in children(node):
        _add_free(sub, bound, out)


def is_ground(x) -> bool:
    return not free_variables(x)
