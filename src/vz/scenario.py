"""Scenario documents: the ``.vz`` DSL.

A document is a sequence of declarations, facts, and config entries.
Every symbol must be declared before use; the parser is sort-directed,
so variables written ``?x`` pick up their sort from the argument
position they appear in. ``LearntTrait`` is the record a trait file
holds; ``vz.traits`` reads and writes those files with the formula
parser and section readers here.
"""
from __future__ import annotations

import math

from .errors import (DepthExceeded, DuplicateDeclaration, HorizonExceeded, ParseError,
                     SortMismatch, SourceError, UnboundActionVariable, UndeclaredSymbol)
from .printer import print_formula, print_term
from .sexpr import SList, SNum, SSym, locate, read_all
from .terms import (BUILTIN_SYMBOLS, KEYWORDS, MODAL_ARITY, And, Application, Atom,
                    Constant, Exists, ForAll, Formula, FunctionSymbol, Iff,
                    Implies, Modal, ModalOp, Not, Or, Ought, Record, Sort,
                    SymbolVariable, Term, Variable, fits, free_variables,
                    modal_depth, moment)

SORT_NAMES = {s.value: s for s in Sort}

# The largest moment that a scenario, a trait file or --horizon may name.
# It bounds the horizon, and with it the memory and time of every pass
# over the moments 0..H; the corpus, the tests and the benchmark inputs
# stay below 200.
MAX_MOMENT = 10000

# (set mode m): fo generalizes differing subterms, ho function symbols too
FIRST_ORDER = "fo"
HIGHER_ORDER = "ho"
DEFAULT_MAX_DEPTH = 3  # the modal depth that (set max-depth d) overrides

_MODAL_BY_NAME = {op.value: op for op in ModalOp}
_CONNECTIVES = {KEYWORDS[cls]: cls for cls in (Not, And, Or, Implies, Iff)}


class SymbolTable:
    """Declared constants and function symbols; builtins preloaded."""

    def __init__(self):
        self.functions: dict[str, FunctionSymbol] = dict(BUILTIN_SYMBOLS)
        self.constants: dict[str, Constant] = {}
        self.agents: list[Constant] = []

    def _check_fresh(self, name, pos):
        if name in self.functions or name in self.constants:
            raise DuplicateDeclaration(f"symbol {name!r} already declared", pos)

    def declare_constant(self, name, sort, pos=None) -> Constant:
        self._check_fresh(name, pos)
        self.constants[name] = c = Constant(name, sort)
        if sort is Sort.AGENT:
            self.agents.append(c)
        return c

    def declare_function(self, name, arg_sorts, result_sort, pos=None) -> FunctionSymbol:
        self._check_fresh(name, pos)
        self.functions[name] = f = FunctionSymbol(name, tuple(arg_sorts), result_sort)
        return f

    def agent(self, name, pos=None) -> Constant:
        c = self.constants.get(name)
        if c is None or c.sort is not Sort.AGENT:
            raise UndeclaredSymbol(f"undeclared agent {name!r}", pos)
        return c


# ---------------------------------------------------------------------------
# Document model


class EffectRule(Record):
    """An (initiates ...) or (terminates ...) rule: the event and fluent
    Terms, and a moment constant or variable."""
    __slots__ = ("event", "fluent", "time")


class Situation(Record, alternatives=(), performed=None, agent=None):
    """An (observe ...) item: the situation sigma in which an agent chose
    the performed action type among the alternatives; or a (query ...)
    item, which has only its id, time and formulas. Its id is a str, its
    time an int, its formulas and alternatives tuples; performed and agent
    may be None."""
    __slots__ = ("id", "time", "formulas", "alternatives", "performed", "agent")


class ScenarioDoc:
    """A parsed scenario, filled in place by the reader and the
    command-line overrides. source is the text it was read from (None in
    a document built in code); each pos below is a node's place in it, as
    vz.sexpr counts. The reader files each fact where its stage reads it:

    - facts: the keyword and pos of each fact item;
    - initially: fluents;
    - happens: a dict whose keys are the distinct (event, moment)
      occurrences in first-seen order (happens is a predicate, so a
      repeated fact states nothing new), each mapped to the pos of its
      first moment, or None in a document built in code;
    - nu: ν, from (agent, fluent, moment) to the sum of its nu facts,
      added in fact order; an absent key reads 0;
    - theta: Θ, from an agent to "always", "never" or the frozenset of
      moments its (theta a at t) facts name; a later always or never
      replaces what came before it, and an absent agent reads never;
    - initiates and terminates: EffectRules;
    - asserts: formulas; groups: tuples of formulas;
    - observations and queries: Situations, no two with one id.

    horizon is None when undeclared; last_moment is the largest moment
    that a happens, nu, theta, observe or query item names."""
    __slots__ = ("symbols", "horizon", "config", "facts", "initially", "happens", "nu",
                 "theta", "initiates", "terminates", "asserts", "groups", "observations",
                 "queries", "last_moment", "source")

    def __init__(self, symbols: SymbolTable, horizon: int | None = None, source=None):
        self.symbols = symbols
        self.horizon = horizon
        # every setting's default; learner, when unset, is the first agent
        self.config = {"mode": FIRST_ORDER, "max-depth": DEFAULT_MAX_DEPTH,
                       "n": 2, "m": 2, "gamma": 0.9}
        self.facts, self.initially, self.happens, self.nu, self.theta = [], [], {}, {}, {}
        self.initiates, self.terminates, self.asserts, self.groups = [], [], [], []
        self.observations, self.queries = [], []
        self.last_moment, self.source = 0, source

    def effective_horizon(self) -> int:
        return self.last_moment if self.horizon is None else self.horizon


# ---------------------------------------------------------------------------
# Parsing


def expect_sym(sx, what="identifier") -> str:
    if not isinstance(sx, SSym):
        raise ParseError(f"expected {what}", sx.pos)
    return sx.text


def _expect_nat(sx) -> int:
    if not (isinstance(sx, SNum) and sx.is_int and not sx.text.startswith("-")):
        raise ParseError("expected a non-negative integer", sx.pos)
    return sx.value


def _expect_moment(sx) -> int:
    n = _expect_nat(sx)
    if n > MAX_MOMENT:
        raise ParseError(f"moments are at most {MAX_MOMENT}, got {n}", sx.pos)
    return n


def parse_sort(sx) -> Sort:
    name = expect_sym(sx, "sort name")
    if name not in SORT_NAMES:
        raise ParseError(f"unknown sort {name!r}", sx.pos)
    return SORT_NAMES[name]


_NO_ENV: dict = {}  # the quantifier-bound variables outside any quantifier; never written


class FormulaParser:
    """Parses terms and formulas against a symbol table. ``freevars``
    accumulates ``?name`` variables so repeated mentions agree on sort;
    its scope is one fact (or one observe/query block). ``symvars`` holds
    the ``?name`` function symbols a trait record declares; scenario files
    have none."""

    def __init__(self, table: SymbolTable):
        self.table = table
        self.freevars: dict[str, Variable] = {}
        self.symvars: dict[str, SymbolVariable] = {}

    def term(self, sx, expected: Sort, env=_NO_ENV, ground=False) -> Term:
        """The term sx of the expected sort; with ground set, a term that
        names a thing of the scenario, so it may hold no ?variable."""
        kind = type(sx)
        if kind is SSym:
            name = sx.text
            if name[0] == "?":
                if ground:
                    raise ParseError(f"variable {name} where a ground term is expected", sx.pos)
                return self._variable(name[1:], expected, sx.pos)
            c = env[name] if name in env else self.table.constants.get(name)
            if c is None:
                raise UndeclaredSymbol(f"undeclared symbol {name!r}", sx.pos)
            if not fits(c.sort, expected):
                raise SortMismatch(f"{'variable ' if name in env else ''}{name} has sort "
                                   f"{c.sort.value}, expected {expected.value}", sx.pos)
            return c
        if kind is SNum:
            if expected is Sort.MOMENT and sx.is_int and not sx.text.startswith("-"):
                return moment(_expect_moment(sx))
            raise SortMismatch(f"number not allowed where {expected.value} expected", sx.pos)
        if not sx.items:
            raise ParseError("empty application", sx.pos)
        head = expect_sym(sx.items[0], "symbol name")
        sym = self.symvars.get(head[1:]) if head[0] == "?" else self.table.functions.get(head)
        if sym is None:
            raise (ParseError("symbol variables are not part of the input grammar", sx.pos)
                   if head[0] == "?" else UndeclaredSymbol(f"undeclared symbol {head!r}", sx.pos))
        args = sx.items[1:]
        if len(args) != len(sym.arg_sorts):
            raise ParseError(f"{head} expects {len(sym.arg_sorts)} arguments, "
                             f"got {len(args)}", sx.pos)
        terms = tuple([self.term(a, s, env, ground) for a, s in zip(args, sym.arg_sorts)]
                      if args else ())
        if not fits(sym.result_sort, expected):
            raise SortMismatch(f"{head} yields {sym.result_sort.value}, "
                               f"expected {expected.value}", sx.pos)
        return Application(sym, terms)

    def _variable(self, name, expected, pos) -> Variable:
        v = self.freevars.get(name)
        if v is None:
            self.freevars[name] = v = Variable(name, expected)
        elif not fits(v.sort, expected):
            raise SortMismatch(f"variable ?{name} used at sorts {v.sort.value} "
                               f"and {expected.value}", pos)
        return v

    def formula(self, sx, env=_NO_ENV) -> Formula:
        if not isinstance(sx, SList) or not sx.items:
            raise ParseError("expected a formula", sx.pos)
        head, body = sx.items[0], sx.items[1:]
        name = head.text if isinstance(head, SSym) else None
        if name in _CONNECTIVES:
            cls = _CONNECTIVES[name]
            if cls._fields == ("parts",):
                if not body:
                    raise ParseError(f"({name}) needs at least one part", sx.pos)
                return cls(tuple(self.formula(p, env) for p in body))
            self._arity(sx, len(cls._fields))
            return cls(*(self.formula(p, env) for p in body))
        if name in ("forall", "exists"):
            self._arity(sx, 2)
            if not isinstance(body[0], SList):
                raise ParseError("expected binder list", body[0].pos)
            env2, bvars = dict(env), []
            for b in body[0].items:
                if not (isinstance(b, SList) and len(b.items) == 2):
                    raise ParseError("binder must be (name sort)", b.pos)
                vname = expect_sym(b.items[0], "variable name")
                v = Variable(vname, parse_sort(b.items[1]))
                env2[vname] = v
                bvars.append(v)
            return (ForAll if name == "forall" else Exists)(tuple(bvars),
                                                            self.formula(body[1], env2))
        if name == "ought":
            self._arity(sx, 4)
            agent, time = self.term(body[0], Sort.AGENT, env), self.term(body[1], Sort.MOMENT, env)
            cond, deontic = self.formula(body[2], env), self.formula(body[3], env)
            try:
                return Ought(agent, time, cond, deontic)
            except SortMismatch as exc:
                raise SortMismatch(str(exc), sx.pos)
        if name in _MODAL_BY_NAME:
            op = ModalOp.SAYS_TO if name == "says" and len(body) == 4 else _MODAL_BY_NAME[name]
            nagents = MODAL_ARITY[op]
            if len(body) != nagents + 2:
                raise ParseError(f"({name} ...) has wrong arity", sx.pos)
            agents = tuple(self.term(b, Sort.AGENT, env) for b in body[:nagents])
            time = self.term(body[nagents], Sort.MOMENT, env)
            return Modal(op, agents, time, self.formula(body[nagents + 1], env))
        # plain atom
        t = self.term(sx, Sort.BOOLEAN, env)
        if not isinstance(t, Application):
            raise ParseError("an atom must be an application", sx.pos)
        return Atom(t)

    def _arity(self, sx, n):
        if len(sx.items) != n + 1:
            raise ParseError(f"({sx.items[0].text} ...) expects {n} parts", sx.pos)


_CONFIG_KEYS = {"n", "m", "gamma", "learner", "max-depth", "mode"}


def check_setting(key, value, pos=None, table=None):
    """The one check of every setting, shared by (set key value) and the
    command-line overrides (which also set the horizon). Returns the value
    to store, for learner the declared agent itself; raises ParseError at
    pos when the value is out of range."""
    if key in ("n", "m") and value < 1:
        raise ParseError(f"{key} must be at least 1", pos)
    if key == "horizon" and value < 0:
        raise ParseError("horizon must be non-negative", pos)
    if key == "horizon" and value > MAX_MOMENT:
        raise ParseError(f"horizon must be at most {MAX_MOMENT}", pos)
    if key == "gamma" and not 0 < value <= 1:  # also rejects nan
        raise ParseError("gamma must lie in (0, 1]", pos)
    if key == "mode" and value not in (FIRST_ORDER, HIGHER_ORDER):
        raise ParseError("mode must be fo or ho", pos)
    if key == "learner":
        return table.agent(value, pos)
    return value


def parse_scenario(text: str, horizon: int | None = None) -> ScenarioDoc:
    """Parse and sort-check a scenario document; a horizon given here (by
    --horizon) replaces the declared one. The first error wins; no partial
    documents are returned."""
    doc = ScenarioDoc(SymbolTable(), source=text)
    try:
        reader = _ScenarioReader(doc)
        for sx in read_all(text):
            reader.item(sx)
        # (set max-depth d) may follow the asserts it bounds, (horizon h) the
        # occurrences it bounds
        max_depth = doc.config["max-depth"]
        for f, pos in zip(doc.asserts, [p for head, p in doc.facts if head == "assert"]):
            if modal_depth(f) > max_depth:
                raise DepthExceeded(f"modal depth {modal_depth(f)} exceeds max-depth "
                                    f"{max_depth}: {print_formula(f)}", pos)
        if horizon is not None:
            doc.horizon = horizon
        for (event, t), pos in doc.happens.items():
            if doc.horizon is not None and t > doc.horizon:
                raise HorizonExceeded(f"happens({print_term(event)}, {t}) is past horizon "
                                      f"{doc.horizon}", pos)
    except SourceError as exc:
        raise locate(exc, text)
    return doc


_SITUATION_SECTIONS = {"observe": {"agent", "time", "formulas", "alternatives", "performed"},
                       "query": {"time", "formulas"}}


class _ScenarioReader(FormulaParser):
    """Files each item of a scenario into doc, by the reader of its
    keyword in ITEMS; each item is a fresh scope of variables. Observe
    and query items share one namespace of ids."""

    def __init__(self, doc):
        super().__init__(doc.symbols)
        self.doc, self.situation_ids = doc, set()

    def item(self, sx):
        if not (isinstance(sx, SList) and sx.items and isinstance(sx.items[0], SSym)):
            raise ParseError("expected a (keyword ...) item", sx.pos)
        head, body = sx.items[0].text, sx.items[1:]
        if head not in self.ITEMS:
            raise ParseError(f"unknown item {head!r}", sx.pos)
        read, nparts, is_fact = self.ITEMS[head]
        if nparts is not None and len(body) != nparts:
            raise ParseError(f"({head} ...) expects {nparts} parts", sx.pos)
        self.freevars = {}
        read(self, head, body, sx.pos)
        if is_fact:
            self.doc.facts.append((head, sx.pos))

    def fact_moment(self, sx) -> int:
        t = _expect_moment(sx)
        self.doc.last_moment = max(self.doc.last_moment, t)
        return t

    def declare_agent(self, head, body, pos):
        self.table.declare_constant(expect_sym(body[0]), Sort.AGENT, pos)

    def declare_constant(self, head, body, pos):
        name, sort = expect_sym(body[0]), parse_sort(body[1])
        if sort is Sort.MOMENT:
            # moments are the numerals 0, 1, 2, ...; a name cannot be one
            raise SortMismatch(f"moment constant {name!r}: moments are written as numerals",
                               body[1].pos)
        self.table.declare_constant(name, sort, pos)

    def declare_function(self, head, body, pos):
        name = expect_sym(body[0])
        if not isinstance(body[1], SList):
            raise ParseError("expected argument sort list", body[1].pos)
        result = {"declare-action-type": Sort.ACTION_TYPE, "declare-fluent": Sort.FLUENT,
                  "declare-predicate": Sort.BOOLEAN}[head]
        self.table.declare_function(name, tuple(map(parse_sort, body[1].items)), result, pos)

    def horizon(self, head, body, pos):
        if self.doc.horizon is not None:
            raise DuplicateDeclaration("duplicate horizon declaration", pos)
        self.doc.horizon = _expect_moment(body[0])

    def setting(self, head, body, pos):
        key = expect_sym(body[0])
        if key not in _CONFIG_KEYS:
            raise ParseError(f"unknown config key {key!r}", pos)
        if key in ("n", "m", "max-depth"):
            value = _expect_nat(body[1])
        elif key == "gamma":
            if not isinstance(body[1], SNum):
                raise ParseError("gamma must be a number", pos)
            value = float(body[1].text)
        else:
            value = expect_sym(body[1])
        self.doc.config[key] = check_setting(key, value, body[1].pos, self.table)

    def initially(self, head, body, pos):
        self.doc.initially.append(self.term(body[0], Sort.FLUENT, ground=True))

    def happens(self, head, body, pos):
        occurrence = (self.term(body[0], Sort.EVENT, ground=True), self.fact_moment(body[1]))
        self.doc.happens.setdefault(occurrence, body[1].pos)

    def nu(self, head, body, pos):
        key = (self.term(body[0], Sort.AGENT, ground=True),
               self.term(body[1], Sort.FLUENT, ground=True), self.fact_moment(body[2]))
        if not isinstance(body[3], SNum):
            raise ParseError("nu value must be a number", body[3].pos)
        # float of the literal text: a literal too large for a float reads
        # as inf (float of its int would raise); the fact whose value takes
        # its key's sum out of range is at fault
        self.doc.nu[key] = total = self.doc.nu.get(key, 0.0) + float(body[3].text)
        if not math.isfinite(total):
            raise ParseError(f"nu value must be finite, got {total}", body[3].pos)

    def theta(self, head, body, pos):
        if len(body) not in (2, 3):
            raise ParseError("(theta ...) expects 2 or 3 parts", pos)
        agent = self.term(body[0], Sort.AGENT, ground=True)
        mode = expect_sym(body[1])
        if mode not in ("always", "never", "at"):
            raise ParseError("theta mode must be always, never, or at", pos)
        if len(body) != 2 + (mode == "at"):
            raise ParseError(f"(theta ...) expects {2 + (mode == 'at')} parts", pos)
        gate = self.doc.theta.get(agent)
        self.doc.theta[agent] = mode if mode != "at" else (
            (gate if isinstance(gate, frozenset) else frozenset()) | {self.fact_moment(body[2])})

    def effect(self, head, body, pos):
        # its moment is the one place where a bare name is an (implicit) moment variable
        event, fluent, t = self.term(body[0], Sort.EVENT), self.term(body[1], Sort.FLUENT), body[2]
        if isinstance(t, SSym) and t.text[0] != "?" and t.text not in self.table.constants:
            t = self._variable(t.text, Sort.MOMENT, t.pos)
        else:
            t = self.term(t, Sort.MOMENT)
        (self.doc.initiates if head == "initiates" else self.doc.terminates).append(
            EffectRule(event, fluent, t))

    def assertion(self, head, body, pos):
        self.doc.asserts.append(self.formula(body[0]))

    def group(self, head, body, pos):
        self.doc.groups.append(tuple(map(self.formula, body)))

    def situation(self, head, body, pos):
        """An (observe id ...) or (query id ...) item, whose id no earlier
        one has; a query has only the time and formulas sections. The
        agent, alternatives and performed action types are ground."""
        if not body:
            raise ParseError(f"({head} ...) needs an id", pos)
        sid = expect_sym(body[0], "situation id")
        if sid in self.situation_ids:
            raise DuplicateDeclaration(f"duplicate situation id {sid!r}", body[0].pos)
        self.situation_ids.add(sid)
        secs = sections(body[1:], _SITUATION_SECTIONS[head])
        agent = (self.term(section_arg(secs["agent"], "agent"), Sort.AGENT, ground=True)
                 if "agent" in secs else None)
        time = self.fact_moment(section_arg(secs["time"], "moment")) if "time" in secs else 0
        formulas = tuple(map(self.formula, section_items(secs, "formulas")))
        if head == "query":
            self.doc.queries.append(Situation(sid, time, formulas))
            return
        alts = tuple(self.term(t, Sort.ACTION_TYPE, ground=True)
                     for t in section_items(secs, "alternatives"))
        performed = (self.term(section_arg(secs["performed"], "action type"), Sort.ACTION_TYPE,
                               ground=True) if "performed" in secs else None)
        self.doc.observations.append(Situation(sid, time, formulas, alts, performed, agent))

    # Each item's keyword: its reader, its number of parts (None when the
    # reader checks them) and whether it is a fact, not a declaration or a setting.
    ITEMS = {"declare-agent": (declare_agent, 1, False), "set": (setting, 2, False),
             "declare-constant": (declare_constant, 2, False), "horizon": (horizon, 1, False),
             **dict.fromkeys(("declare-action-type", "declare-fluent", "declare-predicate"),
                             (declare_function, 2, False)),
             "initially": (initially, 1, True), "happens": (happens, 2, True),
             "nu": (nu, 4, True), "theta": (theta, None, True), "assert": (assertion, 1, True),
             **dict.fromkeys(("initiates", "terminates"), (effect, 3, True)),
             **dict.fromkeys(_SITUATION_SECTIONS, (situation, None, True)),
             "group": (group, None, True)}


def section_arg(sec, what):
    """The single argument of a (key arg) section."""
    if len(sec.items) != 2:
        raise ParseError(f"({sec.items[0].text} ...) takes one {what}", sec.pos)
    return sec.items[1]


def section_items(secs, key):
    """The arguments of an optional (key ...) section; none when it is absent."""
    return secs[key].items[1:] if key in secs else ()


def sections(body, allowed):
    """The (key ...) sections of a record by key; each key at most once."""
    out = {}
    for part in body:
        if not (isinstance(part, SList) and part.items and isinstance(part.items[0], SSym)):
            raise ParseError("expected a (section ...) entry", part.pos)
        key = part.items[0].text
        if key not in allowed:
            raise ParseError(f"unknown section {key!r}", part.pos)
        if key in out:
            raise DuplicateDeclaration(f"duplicate section {key!r}", part.pos)
        out[key] = part
    return out


# ---------------------------------------------------------------------------
# Learnt traits


class LearntTrait(Record, exemplar=None, source_situations=()):
    """Formulas whose free variables the action type shares, the agent
    (a Constant, or None) it was learnt from, and the ids of the situations
    it generalizes."""
    __slots__ = ("pattern", "action_pattern", "exemplar", "source_situations")

    def __post_init__(self):
        pattern_vars = set().union(*map(free_variables, self.pattern))
        loose = {v for v in free_variables(self.action_pattern)
                 if isinstance(v, Variable)} - pattern_vars
        if loose:
            raise UnboundActionVariable(
                f"action variables without a situation anchor: {sorted(v.name for v in loose)}")
