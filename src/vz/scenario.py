"""Scenario documents and trait files: the ``.vz`` DSL.

A document is a sequence of declarations, facts, and config entries.
Every symbol must be declared before use; the parser is sort-directed,
so variables written ``?x`` pick up their sort from the argument
position they appear in. A trait file holds (trait ...) records, read
against a scenario's symbols and written by ``print_trait``.
"""
from __future__ import annotations

import math

from .errors import (DepthExceeded, DuplicateDeclaration, HorizonExceeded, ParseError,
                     SortMismatch, UnboundActionVariable, UndeclaredSymbol)
from .printer import print_formula, print_term
from .sexpr import SList, SNum, SSym, read_all
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

    def _check_fresh(self, name, loc):
        if name in self.functions or name in self.constants:
            raise DuplicateDeclaration(f"symbol {name!r} already declared", *loc)

    def declare_constant(self, name, sort, loc=(None, None)) -> Constant:
        self._check_fresh(name, loc)
        c = Constant(name, sort)
        self.constants[name] = c
        if sort is Sort.AGENT:
            self.agents.append(c)
        return c

    def declare_function(self, name, arg_sorts, result_sort, loc=(None, None)) -> FunctionSymbol:
        self._check_fresh(name, loc)
        f = FunctionSymbol(name, tuple(arg_sorts), result_sort)
        self.functions[name] = f
        return f

    def agent(self, name, loc=(None, None)) -> Constant:
        c = self.constants.get(name)
        if c is None or c.sort is not Sort.AGENT:
            raise UndeclaredSymbol(f"undeclared agent {name!r}", *loc)
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
    command-line overrides. The reader files each fact where its stage
    reads it:

    - facts: the keyword and (line, col) of each fact item;
    - initially: fluents;
    - happens: a dict whose keys are the distinct (event, moment)
      occurrences in first-seen order (happens is a predicate, so a
      repeated fact states nothing new), each mapped to the (line, col)
      of its first moment, or None in a document built in code;
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
                 "queries", "last_moment")

    def __init__(self, symbols: SymbolTable, horizon: int | None = None):
        self.symbols = symbols
        self.horizon = horizon
        # every setting's default; learner, when unset, is the first agent
        self.config = {"mode": FIRST_ORDER, "max-depth": DEFAULT_MAX_DEPTH,
                       "n": 2, "m": 2, "gamma": 0.9}
        self.facts, self.initially, self.happens, self.nu, self.theta = [], [], {}, {}, {}
        self.initiates, self.terminates, self.asserts, self.groups = [], [], [], []
        self.observations, self.queries = [], []
        self.last_moment = 0

    def effective_horizon(self) -> int:
        return self.last_moment if self.horizon is None else self.horizon


# ---------------------------------------------------------------------------
# Parsing


def _loc(sx):
    return (sx.line, sx.col)


def _expect_sym(sx, what="identifier") -> str:
    if not isinstance(sx, SSym):
        raise ParseError(f"expected {what}", *_loc(sx))
    return sx.text


def _expect_nat(sx) -> int:
    if not (isinstance(sx, SNum) and sx.is_int and not sx.text.startswith("-")):
        raise ParseError("expected a non-negative integer", *_loc(sx))
    return sx.value


def _expect_moment(sx) -> int:
    n = _expect_nat(sx)
    if n > MAX_MOMENT:
        raise ParseError(f"moments are at most {MAX_MOMENT}, got {n}", *_loc(sx))
    return n


def _parse_sort(sx) -> Sort:
    name = _expect_sym(sx, "sort name")
    if name not in SORT_NAMES:
        raise ParseError(f"unknown sort {name!r}", *_loc(sx))
    return SORT_NAMES[name]


class _FormulaParser:
    """Parses terms and formulas against a symbol table. ``freevars``
    accumulates ``?name`` variables so repeated mentions agree on sort;
    its scope is one fact (or one observe/query block). ``symvars`` holds
    the ``?name`` function symbols a trait record declares; scenario files
    have none."""

    def __init__(self, table: SymbolTable):
        self.table = table
        self.freevars: dict[str, Variable] = {}
        self.symvars: dict[str, SymbolVariable] = {}

    def fresh_scope(self):
        self.freevars = {}

    def term(self, sx, expected: Sort, env=None, ground=False) -> Term:
        """The term sx of the expected sort; with ground set, a term that
        names a thing of the scenario, so it may hold no ?variable."""
        env = env or {}
        if isinstance(sx, SNum):
            if expected is Sort.MOMENT and sx.is_int and not sx.text.startswith("-"):
                return moment(_expect_moment(sx))
            raise SortMismatch(f"number not allowed where {expected.value} expected", *_loc(sx))
        if isinstance(sx, SSym):
            name = sx.text
            if name.startswith("?"):
                if ground:
                    raise ParseError(f"variable {name} where a ground term is expected",
                                     *_loc(sx))
                return self._variable(name[1:], expected, _loc(sx))
            if name in env:
                v = env[name]
                if not fits(v.sort, expected):
                    raise SortMismatch(f"variable {name} has sort {v.sort.value}, "
                                       f"expected {expected.value}", *_loc(sx))
                return v
            if name in self.table.constants:
                c = self.table.constants[name]
                if not fits(c.sort, expected):
                    raise SortMismatch(f"{name} has sort {c.sort.value}, "
                                       f"expected {expected.value}", *_loc(sx))
                return c
            raise UndeclaredSymbol(f"undeclared symbol {name!r}", *_loc(sx))
        if isinstance(sx, SList):
            if not sx.items:
                raise ParseError("empty application", *_loc(sx))
            head = _expect_sym(sx.items[0], "symbol name")
            if head.startswith("?"):
                sym = self.symvars.get(head[1:])
                if sym is None:
                    raise ParseError("symbol variables are not part of the input grammar",
                                     *_loc(sx))
            else:
                sym = self.table.functions.get(head)
            if sym is None:
                raise UndeclaredSymbol(f"undeclared symbol {head!r}", *_loc(sx))
            args = sx.items[1:]
            if len(args) != len(sym.arg_sorts):
                raise ParseError(f"{head} expects {len(sym.arg_sorts)} arguments, "
                                 f"got {len(args)}", *_loc(sx))
            terms = tuple(self.term(a, s, env, ground) for a, s in zip(args, sym.arg_sorts))
            if not fits(sym.result_sort, expected):
                raise SortMismatch(f"{head} yields {sym.result_sort.value}, "
                                   f"expected {expected.value}", *_loc(sx))
            return Application(sym, terms)
        raise ParseError("expected a term", *_loc(sx))

    def _variable(self, name, expected, loc) -> Variable:
        v = self.freevars.get(name)
        if v is None:
            v = Variable(name, expected)
            self.freevars[name] = v
        elif not fits(v.sort, expected):
            raise SortMismatch(f"variable ?{name} used at sorts {v.sort.value} "
                               f"and {expected.value}", *loc)
        return v

    def effect_time(self, sx) -> Term:
        """The moment of an initiates/terminates rule, the one position where
        a bare name is an (implicitly declared) moment variable; everywhere
        else a bare name must be declared."""
        if isinstance(sx, SSym) and not sx.text.startswith("?") \
                and sx.text not in self.table.constants:
            return self._variable(sx.text, Sort.MOMENT, _loc(sx))
        return self.term(sx, Sort.MOMENT)

    def formula(self, sx, env=None) -> Formula:
        env = env or {}
        if not isinstance(sx, SList) or not sx.items:
            raise ParseError("expected a formula", *_loc(sx))
        head = sx.items[0]
        name = head.text if isinstance(head, SSym) else None
        body = sx.items[1:]
        if name in _CONNECTIVES:
            cls = _CONNECTIVES[name]
            if cls._fields == ("parts",):
                if not body:
                    raise ParseError(f"({name}) needs at least one part", *_loc(sx))
                return cls(tuple(self.formula(p, env) for p in body))
            self._arity(sx, len(cls._fields))
            return cls(*(self.formula(p, env) for p in body))
        if name in ("forall", "exists"):
            self._arity(sx, 2)
            if not isinstance(body[0], SList):
                raise ParseError("expected binder list", *_loc(body[0]))
            env2 = dict(env)
            bvars = []
            for b in body[0].items:
                if not (isinstance(b, SList) and len(b.items) == 2):
                    raise ParseError("binder must be (name sort)", *_loc(b))
                vname = _expect_sym(b.items[0], "variable name")
                v = Variable(vname, _parse_sort(b.items[1]))
                env2[vname] = v
                bvars.append(v)
            cls = ForAll if name == "forall" else Exists
            return cls(tuple(bvars), self.formula(body[1], env2))
        if name == "ought":
            self._arity(sx, 4)
            agent = self.term(body[0], Sort.AGENT, env)
            time = self.term(body[1], Sort.MOMENT, env)
            cond = self.formula(body[2], env)
            deontic = self.formula(body[3], env)
            try:
                return Ought(agent, time, cond, deontic)
            except SortMismatch as exc:
                raise SortMismatch(str(exc), *_loc(sx))
        if name in _MODAL_BY_NAME:
            op = _MODAL_BY_NAME[name]
            nagents = MODAL_ARITY[op]
            if name == "says" and len(body) == 4:
                op, nagents = ModalOp.SAYS_TO, 2
            if len(body) != nagents + 2:
                raise ParseError(f"({name} ...) has wrong arity", *_loc(sx))
            agents = tuple(self.term(b, Sort.AGENT, env) for b in body[:nagents])
            time = self.term(body[nagents], Sort.MOMENT, env)
            return Modal(op, agents, time, self.formula(body[nagents + 1], env))
        # plain atom
        t = self.term(sx, Sort.BOOLEAN, env)
        if not isinstance(t, Application):
            raise ParseError("an atom must be an application", *_loc(sx))
        return Atom(t)

    def _arity(self, sx, n):
        if len(sx.items) != n + 1:
            raise ParseError(f"({sx.items[0].text} ...) expects {n} parts", *_loc(sx))


_CONFIG_KEYS = {"n", "m", "gamma", "learner", "max-depth", "mode"}


def check_setting(key, value, loc=(None, None), table=None):
    """The one check of every setting, shared by (set key value) and the
    command-line overrides (which also set the horizon). Returns the value
    to store, for learner the declared agent itself; raises ParseError at
    loc when the value is out of range."""
    if key in ("n", "m") and value < 1:
        raise ParseError(f"{key} must be at least 1", *loc)
    if key == "horizon" and value < 0:
        raise ParseError("horizon must be non-negative", *loc)
    if key == "horizon" and value > MAX_MOMENT:
        raise ParseError(f"horizon must be at most {MAX_MOMENT}", *loc)
    if key == "gamma" and not 0 < value <= 1:  # also rejects nan
        raise ParseError("gamma must lie in (0, 1]", *loc)
    if key == "mode" and value not in (FIRST_ORDER, HIGHER_ORDER):
        raise ParseError("mode must be fo or ho", *loc)
    if key == "learner":
        return table.agent(value, loc)
    return value


def parse_scenario(text: str, horizon: int | None = None) -> ScenarioDoc:
    """Parse and sort-check a scenario document; a horizon given here (by
    --horizon) replaces the declared one. The first error wins; no partial
    documents are returned."""
    doc = ScenarioDoc(SymbolTable())
    fp = _FormulaParser(doc.symbols)
    situation_ids: set[str] = set()  # observe and query items share one namespace
    for sx in read_all(text):
        if not (isinstance(sx, SList) and sx.items and isinstance(sx.items[0], SSym)):
            raise ParseError("expected a (keyword ...) item", *_loc(sx))
        _parse_item(sx, doc, fp, situation_ids)
    # (set max-depth d) may follow the asserts it bounds, (horizon h) the
    # occurrences it bounds
    max_depth = doc.config["max-depth"]
    assert_locs = [loc for head, loc in doc.facts if head == "assert"]
    for f, loc in zip(doc.asserts, assert_locs):
        if modal_depth(f) > max_depth:
            raise DepthExceeded(f"modal depth {modal_depth(f)} exceeds max-depth {max_depth}: "
                                f"{print_formula(f)}", *loc)
    if horizon is not None:
        doc.horizon = horizon
    for (event, t), loc in doc.happens.items():
        if doc.horizon is not None and t > doc.horizon:
            raise HorizonExceeded(f"happens({print_term(event)}, {t}) is past horizon "
                                  f"{doc.horizon}", *loc)
    return doc


def _parse_item(sx, doc, fp, situation_ids):
    head = sx.items[0].text
    body = sx.items[1:]
    loc = _loc(sx)
    table = doc.symbols
    fp.fresh_scope()

    def need(n):
        if len(body) != n:
            raise ParseError(f"({head} ...) expects {n} parts", *loc)

    def fact_moment(part) -> int:
        t = _expect_moment(part)
        doc.last_moment = max(doc.last_moment, t)
        return t

    if head == "declare-agent":
        need(1)
        name = _expect_sym(body[0])
        table.declare_constant(name, Sort.AGENT, loc)
    elif head == "declare-constant":
        need(2)
        name = _expect_sym(body[0])
        sort = _parse_sort(body[1])
        if sort is Sort.MOMENT:
            # moments are the numerals 0, 1, 2, ...; a name cannot be one
            raise SortMismatch(f"moment constant {name!r}: moments are written as numerals",
                               *_loc(body[1]))
        table.declare_constant(name, sort, loc)
    elif head in ("declare-action-type", "declare-fluent", "declare-predicate"):
        need(2)
        name = _expect_sym(body[0])
        if not isinstance(body[1], SList):
            raise ParseError("expected argument sort list", *_loc(body[1]))
        arg_sorts = tuple(_parse_sort(s) for s in body[1].items)
        result = {"declare-action-type": Sort.ACTION_TYPE,
                  "declare-fluent": Sort.FLUENT,
                  "declare-predicate": Sort.BOOLEAN}[head]
        table.declare_function(name, arg_sorts, result, loc)
    elif head == "horizon":
        need(1)
        if doc.horizon is not None:
            raise DuplicateDeclaration("duplicate horizon declaration", *loc)
        doc.horizon = _expect_moment(body[0])
    elif head == "set":
        need(2)
        key = _expect_sym(body[0])
        if key not in _CONFIG_KEYS:
            raise ParseError(f"unknown config key {key!r}", *loc)
        if key in ("n", "m", "max-depth"):
            value = _expect_nat(body[1])
        elif key == "gamma":
            if not isinstance(body[1], SNum):
                raise ParseError("gamma must be a number", *loc)
            value = float(body[1].text)
        else:
            value = _expect_sym(body[1])
        doc.config[key] = check_setting(key, value, _loc(body[1]), table)
    elif head == "initially":
        need(1)
        doc.initially.append(fp.term(body[0], Sort.FLUENT, ground=True))
    elif head == "happens":
        need(2)
        occurrence = (fp.term(body[0], Sort.EVENT, ground=True), fact_moment(body[1]))
        doc.happens.setdefault(occurrence, _loc(body[1]))
    elif head == "nu":
        need(4)
        key = (fp.term(body[0], Sort.AGENT, ground=True),
               fp.term(body[1], Sort.FLUENT, ground=True), fact_moment(body[2]))
        if not isinstance(body[3], SNum):
            raise ParseError("nu value must be a number", *_loc(body[3]))
        # float of the literal text: a literal too large for a float reads
        # as inf (float of its int would raise); the fact whose value takes
        # its key's sum out of range is at fault
        doc.nu[key] = total = doc.nu.get(key, 0.0) + float(body[3].text)
        if not math.isfinite(total):
            raise ParseError(f"nu value must be finite, got {total}", *_loc(body[3]))
    elif head == "theta":
        if len(body) not in (2, 3):
            raise ParseError("(theta ...) expects 2 or 3 parts", *loc)
        agent = fp.term(body[0], Sort.AGENT, ground=True)
        mode = _expect_sym(body[1])
        if mode in ("always", "never"):
            need(2)
            doc.theta[agent] = mode
        elif mode == "at":
            need(3)
            gate = doc.theta.get(agent)
            doc.theta[agent] = ((gate if isinstance(gate, frozenset) else frozenset())
                                | {fact_moment(body[2])})
        else:
            raise ParseError("theta mode must be always, never, or at", *loc)
    elif head in ("initiates", "terminates"):
        need(3)
        rule = EffectRule(fp.term(body[0], Sort.EVENT), fp.term(body[1], Sort.FLUENT),
                          fp.effect_time(body[2]))
        (doc.initiates if head == "initiates" else doc.terminates).append(rule)
    elif head == "assert":
        need(1)
        doc.asserts.append(fp.formula(body[0]))
    elif head == "group":
        doc.groups.append(tuple(fp.formula(f) for f in body))
    elif head in _SITUATION_SECTIONS:
        fact = _parse_situation(head, body, loc, fp, situation_ids)
        doc.last_moment = max(doc.last_moment, fact.time)
        (doc.queries if head == "query" else doc.observations).append(fact)
    else:
        raise ParseError(f"unknown item {head!r}", *loc)
    if head not in ("horizon", "set") and not head.startswith("declare-"):
        doc.facts.append((head, loc))


def _section_arg(sec, what):
    """The single argument of a (key arg) section."""
    items = sec.items[1:]
    if len(items) != 1:
        raise ParseError(f"({sec.items[0].text} ...) takes one {what}", *_loc(sec))
    return items[0]


def _section_items(secs, key):
    """The arguments of an optional (key ...) section; none when it is absent."""
    return secs[key].items[1:] if key in secs else ()


def _sections(body, allowed):
    """The (key ...) sections of a record by key; each key at most once."""
    out = {}
    for part in body:
        if not (isinstance(part, SList) and part.items and isinstance(part.items[0], SSym)):
            raise ParseError("expected a (section ...) entry", *_loc(part))
        key = part.items[0].text
        if key not in allowed:
            raise ParseError(f"unknown section {key!r}", *_loc(part))
        if key in out:
            raise DuplicateDeclaration(f"duplicate section {key!r}", *_loc(part))
        out[key] = part
    return out


_SITUATION_SECTIONS = {"observe": {"agent", "time", "formulas", "alternatives", "performed"},
                       "query": {"time", "formulas"}}


def _parse_situation(head, body, loc, fp, taken):
    """An (observe id ...) or (query id ...) item, whose id is not in the
    set taken; a query has only the time and formulas sections. The
    agent, alternatives and performed action types are ground."""
    if not body:
        raise ParseError(f"({head} ...) needs an id", *loc)
    sid = _expect_sym(body[0], "situation id")
    if sid in taken:
        raise DuplicateDeclaration(f"duplicate situation id {sid!r}", *_loc(body[0]))
    taken.add(sid)
    secs = _sections(body[1:], _SITUATION_SECTIONS[head])
    agent = None
    if "agent" in secs:
        agent = fp.term(_section_arg(secs["agent"], "agent"), Sort.AGENT, ground=True)
    time = _expect_moment(_section_arg(secs["time"], "moment")) if "time" in secs else 0
    formulas = tuple(fp.formula(f) for f in _section_items(secs, "formulas"))
    if head == "query":
        return Situation(sid, time, formulas)
    alts = tuple(fp.term(t, Sort.ACTION_TYPE, ground=True)
                 for t in _section_items(secs, "alternatives"))
    performed = None
    if "performed" in secs:
        performed = fp.term(_section_arg(secs["performed"], "action type"), Sort.ACTION_TYPE,
                            ground=True)
    return Situation(sid, time, formulas, alts, performed, agent)


# ---------------------------------------------------------------------------
# Trait files: (trait [(signatures ...)] (pattern ...) (action ...)
# [(exemplar a)] [(sources ...)])


class LearntTrait(Record, exemplar=None, source_situations=()):
    """Formulas whose free variables the action type shares, the agent
    (a Constant, or None) it was learnt from, and the ids of the situations
    it generalizes."""
    __slots__ = ("pattern", "action_pattern", "exemplar", "source_situations")

    def __post_init__(self):
        pattern_vars = set()
        for f in self.pattern:
            pattern_vars |= free_variables(f)
        loose = {v for v in free_variables(self.action_pattern)
                 if isinstance(v, Variable)} - pattern_vars
        if loose:
            raise UnboundActionVariable(
                f"action variables without a situation anchor: {sorted(v.name for v in loose)}")


def parse_traits(text: str, doc: ScenarioDoc) -> list[LearntTrait]:
    """Read a trait file against the scenario's symbol table."""
    fp = _FormulaParser(doc.symbols)
    traits = []
    for sx in read_all(text):
        if not (isinstance(sx, SList) and sx.items
                and isinstance(sx.items[0], SSym) and sx.items[0].text == "trait"):
            raise ParseError("trait file entries must be (trait ...) records", *_loc(sx))
        secs = _sections(sx.items[1:], {"signatures", "pattern", "action", "exemplar",
                                        "sources"})
        fp.freevars, fp.symvars = _parse_signatures(_section_items(secs, "signatures"))
        pattern = tuple(fp.formula(f) for f in _section_items(secs, "pattern"))
        if "action" not in secs:
            raise ParseError("trait record lacks an (action ...) section", *_loc(sx))
        action = fp.term(_section_arg(secs["action"], "action type"), Sort.ACTION_TYPE)
        exemplar = None
        if "exemplar" in secs:
            arg = _section_arg(secs["exemplar"], "agent")
            exemplar = doc.symbols.agent(_expect_sym(arg, "agent name"), _loc(arg))
        sources = tuple(_expect_sym(i, "situation id") for i in _section_items(secs, "sources"))
        try:
            traits.append(LearntTrait(pattern, action, exemplar, sources))
        except UnboundActionVariable as exc:
            raise UnboundActionVariable(exc.message, *_loc(secs["action"]))
    return traits


def _parse_signatures(items):
    """The variables and symbol variables a (signatures ...) section
    declares, by name: (X sort) or (P (arg sorts) result sort)."""
    variables, symbols = {}, {}
    for item in items:
        if not (isinstance(item, SList) and len(item.items) in (2, 3)):
            raise ParseError("a signature is (name sort) or (name (sorts) sort)", *_loc(item))
        name = _expect_sym(item.items[0], "variable name")
        if name in variables or name in symbols:
            raise DuplicateDeclaration(f"duplicate signature {name!r}", *_loc(item))
        if len(item.items) == 2:
            variables[name] = Variable(name, _parse_sort(item.items[1]))
            continue
        if not isinstance(item.items[1], SList):
            raise ParseError("expected argument sort list", *_loc(item.items[1]))
        symbols[name] = SymbolVariable(name, tuple(_parse_sort(a) for a in item.items[1].items),
                                       _parse_sort(item.items[2]))
    return variables, symbols


def _signature(v) -> str:
    if isinstance(v, SymbolVariable):
        args = " ".join(a.value for a in v.arg_sorts)
        return f"({v.name} ({args}) {v.result_sort.value})"
    return f"({v.name} {v.sort.value})"


def print_trait(trait: LearntTrait) -> str:
    """One (trait ...) record. Its signatures section states what the
    reader could not infer from positions: the signature of each symbol
    variable, and the sort of each action variable, which an event
    position would otherwise read as an event."""
    free = free_variables(trait.action_pattern).union(*map(free_variables, trait.pattern))
    sigs = sorted((v for v in free if isinstance(v, SymbolVariable) or v.sort is Sort.ACTION),
                  key=lambda v: v.name)
    pats = " ".join(print_formula(p) for p in trait.pattern)
    parts = ["(trait"]
    if sigs:
        parts.append(f"(signatures {' '.join(map(_signature, sigs))})")
    parts.append(f"(pattern {pats}) (action {print_term(trait.action_pattern)})")
    if trait.exemplar is not None:
        parts.append(f"(exemplar {trait.exemplar.name})")
    if trait.source_situations:
        parts.append(f"(sources {' '.join(trait.source_situations)})")
    return " ".join(parts) + ")"
