import random

import pytest

from vz.scenario import EffectRule, ScenarioDoc, SymbolTable
from vz.terms import (Application, Constant, Exists, ForAll, FunctionSymbol,
                      Sort, SymbolVariable, Variable, children, rebuild)

AG = Sort.AGENT
FL = Sort.FLUENT
MO = Sort.MOMENT
BO = Sort.BOOLEAN

# shared ground vocabulary for kernel/generalization tests
JACK = Constant("jack", AG)
JILL = Constant("jill", AG)
JIM = Constant("jim", AG)
A = Constant("a", FL)
B = Constant("b", FL)
F2 = FunctionSymbol("f", (FL, FL), FL)
G1 = FunctionSymbol("g", (FL,), FL)
LIKES = FunctionSymbol("likes", (AG, AG), BO)
LOVES = FunctionSymbol("loves", (AG, AG), BO)
HUNGRY = FunctionSymbol("hungry", (AG,), BO)
TALKING_WITH = FunctionSymbol("talkingWith", (AG,), BO)
HONESTY = FunctionSymbol("Honesty", (), BO)


class VocabularyDoc(ScenarioDoc):
    """A scenario document that also lists the fluents and events it
    declares (a subclass without slots of its own has a __dict__)."""


def make_doc(n_fluents=0, n_events=0, horizon=None):
    """A scenario document built programmatically: 0-ary fluents f0..,
    named event constants e0.., two agents."""
    table = SymbolTable()
    doc = VocabularyDoc(table, horizon=horizon)
    doc.fluents = [table.declare_function(f"fl{i}", (), Sort.FLUENT)()
                   for i in range(n_fluents)]
    doc.events = [table.declare_constant(f"e{i}", Sort.EVENT)
                  for i in range(n_events)]
    table.declare_constant("ag0", AG)
    table.declare_constant("ag1", AG)
    return doc


TVAR = Variable("t", MO)


def add_effects(doc, event, initiated=(), terminated=()):
    doc.initiates.extend(EffectRule(event, f, TVAR) for f in initiated)
    doc.terminates.extend(EffectRule(event, f, TVAR) for f in terminated)


def random_ec_doc(rng: random.Random, max_fluents=4, max_events=3, max_h=5):
    nf = rng.randint(1, max_fluents)
    ne = rng.randint(0, max_events)
    h = rng.randint(0, max_h)
    doc = make_doc(nf, ne, horizon=h)
    for f in doc.fluents:
        if rng.random() < 0.5:
            doc.initially.append(f)
    for e in doc.events:
        pool = list(doc.fluents)
        rng.shuffle(pool)
        k = rng.randint(0, len(pool))
        init = pool[:k // 2]
        term = pool[k // 2:k]
        add_effects(doc, e, init, term)
        doc.happens[e, rng.randint(0, h)] = None
    return doc


def forward_sim(initial, occ_effects, horizon):
    """Independent inertia oracle: step the state set forward, applying
    each moment's effects for the next moment. occ_effects is a list of
    (time, initiated set, terminated set).

    clipped is defined over the open interval, so a terminator at moment 0
    cannot clip an initially-true fluent (and a terminator at an initiation
    moment is a ConflictingEffects, never reached here).
    """
    holds = set()
    state = set(initial)
    for t in range(horizon + 1):
        for f in state:
            holds.add((f, t))
        init, term = set(), set()
        for tt, i, tr in occ_effects:
            if tt == t:
                init |= set(i)
                if t > 0:
                    term |= set(tr)
        state = (state - term) | init
    return holds


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


@pytest.fixture
def rng():
    return random.Random(20240817)


# ---------------------------------------------------------------------------
# Acceptance-criterion reporting: one PASS/FAIL line per criterion in the
# terminal summary (criteria live in test_acceptance.py).

_ACCEPTANCE_RESULTS: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call" or (report.failed and report.when == "setup"):
        _ACCEPTANCE_RESULTS[name] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    try:
        from test_acceptance import CRITERIA
    except ImportError:
        CRITERIA = {}
    terminalreporter.section("acceptance criteria")
    for name in sorted(_ACCEPTANCE_RESULTS):
        word = "PASS" if _ACCEPTANCE_RESULTS[name] == "passed" else "FAIL"
        terminalreporter.write_line(f"{word}  {CRITERIA.get(name, name)}")
