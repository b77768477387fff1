import pytest

from vz.ec import Occurrence, Timeline
from vz.emotions import EmotionKind, EmotionRecord, Theta, World
from vz.errors import SortMismatch
from vz.generalize import Generalization, SetGeneralization
from vz.inference import KnowledgeBase
from vz.learner import ExemplarRecord, TraitCriteria
from vz.scenario import (AssertFact, GroupFact, HappensFact, InitiallyFact,
                         InitiatesRule, LearntTrait, NuFact, QueryFact,
                         ScenarioDoc, Situation, SymbolTable, TerminatesRule,
                         ThetaFact)
from vz.sexpr import SList, SNum, SSym
from vz.subst import apply_substitution, match
from vz.terms import (ACTION, HAPPENS, HOLDS, And, Application, Atom, Constant,
                      Exists, ForAll, FunctionSymbol, Iff, Implies, Modal,
                      ModalOp, Not, Or, Ought, Record, Sort, SymbolVariable,
                      Variable, fits, moment, sort_of)
from vz.utility import NuTable

from conftest import (A, B, F2, G1, HUNGRY, JACK, JILL, LIKES, TALKING_WITH,
                      alpha_equal, renaming_equal)

X = Variable("x", Sort.AGENT)
XF = Variable("x", Sort.FLUENT)
T = Variable("t", Sort.MOMENT)


class TestSorts:
    def test_action_is_event(self):
        assert fits(Sort.ACTION, Sort.EVENT)
        assert not fits(Sort.EVENT, Sort.ACTION)

    def test_sort_of_action(self):
        running = FunctionSymbol("running", (), Sort.ACTION_TYPE)
        assert sort_of(Application(ACTION, (JACK, running()))) is Sort.ACTION

    def test_sort_of_moment(self):
        assert sort_of(moment(3)) is Sort.MOMENT

    def test_swapped_arguments_rejected(self):
        running = FunctionSymbol("running", (), Sort.ACTION_TYPE)
        with pytest.raises(SortMismatch):
            sort_of(Application(ACTION, (running(), JACK)))


class TestSubstitution:
    def test_ground_substitution(self):
        s = {X: JACK}
        assert apply_substitution(s, Atom(HUNGRY(X))) == Atom(HUNGRY(JACK))

    def test_empty_is_identity(self):
        t = F2(G1(A), B)
        assert apply_substitution({}, t) == t

    def test_bound_occurrence_untouched(self):
        f = ForAll((X,), Atom(TALKING_WITH(X)))
        s = {X: JILL}
        assert apply_substitution(s, f) == f

    def test_idempotent(self):
        s = {XF: G1(A)}
        once = apply_substitution(s, F2(XF, XF))
        assert apply_substitution(s, once) == once

    def test_sort_stability(self):
        s = {XF: G1(A)}
        t = F2(XF, B)
        assert sort_of(apply_substitution(s, t)) == sort_of(t)


class TestMatch:
    def test_holds_pattern(self):
        broken = FunctionSymbol("broken", (), Sort.FLUENT)
        pat = Application(HOLDS, (XF, T))
        target = Application(HOLDS, (broken(), moment(5)))
        s = match(pat, target)
        assert s == {XF: broken(), T: moment(5)}
        assert apply_substitution(s, pat) == target

    def test_partial_ground_pattern(self):
        pat = LIKES(JILL, X)
        s = match(pat, LIKES(JILL, JACK))
        assert s == {X: JACK}

    def test_inconsistent_binding(self):
        assert match(F2(XF, XF), F2(A, B)) is None

    def test_symbol_clash(self):
        assert match(G1(XF), F2(A, B)) is None

    def test_binding_keeps_sorts(self):
        # match is where a binding's sort is checked: Action is a subsort
        # of Event, not the other way round
        storm = Constant("storm", Sort.EVENT)
        wave = Application(ACTION, (JACK, FunctionSymbol("wave", (), Sort.ACTION_TYPE)()))
        assert match(Variable("x", Sort.ACTION), storm) is None
        assert match(Variable("x", Sort.EVENT), wave) == {Variable("x", Sort.EVENT): wave}
        assert match(X, A) is None  # a fluent for an agent variable


class TestAlpha:
    def test_renamed_binder_equal(self):
        y = Variable("y", Sort.AGENT)
        f1 = ForAll((X,), Atom(TALKING_WITH(X)))
        f2 = ForAll((y,), Atom(TALKING_WITH(y)))
        assert alpha_equal(f1, f2)

    def test_free_variables_distinguish(self):
        y = Variable("y", Sort.AGENT)
        assert not alpha_equal(Atom(TALKING_WITH(X)), Atom(TALKING_WITH(y)))
        assert renaming_equal(Atom(TALKING_WITH(X)), Atom(TALKING_WITH(y)))

    def test_equivalence_relation(self, rng):
        fs = [ForAll((X,), Atom(HUNGRY(X))),
              ForAll((Variable("z", Sort.AGENT),), Atom(HUNGRY(Variable("z", Sort.AGENT)))),
              Atom(HUNGRY(JACK))]
        for f in fs:
            assert alpha_equal(f, f)
        assert alpha_equal(fs[0], fs[1]) == alpha_equal(fs[1], fs[0])

    def test_respected_by_substitution(self):
        f1 = ForAll((X,), Atom(LIKES(X, Variable("w", Sort.AGENT))))
        y = Variable("y", Sort.AGENT)
        f2 = ForAll((y,), Atom(LIKES(y, Variable("w", Sort.AGENT))))
        s = {Variable("w", Sort.AGENT): JACK}
        assert alpha_equal(apply_substitution(s, f1), apply_substitution(s, f2))


def random_ground_term(rng, depth=3):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([A, B])
    if rng.random() < 0.5:
        return G1(random_ground_term(rng, depth - 1))
    return F2(random_ground_term(rng, depth - 1), random_ground_term(rng, depth - 1))


def generalize_randomly(rng, t, vars_pool):
    # replace random subterms by variables to create a matching pattern
    if rng.random() < 0.3:
        return rng.choice(vars_pool)
    if isinstance(t, Application) and t.args:
        return Application(t.symbol,
                           tuple(generalize_randomly(rng, a, vars_pool) for a in t.args))
    return t


def test_match_round_trip_property(rng):
    vars_pool = [Variable(f"v{i}", Sort.FLUENT) for i in range(3)]
    for _ in range(300):
        g = random_ground_term(rng)
        p = generalize_randomly(rng, g, vars_pool)
        s = match(p, g)
        if s is not None:
            assert apply_substitution(s, p) == g


# ---------------------------------------------------------------------------
# Record semantics, over every record class of the package.

AT = Atom(HUNGRY(JACK))
EVENT = Constant("storm", Sort.EVENT)
WAVE = FunctionSymbol("wave", (), Sort.ACTION_TYPE)
DO_WAVE = Atom(Application(HAPPENS, (Application(ACTION, (JACK, WAVE())), moment(2))))
TL = Timeline(3, frozenset({(A, 0)}), ())
TABLE = SymbolTable()


def record_samples():
    """Per record class, two instances that differ in one field."""
    ag, fl = Sort.AGENT, Sort.FLUENT
    return {
        Variable: [("x", ag), ("y", ag)],
        Constant: [("x", ag), ("x", fl)],
        FunctionSymbol: [("f", (fl,), fl), ("f", (fl, fl), fl)],
        SymbolVariable: [("P0", (fl,), fl), ("P0", (fl,), Sort.BOOLEAN)],
        Application: [(G1, (A,)), (G1, (B,))],
        Atom: [(HUNGRY(JACK),), (HUNGRY(JILL),)],
        Not: [(AT,), (Not(AT),)],
        And: [((AT,),), ((AT, AT),)],
        Or: [((AT,),), ((AT, AT),)],
        Implies: [(AT, AT), (AT, Not(AT))],
        Iff: [(AT, AT), (Not(AT), AT)],
        ForAll: [((X,), AT), ((XF,), AT)],
        Exists: [((X,), AT), ((X,), Not(AT))],
        Modal: [(ModalOp.KNOWS, (JACK,), moment(1), AT),
                (ModalOp.BELIEVES, (JACK,), moment(1), AT)],
        Ought: [(JACK, moment(1), AT, DO_WAVE), (JACK, moment(2), AT, DO_WAVE)],
        SSym: [("a", 1, 2), ("a", 1, 3)],
        SNum: [("1", 1, 2), ("2", 1, 2)],
        SList: [((), 1, 1), ((SSym("a", 1, 2),), 1, 1)],
        InitiallyFact: [(A,), (B,)],
        HappensFact: [(EVENT, 1), (EVENT, 2)],
        NuFact: [(JACK, A, 1, 1.0), (JACK, A, 1, -1.0)],
        ThetaFact: [(JACK, "always"), (JACK, "at", 2)],
        InitiatesRule: [(EVENT, A, T), (EVENT, B, T)],
        TerminatesRule: [(EVENT, A, T), (EVENT, A, moment(1))],
        AssertFact: [(AT,), (Not(AT),)],
        GroupFact: [((AT,),), ((AT, AT),)],
        Situation: [("s", 1, (AT,)), ("s", 1, (AT,), (), WAVE())],
        QueryFact: [("q", 1, (AT,)), ("q", 2, (AT,))],
        LearntTrait: [((AT,), WAVE()), ((AT,), WAVE(), JACK)],
        Occurrence: [(EVENT, 1, (A,), ()), (EVENT, 1, (), (A,))],
        Timeline: [(3, frozenset(), ()), (3, frozenset({(A, 0)}), ())],
        NuTable: [(), ((((JACK, A, 1), 1.0),),)],
        Theta: [(), (((JACK, "always"),),)],
        EmotionRecord: [(EmotionKind.JOY, JACK, None, EVENT, 1, 2),
                        (EmotionKind.PITY_FOR, JACK, JILL, EVENT, 1, 2)],
        World: [(TL, NuTable(), Theta(), (JACK,), 3), (TL, NuTable(), Theta(), (JILL,), 3)],
        TraitCriteria: [(), (3,)],
        ExemplarRecord: [(JACK, JILL, 2), (JACK, JILL, 2, 5)],
        Generalization: [(AT, ()), (Not(AT), ())],
        SetGeneralization: [((AT,), (), True, ()), ((AT,), (), False, ())],
        KnowledgeBase: [(frozenset(),), (frozenset({AT}),)],
    }


def fields(x):
    return tuple(getattr(x, f) for f in type(x)._fields)


def test_every_record_class_is_sampled():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    package = {c for c in subclasses(Record) if c.__module__.startswith("vz.")}
    assert package == set(record_samples())


def test_records_equal_iff_same_class_and_fields():
    # each sample built twice: equal records that are distinct objects
    pool = [cls(*args) for cls, cases in record_samples().items()
            for args in cases for _ in range(2)]
    for x in pool:
        for y in pool:
            same = type(x) is type(y) and fields(x) == fields(y)
            assert (x == y) is same and (x != y) is not same, (x, y)
    # same fields, other class
    assert InitiatesRule(EVENT, A, T) != TerminatesRule(EVENT, A, T)
    assert Variable("x", Sort.AGENT) != Constant("x", Sort.AGENT)


def test_record_hash_is_the_hash_of_its_fields():
    for cls, cases in record_samples().items():
        for args in cases:
            x = cls(*args)
            assert hash(x) == hash(fields(x))


def test_frozen_records_refuse_assignment():
    for cls, cases in record_samples().items():
        x = cls(*cases[0])
        with pytest.raises(AttributeError):
            setattr(x, cls._fields[0], None)
        with pytest.raises(AttributeError):
            delattr(x, cls._fields[0])
        with pytest.raises(AttributeError):
            x.extra = 1
        assert fields(x) == fields(cls(*cases[0]))


def test_record_repr():
    hungry = Atom(HUNGRY(JACK))
    assert repr(Not(hungry)) == "Not(body=(hungry jack:agent))"
    assert repr(Modal(ModalOp.KNOWS, (JACK,), moment(1), hungry)) == (
        "Modal(op=<ModalOp.KNOWS: 'knows'>, agents=(jack:agent,), time=1:moment, "
        "body=(hungry jack:agent))")
    assert repr(ThetaFact(JACK, "at", 2)) == "ThetaFact(agent=jack:agent, mode='at', time=2)"
    assert repr(TraitCriteria()) == \
        "TraitCriteria(min_situations=2, fraction=0.9, exemplar_threshold=2)"
    assert repr(Situation("s", 1, (hungry,))) == (
        "Situation(id='s', time=1, formulas=((hungry jack:agent),), alternatives=(), "
        "performed=None, agent=None)")
    assert repr(SNum("1.5", 3, 4)) == "SNum(text='1.5', line=3, col=4)"
    # classes with a repr of their own keep it
    assert repr(X) == "?x:agent" and repr(SymbolVariable("P0", (), Sort.FLUENT)) == "?P0"


def test_record_keywords_and_defaults():
    docs = [ScenarioDoc(TABLE, horizon=3) for _ in range(2)]
    assert docs[0].horizon == 3 and docs[0].facts == [] and docs[0].facts is not docs[1].facts
    assert docs[0].config == {"mode": "fo", "max-depth": 3}
    assert docs[0].config is not docs[1].config
    docs[0].horizon = 4  # a scenario document is filled in place
    assert docs[0].horizon == 4
    assert TraitCriteria(fraction=0.9) == TraitCriteria(2, 0.9, 2)
    assert TraitCriteria(fraction=0.5).fraction == 0.5
    assert ExemplarRecord(JACK, JILL, 2, admitted_at=5).admitted_at == 5
    assert ExemplarRecord(JACK, JILL, 2).admitted_at is None
    assert Application(WAVE).args == ()
    assert Situation("s", 1, (), performed=WAVE()) == Situation("s", 1, (), (), WAVE(), None)
    # __post_init__ still checks each new record
    with pytest.raises(ValueError):
        TraitCriteria(fraction=0)
    with pytest.raises(SortMismatch):
        Ought(JACK, moment(1), AT, AT)
