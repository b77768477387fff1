import pytest

from vz.cli import main
from vz.ec import Occurrence, Timeline
from vz.emotions import EmotionKind, EmotionRecord
from vz.errors import SortMismatch
from vz.generalize import Generalization, SetGeneralization
from vz.inference import KnowledgeBase
from vz.learner import ExemplarRecord
from vz.scenario import (DEFAULT_MAX_DEPTH, EffectRule, LearntTrait, ScenarioDoc, Situation,
                         SymbolTable)
from vz.sexpr import SList, SNum, SSym
from vz.subst import apply_substitution, match
from vz.terms import (ACTION, HAPPENS, HOLDS, And, Application, Atom, Constant,
                      Exists, ForAll, FunctionSymbol, Iff, Implies, Modal,
                      ModalOp, Not, Or, Ought, Record, Sort, SymbolVariable,
                      Variable, fits, moment, sort_of)

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

    def test_one_constant_per_moment(self):
        assert moment(3) is moment(3) and moment(3) == Constant("3", Sort.MOMENT)
        for _ in range(2):  # a refused moment is refused on every call
            with pytest.raises(SortMismatch):
                moment(-1)

    def test_swapped_arguments_rejected(self, capsys, tmp_path):
        # the reader is the sort check: sort_of reads the sort a term was built with
        path = tmp_path / "swapped.vz"
        path.write_text("(declare-agent jack)\n(declare-action-type running ())\n"
                        "(happens (action (running) jack) 1)\n")
        assert main(["check", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"{path}:3:18: running yields action-type, expected agent\n"


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
        SSym: [("a", 1), ("a", 2)],
        SNum: [("1", 1), ("2", 1)],
        SList: [((), 0), ((SSym("a", 1),), 0)],
        EffectRule: [(EVENT, A, T), (EVENT, A, moment(1))],
        Situation: [("s", 1, (AT,)), ("s", 1, (AT,), (), WAVE())],
        LearntTrait: [((AT,), WAVE()), ((AT,), WAVE(), JACK)],
        Occurrence: [(EVENT, 1, (A,), ()), (EVENT, 1, (), (A,))],
        Timeline: [(3, frozenset(), ()), (3, frozenset({(A, 0)}), ())],
        EmotionRecord: [(EmotionKind.JOY, JACK, None, EVENT, 1, 2),
                        (EmotionKind.PITY_FOR, JACK, JILL, EVENT, 1, 2)],
        ExemplarRecord: [(JACK, JILL, 2), (JACK, JILL, 2, 5)],
        Generalization: [(AT, ()), (Not(AT), ())],
        SetGeneralization: [((AT,), (), True, ()), ((AT,), (), False, ())],
        KnowledgeBase: [(frozenset(),), (frozenset({AT}),)],
    }


# The interned classes: the terms and formulas.
TERM_CLASSES = (Variable, Constant, FunctionSymbol, SymbolVariable, Application, Atom, Not, And,
                Or, Implies, Iff, ForAll, Exists, Modal, Ought)


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
    # each sample built twice: equal records, distinct objects unless interned
    pool = [cls(*args) for cls, cases in record_samples().items()
            for args in cases for _ in range(2)]
    for x in pool:
        for y in pool:
            same = type(x) is type(y) and fields(x) == fields(y)
            assert (x == y) is same and (x != y) is not same, (x, y)
    # same fields, other class
    assert Variable("x", Sort.AGENT) != Constant("x", Sort.AGENT)


def test_record_hash_is_the_hash_of_its_fields():
    for cls, cases in record_samples().items():
        for args in cases:
            x = cls(*args)
            if cls in TERM_CLASSES:
                # one object per value, compared and hashed by identity
                assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__
                assert cls(*args) is x and hash(x) == hash(x) == object.__hash__(x)
            else:
                # each hash is the hash of the fields
                assert cls(*args) is not x and hash(x) == hash(x) == hash(fields(x))


class CountingLeaf:
    def __init__(self):
        self.hashes = 0

    def __hash__(self):
        self.hashes += 1
        return 7


def test_record_hashes_its_fields_on_each_call():
    leaf = CountingLeaf()
    x = Occurrence(leaf, 1, (), ())
    assert leaf.hashes == 0  # nothing is hashed at construction
    assert hash(x) == hash(x) == hash((leaf, 1, (), ()))
    assert leaf.hashes == 3  # once for each hash of x, once for the tuple above
    # a term hashes its fields to find its one object, and never again
    x = Not(leaf)
    built = leaf.hashes
    assert Not(leaf) is x and leaf.hashes == built + 1
    assert hash(x) == hash(x) == object.__hash__(x) and leaf.hashes == built + 1


def test_equal_records_built_apart_hash_equal():
    # equal terms built apart are one object
    x, y = (Modal(ModalOp.KNOWS, (JACK,), moment(1), AT) for _ in range(2))
    assert x is y and x == y and hash(x) == hash(y)
    assert {x: 1}[y] == 1
    # equal records of other classes stay distinct objects
    x, y = (Occurrence(EVENT, 1, (A,), ()) for _ in range(2))
    assert x is not y
    assert x == y and hash(x) == hash(y)
    assert {x: 1}[y] == 1


def test_unhashable_record_raises_on_every_hash():
    x = Generalization(AT, ({X: A},))
    for _ in range(2):
        with pytest.raises(TypeError):
            hash(x)


def test_records_keep_no_hash_cache():
    # the base class has no slot, so a record's only slots are its fields
    assert Record.__slots__ == ()
    for cls, cases in record_samples().items():
        x = cls(*cases[0])
        assert not hasattr(x, "_hash")
    assert Not._fields == ("body",) and repr(Not(AT)) == "Not(body=(hungry jack:agent))"
    assert Occurrence._fields == ("event", "time", "initiated", "terminated")


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
    assert repr(Situation("s", 1, (hungry,))) == (
        "Situation(id='s', time=1, formulas=((hungry jack:agent),), alternatives=(), "
        "performed=None, agent=None)")
    assert repr(SNum("1.5", 3)) == "SNum(text='1.5', pos=3)"
    # classes with a repr of their own keep it
    assert repr(X) == "?x:agent" and repr(SymbolVariable("P0", (), Sort.FLUENT)) == "?P0"


def test_record_keywords_and_defaults():
    docs = [ScenarioDoc(TABLE, horizon=3) for _ in range(2)]
    assert docs[0].horizon == 3 and docs[0].facts == [] and docs[0].facts is not docs[1].facts
    assert docs[0].config == {"mode": "fo", "max-depth": 3, "n": 2, "m": 2, "gamma": 0.9}
    assert docs[0].config is not docs[1].config
    docs[0].horizon = 4  # a scenario document is filled in place
    assert docs[0].horizon == 4
    assert ExemplarRecord(JACK, JILL, 2, admitted_at=5).admitted_at == 5
    assert ExemplarRecord(JACK, JILL, 2).admitted_at is None
    assert Application(WAVE).args == ()
    assert Situation("s", 1, (), performed=WAVE()) == Situation("s", 1, (), (), WAVE(), None)
    # __post_init__ still checks each new record
    with pytest.raises(SortMismatch):
        Ought(JACK, moment(1), AT, AT)


def test_records_built_by_field_keywords_equal_positional():
    for cls, cases in record_samples().items():
        for args in cases:
            assert cls(**dict(zip(cls._fields, args))) == cls(*args)


# The class-keyword default of each omitted trailing field.
DEFAULTS = {
    Application: {"args": ()},
    Situation: {"alternatives": (), "performed": None, "agent": None},
    LearntTrait: {"exemplar": None, "source_situations": ()},
    ExemplarRecord: {"admitted_at": None},
    KnowledgeBase: {"max_depth": DEFAULT_MAX_DEPTH, "horizon": None},
}


def test_omitted_trailing_fields_take_the_class_defaults():
    for cls, cases in record_samples().items():
        defaults = DEFAULTS.get(cls, {})
        constructor = cls.__new__ if cls in TERM_CLASSES else cls.__init__
        assert constructor.__defaults__ == tuple(defaults.values())
        args = cases[0][:len(cls._fields) - len(defaults)]
        x = cls(*args)
        assert fields(x) == args + tuple(defaults.values())
        if cls in TERM_CLASSES:
            assert x is cls(*args, *defaults.values())
        else:
            assert x == cls(*args, *defaults.values()) and hash(x) == hash(fields(x))


def test_methods_defined_in_a_class_body_are_kept():
    class Loose(Record):
        __slots__ = ("name", "line")

        def __eq__(self, other):
            return isinstance(other, Loose) and self.name == other.name

        def __hash__(self):
            return hash(self.name)

    assert Loose("a", 1) == Loose("a", 2) and hash(Loose("a", 1)) == hash("a")
    assert Loose("a", 1) != Loose("b", 1) and Loose(line=1, name="a") == Loose("a", 1)


def test_post_init_runs_after_the_fields_are_set():
    seen = []

    class Checked(Record, low=0):
        __slots__ = ("high", "low")

        def __post_init__(self):
            seen.append((self.high, self.low))
            if self.low > self.high:
                raise ValueError("low above high")

    assert Checked(3) == Checked(high=3, low=0) and seen == [(3, 0), (3, 0)]
    with pytest.raises(ValueError):
        Checked(1, 2)
    assert hash(Checked(2, 1)) == hash((2, 1))


def test_enum_members_are_singletons_usable_as_keys():
    assert Sort("agent") is Sort.AGENT and ModalOp("says-to") is ModalOp.SAYS_TO
    assert EmotionKind("pity-for") is EmotionKind.PITY_FOR
    for enum_cls in (Sort, ModalOp, EmotionKind):
        table = {member: member.value for member in enum_cls}
        assert len(table) == len(enum_cls)
        for member in enum_cls:
            assert table[enum_cls(member.value)] == member.value
