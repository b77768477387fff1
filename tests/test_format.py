import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vz.errors import (DuplicateDeclaration, ParseError, SortMismatch,
                       UndeclaredSymbol)
from vz.printer import print_formula, print_term
from vz.scenario import NuFact, SymbolTable, _FormulaParser, parse_scenario
from vz.sexpr import read_all
from vz.terms import (ACTION, HAPPENS, HOLDS, MODAL_ARITY, And, Atom, Constant,
                      Exists, ForAll, FunctionSymbol, Iff, Implies, Modal,
                      ModalOp, Not, Or, Ought, Sort, Variable, alpha_equal,
                      children, moment, rebuild)

HEADER = """
(declare-agent jack)
(declare-agent jill)
(declare-fluent broken ())
(declare-fluent lit ())
(declare-action-type utter (fluent))
(declare-predicate talkingWith (agent))
(declare-predicate Honesty ())
"""


def parse_one_formula(text, table=None):
    doc = parse_scenario(HEADER + f"(assert {text})")
    return doc.asserts[0]


class TestScenarioParsing:
    def test_empty_document(self):
        doc = parse_scenario("")
        assert doc.facts == []

    def test_nu_fact(self):
        doc = parse_scenario(HEADER + "(nu jack (broken) 1 -2.0)")
        fact = doc.nu_facts[0]
        assert fact == NuFact(Constant("jack", Sort.AGENT),
                              fact.fluent, 1, -2.0)
        assert fact.value == -2.0

    def test_situation_fact(self):
        doc = parse_scenario(HEADER + "(initially (broken))\n(horizon 3)")
        assert doc.horizon == 3
        assert len(doc.initially) == 1

    def test_undeclared_symbol_has_location(self):
        with pytest.raises(UndeclaredSymbol) as exc:
            parse_scenario("(initially (mystery))")
        assert exc.value.line == 1 and exc.value.col >= 1

    def test_duplicate_declaration(self):
        with pytest.raises(DuplicateDeclaration):
            parse_scenario("(declare-agent jack)\n(declare-agent jack)")

    def test_duplicate_horizon(self):
        with pytest.raises(DuplicateDeclaration):
            parse_scenario("(horizon 1)\n(horizon 2)")

    def test_sort_error_on_swapped_args(self):
        with pytest.raises((SortMismatch, UndeclaredSymbol)):
            parse_scenario(HEADER + "(happens (action (broken) jack) 1)")

    def test_comment_and_whitespace(self):
        doc = parse_scenario("; a comment\n" + HEADER + "  (horizon 2) ; trailing\n")
        assert doc.horizon == 2

    def test_first_error_wins(self):
        with pytest.raises(ParseError) as exc:
            parse_scenario("(bogus)\n(also-bogus)")
        assert exc.value.line == 1


class TestRoundTrip:
    def test_settings_round_trip(self):
        text = HEADER + """
(set learner jill)
(set n 3)
(set gamma 0.5)
(set mode ho)
"""
        doc = parse_scenario(text)
        assert doc.config["learner"] == Constant("jill", Sort.AGENT)

    def test_formula_round_trip_example(self):
        f = parse_one_formula("(forall ((x agent)) (implies (talkingWith x) (Honesty)))")
        text = print_formula(f)
        assert text == "(forall ((x agent)) (implies (talkingWith x) (Honesty)))"
        assert alpha_equal(parse_one_formula(text), f)

    def test_modal_round_trip(self):
        f = parse_one_formula("(believes jack 3 (holds (broken) 1))")
        assert alpha_equal(parse_one_formula(print_formula(f)), f)


# Random formula generator over the declared header vocabulary; it builds
# every formula class and every modal operator.
AGENTS = [Constant("jack", Sort.AGENT), Constant("jill", Sort.AGENT)]
BROKEN = FunctionSymbol("broken", (), Sort.FLUENT)
UTTER = FunctionSymbol("utter", (Sort.FLUENT,), Sort.ACTION_TYPE)
TALKING = FunctionSymbol("talkingWith", (Sort.AGENT,), Sort.BOOLEAN)
HONESTY = FunctionSymbol("Honesty", (), Sort.BOOLEAN)
X = Variable("x", Sort.AGENT)

agent_terms = st.sampled_from(AGENTS)
moments = st.integers(0, 9).map(moment)
atoms = st.one_of(
    st.builds(lambda a: Atom(TALKING(a)), agent_terms),
    st.just(Atom(HONESTY())),
    st.builds(lambda t: Atom(HOLDS(BROKEN(), t)), moments),
)
# the deontic body of an ought: a possibly negated happens(action ...) atom
utterances = st.builds(lambda a, t: Atom(HAPPENS(ACTION(a, UTTER(BROKEN())), t)),
                       agent_terms, moments)
deontic_bodies = st.one_of(utterances, st.builds(Not, utterances))


@st.composite
def modals(draw, sub):
    op = draw(st.sampled_from(list(ModalOp)))
    agents = tuple(draw(agent_terms) for _ in range(MODAL_ARITY[op]))
    return Modal(op, agents, draw(moments), draw(sub))


def formulas(depth=3):
    if depth == 0:
        return atoms
    sub = formulas(depth - 1)
    return st.one_of(
        atoms,
        st.builds(Not, sub),
        st.builds(lambda a, b: And((a, b)), sub, sub),
        st.builds(lambda a, b: Or((a, b)), sub, sub),
        st.builds(Implies, sub, sub),
        st.builds(Iff, sub, sub),
        modals(sub),
        st.builds(Ought, agent_terms, moments, sub, deontic_bodies),
        st.builds(lambda f: ForAll((X,), Implies(Atom(TALKING(X)), f)), sub),
        st.builds(lambda f: Exists((X,), And((Atom(TALKING(X)), f))), sub),
    )


@settings(max_examples=200, deadline=None)
@given(formulas())
def test_random_formula_round_trip(f):
    text = print_formula(f)
    again = parse_one_formula(text)
    assert alpha_equal(again, f)
    assert print_formula(again) == text


def _subnodes(x):
    yield x
    for sub in children(x):
        yield from _subnodes(sub)


@settings(max_examples=100, deadline=None)
@given(formulas())
def test_rebuild_from_children_is_identity(f):
    for x in _subnodes(f):
        assert rebuild(x, children(x)) == x
