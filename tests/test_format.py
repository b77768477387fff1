import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vz.errors import (DuplicateDeclaration, ParseError, SortMismatch,
                       UndeclaredSymbol)
from vz import printer
from vz.printer import print_formula, print_term
from vz.errors import NoAlignment, UnboundActionVariable
from vz.learner import learn_trait
from vz.scenario import (SymbolTable, _FormulaParser, parse_scenario, parse_traits,
                         print_trait)
from vz.sexpr import SList, SNum, read_all
from vz.terms import (ACTION, HAPPENS, HOLDS, MODAL_ARITY, And, Atom, Constant,
                      Exists, ForAll, FunctionSymbol, Iff, Implies, Modal,
                      ModalOp, Not, Or, Ought, Sort, Variable, children,
                      moment, rebuild)

from conftest import alpha_equal

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
        broken = doc.symbols.functions["broken"]()
        assert doc.nu == {(Constant("jack", Sort.AGENT), broken, 1): -2.0}

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

    def test_parsed_moments_are_the_shared_constants(self):
        f = parse_one_formula("(believes jack 3 (holds (broken) 1))")
        assert f.time is moment(3) and f.body.pred.args[1] is moment(1)


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


def fresh_print(f) -> str:
    """print_term with its cache of closed texts emptied first."""
    printer._closed.clear()
    return print_term(f)


@settings(max_examples=100, deadline=None)
@given(st.lists(formulas(), max_size=4))
def test_memo_printing_matches_print_term(fs):
    fresh = [fresh_print(f) for f in fs]
    printer._closed.clear()
    # every root twice, so the second printing of each reads the cache
    assert [print_formula(f) for f in fs + fs] == fresh + fresh


def test_memo_prints_a_node_free_and_bound_apart():
    free = Atom(TALKING(X))  # (talkingWith ?x) alone, (talkingWith x) under its binder
    bound = ForAll((X,), free)
    for roots in ((free, bound), (bound, free), (And((free, bound)),), (And((bound, free)),)):
        fresh = [fresh_print(f) for f in roots]
        printer._closed.clear()
        assert [print_term(f) for f in roots] == fresh
        assert printer._closed


def _subnodes(x):
    yield x
    for sub in children(x):
        yield from _subnodes(sub)


@settings(max_examples=100, deadline=None)
@given(formulas())
def test_rebuild_from_children_is_identity(f):
    for x in _subnodes(f):
        assert rebuild(x, children(x)) == x


# ---------------------------------------------------------------------------
# Trait files: reading a printed learnt trait gives the trait back.

TRAIT_HEADER = """
(declare-agent ex) (declare-agent jack) (declare-agent jill)
(declare-fluent broken ()) (declare-fluent lit ()) (declare-fluent cold ())
(declare-fluent near (agent))
(declare-action-type utter (fluent)) (declare-action-type defer (fluent))
(declare-predicate ok (fluent)) (declare-predicate seen (fluent))
(declare-predicate likes (agent agent)) (declare-predicate loves (agent agent))
(declare-constant shout action) (declare-constant storm event)
"""


def random_observation(rng, i, verbs):
    """An observe item of ex whose performed action names the fluent of
    its (ok ...) anchor, plus a random selection of other formulas."""
    fluent = lambda: rng.choice(["(broken)", "(lit)", "(cold)", f"(near {agent()})"])
    agent = lambda: rng.choice(["jack", "jill"])
    moment = lambda: rng.choice(["?t", "1", "2"])
    event = lambda: rng.choice(["shout", "shout", "storm", f"(action {agent()} (utter {fluent()}))"])
    makers = [
        lambda: f"(holds {fluent()} {moment()})",
        lambda: f"(happens {event()} {moment()})",
        lambda: f"({rng.choice(['likes', 'loves'])} {agent()} {agent()})",
        lambda: f"(not (seen {fluent()}))",
        lambda: f"(knows {agent()} {moment()} (seen {fluent()}))",
        lambda: f"(forall ((x agent)) (likes x {agent()}))",
        lambda: f"(exists ((y agent)) (loves {agent()} y))",
    ]
    anchor = fluent()
    formulas = [f"(ok {anchor})", makers[1]()] + [rng.choice(makers)() for _ in range(3)]
    action = f"({rng.choice(verbs)} {anchor})"
    return (f"(observe s{i} (agent ex) (time {i}) (formulas {' '.join(formulas)}) "
            f"(alternatives {action}) (performed {action}))")


@pytest.mark.parametrize("mode", ["fo", "ho"])
def test_trait_round_trip(mode):
    rng = random.Random(20240817)
    learnt = declared = 0
    for _ in range(300):
        # mixed verbs generalize to a symbol variable (ho) or to an
        # unanchored action variable (fo)
        verbs = rng.choice([["utter"], ["utter", "defer"]] if mode == "ho" else [["utter"]])
        items = [random_observation(rng, i, verbs) for i in range(rng.randint(2, 5))]
        doc = parse_scenario(TRAIT_HEADER + "\n".join(items))
        sits = doc.observations
        try:
            trait = learn_trait(sits, [s.performed for s in sits], mode,
                                exemplar=doc.symbols.agents[0], min_situations=2)
        except (NoAlignment, UnboundActionVariable):
            continue
        text = print_trait(trait)
        assert parse_traits(text, doc) == [trait], text
        learnt += 1
        declared += "(signatures" in text
    assert learnt > 250 and declared > 50


# ---------------------------------------------------------------------------
# The s-expression reader against a token-level oracle: a document is built
# from random atoms and lists, with random whitespace and comments between
# them, and each atom's and each list's (line, col) is recorded as it is
# written.

_SYM_CHARS = string.ascii_letters + string.digits + "_?*-"
_SYMBOLS = st.builds(lambda first, rest: first + rest,
                     st.sampled_from(string.ascii_letters + "_?*-"),
                     st.text(_SYM_CHARS, max_size=6)).filter(
    lambda s: not (s[0] == "-" and s[1:2].isdigit()))  # -5... is a number
_NUMBERS = st.builds(lambda sign, whole, frac: sign + whole + frac,
                     st.sampled_from(["", "+", "-"]),
                     st.text(string.digits, min_size=1, max_size=4),
                     st.sampled_from(["", "."])
                     | st.text(string.digits, max_size=3).map(".".__add__))
_TREES = st.recursive(st.one_of(_SYMBOLS.map(lambda t: ("sym", t)),
                                _NUMBERS.map(lambda t: ("num", t))),
                      lambda kids: st.lists(kids, max_size=4).map(lambda l: ("list", l)),
                      max_leaves=25)
# a comment runs to the newline, and may hold any other character
_GAPS = st.lists(st.sampled_from([" ", "\t", "\r", "\n", "\r\n", ";\n", "; (x 1.2.3 @é\r;\n"]),
                 max_size=3).map("".join)


@st.composite
def _documents(draw):
    """(text, the expected tree, gaps): each gap is a place between tokens,
    outside any comment, as its offset, line, col and the (line, col) of
    each list open there, outermost first."""
    out, gaps, open_lists = [], [], []
    pos = {"offset": 0, "line": 1, "col": 1, "atom": False}

    def put(s):
        out.append(s)
        pos["offset"] += len(s)
        for ch in s:
            pos["line"], pos["col"] = ((pos["line"] + 1, 1) if ch == "\n"
                                       else (pos["line"], pos["col"] + 1))

    def gap(before_atom):
        gaps.append((pos["offset"], pos["line"], pos["col"], tuple(open_lists)))
        # two atoms in a row need a separator
        put(draw(_GAPS) or (" " if before_atom and pos["atom"] else ""))

    def write(node):
        kind, value = node
        gap(kind != "list")
        line, col = pos["line"], pos["col"]
        if kind != "list":
            put(value)
            pos["atom"] = True
            return (kind, value, line, col)
        put("(")
        open_lists.append((line, col))
        pos["atom"] = False
        items = [write(n) for n in value]
        gap(False)
        put(")")
        open_lists.pop()
        pos["atom"] = False
        return ("list", tuple(items), line, col)

    tree = [write(n) for n in draw(st.lists(_TREES, max_size=5))]
    gap(False)
    put(draw(st.sampled_from(["", ";", "; (x 1.2.3 @é\r"])))  # a last comment, unended
    return "".join(out), tree, gaps


def _read_tree(sx):
    if isinstance(sx, SList):
        return ("list", tuple(_read_tree(i) for i in sx.items), sx.line, sx.col)
    return ("num" if isinstance(sx, SNum) else "sym", sx.text, sx.line, sx.col)


@settings(max_examples=200, deadline=None)
@given(_documents(), st.data())
def test_reader_matches_token_oracle(doc, data):
    """read_all gives the recorded tree, and names one injected fault
    where it stands."""
    text, tree, gaps = doc
    assert [_read_tree(sx) for sx in read_all(text)] == tree
    offset, line, col, open_lists = data.draw(st.sampled_from(gaps))
    fault = data.draw(st.sampled_from(["character", "number", "paren"]))
    insert = lambda bad: text[:offset] + bad + text[offset:]
    if fault == "character":  # a character no token starts with or continues
        c = data.draw(st.sampled_from("@$#%&\"'!,/[]{}~^|<>=\\`\x00\x0b\x0c\u00e9"))
        faulty, where = insert(c), (line, col, f"unexpected character {c!r}")
    elif fault == "number":
        faulty, where = insert(" 1.2.3 "), (line, col + 1, "bad number '1.2.3'")
    elif not open_lists:  # a paren at the top level, never opened or never closed
        p = data.draw(st.sampled_from("()"))
        faulty = insert(p)
        where = (line, col, "unmatched ')'" if p == ")" else "unclosed parenthesis")
    else:  # the text cut off inside lists: the innermost is named
        faulty, where = text[:offset], open_lists[-1] + ("unclosed parenthesis",)
    with pytest.raises(ParseError) as exc:
        read_all(faulty)
    assert (exc.value.line, exc.value.col, exc.value.message) == where
