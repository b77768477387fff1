import pathlib
from collections import Counter

import pytest

import vz.inference
import vz.learner
from vz.cli import main
from vz.emotions import EmotionKind, EmotionRecord
from vz.errors import NoAlignment, UnboundActionVariable
from vz.generalize import FIRST_ORDER, HIGHER_ORDER
from vz.learner import (ExemplarRecord, LearntTrait, Situation, apply_trait,
                        check_consistency, detect_trait, identify_exemplars,
                        learn_trait)
from vz.printer import print_formula, print_term
from vz.subst import apply_substitution, match
from vz.terms import (ACTION, HAPPENS, HOLDS, INITIATES, TERMINATES, And, Application, Atom,
                      Constant, FunctionSymbol, Implies, Not, Sort, SymbolVariable,
                      Variable, free_variables, is_ground, moment)

from conftest import JACK, JILL, TALKING_WITH, renaming_equal

UTTER = FunctionSymbol("utter", (Sort.FLUENT,), Sort.ACTION_TYPE)
BE_TRUTHFUL = FunctionSymbol("beTruthful", (), Sort.ACTION_TYPE)
BROKEN = FunctionSymbol("broken", (), Sort.FLUENT)
UNBROKEN = FunctionSymbol("unbroken", (), Sort.FLUENT)
LIED = FunctionSymbol("lied", (), Sort.BOOLEAN)
TVAR = Variable("t", Sort.MOMENT)


def holds(fluent, t):
    return Atom(Application(HOLDS, (fluent, t)))


def happens_action(agent, alpha, t):
    return Atom(Application(HAPPENS,
                            (Application(ACTION, (agent, alpha)), moment(t))))


def sit(id, time, formulas, alternatives=(), performed=None, agent=JACK):
    return Situation(id, time, tuple(formulas), tuple(alternatives),
                     performed, agent)


MARKET_ALTS = (UTTER(BROKEN()), UTTER(UNBROKEN()))
SIGMA1 = sit("sigma1", 1, [holds(BROKEN(), TVAR)], MARKET_ALTS,
             UTTER(BROKEN()))
SIGMA2 = sit("sigma2", 3, [holds(UNBROKEN(), TVAR)], MARKET_ALTS,
             UTTER(UNBROKEN()))


class TestCheckConsistency:
    def test_empty_situation(self):
        assert check_consistency(sit("s", 1, []), BE_TRUTHFUL(), JACK)

    def test_direct_contradiction(self):
        sigma = sit("s", 1, [Not(happens_action(JACK, BE_TRUTHFUL(), 1))])
        assert not check_consistency(sigma, BE_TRUTHFUL(), JACK)

    def test_horn_rule_contradiction(self):
        rule = Implies(happens_action(JACK, UTTER(BROKEN()), 1), Atom(LIED()))
        sigma = sit("s", 1, [rule, Not(Atom(LIED()))])
        assert not check_consistency(sigma, UTTER(BROKEN()), JACK)
        assert check_consistency(sigma, UTTER(UNBROKEN()), JACK)

    def test_effect_conflict_alone(self):
        # no literal meets its negation: the only fault is that acting
        # would both initiate and terminate (broken) at moment 1
        event = Application(ACTION, (JACK, UTTER(BROKEN())))

        def effect(kind, t):
            return Implies(happens_action(JACK, UTTER(BROKEN()), 1),
                           Atom(Application(kind, (event, BROKEN(), moment(t)))))

        conflict = sit("s", 1, [effect(INITIATES, 1), effect(TERMINATES, 1)])
        assert not check_consistency(conflict, UTTER(BROKEN()), JACK)
        assert check_consistency(conflict, UTTER(UNBROKEN()), JACK)
        # either effect alone, or the two at different moments, is consistent
        for formulas in ([effect(INITIATES, 1)], [effect(TERMINATES, 1)],
                         [effect(INITIATES, 1), effect(TERMINATES, 2)]):
            assert check_consistency(sit("s", 1, formulas), UTTER(BROKEN()), JACK)


class TestDetectTrait:
    def test_two_of_two_performed(self):
        assert detect_trait([SIGMA1, SIGMA2], UTTER, 2, 0.9)

    def test_never_available(self):
        history = [sit("s", 1, [], (BE_TRUTHFUL(), UTTER(BROKEN())), None),
                   sit("s2", 2, [], (BE_TRUTHFUL(),), None)]
        assert not detect_trait(history, FunctionSymbol("sing", (), Sort.ACTION_TYPE), 2, 0.9)

    def test_eight_of_ten_below_fraction(self):
        history = []
        for i in range(10):
            perf = UTTER(BROKEN()) if i < 8 else BE_TRUTHFUL()
            history.append(sit(f"s{i}", i, [], (UTTER(BROKEN()), BE_TRUTHFUL()), perf))
        assert not detect_trait(history, UTTER, 2, 0.9)
        assert detect_trait(history, UTTER, 2, 0.8)

    def test_gamma_sweep_flips_at_threshold(self):
        # 9 of 10 eligible situations performed: fraction = 0.9
        history = []
        for i in range(10):
            perf = UTTER(BROKEN()) if i < 9 else BE_TRUTHFUL()
            history.append(sit(f"s{i}", i, [], (UTTER(BROKEN()), BE_TRUTHFUL()), perf))
        for gamma, expected in [(0.5, True), (0.8, True), (0.9, True), (1.0, False)]:
            assert detect_trait(history, UTTER, 2, gamma) \
                is expected

    def test_min_situations(self):
        assert not detect_trait([SIGMA1], UTTER, 2, 0.9)
        assert detect_trait([SIGMA1], UTTER, 1, 0.9)

    def test_permutation_invariant(self):
        history = [SIGMA1, SIGMA2]
        assert detect_trait(history, UTTER, 2, 0.9) \
            == detect_trait(list(reversed(history)), UTTER, 2, 0.9)

    def test_inconsistent_alternatives_not_eligible(self):
        # every instantiation of utter contradicts the situation
        rules = [Implies(happens_action(JACK, alt, 1), Atom(LIED()))
                 for alt in MARKET_ALTS]
        blocked = sit("s", 1, rules + [Not(Atom(LIED()))], MARKET_ALTS,
                      UTTER(BROKEN()))
        assert not detect_trait([blocked, blocked], UTTER, 2, 0.9)


def adm(subject, obj, event_time, hold_time):
    ev = Application(ACTION, (obj, BE_TRUTHFUL()))
    return EmotionRecord(EmotionKind.ADMIRATION_FOR, subject, obj, ev,
                         event_time, hold_time)


SELLER = Constant("seller", Sort.AGENT)
OBSERVER = Constant("observer", Sort.AGENT)


class TestIdentifyExemplars:
    def test_no_records(self):
        assert identify_exemplars([], OBSERVER, 2) == []

    def test_admitted_at_second_admiration(self):
        recs = [adm(OBSERVER, SELLER, 1, 3), adm(OBSERVER, SELLER, 1, 5)]
        (r,) = identify_exemplars(recs, OBSERVER, 2)
        assert r == ExemplarRecord(OBSERVER, SELLER, 2, admitted_at=5)

    def test_threshold_separates_agents(self):
        recs = [adm(OBSERVER, SELLER, 1, 2), adm(OBSERVER, SELLER, 2, 3),
                adm(OBSERVER, JILL, 1, 2)]
        out = identify_exemplars(recs, OBSERVER, 2)
        by_name = {r.exemplar.name: r for r in out}
        assert by_name["seller"].admitted_at == 3
        assert by_name["jill"].admitted_at is None

    def test_other_learners_records_ignored(self):
        recs = [adm(JILL, SELLER, 1, 2), adm(JILL, SELLER, 2, 3)]
        assert identify_exemplars(recs, OBSERVER, 2) == []

    def test_monotone_admission(self):
        recs = [adm(OBSERVER, SELLER, 1, 2), adm(OBSERVER, SELLER, 2, 3)]
        before = identify_exemplars(recs, OBSERVER, 2)
        after = identify_exemplars(recs + [adm(OBSERVER, SELLER, 3, 4)],
                                   OBSERVER, 2)
        admitted = {r.exemplar for r in before if r.admitted_at is not None}
        still = {r.exemplar for r in after if r.admitted_at is not None}
        assert admitted <= still


class TestLearnTrait:
    def test_marketplace_trait(self):
        trait = learn_trait([SIGMA1, SIGMA2],
                            [SIGMA1.performed, SIGMA2.performed],
                            exemplar=SELLER, min_situations=2)
        (p,) = trait.pattern
        assert print_formula(p) == "(holds ?X0 ?t)"
        assert print_term(trait.action_pattern) == "(utter ?X0)"
        assert trait.source_situations == ("sigma1", "sigma2")

    def test_identical_inputs_ground_trait(self):
        trait = learn_trait([SIGMA1, SIGMA1], [SIGMA1.performed, SIGMA1.performed],
                            min_situations=2)
        assert print_term(trait.action_pattern) == "(utter (broken))"
        assert print_formula(trait.pattern[0]) == "(holds (broken) ?t)"

    def test_talking_with_trait(self):
        names = [Constant(n, Sort.AGENT) for n in ("alice", "bob", "charlie")]
        situations = [sit(f"s{i}", i, [Atom(TALKING_WITH(a))],
                          (BE_TRUTHFUL(), UTTER(BROKEN())), BE_TRUTHFUL())
                      for i, a in enumerate(names)]
        trait = learn_trait(situations, [BE_TRUTHFUL()] * 3, min_situations=2)
        (p,) = trait.pattern
        assert print_formula(p) == "(talkingWith ?X0)"
        assert print_term(trait.action_pattern) == "(beTruthful)"

    def test_length_mismatch(self):
        with pytest.raises(NoAlignment):
            learn_trait([SIGMA1, SIGMA2], [SIGMA1.performed], min_situations=2)

    def test_too_few_situations(self):
        with pytest.raises(NoAlignment):
            learn_trait([SIGMA1], [SIGMA1.performed], min_situations=2)

    def test_unanchored_action_variable_rejected(self):
        x = Variable("x", Sort.FLUENT)
        with pytest.raises(UnboundActionVariable):
            LearntTrait((Atom(TALKING_WITH(JACK)),), UTTER(x))


class TestApplyTrait:
    def trait(self):
        return learn_trait([SIGMA1, SIGMA2],
                           [SIGMA1.performed, SIGMA2.performed], min_situations=2)

    def test_single_match(self):
        sigma = sit("fresh", 5, [holds(BROKEN(), moment(5))])
        (ev,) = apply_trait(self.trait(), sigma, OBSERVER)
        assert print_term(ev) == "(action observer (utter (broken)))"

    def test_empty_situation(self):
        assert apply_trait(self.trait(), sit("fresh", 5, []), OBSERVER) == []

    def test_two_matches_in_order(self):
        sigma = sit("fresh", 5, [holds(BROKEN(), moment(5)),
                                 holds(UNBROKEN(), moment(5))])
        evs = apply_trait(self.trait(), sigma, OBSERVER)
        assert [print_term(e) for e in evs] == [
            "(action observer (utter (broken)))",
            "(action observer (utter (unbroken)))"]

    def test_proposals_are_action_pattern_instances(self):
        from vz.subst import match
        trait = self.trait()
        sigma = sit("fresh", 5, [holds(BROKEN(), moment(5)),
                                 holds(UNBROKEN(), moment(5))])
        for ev in apply_trait(trait, sigma, OBSERVER):
            assert match(trait.action_pattern, ev.args[1]) is not None

    def test_inconsistent_proposal_suppressed(self):
        rule = Implies(happens_action(OBSERVER, UTTER(BROKEN()), 5), Atom(LIED()))
        sigma = sit("fresh", 5, [holds(BROKEN(), moment(5)), rule,
                                 Not(Atom(LIED()))])
        assert apply_trait(self.trait(), sigma, OBSERVER) == []


# ---------------------------------------------------------------------------
# apply_trait against the unpruned join: every substitution enumerated,
# consistency checked per substitution, events deduplicated by printed form.


def reference_apply_trait(trait, sigma, learner):
    def match_all(patterns, binding):
        if not patterns:
            yield binding
            return
        grounded = apply_substitution(binding, patterns[0])
        for f in sigma.formulas:
            s = match(grounded, f)
            if s is None:
                continue
            yield from match_all(patterns[1:], binding | s)

    proposals, seen = [], set()
    for s in match_all(list(trait.pattern), {}):
        action_type = apply_substitution(s, trait.action_pattern)
        if not is_ground(action_type) or not check_consistency(sigma, action_type, learner):
            continue
        event = Application(ACTION, (learner, action_type))
        if print_term(event) not in seen:
            seen.add(print_term(event))
            proposals.append(event)
    proposals.sort(key=print_term)
    return proposals


P1 = FunctionSymbol("p", (Sort.FLUENT,), Sort.BOOLEAN)
R1 = FunctionSymbol("r", (Sort.FLUENT,), Sort.BOOLEAN)
Q2 = FunctionSymbol("q", (Sort.FLUENT, Sort.FLUENT), Sort.BOOLEAN)
G1F = FunctionSymbol("g", (Sort.FLUENT,), Sort.FLUENT)
H1F = FunctionSymbol("h", (Sort.FLUENT,), Sort.FLUENT)
SAY2 = FunctionSymbol("say", (Sort.FLUENT, Sort.FLUENT), Sort.ACTION_TYPE)
FLUENTS = [Constant(n, Sort.FLUENT) for n in ("a", "b", "c")]
XS = [Variable(f"X{i}", Sort.FLUENT) for i in range(4)]
PRED_VAR = SymbolVariable("P0", (Sort.FLUENT,), Sort.BOOLEAN)
FUN_VAR = SymbolVariable("P1", (Sort.FLUENT,), Sort.FLUENT)


def random_arg(rng, leaves, ho):
    leaf = rng.choice(leaves)
    if rng.random() < 0.3:
        return Application(rng.choice([G1F, H1F, FUN_VAR] if ho else [G1F, H1F]), (leaf,))
    return leaf


def random_atom(rng, leaves, ho):
    if rng.random() < 0.4:
        return Atom(Q2(random_arg(rng, leaves, ho), random_arg(rng, leaves, ho)))
    pred = rng.choice([P1, R1, PRED_VAR] if ho else [P1, R1])
    return Atom(Application(pred, (random_arg(rng, leaves, ho),)))


def random_trait_case(rng, ho):
    # patterns share variables by drawing their leaves from a small pool
    pool = XS[:rng.randint(1, 4)]
    pattern = tuple(random_atom(rng, pool + FLUENTS[:1], ho)
                    for _ in range(rng.randint(1, 3)))
    free = set().union(*map(free_variables, pattern))
    bound = sorted(free & set(XS), key=lambda v: v.name)
    if not bound:
        pattern += (Atom(P1(pool[0])),)
        bound = [pool[0]]
    if FUN_VAR in free and rng.random() < 0.5:
        action = UTTER(Application(FUN_VAR, (rng.choice(bound),)))
    elif rng.random() < 0.5:
        action = UTTER(rng.choice(bound))
    else:
        action = SAY2(rng.choice(bound), rng.choice(bound))
    formulas = [random_atom(rng, FLUENTS, False) for _ in range(rng.randint(3, 10))]
    if rng.random() < 0.3:
        formulas.append(holds(BROKEN(), TVAR))
        formulas.append(Atom(P1(Variable("s", Sort.FLUENT))))
    if rng.random() < 0.5:
        # one utterance contradicts the situation
        blocked = UTTER(rng.choice(FLUENTS))
        formulas += [Implies(happens_action(OBSERVER, blocked, 4), Atom(LIED())),
                     Not(Atom(LIED()))]
    rng.shuffle(formulas)
    return LearntTrait(pattern, action), sit("q", 4, formulas)


@pytest.mark.parametrize("ho", [False, True])
def test_apply_trait_matches_unpruned_join(rng, ho):
    proposing = 0
    for _ in range(500):
        trait, sigma = random_trait_case(rng, ho)
        got = apply_trait(trait, sigma, OBSERVER)
        assert got == reference_apply_trait(trait, sigma, OBSERVER), (
            [print_formula(p) for p in trait.pattern], print_term(trait.action_pattern),
            [print_formula(f) for f in sigma.formulas])
        proposing += len(got) > 1
    assert proposing > 30  # the generator does reach multi-proposal cases


def test_apply_trait_disjoint_patterns_one_proposal(monkeypatch):
    # only the anchor reaches the action: every other pattern matches
    # three ways, yet the action is proposed once and checked once
    trait = LearntTrait((Atom(P1(XS[0])), Atom(R1(XS[1])), Atom(Q2(XS[2], XS[3]))),
                        UTTER(XS[1]))
    formulas = ([Atom(P1(f)) for f in FLUENTS] + [Atom(R1(FLUENTS[0]))]
                + [Atom(Q2(f, f)) for f in FLUENTS])
    sigma = sit("q", 4, formulas)
    checked = []

    def counting(sigma, alpha, agent):
        checked.append(alpha)
        return check_consistency(sigma, alpha, agent)

    monkeypatch.setattr("vz.learner.check_consistency", counting)
    (event,) = apply_trait(trait, sigma, OBSERVER)
    assert print_term(event) == "(action observer (utter a))"
    assert checked == [UTTER(FLUENTS[0])]


MARKETPLACE = str(pathlib.Path(__file__).resolve().parent.parent / "corpus" / "marketplace.vz")


def test_learning_stages_are_called_through_the_learner_s_bindings(monkeypatch, capsys):
    # perfbench/tracing.py wraps these three names in vz.learner: every
    # call the learner makes must pass through them, each call once, and
    # no binding may replace itself while a run goes on
    names = ("generalize_sets", "anti_unify", "horn_closure")
    plain = main(["run", MARKETPLACE]), capsys.readouterr()
    assert all(getattr(vz.learner, name).__module__ == "vz.learner" for name in names)
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    wrappers = {name: counting(name, getattr(vz.learner, name)) for name in names}
    for name, wrapper in wrappers.items():
        monkeypatch.setattr(vz.learner, name, wrapper)
    # saturate's binding of the closure, which the tracer wraps as well
    monkeypatch.setattr(vz.inference, "horn_closure",
                        counting("saturate's", vz.inference.horn_closure))
    assert (main(["run", MARKETPLACE]), capsys.readouterr()) == plain
    assert all(calls[name] >= 1 for name in wrappers), calls
    assert calls["saturate's"] == 0
    assert all(getattr(vz.learner, name) is wrapper for name, wrapper in wrappers.items())


# ---------------------------------------------------------------------------
# Introduced variables are fresh: the names of the situations' variables
# do not change what is learnt.

SITUATION_VARS = [Variable("u", Sort.FLUENT), Variable("v", Sort.FLUENT), TVAR]
RENAMES = ["X0", "X1", "X2", "P0", "P1", "u", "v", "t", "w"]


def random_learning_case(rng):
    """2-4 situations over shared free variables and the fluent constants;
    each utters the constant that holds in it."""
    leaves = FLUENTS + SITUATION_VARS[:2]

    def formula():
        if rng.random() < 0.4:
            return Atom(Q2(rng.choice(leaves), rng.choice(leaves)))
        return Atom(rng.choice([P1, R1])(rng.choice(leaves)))

    uttered = [rng.choice(FLUENTS) for _ in range(rng.randint(2, 4))]
    situations = [sit(f"s{i}", i, [holds(c, TVAR)] + [formula() for _ in range(rng.randint(1, 3))])
                  for i, c in enumerate(uttered)]
    return situations, [UTTER(c) for c in uttered]


def learnt(situations, performed, mode):
    """The trait as one formula (its patterns and a happens atom of its
    action), or the type of the error learning raised."""
    try:
        trait = learn_trait(situations, performed, mode, min_situations=2)
    except (NoAlignment, UnboundActionVariable) as exc:
        return type(exc)
    return And(trait.pattern + (happens_action(JACK, trait.action_pattern, 0),))


@pytest.mark.parametrize("mode", [FIRST_ORDER, HIGHER_ORDER])
def test_renaming_situation_variables_renames_the_trait(rng, mode):
    """Renaming the situations' free variables, also to the names the
    learner gives the variables it introduces, yields the same trait up
    to renaming; the renamed variables keep their new names."""
    learned = clashes = 0
    for _ in range(400):
        situations, performed = random_learning_case(rng)
        names = rng.sample(RENAMES, len(SITUATION_VARS))
        renaming = {v: Variable(n, v.sort) for v, n in zip(SITUATION_VARS, names)}
        renamed = [sit(x.id, x.time, [apply_substitution(renaming, f) for f in x.formulas])
                   for x in situations]
        want, got = learnt(situations, performed, mode), learnt(renamed, performed, mode)
        if isinstance(want, type):
            assert got is want
            continue
        assert renaming_equal(got, want), (print_formula(want), print_formula(got))
        inputs = set().union(*(free_variables(f) for x in renamed for f in x.formulas))
        for v in free_variables(got):
            # a situation variable, or an introduced one under a fresh name
            assert v in inputs or v.name not in {i.name for i in inputs}, print_formula(got)
        learned += 1
        introduced = {v.name for v in free_variables(want)} - {v.name for v in SITUATION_VARS}
        clashes += bool(introduced & set(names))
    assert learned > 350 and clashes > 100
