import itertools
import random

import pytest

from vz.ec import project
from vz.errors import ConflictingEffects, HorizonExceeded
from vz.scenario import (HappensFact, InitiallyFact, InitiatesRule,
                         parse_scenario)
from vz.terms import Application, Sort, Variable

from conftest import add_effects, forward_sim, make_doc


def clipping_oracle(initial, occurrences, horizon):
    """Second inertia oracle, by the definition rather than by simulation:
    f holds at t when it is initially true and not clipped in (0, t), or
    when an occurrence at t1 < t initiated it and it is not clipped in
    (t1, t)."""
    def clipped(t1, f, t2):
        return any(t1 < o.time < t2 and f in o.terminated for o in occurrences)

    initial = set(initial)
    fluents = initial.union(*(o.initiated for o in occurrences))
    return {(f, t) for f in fluents for t in range(horizon + 1)
            if f in initial and not clipped(0, f, t)
            or any(o.time < t and f in o.initiated and not clipped(o.time, f, t)
                   for o in occurrences)}


def oracle_holds(doc):
    """The projection and the holds set of each oracle on its occurrences."""
    tl = project(doc)
    occ_effects = [(o.time, o.initiated, o.terminated) for o in tl.occurrences]
    return (tl, forward_sim(doc.initially, occ_effects, tl.horizon),
            clipping_oracle(doc.initially, tl.occurrences, tl.horizon))


class TestProjectExamples:
    def test_pure_inertia(self):
        doc = make_doc(1, 0, horizon=3)
        f = doc.fluents[0]
        doc.facts.append(InitiallyFact(f))
        tl = project(doc)
        assert tl.holds_set == frozenset((f, t) for t in range(4))

    def test_initiation_takes_hold_next_moment(self):
        doc = make_doc(1, 1, horizon=3)
        f, e = doc.fluents[0], doc.events[0]
        add_effects(doc, e, initiated=[f])
        doc.facts.append(HappensFact(e, 1))
        tl = project(doc)
        assert tl.holds(f, 2) and tl.holds(f, 3)
        assert not tl.holds(f, 1) and not tl.holds(f, 0)

    def test_termination_clips(self):
        doc = make_doc(1, 2, horizon=4)
        f, e, e2 = doc.fluents[0], doc.events[0], doc.events[1]
        add_effects(doc, e, initiated=[f])
        add_effects(doc, e2, terminated=[f])
        doc.facts.append(HappensFact(e, 1))
        doc.facts.append(HappensFact(e2, 2))
        tl = project(doc)
        assert {t for (g, t) in tl.holds_set if g == f} == {2}

    def test_horizon_exceeded(self):
        doc = make_doc(1, 1, horizon=2)
        doc.facts.append(HappensFact(doc.events[0], 5))
        with pytest.raises(HorizonExceeded):
            project(doc)

    def test_conflicting_effects(self):
        doc = make_doc(1, 1, horizon=3)
        f, e = doc.fluents[0], doc.events[0]
        add_effects(doc, e, initiated=[f], terminated=[f])
        doc.facts.append(HappensFact(e, 1))
        with pytest.raises(ConflictingEffects):
            project(doc)

    def test_cross_event_conflict_same_moment(self):
        doc = make_doc(1, 2, horizon=3)
        f, e, e2 = doc.fluents[0], doc.events[0], doc.events[1]
        add_effects(doc, e, initiated=[f])
        add_effects(doc, e2, terminated=[f])
        doc.facts.append(HappensFact(e, 1))
        doc.facts.append(HappensFact(e2, 1))
        with pytest.raises(ConflictingEffects):
            project(doc)


class TestEffects:
    def test_no_matching_rules(self):
        doc = make_doc(1, 1, horizon=2)
        doc.facts.append(HappensFact(doc.events[0], 1))
        (occ,) = project(doc).occurrences
        assert (occ.initiated, occ.terminated) == ((), ())

    def test_no_rules_for_utterances(self):
        text = """
(declare-agent seller)
(declare-fluent broken ())
(declare-action-type utter (fluent))
(horizon 3)
(happens (action seller (utter (broken))) 1)
"""
        doc = parse_scenario(text)
        (occ,) = project(doc).occurrences
        assert (occ.initiated, occ.terminated) == ((), ())

    def test_pattern_rule_matches_action(self):
        text = """
(declare-agent jack)
(declare-fluent lit ())
(declare-action-type light-on ())
(horizon 3)
(initiates (action ?a (light-on)) (lit) t)
(happens (action jack (light-on)) 2)
"""
        doc = parse_scenario(text)
        (occ,) = project(doc).occurrences
        assert [str(f) for f in occ.initiated] == ["(lit)"] and occ.terminated == ()


def all_effect_splits(fluents):
    """Every disjoint (initiated, terminated) pair over the fluent set."""
    out = []
    for init_mask in itertools.product([0, 1], repeat=len(fluents)):
        rest = [f for f, m in zip(fluents, init_mask) if not m]
        init = [f for f, m in zip(fluents, init_mask) if m]
        for term_mask in itertools.product([0, 1], repeat=len(rest)):
            term = [f for f, m in zip(rest, term_mask) if m]
            out.append((init, term))
    return out


def test_exhaustive_small_family_matches_oracle():
    """Two fluents, two events with every effect split and occurrence
    time, every initial state, H=3."""
    horizon = 3
    splits = all_effect_splits([0, 1])
    times = [0, 1, 2]
    checked = 0
    for init_state in itertools.product([0, 1], repeat=2):
        for (s1, t1), (s2, t2) in itertools.product(
                itertools.product(splits, times), repeat=2):
            doc = make_doc(2, 2, horizon=horizon)
            fl = doc.fluents
            for i, m in enumerate(init_state):
                if m:
                    doc.facts.append(InitiallyFact(fl[i]))
            add_effects(doc, doc.events[0],
                        [fl[i] for i in s1[0]], [fl[i] for i in s1[1]])
            add_effects(doc, doc.events[1],
                        [fl[i] for i in s2[0]], [fl[i] for i in s2[1]])
            doc.facts.append(HappensFact(doc.events[0], t1))
            doc.facts.append(HappensFact(doc.events[1], t2))
            try:
                tl, expected, by_definition = oracle_holds(doc)
            except ConflictingEffects:
                # legitimate only when both events at one moment clash
                assert t1 == t2
                continue
            assert tl.holds_set == frozenset(expected) == frozenset(by_definition)
            checked += 1
    assert checked > 2000


def test_random_scenarios_match_oracle_and_invariants(rng):
    from conftest import random_ec_doc
    for _ in range(1000):
        doc = random_ec_doc(rng)
        try:
            tl, expected, by_definition = oracle_holds(doc)
        except ConflictingEffects:
            continue
        assert tl.holds_set == frozenset(expected) == frozenset(by_definition)
        # inertia invariant
        for (f, t) in tl.holds_set:
            for t2 in range(t + 1, tl.horizon + 1):
                if any(t <= o.time < t2 and f in o.terminated for o in tl.occurrences):
                    break
                assert tl.holds(f, t2)
        # no spontaneous fluents
        initial = set(doc.initially)
        for (f, t) in tl.holds_set:
            assert f in initial or any(
                o.time < t and f in o.initiated for o in tl.occurrences)
