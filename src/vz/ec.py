"""Discrete-time event-calculus projection.

Effects take hold strictly after the event's moment: an event at t
makes its initiated fluents hold from t+1 onward, until clipped.
"""
from __future__ import annotations

from .errors import ConflictingEffects, UnknownOccurrence
from .printer import print_term
from .scenario import ScenarioDoc
from .subst import apply_substitution, match
from .terms import Record, Term, Variable, free_variables, is_ground, moment


class Occurrence(Record):
    # initiated and terminated: tuples of fluent Terms, sorted by printed form
    __slots__ = ("event", "time", "initiated", "terminated")


class Timeline(Record):
    # holds_set: a frozenset of (fluent Term, moment int); occurrences: a tuple
    __slots__ = ("horizon", "holds_set", "occurrences")

    def occurrence(self, event: Term, t: int) -> Occurrence:
        for occ in self.occurrences:
            if occ.event == event and occ.time == t:
                return occ
        raise UnknownOccurrence(f"no occurrence of {print_term(event)} at {t}")


def _event_effects(rules, event):
    """Match an event against one kind of rule, once. A rule whose time
    is a variable that its fluent does not read gives the same fluent at
    every occurrence, so it is applied here; the other (rule,
    substitution) pairs are left for _rule_effects at each occurrence."""
    fluents, per_occurrence = set(), []
    for rule in rules:
        if (s := match(rule.event, event)) is None:
            continue
        if isinstance(rule.time, Variable) and rule.time not in free_variables(rule.fluent):
            fluents.add(apply_substitution(s, rule.fluent))
        else:
            per_occurrence.append((rule, s))
    # a fluent left with a variable is underdetermined: its rule cannot fire
    return {f for f in fluents if is_ground(f)}, per_occurrence


def _rule_effects(effects, time: int):
    """The fluents an event's _event_effects produce at one moment. A
    substitution serves every occurrence, so binding the time copies it."""
    fluents, per_occurrence = effects
    out = set(fluents)
    for rule, s in per_occurrence:
        if isinstance(rule.time, Variable):
            s = {**s, rule.time: moment(time)}
        elif rule.time != moment(time):
            continue
        fluent = apply_substitution(s, rule.fluent)
        if is_ground(fluent):
            out.add(fluent)
    return out


def project(doc: ScenarioDoc) -> Timeline:
    """Inertia over [0, H] in one forward pass: the state at t+1 is the
    state at t, less the fluents terminated at t when t > 0 (clipping is
    over an open interval, so a terminator at 0 clips nothing), plus those
    initiated at t. Occurrences are taken in `happens` order, which the
    reader has checked against the horizon; the first whose moment then
    both initiates and terminates a fluent is an error, located at that
    occurrence's `happens` moment. Each distinct event is matched against
    the effect rules once."""
    horizon = doc.effective_horizon()
    rules = (doc.initiates, doc.terminates)
    matched: dict = {}  # event -> its _event_effects of each rule kind
    occurrences = []
    by_time: dict[int, tuple[set, set]] = {}
    for (event, t), loc in doc.happens.items():
        if event not in matched:
            matched[event] = [_event_effects(kind, event) for kind in rules]
        init, term = (_rule_effects(m, t) for m in matched[event])
        init_t, term_t = by_time.setdefault(t, (set(), set()))
        init_t |= init
        term_t |= term
        both = init_t & term_t
        if both:
            raise ConflictingEffects(print_term(event), min(map(print_term, both)), t, *(loc or ()))
        occurrences.append(Occurrence(event, t, tuple(sorted(init, key=print_term)),
                                      tuple(sorted(term, key=print_term))))

    holds = []
    state = set(doc.initially)
    for t in range(horizon + 1):
        holds.extend((f, t) for f in state)
        init_t, term_t = by_time.get(t, (set(), set()))
        state = (state - term_t if t > 0 else state) | init_t
    return Timeline(horizon, frozenset(holds), tuple(occurrences))
