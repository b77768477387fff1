"""Discrete-time event-calculus projection.

Effects take hold strictly after the event's moment: an event at t
makes its initiated fluents hold from t+1 onward, until clipped.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ConflictingEffects, HorizonExceeded, UnknownOccurrence
from .printer import print_term
from .scenario import ScenarioDoc
from .subst import Substitution, apply_substitution, match
from .terms import Term, Variable, is_ground, moment


@dataclass(frozen=True)
class Occurrence:
    event: Term
    time: int
    initiated: frozenset
    terminated: frozenset


@dataclass(frozen=True)
class Timeline:
    horizon: int
    holds_set: frozenset  # of (fluent Term, moment int)
    occurrences: tuple[Occurrence, ...]

    def holds(self, fluent: Term, t: int) -> bool:
        return (fluent, t) in self.holds_set

    def occurrence(self, event: Term, t: int) -> Occurrence:
        for occ in self.occurrences:
            if occ.event == event and occ.time == t:
                return occ
        raise UnknownOccurrence(f"no occurrence of {print_term(event)} at {t}")


def _rule_effects(rules, event: Term, time: int):
    """Fluents produced by matching effect-rule patterns against a ground
    event occurrence."""
    out = set()
    for rule in rules:
        s = match(rule.event, event)
        if s is None:
            continue
        vb = dict(s.var_bindings)
        if isinstance(rule.time, Variable):
            vb[rule.time] = moment(time)
        elif rule.time != moment(time):
            continue
        fluent = apply_substitution(Substitution.of(vb), rule.fluent)
        if not is_ground(fluent):
            continue  # underdetermined rule: cannot fire on this event
        out.add(fluent)
    return out


def effects(event: Term, time: int, doc: ScenarioDoc):
    """(initiated, terminated) fluent sets for a ground event occurrence."""
    init = _rule_effects(doc.initiates_rules, event, time)
    term = _rule_effects(doc.terminates_rules, event, time)
    return init, term


def project(doc: ScenarioDoc) -> Timeline:
    """Least-fixed-point inertia semantics over [0, H]."""
    horizon = doc.effective_horizon()
    occurrences = []
    for event, t in doc.happens:
        if t > horizon:
            raise HorizonExceeded(f"happens({print_term(event)}, {t}) is past horizon {horizon}")
        init, term = effects(event, t, doc)
        both = init & term
        if both:
            f = min(both, key=print_term)
            raise ConflictingEffects(print_term(event), print_term(f), t)
        occurrences.append(Occurrence(event, t, frozenset(init), frozenset(term)))

    # Conflicting effects across distinct events at the same moment are a
    # scenario error, not a race.
    by_time: dict[int, tuple[set, set]] = {}
    for occ in occurrences:
        init, term = by_time.setdefault(occ.time, (set(), set()))
        init |= occ.initiated
        term |= occ.terminated
        both = init & term
        if both:
            f = min(both, key=print_term)
            raise ConflictingEffects(print_term(occ.event), print_term(f), occ.time)

    def clipped(t1: int, fluent, t2: int) -> bool:
        return any(t1 < occ.time < t2 and fluent in occ.terminated
                   for occ in occurrences)

    holds = set()
    initial = set(doc.initially)
    candidates = set(initial)
    for occ in occurrences:
        candidates |= occ.initiated
    for f in candidates:
        for t in range(horizon + 1):
            if f in initial and not clipped(0, f, t):
                holds.add((f, t))
                continue
            for occ in occurrences:
                if occ.time < t and f in occ.initiated and not clipped(occ.time, f, t):
                    holds.add((f, t))
                    break

    return Timeline(horizon, frozenset(holds), tuple(occurrences))
