"""Discrete-time event-calculus projection.

Effects take hold strictly after the event's moment: an event at t
makes its initiated fluents hold from t+1 onward, until clipped.
"""
from __future__ import annotations

from .errors import ConflictingEffects, UnknownOccurrence
from .printer import print_term
from .scenario import ScenarioDoc
from .subst import apply_substitution, match
from .terms import Record, Term, Variable, is_ground, moment


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


def _rule_effects(matches, time: int):
    """Fluents that an event's (rule, substitution) matches produce at one
    moment. A substitution serves every occurrence of its event, so
    binding the time variable copies it."""
    out = set()
    for rule, s in matches:
        if isinstance(rule.time, Variable):
            s = {**s, rule.time: moment(time)}
        elif rule.time != moment(time):
            continue
        fluent = apply_substitution(s, rule.fluent)
        if is_ground(fluent):  # else the rule is underdetermined: it cannot fire
            out.add(fluent)
    return out


def project(doc: ScenarioDoc) -> Timeline:
    """Inertia over [0, H] in one forward pass: the state at t+1 is the
    state at t, less the fluents terminated at t when t > 0 (clipping is
    over an open interval, so a terminator at 0 clips nothing), plus those
    initiated at t. Occurrences are taken in `happens` order, which the
    reader has checked against the horizon; the first whose moment then
    both initiates and terminates a fluent is an error. Each distinct
    event is matched against the effect rules once."""
    horizon = doc.effective_horizon()
    rules = (doc.initiates, doc.terminates)
    matched: dict = {}  # event -> [(rule, substitution)] of each rule kind
    occurrences = []
    by_time: dict[int, tuple[set, set]] = {}
    for event, t in doc.happens:
        if event not in matched:
            matched[event] = [[(r, s) for r in kind if (s := match(r.event, event)) is not None]
                              for kind in rules]
        init, term = (_rule_effects(m, t) for m in matched[event])
        init_t, term_t = by_time.setdefault(t, (set(), set()))
        init_t |= init
        term_t |= term
        both = init_t & term_t
        if both:
            f = min(both, key=print_term)
            raise ConflictingEffects(print_term(event), print_term(f), t)
        occurrences.append(Occurrence(event, t, tuple(sorted(init, key=print_term)),
                                      tuple(sorted(term, key=print_term))))

    holds = []
    state = set(doc.initially)
    for t in range(horizon + 1):
        holds.extend((f, t) for f in state)
        init_t, term_t = by_time.get(t, (set(), set()))
        state = (state - term_t if t > 0 else state) | init_t
    return Timeline(horizon, frozenset(holds), tuple(occurrences))
