"""Exemplar identification and trait learning.

Exemplars come from admiration records; traits are learnt by
generalizing the situations in which the exemplar acted and
anti-unifying the performed action instances against the same variable
memo, which links situation variables to action variables whenever
their witnessing ground values agree across all inputs.
"""
from __future__ import annotations

from typing import Optional

from .emotions import EmotionKind
from .errors import NoAlignment, UnsupportedFragment
from .printer import print_term
from .scenario import FIRST_ORDER, LearntTrait, Situation
from .subst import apply_substitution, match
from .terms import (ACTION, HAPPENS, INITIATES, TERMINATES, Application, Atom,
                    Constant, Not, Record, Sort, Term, free_variables, is_ground,
                    moment)


# vz.generalize loads only when a trait is learnt, and vz.inference only
# when consistency is checked: `vz run` on a scenario that observes and
# queries nothing compiles neither. Each forwarder stays bound here for
# good, so a wrapper put on it (perfbench/tracing.py) sees every call.
def generalize_sets(*args, **kwargs):
    from .generalize import generalize_sets
    return generalize_sets(*args, **kwargs)


def anti_unify(*args, **kwargs):
    from .generalize import anti_unify
    return anti_unify(*args, **kwargs)


def horn_closure(gamma) -> frozenset:
    from .inference import ground_horn_closure
    return ground_horn_closure(gamma)


class ExemplarRecord(Record, admitted_at=None):
    __slots__ = ("learner", "exemplar", "admiration_count", "admitted_at")


def check_consistency(sigma: Situation, alpha: Term, agent: Constant) -> bool:
    """True iff adding happens(action(agent, alpha), sigma.time) to the
    situation derives no contradiction and no effect conflict under the
    Horn closure."""
    event = Application(ACTION, (agent, alpha))
    new_atom = Atom(Application(HAPPENS, (event, moment(sigma.time))))
    gamma = list(sigma.formulas) + [new_atom]
    closure = horn_closure(gamma)
    atoms = {f for f in closure if isinstance(f, Atom)}
    for f in closure:
        if isinstance(f, Not) and f.body in atoms:
            return False
    # effect conflict: same fluent both initiated and terminated at one moment
    initiated = {(f.pred.args[1], f.pred.args[2]) for f in atoms
                 if f.pred.symbol is INITIATES}
    terminated = {(f.pred.args[1], f.pred.args[2]) for f in atoms
                  if f.pred.symbol is TERMINATES}
    return not (initiated & terminated)


def action_root(action_type: Term):
    """What trait detection groups action types by: the function symbol
    of an application; any other term, such as a constant, is its own root."""
    return action_type.symbol if isinstance(action_type, Application) else action_type


def detect_trait(history, alpha_root, m: int, gamma: float) -> bool:
    """Does the history establish alpha as a trait? Eligible situations
    offer a consistent instantiation of alpha among at least two genuine
    alternatives; there must be at least m of them, and alpha performed
    in at least a gamma share."""
    eligible = 0
    performed = 0
    for sigma in history:
        if len(sigma.alternatives) < 2:
            continue
        agent = sigma.agent or Constant("_self", Sort.AGENT)
        candidates = [t for t in sigma.alternatives if action_root(t) == alpha_root]
        try:
            ok = any(check_consistency(sigma, c, agent) for c in candidates)
        except UnsupportedFragment:
            ok = False
        if not ok:
            continue
        eligible += 1
        if sigma.performed is not None and action_root(sigma.performed) == alpha_root:
            performed += 1
    if eligible < m:
        return False
    return performed / eligible >= gamma


def identify_exemplars(records, learner: Constant, n: int) -> list[ExemplarRecord]:
    """One record per admired agent; admission happens at the hold time
    of the n-th admiration in chronological order."""
    hold_times: dict[Constant, list[int]] = {}
    for r in records:
        if r.kind is EmotionKind.ADMIRATION_FOR and r.subject == learner:
            hold_times.setdefault(r.object, []).append(r.hold_time)
    out = []
    for exemplar in sorted(hold_times, key=lambda c: c.name):
        times = sorted(hold_times[exemplar])
        admitted_at = times[n - 1] if len(times) >= n else None
        out.append(ExemplarRecord(learner, exemplar, len(times), admitted_at))
    return out


def learn_trait(situations, performed_instances, mode: str = FIRST_ORDER,
                exemplar: Optional[Constant] = None, *,
                min_situations: int) -> LearntTrait:
    """Generalize the situations and the performed action instances with
    a shared variable memo, yielding a trait whose situation and action
    variables are linked by witness agreement."""
    situations = list(situations)
    performed_instances = list(performed_instances)
    if len(situations) != len(performed_instances):
        raise NoAlignment("one performed instance per situation required")
    if len(situations) < min_situations:
        raise NoAlignment(f"need at least {min_situations} situations")
    from .generalize import VarNamer
    namer = VarNamer([f for s in situations for f in s.formulas] + performed_instances)
    gen = generalize_sets([s.formulas for s in situations], mode, namer=namer)
    action = anti_unify(performed_instances, mode, namer=namer)
    return LearntTrait(gen.patterns, action.pattern, exemplar,
                       tuple(s.id for s in situations))


def _match_all(patterns, formulas, keep, binding: dict, i: int = 0):
    """Yield the bindings that match patterns[i:] against some formula
    each. After pattern i a binding is cut down to keep[i], the variables
    that a later pattern or the action still reads; a cut-down binding
    already explored at this level is skipped, since everything below it
    would repeat."""
    if i == len(patterns):
        yield binding
        return
    grounded = apply_substitution(binding, patterns[i])
    explored = set()
    for f in formulas:
        s = match(grounded, f)
        if s is None:
            continue
        merged = {v: t for v, t in (binding | s).items() if v in keep[i]}
        key = frozenset(merged.items())
        if key in explored:
            continue
        explored.add(key)
        yield from _match_all(patterns, formulas, keep, merged, i + 1)


def apply_trait(trait: LearntTrait, sigma: Situation,
                learner: Constant) -> list[Term]:
    """Proposed events: for every substitution making all pattern
    formulas match the situation (or query), the learner performs the
    instantiated action at its time, provided consistency holds."""
    keep = [free_variables(trait.action_pattern)]
    for p in reversed(trait.pattern[1:]):
        keep.append(keep[-1] | free_variables(p))
    keep.reverse()
    proposals = []
    seen = set()
    for s in _match_all(trait.pattern, sigma.formulas, keep, {}):
        action_type = apply_substitution(s, trait.action_pattern)
        if action_type in seen or not is_ground(action_type):
            continue
        # consistency depends on the action type alone: check each once
        seen.add(action_type)
        if check_consistency(sigma, action_type, learner):
            proposals.append(Application(ACTION, (learner, action_type)))
    proposals.sort(key=print_term)
    return proposals
