"""Bounded forward application of the modal inference-schemata fragment.

The side-condition entailment oracle is ground Horn forward chaining
with conjunction introduction/elimination; modal formulas are treated
as opaque facts inside the oracle.
"""
from __future__ import annotations

from .errors import DepthExceeded, UnsupportedFragment
from .scenario import DEFAULT_MAX_DEPTH
from .terms import (And, Atom, Constant, Implies, Modal, ModalOp, Not, Ought,
                    Record, Sort, children, modal_depth, moment, moment_value)


def _is_literal(f) -> bool:
    return isinstance(f, Atom) or (isinstance(f, Not) and isinstance(f.body, Atom))


def _horn_parts(f, facts, rules):
    """Decompose one formula into Horn facts/rules; modal and deontic
    formulas become opaque facts, and anything else outside the ground
    Horn-plus-conjunction fragment raises."""
    if _is_literal(f) or isinstance(f, (Modal, Ought)):
        facts.add(f)
    elif isinstance(f, And):
        for p in f.parts:
            _horn_parts(p, facts, rules)
    elif isinstance(f, Implies):
        ants = f.lhs.parts if isinstance(f.lhs, And) else (f.lhs,)
        if all(_is_literal(a) for a in ants) and _is_literal(f.rhs):
            rules.append((frozenset(ants), f.rhs))
        else:
            raise UnsupportedFragment(f"non-Horn implication: {f!r}")
    else:
        raise UnsupportedFragment(f"outside the Horn fragment: {f!r}")


def horn_closure(gamma) -> frozenset:
    """Forward-chaining closure; returns the derived fact set (literals
    plus the opaque modal and deontic facts)."""
    facts: set = set()
    rules: list = []
    for f in gamma:
        _horn_parts(f, facts, rules)
    changed = True
    while changed:
        changed = False
        for ants, head in rules:
            if head not in facts and ants <= facts:
                facts.add(head)
                changed = True
    return frozenset(facts)


# The learner's consistency check calls the closure by this name, so that a
# wrapper on `horn_closure`, the binding saturate calls, never sees a learner
# call that a wrapper on `vz.learner.horn_closure` already saw
# (perfbench/tracing.py wraps both).
ground_horn_closure = horn_closure


class KnowledgeBase(Record, max_depth=DEFAULT_MAX_DEPTH, horizon=None):
    __slots__ = ("formulas", "max_depth", "horizon")  # a frozenset, an int, an int or None

    @classmethod
    def of(cls, formulas, max_depth=DEFAULT_MAX_DEPTH, horizon=None):
        return cls(frozenset(formulas), max_depth, horizon)


def _moments_of(x, out):
    if isinstance(x, Constant):
        if x.sort is Sort.MOMENT:
            out.add(moment_value(x))
    else:
        for sub in children(x):
            _moments_of(sub, out)


def saturate(kb: KnowledgeBase) -> KnowledgeBase:
    """Least superset of kb closed under R_K, R_B, R_4, R_13, R_14. The
    input must be no deeper than max_depth, and no rule derives a formula
    deeper than one it already holds: R_4 yields a body, R_13 a perception
    as deep as the intention, R_K/R_B op(agents, t, phi) for a phi inside
    a body held under op, and R_14 K(I(happens ...)), no deeper than the
    B(ought ...) it needs.

    Semi-naive: each round fires R_4 and R_13 on the formulas the previous
    round added (the input counts as round 0's) and walks only the R_K/R_B
    streams they touched, closing each distinct group once. A round reads
    the index as it stood when the round began, so the rounds are those of
    the naive loop, and a Horn consequence derived before a non-Horn body
    reached its group stays."""
    for f in kb.formulas:
        if modal_depth(f) > kb.max_depth:
            raise DepthExceeded(f"input formula exceeds depth {kb.max_depth}: {f!r}")

    moments: set[int] = set()
    for f in kb.formulas:
        _moments_of(f, moments)
    if kb.horizon is not None:
        moments |= set(range(kb.horizon + 1))
    value = {moment(t): t for t in sorted(moments)}  # the rules' moment constants, ascending

    formulas = set(kb.formulas)
    # (op, agents) -> moment -> bodies, for KNOWS and BELIEVES at a moment
    streams: dict = {}
    closures: dict = {}  # group -> its bodies; persistence repeats a group at later moments
    oughts: list = []
    added = set(kb.formulas)

    def add(f):
        if f not in formulas:
            formulas.add(f)
            added.add(f)

    while added:
        touched = set()
        for f in added:
            if isinstance(f, Ought):
                oughts.append(f)
            elif isinstance(f, Modal) and f.op in (ModalOp.KNOWS, ModalOp.BELIEVES):
                t = value.get(f.time)
                if t is not None:
                    streams.setdefault((f.op, f.agents), {}).setdefault(t, set()).add(f.body)
                    touched.add((f.op, f.agents))
        delta, added = added, set()

        for f in delta:
            if not isinstance(f, Modal):
                continue
            if f.op is ModalOp.KNOWS:
                # R_4: knowledge implies truth.
                add(f.body)
            elif f.op is ModalOp.INTENDS:
                # R_13: intentions become perceptions at later moments.
                t = value.get(f.time)
                if t is not None:
                    for later, t2 in value.items():
                        if t2 > t:
                            add(Modal(ModalOp.PERCEIVES, f.agents, later, f.body))

        # R_K / R_B: epistemic closure with temporal persistence. A group
        # at t1 persists to every moment t2 >= t1, so one walk up the
        # moments carries the union of the groups seen so far.
        for op, agents in touched:
            groups = streams[op, agents]
            carried: set = set()
            for at, t in value.items():
                gamma = frozenset(groups.get(t, ()))
                if gamma:
                    bodies = closures.get(gamma)
                    if bodies is None:
                        try:
                            bodies = horn_closure(gamma) | gamma
                        except UnsupportedFragment:
                            bodies = gamma
                        closures[gamma] = bodies
                    carried |= bodies
                for phi in carried:
                    if phi not in gamma:
                        add(Modal(op, agents, at, phi))

        # R_14: believed obligations become known intentions.
        for f in oughts:
            believed_cond = Modal(ModalOp.BELIEVES, (f.agent,), f.time, f.condition)
            believed_ought = Modal(ModalOp.BELIEVES, (f.agent,), f.time, f)
            if believed_cond in formulas and believed_ought in formulas:
                intent = Modal(ModalOp.INTENDS, (f.agent,), f.time, f.body)
                add(Modal(ModalOp.KNOWS, (f.agent,), f.time, intent))

    return KnowledgeBase(frozenset(formulas), kb.max_depth, kb.horizon)
