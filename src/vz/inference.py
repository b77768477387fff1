"""Bounded forward application of the modal inference-schemata fragment.

The side-condition entailment oracle is ground Horn forward chaining
with conjunction introduction/elimination; modal formulas are treated
as opaque facts inside the oracle.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import DepthExceeded, SortMismatch, UnsupportedFragment
from .terms import (TERMS, And, Atom, Constant, Formula, Implies, Modal,
                    ModalOp, Not, Ought, Sort, children, moment, moment_value)


def modal_depth(f: Formula) -> int:
    """Nesting depth of modal and deontic operators."""
    if isinstance(f, (Atom, TERMS)):
        return 0
    depth = max(map(modal_depth, children(f)), default=0)
    return depth + 1 if isinstance(f, (Modal, Ought)) else depth


def _is_literal(f) -> bool:
    return isinstance(f, Atom) or (isinstance(f, Not) and isinstance(f.body, Atom))


def _horn_parts(f, facts, rules, strict):
    """Decompose one formula into Horn facts/rules. With strict=True,
    anything outside the ground Horn-plus-conjunction fragment raises;
    otherwise modal and deontic formulas become opaque facts."""
    if _is_literal(f):
        facts.add(f)
    elif isinstance(f, And):
        for p in f.parts:
            _horn_parts(p, facts, rules, strict)
    elif isinstance(f, Implies):
        ants = f.lhs.parts if isinstance(f.lhs, And) else (f.lhs,)
        if all(_is_literal(a) for a in ants) and _is_literal(f.rhs):
            rules.append((frozenset(ants), f.rhs))
        else:
            raise UnsupportedFragment(f"non-Horn implication: {f!r}")
    elif isinstance(f, (Modal, Ought)) and not strict:
        facts.add(f)
    else:
        raise UnsupportedFragment(f"outside the Horn fragment: {f!r}")


def horn_closure(gamma, strict=False) -> frozenset:
    """Forward-chaining closure; returns the derived fact set (literals
    plus, in lenient mode, opaque modal facts)."""
    facts: set = set()
    rules: list = []
    for f in gamma:
        _horn_parts(f, facts, rules, strict)
    changed = True
    while changed:
        changed = False
        for ants, head in rules:
            if head not in facts and ants <= facts:
                facts.add(head)
                changed = True
    return frozenset(facts)


def entails0(gamma, phi: Formula) -> bool:
    """Bounded entailment: sound for the ground Horn fragment; the query
    may be a literal or a conjunction of entailed queries."""
    closure = horn_closure(gamma, strict=True)

    def holds(q):
        if _is_literal(q):
            return q in closure
        if isinstance(q, And):
            return all(holds(p) for p in q.parts)
        raise UnsupportedFragment(f"unsupported query: {q!r}")

    return holds(phi)


@dataclass(frozen=True)
class KnowledgeBase:
    formulas: frozenset
    max_depth: int = 3
    horizon: int | None = None

    @classmethod
    def of(cls, formulas, max_depth=3, horizon=None):
        return cls(frozenset(formulas), max_depth, horizon)


def _moments_of(x, out):
    if isinstance(x, Constant):
        if x.sort is Sort.MOMENT:
            out.add(moment_value(x))
    else:
        for sub in children(x):
            _moments_of(sub, out)


def _try_moment(t):
    try:
        return moment_value(t)
    except SortMismatch:
        return None


def saturate(kb: KnowledgeBase) -> KnowledgeBase:
    """Least superset of kb closed under R_K, R_B, R_4, R_13, R_14 with
    modal nesting capped at max_depth."""
    for f in kb.formulas:
        if modal_depth(f) > kb.max_depth:
            raise DepthExceeded(f"input formula exceeds depth {kb.max_depth}: {f!r}")

    moments: set[int] = set()
    for f in kb.formulas:
        _moments_of(f, moments)
    if kb.horizon is not None:
        moments |= set(range(kb.horizon + 1))

    formulas = set(kb.formulas)

    def add(f):
        if f not in formulas and modal_depth(f) <= kb.max_depth:
            formulas.add(f)
            return True
        return False

    changed = True
    while changed:
        changed = False
        snapshot = list(formulas)

        # R_4: knowledge implies truth.
        for f in snapshot:
            if isinstance(f, Modal) and f.op is ModalOp.KNOWS:
                changed |= add(f.body)

        # R_K / R_B: epistemic closure with temporal persistence.
        for op in (ModalOp.KNOWS, ModalOp.BELIEVES):
            groups: dict = {}
            for f in snapshot:
                if isinstance(f, Modal) and f.op is op:
                    t = _try_moment(f.time)
                    if t is not None:
                        groups.setdefault((f.agents, t), set()).add(f.body)
            for (agents, t1), gamma in groups.items():
                try:
                    derivable = set(horn_closure(gamma)) | gamma
                except UnsupportedFragment:
                    derivable = set(gamma)
                for t2 in sorted(m for m in moments if m >= t1):
                    for phi in derivable:
                        changed |= add(Modal(op, agents, moment(t2), phi))

        # R_13: intentions become perceptions at later moments.
        for f in snapshot:
            if isinstance(f, Modal) and f.op is ModalOp.INTENDS:
                t = _try_moment(f.time)
                if t is None:
                    continue
                for t2 in sorted(m for m in moments if m > t):
                    changed |= add(Modal(ModalOp.PERCEIVES, f.agents, moment(t2), f.body))

        # R_14: believed obligations become known intentions.
        for f in snapshot:
            if not isinstance(f, Ought):
                continue
            believed_cond = Modal(ModalOp.BELIEVES, (f.agent,), f.time, f.condition)
            believed_ought = Modal(ModalOp.BELIEVES, (f.agent,), f.time, f)
            if believed_cond in formulas and believed_ought in formulas:
                intent = Modal(ModalOp.INTENDS, (f.agent,), f.time, f.body)
                changed |= add(Modal(ModalOp.KNOWS, (f.agent,), f.time, intent))

    return KnowledgeBase(frozenset(formulas), kb.max_depth, kb.horizon)
