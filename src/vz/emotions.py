"""OCC-style emotion fluents.

Each emotion is a per-agent gate (theta) conjoined with utility
conditions on an event occurrence. Agents are treated as having
veridical, complete beliefs: the belief wrapper is evaluated directly
against the world model.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .ec import Timeline
from .errors import InvalidRecord
from .printer import print_term
from .terms import ACTION, Application, Constant, Term
from .utility import NuTable, mu, mu_bar, nu_bar


@dataclass(frozen=True)
class Theta:
    """Per-agent emotional susceptibility: always, never, or a finite set
    of moments. Undeclared agents default to never."""
    per_agent: tuple = ()  # of (Constant, "always" | "never" | frozenset[int])

    @classmethod
    def from_doc(cls, doc) -> "Theta":
        modes: dict = {}
        for f in doc.theta_facts:
            if f.mode == "at":
                cur = modes.get(f.agent)
                if isinstance(cur, frozenset):
                    modes[f.agent] = cur | {f.time}
                else:
                    modes[f.agent] = frozenset({f.time})
            else:
                modes[f.agent] = f.mode
        return cls(tuple(sorted(modes.items(), key=lambda kv: kv[0].name)))

    def holds(self, agent: Constant, t: int) -> bool:
        for a, mode in self.per_agent:
            if a == agent:
                if mode == "always":
                    return True
                if mode == "never":
                    return False
                return t in mode
        return False


class EmotionKind(enum.Enum):
    JOY = "joy"
    DISTRESS = "distress"
    HAPPY_FOR = "happy-for"
    GLOATING = "gloating"
    PITY_FOR = "pity-for"
    RESENTMENT = "resentment"
    ADMIRATION_FOR = "admiration-for"


_OTHER_DIRECTED = {EmotionKind.HAPPY_FOR, EmotionKind.GLOATING,
                   EmotionKind.PITY_FOR, EmotionKind.RESENTMENT,
                   EmotionKind.ADMIRATION_FOR}


@dataclass(frozen=True)
class EmotionRecord:
    kind: EmotionKind
    subject: Constant
    object: Optional[Constant]
    event: Term
    event_time: int
    hold_time: int

    def __post_init__(self):
        if self.kind in _OTHER_DIRECTED and (self.object is None
                                             or self.object == self.subject):
            raise InvalidRecord(f"{self.kind.value} needs an object other than its subject")

    def sort_key(self):
        return (self.kind.value, self.subject.name,
                self.object.name if self.object else "",
                print_term(self.event), self.event_time, self.hold_time)


@dataclass(frozen=True)
class World:
    """Everything emotion evaluation needs: projected timeline, utility
    table, theta gates, the declared agent set, and the horizon."""
    timeline: Timeline
    nu: NuTable
    theta: Theta
    agents: tuple[Constant, ...]
    horizon: int


def _no_initiated(occ, pred) -> bool:
    """True iff no initiated fluent satisfies pred at any moment."""
    return not any(pred(f) for f in occ.initiated)


def eval_joy(a: Constant, event: Term, t: int, t2: int, world: World) -> bool:
    occ = world.timeline.occurrence(event, t)
    moments = range(world.horizon + 1)
    return (world.theta.holds(a, t2)
            and nu_bar(a, event, t, world.timeline, world.nu, world.horizon) > 0
            and _no_initiated(occ, lambda f: any(world.nu.get(a, f, y) < 0 for y in moments)))


def eval_distress(a: Constant, event: Term, t: int, t2: int, world: World) -> bool:
    occ = world.timeline.occurrence(event, t)
    moments = range(world.horizon + 1)
    return (world.theta.holds(a, t2)
            and nu_bar(a, event, t, world.timeline, world.nu, world.horizon) < 0
            and _no_initiated(occ, lambda f: any(world.nu.get(a, f, y) > 0 for y in moments)))


def _other_directed(a, b, event, t, t2, world, desirable: bool) -> bool:
    """Shared utility conditions of the other-directed table rows:
    desirable = positive total for b with no negative consequences for b;
    undesirable is the mirror image."""
    occ = world.timeline.occurrence(event, t)
    if not world.theta.holds(a, t2) or a == b:
        return False
    total = nu_bar(b, event, t, world.timeline, world.nu, world.horizon)
    moments = range(world.horizon + 1)
    if desirable:
        return total > 0 and _no_initiated(
            occ, lambda f: any(world.nu.get(b, f, y) < 0 for y in moments))
    return total < 0 and _no_initiated(
        occ, lambda f: any(world.nu.get(b, f, y) > 0 for y in moments))


def eval_happy_for(a, b, event, t, t2, world) -> bool:
    return _other_directed(a, b, event, t, t2, world, desirable=True)


def eval_occ_table_emotion(kind: EmotionKind, a, b, event, t, t2, world) -> bool:
    if kind is EmotionKind.GLOATING or kind is EmotionKind.PITY_FOR:
        return _other_directed(a, b, event, t, t2, world, desirable=False)
    if kind is EmotionKind.RESENTMENT:
        return _other_directed(a, b, event, t, t2, world, desirable=True)
    raise ValueError(f"not a table-only emotion: {kind}")


def eval_admiration(a: Constant, b: Constant, action_type: Term, t: int,
                    t2: int, world: World) -> bool:
    """a admires b's action iff the action's agent-neutral total utility
    is positive with no agent-neutral negative consequences."""
    event = Application(ACTION, (b, action_type))
    occ = world.timeline.occurrence(event, t)
    if not world.theta.holds(a, t2) or a == b:
        return False
    if mu_bar(event, t, world.timeline, world.nu, world.agents, world.horizon) <= 0:
        return False
    moments = range(world.horizon + 1)
    return _no_initiated(
        occ, lambda f: any(mu(f, y, world.nu, world.agents) < 0 for y in moments))


def sweep_emotions(world: World) -> list[EmotionRecord]:
    """All true emotion instances over agents, occurrences, and hold
    times, in deterministic lexicographic order."""
    out = []
    for occ in world.timeline.occurrences:
        ev, t = occ.event, occ.time
        is_action = isinstance(ev, Application) and ev.symbol is ACTION
        actor = ev.args[0] if is_action else None
        for t2 in range(world.horizon + 1):
            for a in world.agents:
                if eval_joy(a, ev, t, t2, world):
                    out.append(EmotionRecord(EmotionKind.JOY, a, None, ev, t, t2))
                if eval_distress(a, ev, t, t2, world):
                    out.append(EmotionRecord(EmotionKind.DISTRESS, a, None, ev, t, t2))
                for b in world.agents:
                    if a == b:
                        continue
                    if eval_happy_for(a, b, ev, t, t2, world):
                        out.append(EmotionRecord(EmotionKind.HAPPY_FOR, a, b, ev, t, t2))
                    for kind in (EmotionKind.GLOATING, EmotionKind.PITY_FOR,
                                 EmotionKind.RESENTMENT):
                        if eval_occ_table_emotion(kind, a, b, ev, t, t2, world):
                            out.append(EmotionRecord(kind, a, b, ev, t, t2))
                if is_action and a != actor:
                    if eval_admiration(a, actor, ev.args[1], t, t2, world):
                        out.append(EmotionRecord(EmotionKind.ADMIRATION_FOR, a, actor, ev, t, t2))
    out.sort(key=EmotionRecord.sort_key)
    return out


def world_from_doc(doc, timeline: Timeline) -> World:
    return World(timeline, NuTable.from_doc(doc), Theta.from_doc(doc),
                 tuple(doc.agents), timeline.horizon)


def print_record(r: EmotionRecord) -> str:
    parts = [r.kind.value, r.subject.name]
    if r.object is not None:
        parts.append(r.object.name)
    parts.append(print_term(r.event))
    parts += [str(r.event_time), str(r.hold_time)]
    return f"({' '.join(parts)})"
