"""OCC-style emotion fluents.

Each emotion is a per-agent gate (theta) conjoined with utility
conditions on an event occurrence. Agents are treated as having
veridical, complete beliefs: the belief wrapper is evaluated directly
against the world model.
"""
from __future__ import annotations

import enum

from .ec import Timeline
from .printer import print_term
from .terms import ACTION, Application, Constant, Record, Term
from .utility import mu, mu_bar, nu_bar


def _open(theta: dict, agent: Constant, t: int) -> bool:
    gate = theta.get(agent, "never")
    return gate == "always" or (gate != "never" and t in gate)


class EmotionKind(enum.Enum):
    JOY = "joy"
    DISTRESS = "distress"
    HAPPY_FOR = "happy-for"
    GLOATING = "gloating"
    PITY_FOR = "pity-for"
    RESENTMENT = "resentment"
    ADMIRATION_FOR = "admiration-for"


class EmotionRecord(Record):
    """An emotion of ``subject`` (towards ``object``, a Constant or None)
    held at ``hold_time`` about the occurrence of ``event`` at
    ``event_time``."""
    __slots__ = ("kind", "subject", "object", "event", "event_time", "hold_time")

    def sort_key(self):
        return (self.kind.value, self.subject.name,
                self.object.name if self.object else "",
                print_term(self.event), self.event_time, self.hold_time)


class World:
    """Everything emotion evaluation needs: the projected timeline, ν and
    θ (dicts as in ScenarioDoc.nu and ScenarioDoc.theta), the declared
    agents, and the horizon."""
    __slots__ = ("timeline", "nu", "theta", "agents", "horizon")

    def __init__(self, timeline: Timeline, nu: dict, theta: dict, agents, horizon: int):
        self.timeline, self.nu, self.theta = timeline, nu, theta
        self.agents, self.horizon = agents, horizon


def _no_initiated(occ, pred) -> bool:
    """True iff no initiated fluent satisfies pred at any moment."""
    return not any(pred(f) for f in occ.initiated)


def eval_joy(a: Constant, event: Term, t: int, t2: int, world: World) -> bool:
    occ = world.timeline.occurrence(event, t)
    moments = range(world.horizon + 1)
    return (_open(world.theta, a, t2)
            and nu_bar(a, event, t, world.timeline, world.nu, world.horizon) > 0
            and _no_initiated(occ, lambda f: any(world.nu.get((a, f, y), 0.0) < 0
                                                 for y in moments)))


def eval_distress(a: Constant, event: Term, t: int, t2: int, world: World) -> bool:
    occ = world.timeline.occurrence(event, t)
    moments = range(world.horizon + 1)
    return (_open(world.theta, a, t2)
            and nu_bar(a, event, t, world.timeline, world.nu, world.horizon) < 0
            and _no_initiated(occ, lambda f: any(world.nu.get((a, f, y), 0.0) > 0
                                                 for y in moments)))


def _other_directed(a, b, event, t, t2, world, desirable: bool) -> bool:
    """Shared utility conditions of the other-directed table rows:
    desirable = positive total for b with no negative consequences for b;
    undesirable is the mirror image."""
    occ = world.timeline.occurrence(event, t)
    if not _open(world.theta, a, t2) or a == b:
        return False
    total = nu_bar(b, event, t, world.timeline, world.nu, world.horizon)
    moments = range(world.horizon + 1)
    if desirable:
        return total > 0 and _no_initiated(
            occ, lambda f: any(world.nu.get((b, f, y), 0.0) < 0 for y in moments))
    return total < 0 and _no_initiated(
        occ, lambda f: any(world.nu.get((b, f, y), 0.0) > 0 for y in moments))


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
    if not _open(world.theta, a, t2) or a == b:
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
    return World(timeline, doc.nu, doc.theta, tuple(doc.symbols.agents), timeline.horizon)


def print_record(r: EmotionRecord) -> str:
    parts = [r.kind.value, r.subject.name]
    if r.object is not None:
        parts.append(r.object.name)
    parts.append(print_term(r.event))
    parts += [str(r.event_time), str(r.hold_time)]
    return f"({' '.join(parts)})"
