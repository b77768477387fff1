"""OCC-style emotion fluents.

Each emotion is a per-agent gate (theta) conjoined with the OCC
appraisal of an event occurrence (Ortony, Clore & Collins 1988), which
the seven kinds share up to whose utility it reads and its sign. Agents
are treated as having veridical, complete beliefs: the belief wrapper is
evaluated directly against the world model.
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

    __hash__ = object.__hash__  # members are singletons


class EmotionRecord(Record):
    """An emotion of ``subject`` (towards ``object``, a Constant or None)
    held at ``hold_time`` about the occurrence of ``event`` at
    ``event_time``."""
    __slots__ = ("kind", "subject", "object", "event", "event_time", "hold_time")


class World:
    """Everything emotion evaluation needs: the projected timeline, ν and
    θ (dicts as in ScenarioDoc.nu and ScenarioDoc.theta), the declared
    agents, and the horizon."""
    __slots__ = ("timeline", "nu", "theta", "agents", "horizon")

    def __init__(self, timeline: Timeline, nu: dict, theta: dict, agents, horizon: int):
        self.timeline, self.nu, self.theta = timeline, nu, theta
        self.agents, self.horizon = agents, horizon


# Each kind's appraisal: whose it reads and its sign. SELF reads the
# subject's own ν̄; OTHER, the object agent's; ACTOR, the agent-neutral μ̄
# of the action of the object (the actor of an (action b α) event).
SELF, OTHER, ACTOR = "self", "other", "actor"
OCC_TABLE = {EmotionKind.JOY: (SELF, 1), EmotionKind.DISTRESS: (SELF, -1),
             EmotionKind.HAPPY_FOR: (OTHER, 1), EmotionKind.GLOATING: (OTHER, -1),
             EmotionKind.PITY_FOR: (OTHER, -1), EmotionKind.RESENTMENT: (OTHER, 1),
             EmotionKind.ADMIRATION_FOR: (ACTOR, 1)}


def _appraised(world: World, occ, who, sign: int) -> bool:
    """The appraisal all seven emotions share: the occurrence's total
    utility (ν̄ for agent ``who``; μ̄ when who is None) has the given sign,
    and no initiated fluent has a utility (ν, or μ) of the opposite sign
    at any moment in [0, H]."""
    nu, moments = world.nu, range(world.horizon + 1)
    if who is None:
        return (sign * mu_bar(occ, nu, world.agents, world.horizon) > 0
                and not any(sign * mu(f, y, nu, world.agents) < 0
                            for f in occ.initiated for y in moments))
    return (sign * nu_bar(who, occ, nu, world.horizon) > 0
            and not any(sign * nu.get((who, f, y), 0.0) < 0
                        for f in occ.initiated for y in moments))


def _holds(kind: EmotionKind, a: Constant, b, occ, t2: int, world: World) -> bool:
    """Does ``a`` hold ``kind`` (towards ``b``) at t2 about ``occ``? Θ must
    be open for a; an emotion towards an agent needs b ≠ a."""
    whose, sign = OCC_TABLE[kind]
    if not _open(world.theta, a, t2):
        return False
    if whose is SELF:
        return _appraised(world, occ, a, sign)
    return a != b and _appraised(world, occ, b if whose is OTHER else None, sign)


def eval_joy(a: Constant, event: Term, t: int, t2: int, world: World) -> bool:
    return _holds(EmotionKind.JOY, a, None, world.timeline.occurrence(event, t), t2, world)


def eval_distress(a: Constant, event: Term, t: int, t2: int, world: World) -> bool:
    return _holds(EmotionKind.DISTRESS, a, None, world.timeline.occurrence(event, t), t2, world)


def eval_happy_for(a, b, event, t, t2, world) -> bool:
    return _holds(EmotionKind.HAPPY_FOR, a, b, world.timeline.occurrence(event, t), t2, world)


def eval_occ_table_emotion(kind: EmotionKind, a, b, event, t, t2, world) -> bool:
    if kind is EmotionKind.HAPPY_FOR or OCC_TABLE[kind][0] is not OTHER:
        raise ValueError(f"not a table-only emotion: {kind}")
    return _holds(kind, a, b, world.timeline.occurrence(event, t), t2, world)


def eval_admiration(a: Constant, b: Constant, action_type: Term, t: int,
                    t2: int, world: World) -> bool:
    """a admires b's action iff the action is appraised agent-neutrally:
    positive μ̄ and no negative μ."""
    occ = world.timeline.occurrence(Application(ACTION, (b, action_type)), t)
    return _holds(EmotionKind.ADMIRATION_FOR, a, b, occ, t2, world)


def sweep_emotions(world: World) -> list[EmotionRecord]:
    """All true emotion instances, walked in report order: kind, subject and
    object (None, an agent or an action's actor) by name, occurrence by
    (printed event, time), hold time."""
    agents = sorted(world.agents, key=lambda c: c.name)
    text = {ev: print_term(ev) for ev in {occ.event for occ in world.timeline.occurrences}}
    occs = sorted(world.timeline.occurrences, key=lambda occ: (text[occ.event], occ.time))
    acted = {}  # actor -> the occurrences of its actions, in report order
    for occ in occs:
        if isinstance(occ.event, Application) and occ.event.symbol is ACTION:
            acted.setdefault(occ.event.args[0], []).append(occ)
    objects = {SELF: (None,), OTHER: agents, ACTOR: sorted(acted, key=lambda c: c.name)}
    moments, out = range(world.horizon + 1), []
    for kind, (whose, _) in sorted(OCC_TABLE.items(), key=lambda item: item[0].value):
        for a in agents:
            for b in objects[whose]:
                for occ in acted[b] if whose is ACTOR else occs:
                    out += [EmotionRecord(kind, a, b, occ.event, occ.time, t2) for t2 in moments
                            if _holds(kind, a, b, occ, t2, world)]
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
