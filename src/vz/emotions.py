"""OCC-style emotion fluents.

Each emotion is a per-agent gate (theta) conjoined with the OCC
appraisal of an event occurrence (Ortony, Clore & Collins 1988), which
the seven kinds share up to whose utility it reads and its sign. Agents
are treated as having veridical, complete beliefs: the belief wrapper is
evaluated directly against the world model.
"""
from __future__ import annotations

import enum
from collections import defaultdict

from .ec import Timeline
from .printer import print_term
from .terms import ACTION, Application, Constant, Record, Term
from .utility import entry_moments, moment_index, mu, mu_bar, nu_bar


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
    agents, and the horizon; and ν's moment index, built here once."""
    __slots__ = ("timeline", "nu", "theta", "agents", "horizon", "index")

    def __init__(self, timeline: Timeline, nu: dict, theta: dict, agents, horizon: int):
        self.timeline, self.nu, self.theta = timeline, nu, theta
        self.agents, self.horizon = agents, horizon
        self.index = moment_index(nu)


# Each kind's appraisal: whose it reads and its sign. SELF reads the
# subject's own ν̄; OTHER, the object agent's; ACTOR, the agent-neutral μ̄
# of the action of the object (the actor of an (action b α) event).
SELF, OTHER, ACTOR = "self", "other", "actor"
OCC_TABLE = {EmotionKind.JOY: (SELF, 1), EmotionKind.DISTRESS: (SELF, -1),
             EmotionKind.HAPPY_FOR: (OTHER, 1), EmotionKind.GLOATING: (OTHER, -1),
             EmotionKind.PITY_FOR: (OTHER, -1), EmotionKind.RESENTMENT: (OTHER, 1),
             EmotionKind.ADMIRATION_FOR: (ACTOR, 1)}


def _appraised(world: World, occ, who) -> int:
    """The appraisal all seven emotions share: the sign (1 or -1; a nan or 0
    has none) of the occurrence's total utility (ν̄ for agent ``who``; μ̄
    when who is None), or 0 when an initiated fluent has a utility (ν, or
    μ) of the opposite sign at some moment in [0, H]. ν is μ over one
    agent."""
    if who is None:
        total = mu_bar(occ, world.nu, world.agents, world.horizon, world.index)
        owners = world.agents
    else:
        total, owners = nu_bar(who, occ, world.nu, world.horizon, world.index), (who,)
    sign = (total > 0) - (total < 0)
    return 0 if sign and any(sign * mu(f, y, world.nu, owners) < 0 for f in occ.initiated
                             for y in entry_moments(world.index, owners, (f,), -1,
                                                    world.horizon)) else sign


def _holds(kind: EmotionKind, a: Constant, b, occ, t2: int, world: World) -> bool:
    """Does ``a`` hold ``kind`` (towards ``b``) at t2 about ``occ``? Θ must
    be open for a; an emotion towards an agent needs b ≠ a."""
    whose, sign = OCC_TABLE[kind]
    if not _open(world.theta, a, t2) or (whose is not SELF and a == b):
        return False
    return _appraised(world, occ, a if whose is SELF else b if whose is OTHER else None) == sign


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


class Admiration(Record):
    """An admiration as identify_exemplars reads it, lighter than its EmotionRecord."""
    __slots__ = ("kind", "subject", "object", "hold_time")


class Emotions:
    """The sweep's value, kept as its product: groups (kind, subject, object,
    occurrences, open moments) in report order, each of which holds a record
    for every occurrence at every moment. It sizes, iterates and compares
    (with a list or tuple too) as the list of those EmotionRecords would."""
    __slots__ = ("groups",)

    def __init__(self, groups: list):
        self.groups = groups

    def __len__(self) -> int:
        return sum(len(occs) * len(moments) for *_, occs, moments in self.groups)

    def __iter__(self):
        return (EmotionRecord(kind, a, b, occ.event, occ.time, t2)
                for kind, a, b, occs, moments in self.groups for occ in occs for t2 in moments)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Emotions, list, tuple)):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None

    def admirations(self, subject: Constant) -> list:
        """subject's admirations with the fields identify_exemplars reads
        (kind, subject, object, hold_time), without building their records."""
        return [Admiration(kind, a, b, t2) for kind, a, b, occs, moments in self.groups
                if kind is EmotionKind.ADMIRATION_FOR and a is subject
                for _ in occs for t2 in moments]


def sweep_emotions(world: World) -> Emotions:
    """All true emotion instances in report order (kind, subject and object
    by name, occurrence by printed event and time, hold time): the product
    of each appraisal, made once, with the Θ-open moments of its subject."""
    agents = sorted(world.agents, key=lambda c: c.name)
    occs = sorted(world.timeline.occurrences, key=lambda occ: (print_term(occ.event), occ.time))
    appraised = defaultdict(list)  # (agent, by μ̄, sign) -> the occurrences so appraised
    for occ in occs:
        for b in agents:
            appraised[b, False, _appraised(world, occ, b)].append(occ)
        if isinstance(occ.event, Application) and occ.event.symbol is ACTION:
            appraised[occ.event.args[0], True, _appraised(world, occ, None)].append(occ)
    moments = range(world.horizon + 1)
    open_at = {a: [t2 for t2 in moments if _open(world.theta, a, t2)] for a in agents}
    return Emotions([(kind, a, b, appraised[a if whose is SELF else b, whose is ACTOR, sign],
                      open_at[a])
                     for kind, (whose, sign) in sorted(OCC_TABLE.items(), key=lambda i: i[0].value)
                     for a in agents if open_at[a]
                     for b in ((None,) if whose is SELF else (b for b in agents if b != a))])


def world_from_doc(doc, timeline: Timeline) -> World:
    return World(timeline, doc.nu, doc.theta, tuple(doc.symbols.agents), timeline.horizon)


def print_record(r: EmotionRecord) -> str:
    parts = [r.kind.value, r.subject.name]
    if r.object is not None:
        parts.append(r.object.name)
    parts.append(print_term(r.event))
    parts += [str(r.event_time), str(r.hold_time)]
    return f"({' '.join(parts)})"
