from collections import Counter

import pytest

import vz.emotions
from vz.ec import project
from vz.emotions import (EmotionKind, EmotionRecord, World, eval_admiration,
                         eval_distress, eval_happy_for, eval_joy,
                         eval_occ_table_emotion, sweep_emotions, world_from_doc)
from vz.errors import UnknownOccurrence
from vz.printer import print_term
from vz.scenario import parse_scenario
from vz.terms import ACTION, Application, Sort

from conftest import add_effects, make_doc

ALWAYS = lambda *agents: {a: "always" for a in agents}


def simple_world(nu_entries, initiated=(), terminated=(), horizon=4,
                 theta=None):
    """One event at t=1 with the given effects; agents ag0/ag1."""
    doc = make_doc(3, 1, horizon=horizon)
    e = doc.events[0]
    add_effects(doc, e,
                [doc.fluents[i] for i in initiated],
                [doc.fluents[i] for i in terminated])
    doc.happens[e, 1] = None
    tl = project(doc)
    a0 = doc.symbols.constants["ag0"]
    a1 = doc.symbols.constants["ag1"]
    by_name = {"a0": a0, "a1": a1}
    table = {(by_name[k[0]], doc.fluents[k[1]], k[2]): v for k, v in nu_entries.items()}
    theta = theta if theta is not None else ALWAYS(a0, a1)
    return World(tl, table, theta, (a0, a1), horizon), e, a0, a1, doc


class TestJoyDistress:
    def test_theta_never_blocks(self):
        w, e, a0, a1, _ = simple_world({("a0", 0, 2): 2.0}, initiated=[0],
                                       theta={})
        assert not eval_joy(a0, e, 1, 2, w)

    def test_joy_positive_clean(self):
        w, e, a0, _, _ = simple_world({("a0", 0, 2): 2.0}, initiated=[0])
        assert eval_joy(a0, e, 1, 0, w)

    def test_joy_blocked_by_negative_consequence(self):
        w, e, a0, _, _ = simple_world(
            {("a0", 0, 2): 2.0, ("a0", 1, 4): -1.0}, initiated=[0, 1])
        assert not eval_joy(a0, e, 1, 0, w)

    def test_distress_zero_table_false(self):
        w, e, a0, _, _ = simple_world({}, initiated=[0])
        assert not eval_distress(a0, e, 1, 0, w)

    def test_distress_negative_clean(self):
        w, e, a0, _, _ = simple_world({("a0", 0, 2): -3.0}, initiated=[0])
        assert eval_distress(a0, e, 1, 0, w)
        assert not eval_distress(a0, e, 1, 0,
                                 World(w.timeline, w.nu, {}, w.agents, w.horizon))

    def test_unknown_occurrence(self):
        w, e, a0, _, _ = simple_world({}, initiated=[0])
        with pytest.raises(UnknownOccurrence):
            eval_joy(a0, e, 3, 0, w)


class TestOtherDirected:
    def test_happy_for_self_false(self):
        w, e, a0, _, _ = simple_world({("a0", 0, 2): 1.0}, initiated=[0])
        assert not eval_happy_for(a0, a0, e, 1, 0, w)

    def test_happy_for_true(self):
        w, e, a0, a1, _ = simple_world({("a1", 0, 2): 1.0}, initiated=[0])
        assert eval_happy_for(a0, a1, e, 1, 0, w)

    def test_happy_for_blocked(self):
        w, e, a0, a1, _ = simple_world(
            {("a1", 0, 2): 1.0, ("a1", 1, 3): -0.1}, initiated=[0, 1])
        assert not eval_happy_for(a0, a1, e, 1, 0, w)

    def test_resentment_mirrors_happy_for_conditions(self):
        w, e, a0, a1, _ = simple_world({("a1", 0, 2): 1.0}, initiated=[0])
        assert eval_occ_table_emotion(EmotionKind.RESENTMENT, a0, a1, e, 1, 0, w)

    def test_gloating_strict_inequality(self):
        w, e, a0, a1, _ = simple_world({}, initiated=[0])
        assert not eval_occ_table_emotion(EmotionKind.GLOATING, a0, a1, e, 1, 0, w)

    def test_gloating_and_pity_on_undesirable(self):
        w, e, a0, a1, _ = simple_world({("a1", 0, 2): -1.0}, initiated=[0])
        assert eval_occ_table_emotion(EmotionKind.GLOATING, a0, a1, e, 1, 0, w)
        assert eval_occ_table_emotion(EmotionKind.PITY_FOR, a0, a1, e, 1, 0, w)
        assert not eval_occ_table_emotion(EmotionKind.PITY_FOR, a1, a1, e, 1, 0, w)

    def test_table_rejects_the_other_kinds(self):
        # happy-for has eval_happy_for, the self-directed kinds and
        # admiration their own evaluators
        w, e, a0, a1, _ = simple_world({("a1", 0, 2): 1.0}, initiated=[0])
        for kind in (EmotionKind.JOY, EmotionKind.DISTRESS, EmotionKind.HAPPY_FOR,
                     EmotionKind.ADMIRATION_FOR):
            with pytest.raises(ValueError, match=f"not a table-only emotion: {kind}"):
                eval_occ_table_emotion(kind, a0, a1, e, 1, 0, w)


def action_world(nu_entries, horizon=4):
    """ag0 performs an action at t=1 initiating fluent 0."""
    doc = make_doc(2, 0, horizon=horizon)
    alpha = doc.symbols.declare_function("wave", (), Sort.ACTION_TYPE)
    a0 = doc.symbols.constants["ag0"]
    a1 = doc.symbols.constants["ag1"]
    ev = Application(ACTION, (a0, alpha()))
    add_effects(doc, ev, initiated=[doc.fluents[0]])
    doc.happens[ev, 1] = None
    tl = project(doc)
    by_name = {"a0": a0, "a1": a1}
    table = {(by_name[k[0]], doc.fluents[k[1]], k[2]): v for k, v in nu_entries.items()}
    w = World(tl, table, ALWAYS(a0, a1), (a0, a1), horizon)
    return w, alpha(), a0, a1


class TestAdmiration:
    def test_good_action_admired(self):
        w, alpha, a0, a1 = action_world({("a0", 0, 2): 2.0, ("a1", 0, 2): 2.0})
        assert eval_admiration(a1, a0, alpha, 1, 0, w)

    def test_own_action_not_admired(self):
        w, alpha, a0, a1 = action_world({("a0", 0, 2): 4.0})
        assert not eval_admiration(a0, a0, alpha, 1, 0, w)

    def test_negative_mu_consequence_blocks(self):
        w, alpha, a0, a1 = action_world(
            {("a0", 0, 2): 4.0, ("a0", 0, 3): -1.0, ("a1", 0, 3): 0.5})
        # mu(f,3) = -0.5 < 0 even though the total is positive
        assert not eval_admiration(a1, a0, alpha, 1, 0, w)

    def test_invariant_under_nu_redistribution(self, rng):
        w, alpha, a0, a1 = action_world({("a0", 0, 2): 2.0, ("a1", 0, 3): 1.0})
        f = None
        for (ag, fl, t), v in w.nu.items():
            f = fl
        base = eval_admiration(a1, a0, alpha, 1, 0, w)
        for _ in range(100):
            # redistribute each (fluent, t) total between the two agents
            entries = {}
            for t in range(w.horizon + 1):
                total = sum(w.nu.get((a, f, t), 0.0) for a in w.agents)
                share = rng.uniform(-5, 5)
                entries[(a0, f, t)] = share
                entries[(a1, f, t)] = total - share
            w2 = World(w.timeline, entries, w.theta, w.agents, w.horizon)
            assert eval_admiration(a1, a0, alpha, 1, 0, w2) == base


class TestSweep:
    def test_theta_never_empty(self):
        w, e, a0, a1, _ = simple_world({("a0", 0, 2): 1.0}, initiated=[0],
                                       theta={})
        assert sweep_emotions(w) == []

    def test_mutual_exclusion_and_determinism(self):
        w, e, a0, a1, _ = simple_world(
            {("a0", 0, 2): 1.0, ("a1", 0, 2): -1.0}, initiated=[0])
        recs = sweep_emotions(w)
        assert recs == sweep_emotions(w)
        seen = {(r.kind, r.subject, r.event, r.event_time, r.hold_time) for r in recs}
        for r in recs:
            if r.kind is EmotionKind.JOY:
                assert (EmotionKind.DISTRESS, r.subject, r.event,
                        r.event_time, r.hold_time) not in seen

    def test_theta_gating_removes_only_that_agent(self):
        w, e, a0, a1, _ = simple_world(
            {("a0", 0, 2): 1.0, ("a1", 0, 2): -1.0}, initiated=[0])
        gated = World(w.timeline, w.nu, ALWAYS(a1), w.agents, w.horizon)
        full = sweep_emotions(w)
        part = sweep_emotions(gated)
        assert part == [r for r in full if r.subject == a1]

    def test_theta_gates_of_a_scenario(self):
        # at facts collect moments; a later always or never replaces what
        # came before, and an at fact after it starts afresh; an agent
        # without a theta fact is absent
        doc = parse_scenario("(declare-agent a) (declare-agent b) (declare-agent c)\n"
                             "(declare-agent d) (theta a at 1) (theta a at 3)\n"
                             "(theta b at 2) (theta b never) (theta c always) (theta c at 2)\n")
        a, b, c, d = doc.symbols.agents
        assert doc.theta == {a: frozenset({1, 3}), b: "never", c: frozenset({2})}

    def test_single_agent_no_other_directed(self):
        doc = make_doc(1, 1, horizon=3)
        # fresh doc with one agent only
        from vz.scenario import ScenarioDoc, SymbolTable
        table = SymbolTable()
        doc = ScenarioDoc(table, horizon=3)
        f = table.declare_function("fl0", (), Sort.FLUENT)()
        e = table.declare_constant("e0", Sort.EVENT)
        solo = table.declare_constant("solo", Sort.AGENT)
        add_effects(doc, e, initiated=[f])
        doc.happens[e, 1] = None
        tl = project(doc)
        w = World(tl, {(solo, f, 2): 1.0}, ALWAYS(solo), (solo,), 3)
        recs = sweep_emotions(w)
        assert recs and all(r.kind is EmotionKind.JOY for r in recs)


# ---------------------------------------------------------------------------
# Independent interpreter: a direct transcription of each defining
# biconditional, computed from raw sums without the utility module.


def _raw_nu_bar(world, agent, occ):
    s = 0.0
    for y in range(occ.time + 1, world.horizon + 1):
        s += sum(world.nu.get((agent, f, y), 0.0) for f in occ.initiated)
        s -= sum(world.nu.get((agent, f, y), 0.0) for f in occ.terminated)
    return s


def _raw_mu(world, f, t):
    return sum(world.nu.get((a, f, t), 0.0) for a in world.agents)


def _raw_theta(world, agent, t):
    gate = world.theta.get(agent)
    if isinstance(gate, frozenset):
        return t in gate
    return gate == "always"


def report_order(r):
    """The order of emotion records in a report: kind, subject, object
    (none first), printed event, event time, hold time."""
    return (r.kind.value, r.subject.name, r.object.name if r.object else "",
            print_term(r.event), r.event_time, r.hold_time)


def reference_eval(kind, a, b, occ, t2, world):
    if not _raw_theta(world, a, t2):
        return False
    moments = range(world.horizon + 1)
    if kind is EmotionKind.JOY:
        return (_raw_nu_bar(world, a, occ) > 0 and
                all(world.nu.get((a, f, y), 0.0) >= 0
                    for f in occ.initiated for y in moments))
    if kind is EmotionKind.DISTRESS:
        return (_raw_nu_bar(world, a, occ) < 0 and
                all(world.nu.get((a, f, y), 0.0) <= 0
                    for f in occ.initiated for y in moments))
    if kind is EmotionKind.ADMIRATION_FOR:
        ev = occ.event
        if (not isinstance(ev, Application) or ev.symbol.name != "action"
                or ev.args[0] != b or a == b):
            return False
        total = sum(_raw_nu_bar(world, ag, occ) for ag in world.agents)
        return (total > 0 and
                all(_raw_mu(world, f, y) >= 0 for f in occ.initiated for y in moments))
    if a == b:
        return False
    nb = _raw_nu_bar(world, b, occ)
    if kind in (EmotionKind.HAPPY_FOR, EmotionKind.RESENTMENT):
        return nb > 0 and all(world.nu.get((b, f, y), 0.0) >= 0
                              for f in occ.initiated for y in moments)
    return nb < 0 and all(world.nu.get((b, f, y), 0.0) <= 0
                          for f in occ.initiated for y in moments)


def random_emotion_world(rng):
    doc = make_doc(3, 0, horizon=rng.randint(1, 4))
    alpha = doc.symbols.declare_function("wave", (), Sort.ACTION_TYPE)
    a0 = doc.symbols.constants["ag0"]
    a1 = doc.symbols.constants["ag1"]
    ev = Application(ACTION, (a0, alpha()))
    pool = list(doc.fluents)
    rng.shuffle(pool)
    k = rng.randint(1, len(pool))
    add_effects(doc, ev, pool[:k // 2 + 1], pool[k // 2 + 1:k])
    doc.happens[ev, rng.randint(0, doc.horizon)] = None
    tl = project(doc)
    entries = {(a, f, t): rng.choice([-2.0, -1.0, 0.0, 1.0, 2.0])
               for a in (a0, a1) for f in doc.fluents
               for t in range(doc.horizon + 1) if rng.random() < 0.6}
    # each agent's gate: mostly always, else never, some moments, or none
    gates = {}
    for a in (a0, a1):
        gate = rng.choice(["always", "always", "always", "never", "at", None])
        if gate == "at":
            gates[a] = frozenset(t for t in range(doc.horizon + 1) if rng.random() < 0.5)
        elif gate is not None:
            gates[a] = gate
    return World(tl, entries, gates, (a0, a1), doc.horizon)


def test_eval_matches_reference_interpreter(rng):
    for _ in range(300):
        w = random_emotion_world(rng)
        occ = w.timeline.occurrences[0]
        ev, t = occ.event, occ.time
        actor = ev.args[0]
        for t2 in range(w.horizon + 1):
            for a in w.agents:
                assert eval_joy(a, ev, t, t2, w) == reference_eval(
                    EmotionKind.JOY, a, None, occ, t2, w)
                assert eval_distress(a, ev, t, t2, w) == reference_eval(
                    EmotionKind.DISTRESS, a, None, occ, t2, w)
                for b in w.agents:
                    if a == b:
                        continue
                    assert eval_happy_for(a, b, ev, t, t2, w) == reference_eval(
                        EmotionKind.HAPPY_FOR, a, b, occ, t2, w)
                    for kind in (EmotionKind.GLOATING, EmotionKind.PITY_FOR,
                                 EmotionKind.RESENTMENT):
                        assert eval_occ_table_emotion(kind, a, b, ev, t, t2, w) \
                            == reference_eval(kind, a, b, occ, t2, w)
                    if b == actor:
                        assert eval_admiration(a, b, ev.args[1], t, t2, w) \
                            == reference_eval(EmotionKind.ADMIRATION_FOR,
                                              a, b, occ, t2, w)


def test_sweep_matches_reference_interpreter(rng):
    """On the same random worlds, the sweep yields each instance that the
    transcription accepts exactly once, in report order, and no other: so
    no record lacks its object or is directed at its own subject."""
    for _ in range(300):
        w = random_emotion_world(rng)
        occ = w.timeline.occurrences[0]
        records = sweep_emotions(w)
        got = [(r.kind, r.subject, r.object, r.event, r.event_time, r.hold_time)
               for r in records]
        self_directed = (EmotionKind.JOY, EmotionKind.DISTRESS)
        expected = {(kind, a, b, occ.event, occ.time, t2)
                    for t2 in range(w.horizon + 1) for a in w.agents for kind in EmotionKind
                    for b in ((None,) if kind in self_directed else w.agents)
                    if reference_eval(kind, a, b, occ, t2, w)}
        assert len(got) == len(set(got)) and set(got) == expected
        assert records == sorted(records, key=report_order)


def crowded_emotion_world(rng):
    """Three agents and 2-4 occurrences at distinct moments: wave by one
    agent and the non-action event e0; maybe wave by a second agent; maybe
    one of these events again at a second moment. Each agent's gate is
    always, never, some moments, or none."""
    doc = make_doc(4, 1, horizon=rng.randint(3, 5))
    alpha = doc.symbols.declare_function("wave", (), Sort.ACTION_TYPE)
    doc.symbols.declare_constant("ag2", Sort.AGENT)
    agents = tuple(doc.symbols.constants[f"ag{i}"] for i in range(3))
    actors = rng.sample(agents, 2)
    events = [Application(ACTION, (actors[0], alpha())), doc.events[0]]
    if rng.random() < 0.7:
        events.append(Application(ACTION, (actors[1], alpha())))
    for ev in events:
        pool = list(doc.fluents)
        rng.shuffle(pool)
        k = rng.randint(1, len(pool))
        add_effects(doc, ev, pool[:k // 2 + 1], pool[k // 2 + 1:k])
    if rng.random() < 0.7:
        events.append(rng.choice(events))
    for ev, t in zip(events, rng.sample(range(doc.horizon + 1), len(events))):
        doc.happens[ev, t] = None
    tl = project(doc)
    entries = {(a, f, t): rng.choice([-2.0, -1.0, 0.0, 1.0, 2.0])
               for a in agents for f in doc.fluents
               for t in range(doc.horizon + 1) if rng.random() < 0.6}
    gates = {}
    for a in agents:
        gate = rng.choice(["always", "always", "never", "at", None])
        if gate == "at":
            gates[a] = frozenset(t for t in range(doc.horizon + 1) if rng.random() < 0.5)
        elif gate is not None:
            gates[a] = gate
    return World(tl, entries, gates, agents, doc.horizon)


def test_sweep_matches_reference_interpreter_on_crowded_worlds(rng):
    """With three agents and several occurrences, by different actors and
    at several moments, the sweep yields each instance that the
    transcription accepts exactly once, in report order, and no other."""
    self_directed = (EmotionKind.JOY, EmotionKind.DISTRESS)
    shapes = set()
    for _ in range(200):
        w = crowded_emotion_world(rng)
        occs = w.timeline.occurrences
        shapes.add((len(occs), len({o.event for o in occs})))
        records = sweep_emotions(w)
        got = [(r.kind, r.subject, r.object, r.event, r.event_time, r.hold_time)
               for r in records]
        expected = {(kind, a, b, occ.event, occ.time, t2)
                    for occ in occs for t2 in range(w.horizon + 1)
                    for a in w.agents for kind in EmotionKind
                    for b in ((None,) if kind in self_directed else w.agents)
                    if reference_eval(kind, a, b, occ, t2, w)}
        assert len(got) == len(set(got)) and set(got) == expected
        assert records == sorted(records, key=report_order)
    # every shape of the family was drawn: 2-4 occurrences, with and
    # without an event at two moments
    assert shapes == {(2, 2), (3, 2), (3, 3), (4, 3)}


def test_sweep_walks_in_report_order_not_declaration_or_happens_order():
    """Agents declared out of name order and occurrences that happen out
    of printed order, one action twice and later first: the sweep is the
    transcription's set, in report order."""
    doc = parse_scenario(
        "(declare-agent zed) (declare-agent amy) (declare-agent kim)\n"
        "(declare-fluent fed ()) (declare-fluent wet ()) (declare-action-type cook ())\n"
        "(declare-constant rain event) (horizon 4)\n"
        "(initiates (action ?a (cook)) (fed) t) (initiates rain (wet) t)\n"
        "(happens rain 1) (happens (action zed (cook)) 3)\n"
        "(happens (action amy (cook)) 2) (happens (action zed (cook)) 0)\n"
        "(nu zed (fed) 4 1.0) (nu amy (fed) 4 2.0) (nu kim (fed) 4 1.0)\n"
        "(nu amy (wet) 2 -1.0) (nu kim (wet) 3 1.0)\n"
        "(theta zed always) (theta amy always) (theta kim at 1) (theta kim at 3)\n")
    w = world_from_doc(doc, project(doc))
    assert [a.name for a in w.agents] == ["zed", "amy", "kim"]
    occs = w.timeline.occurrences
    assert [(print_term(o.event), o.time) for o in occs] == [
        ("rain", 1), ("(action zed (cook))", 3), ("(action amy (cook))", 2),
        ("(action zed (cook))", 0)]
    self_directed = (EmotionKind.JOY, EmotionKind.DISTRESS)
    expected = sorted((EmotionRecord(kind, a, b, occ.event, occ.time, t2)
                       for occ in occs for t2 in range(w.horizon + 1)
                       for a in w.agents for kind in EmotionKind
                       for b in ((None,) if kind in self_directed else w.agents)
                       if reference_eval(kind, a, b, occ, t2, w)), key=report_order)
    assert sweep_emotions(w) == expected
    # every kind is present, and amy and kim admire zed's cooking at 0 and 3
    assert {r.kind for r in expected} == set(EmotionKind)
    assert {(r.subject.name, r.event_time) for r in expected
            if r.kind is EmotionKind.ADMIRATION_FOR and r.object.name == "zed"} \
        == {(s, t) for s in ("amy", "kim") for t in (0, 3)}


def reference_records(w):
    """The records the transcription accepts over every occurrence, kind,
    subject, object and hold time of w, in report order."""
    self_directed = (EmotionKind.JOY, EmotionKind.DISTRESS)
    return sorted((EmotionRecord(kind, a, b, occ.event, occ.time, t2)
                   for occ in w.timeline.occurrences for t2 in range(w.horizon + 1)
                   for a in w.agents for kind in EmotionKind
                   for b in ((None,) if kind in self_directed else w.agents)
                   if reference_eval(kind, a, b, occ, t2, w)), key=report_order)


def test_sweep_appraises_each_occurrence_once(rng, monkeypatch):
    """The sweep takes ν̄ at most once per (occurrence, agent) and μ̄ at
    most once per action occurrence, through the bindings in vz.emotions,
    and its records stay the transcription's."""
    calls = Counter()

    def counted(total, key):
        def wrapper(*args):
            calls[key(*args)] += 1
            return total(*args)
        return wrapper

    monkeypatch.setattr(vz.emotions, "nu_bar", counted(
        vz.emotions.nu_bar, lambda agent, occ, *_: ("nu", agent, occ.event, occ.time)))
    monkeypatch.setattr(vz.emotions, "mu_bar", counted(
        vz.emotions.mu_bar, lambda occ, *_: ("mu", None, occ.event, occ.time)))
    for _ in range(100):
        w = crowded_emotion_world(rng)
        calls.clear()
        assert sweep_emotions(w) == reference_records(w)
        occs = w.timeline.occurrences
        allowed = {("nu", a, occ.event, occ.time) for occ in occs for a in w.agents}
        allowed |= {("mu", None, occ.event, occ.time) for occ in occs
                    if isinstance(occ.event, Application) and occ.event.symbol is ACTION}
        assert set(calls) <= allowed and max(calls.values()) == 1


def test_sweep_hoists_subject_checks_only():
    """cal's Θ is never open: cal is never a subject, yet still the object
    of the others' emotions and the admired actor of its cooking. bob is
    open only at 0, before every occurrence, and holds his emotions then.
    Nobody admires their own action, nor is any emotion directed at its
    own subject."""
    doc = parse_scenario(
        "(declare-agent amy) (declare-agent bob) (declare-agent cal)\n"
        "(declare-fluent fed ()) (declare-fluent wet ()) (declare-action-type cook ())\n"
        "(declare-constant rain event) (horizon 4)\n"
        "(initiates (action ?a (cook)) (fed) t) (initiates rain (wet) t)\n"
        "(happens (action amy (cook)) 1) (happens (action cal (cook)) 2) (happens rain 3)\n"
        "(nu amy (fed) 4 1.0) (nu bob (fed) 3 1.0) (nu cal (fed) 4 2.0)\n"
        "(nu amy (wet) 4 1.0) (nu cal (wet) 4 -1.0)\n"
        "(theta amy always) (theta bob at 0) (theta cal never)\n")
    w = world_from_doc(doc, project(doc))
    records = sweep_emotions(w)
    assert records == reference_records(w)
    assert {r.subject.name for r in records} == {"amy", "bob"}
    assert all(r.hold_time == 0 for r in records if r.subject.name == "bob")
    assert all(r.object != r.subject for r in records)
    towards_cal = {(r.kind, r.subject.name) for r in records
                   if r.object is not None and r.object.name == "cal"}
    assert towards_cal == {(kind, s) for s in ("amy", "bob") for kind in (
        EmotionKind.HAPPY_FOR, EmotionKind.RESENTMENT, EmotionKind.PITY_FOR,
        EmotionKind.GLOATING, EmotionKind.ADMIRATION_FOR)}
    assert {(r.subject.name, r.object.name) for r in records
            if r.kind is EmotionKind.ADMIRATION_FOR} == {("amy", "cal"), ("bob", "amy"),
                                                          ("bob", "cal")}
