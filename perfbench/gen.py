"""Seeded scenario generators for the benchmark workloads.

Each generator takes a seed and sizes and returns the `.vz` text that vz
reads, plus a plain model of what it planted, which the oracles in
`oracles.py` check the report against. The same seed and sizes always
give the same bytes. The seed permutes names and roles and picks values
and actors; the shape of each scenario (counts of agents, occurrences,
effects, open Θ gates, formulas) and so the amount of work is fixed by
the sizes, so that timings from different seeds are comparable.
"""
from __future__ import annotations

import itertools
import random

# ν values are multiples of 0.5, so every sum is exact. A mixed fluent
# costs the agents it hurts more than `trusted` and the good fluents
# together are worth to anyone, so the sign of every ν̄ and μ̄ follows
# from the scenario's shape and not from the drawn magnitudes.
_MAGNITUDES = (0.5, 1.0, 1.5, 2.0)
_COST = -8.0

# Fixed parts of each family's shape; the workload sizes in run.py set
# the rest.
SWEEP_ACTIONS = 4      # `up*` and `dn*` action types each
SWEEP_EFFECTS = 2      # fluents each action type initiates or terminates
NU_MOMENTS = 4         # moments at which every ν is given
LEARN_POOL = 12        # fluents of the learner family
LEARN_PER_KEY = 3      # formulas per alignment key in each situation
LEARN_HORIZON = 12
CHAIN = 8              # belief chain p0 -> ... -> p8


def sweep_family(seed: int, agents: int, events: int, horizon: int, fluents: int):
    """The (A, E, H, F) family: A agents, E distinct action occurrences,
    horizon H and F fluents (`trusted` plus F-1 others).

    Effects are conflict-free by construction: `up*` action types only
    initiate and occur at even moments, `dn*` types only terminate and
    occur at odd moments, so at every moment the initiated and the
    terminated fluents come from disjoint sets. Every `up*` initiates
    `trusted`, whose ν is positive for every agent, so admiration occurs
    whenever the other initiated fluents have no negative μ. Half the
    other fluents are good (ν > 0 for all); the rest are mixed. All agents
    but the last are always open to emotion (Θ always); the last is open
    at half the moments.
    """
    rng = random.Random(seed)
    ags = [f"ag{i}" for i in range(agents)]
    others = [f"fl{i}" for i in range(fluents - 1)]
    ups = [f"up{i}" for i in range(SWEEP_ACTIONS)]
    dns = [f"dn{i}" for i in range(SWEEP_ACTIONS)]
    # The seed only permutes roles: fluents are dealt to effects in turn
    # from shuffled pools, so which fluent is initiated, terminated or
    # initially true changes with the seed while the shape of the
    # scenario, and so the work, does not.
    shuffled = rng.sample(others, len(others))
    good_list = shuffled[:len(others) // 2]
    mixed_list = shuffled[len(others) // 2:]
    good, mixed = itertools.cycle(good_list), itertools.cycle(mixed_list)
    initiates, terminates = {}, {}
    for i, u in enumerate(ups):
        # even up actions touch only good fluents, so that they are
        # admired; odd ones draw one mixed fluent
        pools = ([good] * SWEEP_EFFECTS if i % 2 == 0
                 else [good] * (SWEEP_EFFECTS - 1) + [mixed])
        initiates[u] = ["trusted"] + sorted({next(p) for p in pools}, key=others.index)
    for d in dns:
        pools = [good] + [mixed] * (SWEEP_EFFECTS - 1)
        terminates[d] = sorted({next(p) for p in pools}, key=others.index)

    # Occurrence times are spread evenly, and the j-th occurrence of each
    # parity uses the j-th action type in turn; the seed picks the actors.
    occs = []
    n_up = events - events // 2
    for kinds, first, n in ((ups, 0, n_up), (dns, 1, events - n_up)):
        moments = list(range(first, horizon, 2))
        per_moment = [0] * len(moments)
        for k in range(n):
            per_moment[k * len(moments) // n] += 1
        j = 0
        for t, count in zip(moments, per_moment):
            for a in rng.sample(ags, count):
                occs.append((a, kinds[j % len(kinds)], t))
                j += 1
    occs.sort(key=lambda o: (o[2], ags.index(o[0]), o[1]))

    initially = sorted(good_list[::2] + mixed_list[::2], key=others.index)
    # ν sits at the same evenly spaced moments for every agent and
    # fluent. `trusted` and the good fluents are worth something to
    # everyone; a mixed fluent is worth something to every other agent and
    # costs the rest, so the signs each agent sees do not depend on the seed.
    nu_at = [1 + k * horizon // NU_MOMENTS for k in range(NU_MOMENTS)]
    nu = {}
    for i, a in enumerate(ags):
        for f in ["trusted"] + others:
            hurts = f in mixed_list and (i + mixed_list.index(f)) % 2
            for y in nu_at:
                nu[(a, f, y)] = _COST if hurts else rng.choice(_MAGNITUDES)
    theta = {a: "always" for a in ags[:-1]}
    theta[ags[-1]] = frozenset(rng.sample(range(horizon + 1), (horizon + 1) // 2))

    lines = [f"; sweep family: seed {seed}, (A,E,H,F) = ({agents},{events},{horizon},{fluents})"]
    lines += [f"(declare-agent {a})" for a in ags]
    lines += [f"(declare-fluent {f} ())" for f in ["trusted"] + others]
    lines += [f"(declare-action-type {x} ())" for x in ups + dns]
    lines += [f"(horizon {horizon})", f"(set learner {ags[0]})", "(set n 2)"]
    lines += [f"(initially ({f}))" for f in initially]
    for u in ups:
        lines += [f"(initiates (action ?a ({u})) ({f}) t)" for f in initiates[u]]
    for d in dns:
        lines += [f"(terminates (action ?a ({d})) ({f}) t)" for f in terminates[d]]
    lines += [f"(happens (action {a} ({x})) {t})" for a, x, t in occs]
    lines += [f"(nu {a} ({f}) {y} {v})" for (a, f, y), v in nu.items()]
    for a in ags:
        if theta[a] == "always":
            lines.append(f"(theta {a} always)")
        else:
            lines += [f"(theta {a} at {t})" for t in sorted(theta[a])]
    model = {"agents": ags, "horizon": horizon, "occurrences": occs,
             "initiates": initiates, "terminates": terminates,
             "initially": initially, "nu": nu, "theta": theta}
    return "\n".join(lines) + "\n", model


def learn_family(seed: int, situations: int, queries: int):
    """Two agents: the learner `lrn` and the exemplar `ex`, which it
    admires. Each observed situation of `ex` holds one `(ok f)` anchor and
    LEARN_PER_KEY formulas under each of the `seen` and `near` alignment keys.
    The planted trait: `ex` always utters the fluent named by `ok`. All
    queries but two carry an `ok` anchor; those two must get no proposal.
    """
    rng = random.Random(seed)
    fls = [f"f{i}" for i in range(LEARN_POOL)]
    horizon = LEARN_HORIZON

    def body(ok):
        rest = [f for f in fls if f != ok]
        out = [] if ok is None else [f"(ok ({ok}))"]
        out += [f"(seen ({f}))" for f in rng.sample(rest, LEARN_PER_KEY)]
        pairs = rng.sample([(x, y) for x in rest for y in rest if x != y], LEARN_PER_KEY)
        out += [f"(near ({x}) ({y}))" for x, y in pairs]
        rng.shuffle(out)
        return " ".join(out)

    lines = [f"; learner family: seed {seed}, {situations} situations, {queries} queries"]
    lines += ["(declare-agent lrn)", "(declare-agent ex)", "(declare-fluent trusted ())"]
    lines += [f"(declare-fluent {f} ())" for f in fls]
    lines += ["(declare-action-type utter (fluent))", "(declare-predicate ok (fluent))",
              "(declare-predicate seen (fluent))", "(declare-predicate near (fluent fluent))"]
    lines += [f"(horizon {horizon})", "(set learner lrn)", "(set n 2)", "(set m 2)",
              "(set gamma 0.9)", "(initiates (action ?a (utter ?x)) (trusted) t)"]
    lines += [f"(happens (action ex (utter ({f}))) {t})"
              for f, t in zip(rng.sample(fls, 3), (1, 3, 5))]
    lines += [f"(nu lrn (trusted) {y} 1.0)" for y in range(2, horizon + 1)]
    lines.append("(theta lrn always)")
    for i in range(situations):
        ok = rng.choice(fls)
        other = rng.choice([f for f in fls if f != ok])
        alts = [f"(utter ({ok}))", f"(utter ({other}))"]
        rng.shuffle(alts)
        lines.append(f"(observe s{i} (agent ex) (time {i % (horizon + 1)}) "
                     f"(formulas {body(ok)}) (alternatives {' '.join(alts)}) "
                     f"(performed (utter ({ok}))))")
    anchorless = set(rng.sample(range(queries), min(2, queries)))
    planted = []
    for i in range(queries):
        ok = None if i in anchorless else rng.choice(fls)
        t = rng.randrange(horizon + 1)
        planted.append((f"q{i}", t, ok))
        lines.append(f"(query q{i} (time {t}) (formulas {body(ok)}))")
    model = {"learner": "lrn", "queries": planted}
    return "\n".join(lines) + "\n", model


def infer_family(seed: int, agents: int, horizon: int):
    """A modal KB: each agent believes a Horn chain p0 -> ... -> p{CHAIN}
    from a start moment, knows one fact, intends one action, and believes
    an obligation conditioned on p{CHAIN}, so R_14 fires only once the
    chain is closed. Start moments are a seeded permutation of fixed
    values, so the amount of derived work does not depend on the seed.
    """
    rng = random.Random(seed)
    ags = [f"a{i}" for i in range(agents)]
    starts = [2 * i for i in range(agents)]
    lags = [1 + i % 3 for i in range(agents)]
    rng.shuffle(starts)
    rng.shuffle(lags)
    acts = [f"act{i}" for i in range(2 * agents)]
    rng.shuffle(acts)

    lines = [f"; modal KB family: seed {seed}, {agents} agents, horizon {horizon}, chain {CHAIN}"]
    lines += [f"(declare-agent {a})" for a in ags]
    lines += [f"(declare-predicate p{j} ())" for j in range(CHAIN + 1)]
    lines += ["(declare-predicate fact ())"]
    lines += [f"(declare-action-type {x} ())" for x in sorted(acts, key=lambda s: int(s[3:]))]
    lines.append(f"(horizon {horizon})")
    planted = []
    for i, a in enumerate(ags):
        t0 = starts[i]
        to = t0 + lags[i]
        ti = t0 + 1
        intent = f"(happens (action {a} ({acts[2 * i]})) {ti + 1})"
        duty = f"(happens (action {a} ({acts[2 * i + 1]})) {to + 1})"
        lines.append(f"(assert (believes {a} {t0} (p0)))")
        lines += [f"(assert (believes {a} {t0} (implies (p{j}) (p{j + 1}))))"
                  for j in range(CHAIN)]
        lines.append(f"(assert (knows {a} {t0 + 2} (fact)))")
        lines.append(f"(assert (intends {a} {ti} {intent}))")
        ought = f"(ought {a} {to} (p{CHAIN}) {duty})"
        lines.append(f"(assert (believes {a} {to} {ought}))")
        lines.append(f"(assert {ought})")
        planted.append(f"(knows {a} {to} (intends {a} {to} {duty}))")
    model = {"agents": ags, "planted": planted}
    return "\n".join(lines) + "\n", model
