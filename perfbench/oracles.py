"""Independent output checks for the benchmark workloads.

Each oracle recomputes what the report must contain from the model that
the generator in `gen.py` planted, using none of vz's code, and returns
a list of problems (empty when the report is right).
"""
from __future__ import annotations

import json
import re

_ADMIRATION = re.compile(r"^\(admiration-for (\S+) (\S+) (\(action \S+ \(\S+\)\)) (\d+) (\d+)\)$")
_PROPOSAL = re.compile(r"^\(proposal (\S+) \(happens (.*) (\d+)\)\)$")


def _lines(report: bytes) -> list[str]:
    return report.decode("utf-8").splitlines()


def _balanced(text: str, start: int) -> str:
    """The parenthesised expression that opens at text[start]."""
    depth = 0
    for i in range(start, len(text)):
        depth += {"(": 1, ")": -1}.get(text[i], 0)
        if depth == 0:
            return text[start:i + 1]
    return text[start:]


def _mu(model, fluent: str, y: int) -> float:
    return sum(model["nu"].get((a, fluent, y), 0.0) for a in model["agents"])


def _theta_open(model, agent: str, t: int) -> bool:
    mode = model["theta"].get(agent, "never")
    return mode == "always" or (mode != "never" and t in mode)


def _effects(model, action: str):
    return model["initiates"].get(action, []), model["terminates"].get(action, [])


def expected_admiration(model) -> set:
    """Admiration-for records recounted from the generated ν and Θ: a
    admires actor b's occurrence at t, held at t2, iff μ̄ > 0, no initiated
    fluent has negative μ at any moment, Θ(a, t2) is open and a ≠ b."""
    horizon = model["horizon"]
    out = set()
    for actor, action, t in model["occurrences"]:
        init, term = _effects(model, action)
        total = sum(_mu(model, f, y) for y in range(t + 1, horizon + 1) for f in init) \
            - sum(_mu(model, f, y) for y in range(t + 1, horizon + 1) for f in term)
        if total <= 0:
            continue
        if any(_mu(model, f, y) < 0 for f in init for y in range(horizon + 1)):
            continue
        event = f"(action {actor} ({action}))"
        for a in model["agents"]:
            if a == actor:
                continue
            out |= {(a, actor, event, t, t2) for t2 in range(horizon + 1)
                    if _theta_open(model, a, t2)}
    return out


def check_sweep(report: bytes, model) -> list[str]:
    seen = set()
    for line in _lines(report):
        m = _ADMIRATION.match(line)
        if m:
            a, b, ev, t, t2 = m.groups()
            seen.add((a, b, ev, int(t), int(t2)))
    want = expected_admiration(model)
    problems = []
    if not want:
        problems.append("the generated scenario plants no admiration")
    if seen != want:
        problems.append(f"admiration-for records: {len(want - seen)} missing, "
                        f"{len(seen - want)} unexpected")
    return problems


def expected_holds(model) -> set:
    """Forward-simulation inertia oracle: step the state forward; the
    effects of an occurrence at t show from t+1 on."""
    by_time: dict[int, tuple[set, set]] = {}
    for _, action, t in model["occurrences"]:
        init, term = _effects(model, action)
        rise, fall = by_time.setdefault(t, (set(), set()))
        rise |= set(init)
        if t > 0:
            fall |= set(term)
    holds = set()
    state = set(model["initially"])
    for t in range(model["horizon"] + 1):
        holds |= {(f, t) for f in state}
        rise, fall = by_time.get(t, (set(), set()))
        state = (state - fall) | rise
    return holds


def check_project(report: bytes, model) -> list[str]:
    holds, occurrences, problems = [], [], []
    for line in _lines(report):
        rec = json.loads(line)
        if rec["type"] == "holds":
            holds.append((rec["fluent"].strip("()"), rec["time"]))
        elif rec["type"] == "occurrence":
            occurrences.append((rec["event"], rec["time"],
                                tuple(rec["initiated"]), tuple(rec["terminated"])))
    want_occ = []
    for actor, action, t in model["occurrences"]:
        init, term = _effects(model, action)
        want_occ.append((f"(action {actor} ({action}))", t,
                         tuple(sorted(f"({f})" for f in init)),
                         tuple(sorted(f"({f})" for f in term))))
    if sorted(occurrences) != sorted(want_occ):
        problems.append("occurrence records differ from the generated effects")
    want = expected_holds(model)
    if len(holds) != len(set(holds)) or set(holds) != want:
        problems.append(f"holds records: {len(want - set(holds))} missing, "
                        f"{len(set(holds) - want)} unexpected, "
                        f"{len(holds) - len(set(holds))} repeated")
    return problems


def check_learn(report: bytes, model) -> list[str]:
    problems, traits, proposals = [], [], set()
    for line in _lines(report):
        if line.startswith("(trait (pattern ") and " (action " in line:
            cut = line.index(" (action ")
            traits.append((line[len("(trait (pattern "):cut],
                           _balanced(line, cut + len(" (action "))))
        m = _PROPOSAL.match(line)
        if m:
            proposals.add((m.group(1), m.group(2), int(m.group(3))))
    anchored = False
    for pattern, action in traits:
        m = re.fullmatch(r"\(utter (\?\S+)\)", action)
        if m and f"(ok {m.group(1)})" in pattern:
            anchored = True
    if not anchored:
        problems.append("no learnt trait utters the fluent its (ok ?X) anchor names")
    learner = model["learner"]
    want = {(q, f"(action {learner} (utter ({ok})))", t)
            for q, t, ok in model["queries"] if ok is not None}
    if proposals != want:
        problems.append(f"proposals: {len(want - proposals)} missing, "
                        f"{len(proposals - want)} unexpected")
    return problems


def check_infer(report: bytes, model) -> list[str]:
    out = set(_lines(report))
    missing = [f for f in model["planted"] if f not in out]
    return [f"planted R_14 conclusion not derived: {f}" for f in missing]
