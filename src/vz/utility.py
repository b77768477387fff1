"""Agent-specific and agent-neutral utilities and their event totals.

ν is a plain dict from (agent, fluent, moment) to a real, as the reader
files it in ScenarioDoc.nu; an absent key reads 0.
"""
from __future__ import annotations

from .ec import Occurrence
from .terms import Constant, Term


def mu(fluent: Term, t: int, table: dict, agents) -> float:
    """Agent-neutral utility: the sum of nu over all declared agents."""
    return sum(table.get((a, fluent, t), 0.0) for a in agents)


def nu_bar(agent: Constant, occ: Occurrence, table: dict, horizon: int) -> float:
    """Total utility for one agent of an event occurrence: future nu of
    initiated fluents minus future nu of terminated fluents, up to H."""
    total = 0.0
    for y in range(occ.time + 1, horizon + 1):
        total += sum(table.get((agent, f, y), 0.0) for f in occ.initiated)
        total -= sum(table.get((agent, f, y), 0.0) for f in occ.terminated)
    return total


def mu_bar(occ: Occurrence, table: dict, agents, horizon: int) -> float:
    """Total agent-neutral utility of an event occurrence; the same
    double sum as nu_bar but over mu."""
    total = 0.0
    for y in range(occ.time + 1, horizon + 1):
        total += sum(mu(f, y, table, agents) for f in occ.initiated)
        total -= sum(mu(f, y, table, agents) for f in occ.terminated)
    return total
