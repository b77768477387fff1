"""Agent-specific and agent-neutral utilities and their event totals.

ν is a plain dict from (agent, fluent, moment) to a real, as the reader
files it in ScenarioDoc.nu; an absent key reads 0. Its moment index maps
(agent, fluent) to the moments that have an entry, so the totals visit
only those moments: an absent entry adds 0, which changes no total.
"""
from __future__ import annotations

from .ec import Occurrence
from .terms import Constant, Term


def moment_index(table: dict) -> dict:
    """(agent, fluent) -> the ascending moments at which ``table`` has an
    entry for them; build it once per table."""
    index: dict = {}
    for a, f, t in table:
        index.setdefault((a, f), []).append(t)
    for moments in index.values():
        moments.sort()
    return index


def entry_moments(index: dict, owners, fluents, after: int, horizon: int) -> list:
    """The moments in (after, horizon] at which some owner has an entry for
    one of the fluents, ascending."""
    return sorted({y for a in owners for f in fluents for y in index.get((a, f), ())
                   if after < y <= horizon})


def mu(fluent: Term, t: int, table: dict, agents) -> float:
    """Agent-neutral utility: the sum of nu over all declared agents."""
    return sum(table.get((a, fluent, t), 0.0) for a in agents)


def nu_bar(agent: Constant, occ: Occurrence, table: dict, horizon: int, index: dict) -> float:
    """Total utility for one agent of an event occurrence: its μ̄ over that
    agent alone."""
    return mu_bar(occ, table, (agent,), horizon, index)


def mu_bar(occ: Occurrence, table: dict, agents, horizon: int, index: dict) -> float:
    """Total agent-neutral utility of an event occurrence: future mu of
    initiated fluents minus future mu of terminated fluents, up to H,
    summed moment by moment. ``index`` is table's moment_index."""
    total = 0.0
    for y in entry_moments(index, agents, occ.initiated + occ.terminated, occ.time, horizon):
        total += sum(mu(f, y, table, agents) for f in occ.initiated)
        total -= sum(mu(f, y, table, agents) for f in occ.terminated)
    return total
