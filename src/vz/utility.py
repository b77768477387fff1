"""Agent-specific and agent-neutral utilities and their event totals."""
from __future__ import annotations

from .ec import Timeline
from .errors import SortMismatch
from .printer import print_term
from .terms import Constant, Record, Term


class NuTable(Record, entries=()):
    """Finite map (agent, fluent, moment) -> real; absent keys read 0."""
    __slots__ = ("entries", "_index")

    def __post_init__(self):
        for (_, _, _), v in self.entries:
            if v != v or v in (float("inf"), float("-inf")):
                raise SortMismatch(f"nu value must be finite, got {v}")
        object.__setattr__(self, "_index", dict(self.entries))

    @classmethod
    def of(cls, mapping: dict) -> "NuTable":
        items = sorted(mapping.items(),
                       key=lambda kv: (kv[0][0].name, print_term(kv[0][1]), kv[0][2]))
        return cls(tuple(items))

    @classmethod
    def from_doc(cls, doc) -> "NuTable":
        m = {}
        for f in doc.nu_facts:
            m[(f.agent, f.fluent, f.time)] = m.get((f.agent, f.fluent, f.time), 0.0) + f.value
        return cls.of(m)

    def get(self, agent: Constant, fluent: Term, t: int) -> float:
        return self._index.get((agent, fluent, t), 0.0)


def mu(fluent: Term, t: int, table: NuTable, agents) -> float:
    """Agent-neutral utility: the sum of nu over all declared agents."""
    return sum(table.get(a, fluent, t) for a in agents)


def nu_bar(agent: Constant, event: Term, t: int, timeline: Timeline,
           table: NuTable, horizon: int) -> float:
    """Total utility for one agent of an event occurrence: future nu of
    initiated fluents minus future nu of terminated fluents, up to H."""
    occ = timeline.occurrence(event, t)
    total = 0.0
    for y in range(t + 1, horizon + 1):
        total += sum(table.get(agent, f, y) for f in occ.initiated)
        total -= sum(table.get(agent, f, y) for f in occ.terminated)
    return total


def mu_bar(event: Term, t: int, timeline: Timeline, table: NuTable,
           agents, horizon: int) -> float:
    """Total agent-neutral utility of an event occurrence; the same
    double sum as nu_bar but over mu."""
    occ = timeline.occurrence(event, t)
    total = 0.0
    for y in range(t + 1, horizon + 1):
        total += sum(mu(f, y, table, agents) for f in occ.initiated)
        total -= sum(mu(f, y, table, agents) for f in occ.terminated)
    return total
