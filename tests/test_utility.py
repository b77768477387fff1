import math

import pytest

from vz.ec import project
from vz.errors import SortMismatch, UnknownOccurrence
from vz.scenario import HappensFact, parse_scenario
from vz.utility import NuTable, mu, mu_bar, nu, nu_bar

from conftest import add_effects, make_doc


def two_agent_world():
    """One fluent, one initiating event at t=1, horizon 4, two agents."""
    doc = make_doc(1, 1, horizon=4)
    f, e = doc.fluents[0], doc.events[0]
    add_effects(doc, e, initiated=[f])
    doc.facts.append(HappensFact(e, 1))
    a0 = doc.symbols.constants["ag0"]
    a1 = doc.symbols.constants["ag1"]
    return doc, f, e, a0, a1


class TestPointUtilities:
    def test_nu_lookup_and_default(self):
        doc, f, e, a0, a1 = two_agent_world()
        table = NuTable.of({(a0, f, 2): 1.5})
        assert nu(table, a0, f, 2) == 1.5
        assert nu(table, a0, f, 3) == 0.0
        assert nu(table, a1, f, 2) == 0.0

    def test_mu_sums_over_agents(self):
        doc, f, e, a0, a1 = two_agent_world()
        table = NuTable.of({(a0, f, 2): 1.0, (a1, f, 2): -0.25})
        assert mu(f, 2, table, [a0, a1]) == 0.75

    def test_non_finite_rejected(self):
        doc, f, e, a0, _ = two_agent_world()
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(SortMismatch):
                NuTable.of({(a0, f, 1): bad})

    def test_duplicate_nu_facts_are_summed(self):
        # each (nu a f t v) fact adds v, so stating one twice reads 2v
        doc = parse_scenario("(declare-agent jack)\n(declare-fluent lit ())\n"
                             "(nu jack (lit) 2 1.5)\n(nu jack (lit) 2 1.5)\n")
        jack = doc.symbols.constants["jack"]
        lit = doc.nu_facts[0].fluent
        assert nu(NuTable.from_doc(doc), jack, lit, 2) == 3.0


class TestEventTotals:
    def test_nu_bar_sums_future_initiated(self):
        doc, f, e, a0, _ = two_agent_world()
        tl = project(doc)
        table = NuTable.of({(a0, f, t): 1.0 for t in range(5)})
        # y ranges over 2..4; the entry at the event's own moment is excluded
        assert nu_bar(a0, e, 1, tl, table, 4) == 3.0

    def test_nu_bar_subtracts_terminated(self):
        doc = make_doc(1, 1, horizon=3)
        f, e = doc.fluents[0], doc.events[0]
        add_effects(doc, e, terminated=[f])
        doc.facts.append(HappensFact(e, 0))
        a0 = doc.symbols.constants["ag0"]
        tl = project(doc)
        table = NuTable.of({(a0, f, t): 2.0 for t in range(4)})
        assert nu_bar(a0, e, 0, tl, table, 3) == -6.0

    def test_mu_bar_example(self):
        doc, f, e, a0, a1 = two_agent_world()
        tl = project(doc)
        table = NuTable.of({(a0, f, 2): 1.0, (a1, f, 2): 1.0,
                            (a0, f, 3): -0.5})
        assert mu_bar(e, 1, tl, table, [a0, a1], 4) == 1.5

    def test_unknown_occurrence(self):
        doc, f, e, a0, _ = two_agent_world()
        tl = project(doc)
        with pytest.raises(UnknownOccurrence):
            nu_bar(a0, e, 2, tl, NuTable(), 4)


def random_world(rng):
    """A random conflict-free two-event scenario plus a sparse nu table."""
    from vz.errors import ConflictingEffects
    while True:
        doc, agents, table = _random_world_once(rng)
        try:
            project(doc)
        except ConflictingEffects:
            continue
        return doc, agents, table


def _random_world_once(rng):
    nf = rng.randint(1, 3)
    doc = make_doc(nf, 2, horizon=rng.randint(1, 5))
    for e in doc.events:
        pool = list(doc.fluents)
        rng.shuffle(pool)
        k = rng.randint(0, len(pool))
        add_effects(doc, e, pool[:k // 2], pool[k // 2:k])
    doc.facts.append(HappensFact(doc.events[0], 0))
    doc.facts.append(HappensFact(doc.events[1], rng.randint(0, doc.horizon)))
    agents = [doc.symbols.constants["ag0"],
              doc.symbols.constants["ag1"]]
    table = NuTable.of({
        (a, f, t): round(rng.uniform(-3, 3), 3)
        for a in agents for f in doc.fluents for t in range(doc.horizon + 1)
        if rng.random() < 0.7})
    return doc, agents, table


def test_mu_bar_is_sum_of_nu_bar(rng):
    """Linearity: mu_bar(e,t) == sum over agents of nu_bar(a,e,t)."""
    for _ in range(500):
        doc, agents, table = random_world(rng)
        tl = project(doc)
        for e, t in doc.happens:
            total = sum(nu_bar(a, e, t, tl, table, doc.horizon) for a in agents)
            assert math.isclose(mu_bar(e, t, tl, table, agents, doc.horizon),
                                total, rel_tol=0, abs_tol=1e-9)


def test_event_totals_match_double_sum_oracle(rng):
    """Independent oracle: expand the defining double sums directly from
    the occurrence's effect sets and the raw table."""
    for _ in range(100):
        doc, agents, table = random_world(rng)
        tl = project(doc)
        for e, t in doc.happens:
            occ = tl.occurrence(e, t)
            for a in agents:
                expected = 0.0
                for y in range(t + 1, doc.horizon + 1):
                    expected += sum(table.get(a, f, y) for f in sorted(occ.initiated, key=str))
                    expected -= sum(table.get(a, f, y) for f in sorted(occ.terminated, key=str))
                assert math.isclose(nu_bar(a, e, t, tl, table, doc.horizon),
                                    expected, abs_tol=1e-9)
            expected_mu = 0.0
            for y in range(t + 1, doc.horizon + 1):
                for f in occ.initiated:
                    expected_mu += sum(table.get(a, f, y) for a in agents)
                for f in occ.terminated:
                    expected_mu -= sum(table.get(a, f, y) for a in agents)
            assert math.isclose(mu_bar(e, t, tl, table, agents, doc.horizon),
                                expected_mu, abs_tol=1e-9)
