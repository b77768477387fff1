import math

import pytest

from vz.ec import project
from vz.errors import UnknownOccurrence
from vz.scenario import parse_scenario
from vz.utility import mu, mu_bar, nu_bar

from conftest import add_effects, make_doc


def two_agent_world():
    """One fluent, one initiating event at t=1, horizon 4, two agents."""
    doc = make_doc(1, 1, horizon=4)
    f, e = doc.fluents[0], doc.events[0]
    add_effects(doc, e, initiated=[f])
    doc.happens[e, 1] = None
    a0 = doc.symbols.constants["ag0"]
    a1 = doc.symbols.constants["ag1"]
    return doc, f, e, a0, a1


class TestPointUtilities:
    def test_nu_lookup_and_default(self):
        # the reader's ν holds the stated entries only; mu and the totals
        # read an absent one as 0
        doc = parse_scenario("(declare-agent jack)\n(declare-agent jill)\n"
                             "(declare-fluent lit ())\n(nu jack (lit) 2 1.5)\n")
        jack, jill = doc.symbols.agents
        lit = doc.symbols.functions["lit"]()
        assert doc.nu == {(jack, lit, 2): 1.5}
        assert mu(lit, 2, doc.nu, [jack, jill]) == 1.5
        assert mu(lit, 3, doc.nu, [jack, jill]) == 0.0

    def test_mu_sums_over_agents(self):
        doc, f, e, a0, a1 = two_agent_world()
        table = {(a0, f, 2): 1.0, (a1, f, 2): -0.25}
        assert mu(f, 2, table, [a0, a1]) == 0.75

    def test_duplicate_nu_facts_are_summed(self):
        # each (nu a f t v) fact adds v, so stating one twice reads 2v
        doc = parse_scenario("(declare-agent jack)\n(declare-fluent lit ())\n"
                             "(nu jack (lit) 2 1.5)\n(nu jack (lit) 2 1.5)\n")
        jack = doc.symbols.constants["jack"]
        lit = doc.symbols.functions["lit"]()
        assert doc.nu == {(jack, lit, 2): 3.0}


class TestEventTotals:
    def test_nu_bar_sums_future_initiated(self):
        doc, f, e, a0, _ = two_agent_world()
        tl = project(doc)
        table = {(a0, f, t): 1.0 for t in range(5)}
        # y ranges over 2..4; the entry at the event's own moment is excluded
        assert nu_bar(a0, tl.occurrence(e, 1), table, 4) == 3.0

    def test_nu_bar_subtracts_terminated(self):
        doc = make_doc(1, 1, horizon=3)
        f, e = doc.fluents[0], doc.events[0]
        add_effects(doc, e, terminated=[f])
        doc.happens[e, 0] = None
        a0 = doc.symbols.constants["ag0"]
        tl = project(doc)
        table = {(a0, f, t): 2.0 for t in range(4)}
        assert nu_bar(a0, tl.occurrence(e, 0), table, 3) == -6.0

    def test_mu_bar_example(self):
        doc, f, e, a0, a1 = two_agent_world()
        tl = project(doc)
        table = {(a0, f, 2): 1.0, (a1, f, 2): 1.0, (a0, f, 3): -0.5}
        assert mu_bar(tl.occurrence(e, 1), table, [a0, a1], 4) == 1.5

    def test_unknown_occurrence(self):
        doc, f, e, a0, _ = two_agent_world()
        tl = project(doc)
        with pytest.raises(UnknownOccurrence):
            tl.occurrence(e, 2)


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
    doc.happens[doc.events[0], 0] = None
    doc.happens[doc.events[1], rng.randint(0, doc.horizon)] = None
    agents = [doc.symbols.constants["ag0"],
              doc.symbols.constants["ag1"]]
    table = {
        (a, f, t): round(rng.uniform(-3, 3), 3)
        for a in agents for f in doc.fluents for t in range(doc.horizon + 1)
        if rng.random() < 0.7}
    return doc, agents, table


def test_mu_bar_is_sum_of_nu_bar(rng):
    """Linearity: mu_bar(e,t) == sum over agents of nu_bar(a,e,t)."""
    for _ in range(500):
        doc, agents, table = random_world(rng)
        tl = project(doc)
        for occ in tl.occurrences:
            total = sum(nu_bar(a, occ, table, doc.horizon) for a in agents)
            assert math.isclose(mu_bar(occ, table, agents, doc.horizon),
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
                    expected += sum(table.get((a, f, y), 0.0)
                                    for f in sorted(occ.initiated, key=str))
                    expected -= sum(table.get((a, f, y), 0.0)
                                    for f in sorted(occ.terminated, key=str))
                assert math.isclose(nu_bar(a, occ, table, doc.horizon),
                                    expected, abs_tol=1e-9)
            expected_mu = 0.0
            for y in range(t + 1, doc.horizon + 1):
                for f in occ.initiated:
                    expected_mu += sum(table.get((a, f, y), 0.0) for a in agents)
                for f in occ.terminated:
                    expected_mu -= sum(table.get((a, f, y), 0.0) for a in agents)
            assert math.isclose(mu_bar(occ, table, agents, doc.horizon),
                                expected_mu, abs_tol=1e-9)
