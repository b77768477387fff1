import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vz.ec import Occurrence, Timeline, project
from vz.emotions import World, _appraised
from vz.errors import UnknownOccurrence
from vz.scenario import parse_scenario
from vz.terms import Constant, Sort
from vz.utility import moment_index, mu, mu_bar, nu_bar

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


# ---------------------------------------------------------------------------
# The totals visit only the moments with a ν entry. Against the defining
# per-moment double sums over every moment, on the values that make float
# addition order show: signed zeros, infinities, nan, overflow, the
# smallest subnormal. Compared by repr, since no report shows NaN's sign
# bit (repr prints nan; --json renders a non-finite total as null).

UTILITY_AGENTS = tuple(Constant(f"ag{i}", Sort.AGENT) for i in range(3))
UTILITY_FLUENTS = tuple(Constant(f"fl{i}", Sort.FLUENT) for i in range(4))
UTILITY_VALUES = (st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308,
                                   5e-324, -5e-324, 0.1, 0.2, -0.3])
                  | st.floats(-3, 3))


@st.composite
def utility_cases(draw):
    """An occurrence with disjoint initiated and terminated fluents, the
    declared agents, a horizon, and a ν table whose entries may name an
    undeclared agent, a fluent of no effect, or a moment past the horizon."""
    horizon = draw(st.integers(0, 6))
    agents = UTILITY_AGENTS[:draw(st.integers(1, 3))]
    fluents = draw(st.permutations(UTILITY_FLUENTS))
    k = draw(st.integers(0, 4))
    split = draw(st.integers(0, k))
    occ = Occurrence(Constant("e0", Sort.EVENT), draw(st.integers(0, horizon)),
                     tuple(fluents[:split]), tuple(fluents[split:k]))
    keys = st.tuples(st.sampled_from(UTILITY_AGENTS), st.sampled_from(UTILITY_FLUENTS),
                     st.integers(0, horizon + 2))
    return occ, draw(st.dictionaries(keys, UTILITY_VALUES, max_size=16)), agents, horizon


def double_sum_nu_bar(agent, occ, table, horizon):
    """ν̄ as defined: at each moment in (t, H], the initiated fluents' ν
    less the terminated ones'."""
    total = 0.0
    for y in range(occ.time + 1, horizon + 1):
        total += sum(table.get((agent, f, y), 0.0) for f in occ.initiated)
        total -= sum(table.get((agent, f, y), 0.0) for f in occ.terminated)
    return total


def double_sum_mu_bar(occ, table, agents, horizon):
    """μ̄ as defined: the same double sum over μ."""
    total = 0.0
    for y in range(occ.time + 1, horizon + 1):
        total += sum(mu(f, y, table, agents) for f in occ.initiated)
        total -= sum(mu(f, y, table, agents) for f in occ.terminated)
    return total


def scanned_appraisal(total, occ, table, owners, horizon):
    """The total's sign, or 0 when an initiated fluent's μ over the owners
    has the opposite sign at some moment in [0, H]."""
    sign = (total > 0) - (total < 0)
    opposite = any(sign * mu(f, y, table, owners) < 0
                   for f in occ.initiated for y in range(horizon + 1))
    return 0 if sign and opposite else sign


@settings(max_examples=600, deadline=None)
@given(utility_cases())
def test_indexed_totals_match_the_per_moment_double_sums(case):
    occ, table, agents, horizon = case
    index = moment_index(table)
    world = World(Timeline(horizon, frozenset(), (occ,)), table, {}, agents, horizon)
    for a in agents:
        expected = double_sum_nu_bar(a, occ, table, horizon)
        assert repr(nu_bar(a, occ, table, horizon, index)) == repr(expected)
        assert repr(nu_bar(a, occ, table, horizon)) == repr(expected)
        assert _appraised(world, occ, a) == scanned_appraisal(expected, occ, table, (a,), horizon)
    expected = double_sum_mu_bar(occ, table, agents, horizon)
    assert repr(mu_bar(occ, table, agents, horizon, index)) == repr(expected)
    assert repr(mu_bar(occ, table, agents, horizon)) == repr(expected)
    assert _appraised(world, occ, None) == scanned_appraisal(expected, occ, table, agents, horizon)


def test_moment_index_lists_each_pair_s_moments_ascending():
    a, f, g = UTILITY_AGENTS[0], UTILITY_FLUENTS[0], UTILITY_FLUENTS[1]
    table = {(a, f, 5): 1.0, (a, g, 2): 0.0, (a, f, 0): -1.0, (a, f, 3): math.nan}
    assert moment_index(table) == {(a, f): [0, 3, 5], (a, g): [2]}
