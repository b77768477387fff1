"""Acceptance gate: one test per acceptance criterion.

Each test is listed in CRITERIA; a PASS/FAIL line per criterion is
printed in the pytest terminal summary (see conftest.py).
"""
import itertools
import math
import os
import random
import subprocess
import sys

from vz.ec import project
from vz.emotions import EmotionKind
from vz.generalize import HIGHER_ORDER, anti_unify, generalize_sets
from vz.inference import KnowledgeBase, entails0, saturate
from vz.learner import (Situation, TraitCriteria, apply_trait, detect_trait,
                        identify_exemplars, learn_trait)
from vz.printer import print_formula, print_term
from vz.scenario import parse_scenario
from vz.subst import apply_substitution, match
from vz.terms import (Atom, ForAll, Implies, Modal, ModalOp, Variable,
                      renaming_equal)
from vz.utility import mu_bar, nu_bar

from conftest import HONESTY, HUNGRY, JACK, JILL, JIM, LIKES, LOVES, TALKING_WITH

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")

CRITERIA = {
    "test_c1_marketplace_golden":
        "marketplace golden: learnt trait <holds(x,t), utter(x)>; "
        "applyTrait proposes utter(broken)",
    "test_c2_anti_unification_goldens":
        "anti-unification goldens (Examples 1-3 and the hungry pair)",
    "test_c3_lgg_property_suite":
        "lgg equals the brute-force lattice least element (exhaustive) "
        "+ 1000 random round-trip subsumptions",
    "test_c4_utility_identities":
        "utility identities mu = sum nu, mu-bar = sum nu-bar (500 random) "
        "+ independent double-sum oracle (100 scenarios)",
    "test_c5_event_calculus_oracle":
        "event-calculus projection agrees with brute-force inertia "
        "enumeration; invariants on 1000 random scenarios",
    "test_c6_emotion_definition_suite":
        "emotion definitions: mutual exclusion, theta gating, admiration "
        "invariance, independent-interpreter agreement",
    "test_c7_inference_suite":
        "inference: R_4/R_14 goldens, idempotence/monotonicity (200 KBs), "
        "exhaustive truth-table check of entails0",
    "test_c8_threshold_behavior":
        "thresholds: admission at the n-th admiration; gamma sweep "
        "{0.5, 0.8, 0.9, 1.0}",
    "test_c9_determinism":
        "run on the corpus twice produces byte-identical reports",
}


def _rng():
    return random.Random(20240817)


def test_c1_marketplace_golden():
    with open(os.path.join(CORPUS, "marketplace.vz"), encoding="utf-8") as fh:
        doc = parse_scenario(fh.read())
    situations = doc.observations
    trait = learn_trait(situations, [s.performed for s in situations])

    from vz.terms import HOLDS, Application, FunctionSymbol, Sort
    utter = doc.symbols.functions["utter"]
    x = Variable("x", Sort.FLUENT)
    t = Variable("t", Sort.MOMENT)
    expected_pattern = Atom(Application(HOLDS, (x, t)))
    (p,) = trait.pattern
    assert renaming_equal(p, expected_pattern)
    assert match(trait.action_pattern, utter(x)) is not None
    assert match(utter(x), trait.action_pattern) is not None

    broken = doc.symbols.functions["broken"]
    from vz.terms import moment
    fresh = Situation("fresh", 5, (Atom(Application(HOLDS, (broken(), moment(5)))),))
    observer = doc.symbols.constants["observer"]
    (ev,) = apply_trait(trait, fresh, observer)
    assert print_term(ev) == "(action observer (utter (broken)))"


def test_c2_anti_unification_goldens():
    g1 = generalize_sets([[Implies(Atom(TALKING_WITH(JACK)), Atom(HONESTY()))],
                          [Implies(Atom(TALKING_WITH(JILL)), Atom(HONESTY()))]])
    assert g1.total
    (closed,) = g1.closed_patterns()
    from vz.terms import Sort
    x = Variable("x", Sort.AGENT)
    expected = ForAll((x,), Implies(Atom(TALKING_WITH(x)), Atom(HONESTY())))
    assert renaming_equal(closed, expected)

    g2 = anti_unify([Atom(LIKES(JILL, JACK)), Atom(LIKES(JILL, JIM))])
    assert print_formula(g2.pattern) == "(likes jill ?X0)"

    g3 = anti_unify([Atom(LIKES(JILL, JACK)), Atom(LOVES(JILL, JIM))],
                    mode=HIGHER_ORDER)
    assert print_formula(g3.pattern) == "(?P0 jill ?X0)"

    g4 = anti_unify([Atom(HUNGRY(JACK)), Atom(HUNGRY(JILL))])
    assert print_formula(g4.pattern) == "(hungry ?X0)"


def test_c3_lgg_property_suite():
    from test_generalize import all_terms, common_generalizations, random_term
    terms = all_terms(4)
    assert len(terms) ** 2 >= 500
    for t1 in terms:
        for t2 in terms:
            g = anti_unify([t1, t2])
            assert match(g.pattern, t1) is not None
            assert match(g.pattern, t2) is not None
            for c in common_generalizations(t1, t2):
                assert match(c, g.pattern) is not None
    rng = _rng()
    for _ in range(1000):
        t1, t2 = random_term(rng, 4), random_term(rng, 4)
        g = anti_unify([t1, t2])
        s1, s2 = g.substitutions
        assert apply_substitution(s1, g.pattern) == t1
        assert apply_substitution(s2, g.pattern) == t2


def test_c4_utility_identities():
    from test_utility import random_world
    from vz.utility import mu, nu
    rng = _rng()
    for _ in range(500):
        doc, agents, table = random_world(rng)
        tl = project(doc)
        for f in doc.fluents:
            for t in range(doc.horizon + 1):
                assert math.isclose(mu(f, t, table, agents),
                                    sum(nu(table, a, f, t) for a in agents),
                                    abs_tol=1e-9)
        for e, t in doc.happens:
            assert math.isclose(
                mu_bar(e, t, tl, table, agents, doc.horizon),
                sum(nu_bar(a, e, t, tl, table, doc.horizon) for a in agents),
                abs_tol=1e-9)
    from vz.utility import NuTable
    for _ in range(100):
        doc, agents, table = random_world(rng)
        # dyadic-rational values keep every partial sum exact, so the
        # independently ordered oracle sum must match bit for bit
        table = NuTable.of({k: rng.randint(-48, 48) / 16.0
                            for k, _ in table.entries})
        tl = project(doc)
        for e, t in doc.happens:
            occ = tl.occurrence(e, t)
            expected = 0.0
            for y in range(t + 1, doc.horizon + 1):
                for f in occ.initiated:
                    expected += sum(table.get(a, f, y) for a in agents)
                for f in occ.terminated:
                    expected -= sum(table.get(a, f, y) for a in agents)
            assert mu_bar(e, t, tl, table, agents, doc.horizon) == expected


def test_c5_event_calculus_oracle():
    from test_ec import (test_exhaustive_small_family_matches_oracle,
                         test_random_scenarios_match_oracle_and_invariants)
    test_exhaustive_small_family_matches_oracle()
    test_random_scenarios_match_oracle_and_invariants(_rng())


def test_c6_emotion_definition_suite():
    from test_emotions import (TestAdmiration, TestSweep,
                               test_eval_matches_reference_interpreter)
    sweep = TestSweep()
    sweep.test_mutual_exclusion_and_determinism()
    sweep.test_theta_never_empty()
    sweep.test_theta_gating_removes_only_that_agent()
    TestAdmiration().test_invariant_under_nu_redistribution(_rng())
    test_eval_matches_reference_interpreter(_rng())


def test_c7_inference_suite():
    from test_inference import (TestSaturate,
                                test_entails0_matches_truth_tables_exhaustively,
                                test_saturate_monotone_and_idempotent)
    sat = TestSaturate()
    sat.test_r4_knowledge_implies_truth()
    sat.test_r14_obligation_to_known_intention()
    test_saturate_monotone_and_idempotent(_rng())
    test_entails0_matches_truth_tables_exhaustively()


def test_c8_threshold_behavior():
    from test_learner import OBSERVER, SELLER, TestDetectTrait, adm
    recs = [adm(OBSERVER, SELLER, i, i + 1) for i in range(5)]
    for n in range(1, 7):
        out = identify_exemplars(recs, OBSERVER,
                                 TraitCriteria(exemplar_threshold=n))
        (r,) = out
        if n <= 5:
            assert r.admitted_at == n  # hold time of the n-th admiration
        else:
            assert r.admitted_at is None
    TestDetectTrait().test_gamma_sweep_flips_at_threshold()


def test_c9_determinism(tmp_path):
    for name in sorted(os.listdir(CORPUS)):
        if not name.endswith(".vz"):
            continue
        path = os.path.join(CORPUS, name)
        outs = []
        for _ in range(2):
            proc = subprocess.run([sys.executable, "-m", "vz.cli", "run", path],
                                  capture_output=True)
            outs.append((proc.returncode, proc.stdout))
        assert outs[0] == outs[1]
        assert outs[0][0] == 0
