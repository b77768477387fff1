import itertools
import os
import sys

import pytest

from vz.errors import Incompatible, NoAlignment
from vz.generalize import (FIRST_ORDER, HIGHER_ORDER, Generalization,
                           SetGeneralization, VarNamer, _Fold,
                           _structure_key, anti_unify, generalize_sets)
from vz.printer import print_formula, print_term
from vz.scenario import parse_scenario
from vz.subst import apply_substitution, match
from vz.terms import (ACTION, HAPPENS, HOLDS, TERMS, And, Application, Atom,
                      Constant, Exists, ForAll, FunctionSymbol, Implies, Modal,
                      ModalOp, Not, Or, Sort, SymbolVariable, Variable,
                      children, free_variables, moment, rebuild, sort_of)

from conftest import (A, B, F2, G1, HONESTY, HUNGRY, JACK, JILL, JIM, LIKES,
                      LOVES, TALKING_WITH)

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))
import run as perfbench  # noqa: E402  (the benchmark's workload generators)


def canon_term(t, mapping=None):
    """Rename variables and symbol variables by first occurrence so that
    patterns can be compared up to renaming."""
    if mapping is None:
        mapping = {}
    if isinstance(t, Variable):
        if t not in mapping:
            mapping[t] = Variable(f"c{len(mapping)}", t.sort)
        return mapping[t]
    if isinstance(t, Application):
        sym = t.symbol
        if isinstance(sym, SymbolVariable):
            if sym not in mapping:
                mapping[sym] = SymbolVariable(f"s{len(mapping)}",
                                              sym.arg_sorts, sym.result_sort)
            sym = mapping[sym]
        return Application(sym, tuple(canon_term(a, mapping) for a in t.args))
    return t


class TestAntiUnifyGoldens:
    def test_example_first_order(self):
        g = anti_unify([Atom(LIKES(JILL, JACK)), Atom(LIKES(JILL, JIM))])
        assert print_formula(g.pattern) == "(likes jill ?X0)"
        for inp, s in zip([Atom(LIKES(JILL, JACK)), Atom(LIKES(JILL, JIM))],
                          g.substitutions):
            assert apply_substitution(s, g.pattern) == inp

    def test_example_higher_order(self):
        g = anti_unify([Atom(LIKES(JILL, JACK)), Atom(LOVES(JILL, JIM))],
                       mode=HIGHER_ORDER)
        assert print_formula(g.pattern) == "(?P0 jill ?X0)"
        for inp, s in zip([Atom(LIKES(JILL, JACK)), Atom(LOVES(JILL, JIM))],
                          g.substitutions):
            assert apply_substitution(s, g.pattern) == inp

    def test_higher_order_needs_matching_signature(self):
        with pytest.raises(Incompatible):
            anti_unify([Atom(LIKES(JILL, JACK)), Atom(HUNGRY(JILL))],
                       mode=HIGHER_ORDER)

    def test_identical_inputs(self):
        t = F2(G1(A), B)
        g = anti_unify([t, t])
        assert g.pattern == t
        assert all(not s for s in g.substitutions)

    def test_hungry_example(self):
        g = anti_unify([Atom(HUNGRY(JACK)), Atom(HUNGRY(JILL))])
        assert print_formula(g.pattern) == "(hungry ?X0)"

    def test_repeated_disagreement_shares_variable(self):
        g = anti_unify([F2(A, A), F2(B, B)])
        assert print_term(g.pattern) == "(f ?X0 ?X0)"

    def test_distinct_disagreements_get_distinct_variables(self):
        g = anti_unify([F2(A, A), F2(B, A)])
        assert print_term(g.pattern) == "(f ?X0 a)"
        g = anti_unify([F2(A, B), F2(B, A)])
        assert print_term(g.pattern) == "(f ?X0 ?X1)"

    def test_introduced_variables_avoid_the_inputs_names(self):
        # a free ?X0 of the inputs, and a binder X0 that would capture ?X0
        t = Variable("X0", Sort.MOMENT)
        g = anti_unify([Atom(HOLDS(A, t)), Atom(HOLDS(B, t))])
        assert print_formula(g.pattern) == "(holds ?X1 ?X0)"
        x0 = Variable("X0", Sort.AGENT)
        g = anti_unify([ForAll((x0,), Atom(LIKES(x0, JACK))), ForAll((x0,), Atom(LIKES(x0, JILL)))])
        assert print_formula(g.pattern) == "(forall ((X0 agent)) (likes X0 ?X1))"
        p0 = Variable("P0", Sort.AGENT)
        g = anti_unify([Atom(LIKES(p0, JACK)), Atom(LOVES(p0, JILL))], mode=HIGHER_ORDER)
        assert print_formula(g.pattern) == "(?P1 ?P0 ?X0)"

    def test_first_order_symbol_clash_becomes_variable(self):
        g = anti_unify([G1(A), F2(A, B)])
        assert isinstance(g.pattern, Variable)

    def test_empty_input_rejected(self):
        with pytest.raises(Incompatible):
            anti_unify([])


# ---------------------------------------------------------------------------
# Brute-force lattice oracle for first-order term pairs.


def all_terms(max_size):
    """Every ground term over {f/2, g/1, a, b} with at most max_size
    symbol occurrences."""
    by_size = {1: [A, B]}
    for n in range(2, max_size + 1):
        out = [G1(t) for t in by_size[n - 1]]
        for i in range(1, n - 1):
            for l in by_size[i]:
                for r in by_size[n - 1 - i]:
                    out.append(F2(l, r))
        by_size[n] = out
    return [t for n in by_size for t in by_size[n]]


def common_generalizations(t1, t2):
    """All reduced common generalizations of a ground pair, variables
    keyed canonically by the witnessing subterm pair."""
    out = [Variable(f"w_{print_term(t1)}_{print_term(t2)}", Sort.FLUENT)]
    if isinstance(t1, Application) and isinstance(t2, Application) \
            and t1.symbol == t2.symbol:
        arg_options = [common_generalizations(x, y)
                       for x, y in zip(t1.args, t2.args)]
        for combo in itertools.product(*arg_options):
            out.append(Application(t1.symbol, combo))
    elif t1 == t2:
        out.append(t1)
    return out


def test_lgg_is_least_element_of_lattice_exhaustively():
    terms = all_terms(4)
    assert len(terms) ** 2 >= 500
    for t1 in terms:
        for t2 in terms:
            g = anti_unify([t1, t2])
            candidates = common_generalizations(t1, t2)
            # the pattern generalizes both inputs ...
            assert match(g.pattern, t1) is not None
            assert match(g.pattern, t2) is not None
            # ... and is subsumed by every common generalization
            for c in candidates:
                assert match(c, g.pattern) is not None, (
                    print_term(c), print_term(g.pattern))


def random_term(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([A, B])
    if rng.random() < 0.5:
        return G1(random_term(rng, depth - 1))
    return F2(random_term(rng, depth - 1), random_term(rng, depth - 1))


def test_round_trip_subsumption_random(rng):
    for _ in range(1000):
        t1 = random_term(rng, 4)
        t2 = random_term(rng, 4)
        g = anti_unify([t1, t2])
        s1, s2 = g.substitutions
        assert apply_substitution(s1, g.pattern) == t1
        assert apply_substitution(s2, g.pattern) == t2


def test_permutation_invariance(rng):
    for _ in range(300):
        t1 = random_term(rng, 3)
        t2 = random_term(rng, 3)
        g12 = anti_unify([t1, t2])
        g21 = anti_unify([t2, t1])
        assert canon_term(g12.pattern) == canon_term(g21.pattern)


def test_idempotence(rng):
    for _ in range(300):
        t1 = random_term(rng, 3)
        t2 = random_term(rng, 3)
        g = anti_unify([t1, t2])
        again = anti_unify([g.pattern, t1, t2])
        assert canon_term(again.pattern) == canon_term(g.pattern)


def test_three_way_anti_unification(rng):
    for _ in range(200):
        ts = [random_term(rng, 3) for _ in range(3)]
        g = anti_unify(ts)
        for t, s in zip(ts, g.substitutions):
            assert apply_substitution(s, g.pattern) == t


# ---------------------------------------------------------------------------
# Set-level generalization g.


def imp(agent):
    return Implies(Atom(TALKING_WITH(agent)), Atom(HONESTY()))


class TestGeneralizeSets:
    def test_example_one(self):
        g = generalize_sets([[imp(JACK)], [imp(JILL)]])
        assert g.total
        (closed,) = g.closed_patterns()
        assert print_formula(closed) == \
            "(forall ((X0 agent)) (implies (talkingWith X0) (Honesty)))"

    def test_identical_singletons(self):
        g = generalize_sets([[imp(JACK)], [imp(JACK)]])
        assert g.total and g.patterns == (imp(JACK),)
        assert all(not s for s in g.substitutions)

    def test_marketplace_holds_pair(self):
        from vz.terms import HOLDS, FunctionSymbol
        broken = FunctionSymbol("broken", (), Sort.FLUENT)
        unbroken = FunctionSymbol("unbroken", (), Sort.FLUENT)
        t = Variable("t", Sort.MOMENT)
        s1 = [Atom(Application(HOLDS, (broken(), t)))]
        s2 = [Atom(Application(HOLDS, (unbroken(), t)))]
        g = generalize_sets([s1, s2])
        assert g.total
        (p,) = g.patterns
        assert print_formula(p) == "(holds ?X0 ?t)"
        # the pre-existing free variable t stays free under closure
        (closed,) = g.closed_patterns()
        assert print_formula(closed) == "(forall ((X0 fluent)) (holds X0 ?t))"

    def test_substitutions_recover_inputs(self):
        g = generalize_sets([[imp(JACK), Atom(HUNGRY(JACK))],
                             [imp(JILL), Atom(HUNGRY(JILL))]])
        assert g.total
        for i, gamma in enumerate([[imp(JACK), Atom(HUNGRY(JACK))],
                                   [imp(JILL), Atom(HUNGRY(JILL))]]):
            instantiated = {print_formula(apply_substitution(g.substitutions[i], p))
                            for p in g.patterns}
            assert instantiated == {print_formula(f) for f in gamma}

    def test_partial_alignment_not_total(self):
        g = generalize_sets([[imp(JACK), Atom(HUNGRY(JACK))], [imp(JILL)]])
        assert not g.total
        assert len(g.patterns) == 1

    def test_no_alignment(self):
        with pytest.raises(NoAlignment):
            generalize_sets([[Atom(HUNGRY(JACK))], [Atom(HONESTY())]])
        with pytest.raises(NoAlignment):
            generalize_sets([[], [Atom(HONESTY())]])

    def test_higher_order_alignment_uses_signatures(self):
        g = generalize_sets([[Atom(LIKES(JILL, JACK))],
                             [Atom(LOVES(JILL, JIM))]], mode=HIGHER_ORDER)
        assert g.total
        (p,) = g.patterns
        assert print_formula(p) == "(?P0 jill ?X0)"

    def test_multi_candidate_alignment_minimizes_variables(self):
        # hungry(jack) should pair with hungry(jack), not hungry(jill)
        g = generalize_sets([[Atom(HUNGRY(JACK)), Atom(HUNGRY(JILL))],
                             [Atom(HUNGRY(JIM)), Atom(HUNGRY(JACK))]])
        assert g.total
        printed = sorted(print_formula(p) for p in g.patterns)
        assert "(hungry jack)" in printed


# ---------------------------------------------------------------------------
# Anti-unification of n inputs in one walk over all of them, and the cost
# generalize_sets once gave a candidate row: the memo keys the walk
# introduces. Both are transcribed from an earlier generalize.py and are
# the oracle for the left fold and for scoring a row by its pattern.


def nary_common_sort(terms):
    sorts = {sort_of(t) for t in terms}
    if len(sorts) == 1:
        return sorts.pop()
    if sorts <= {Sort.ACTION, Sort.EVENT}:
        return Sort.EVENT
    raise Incompatible(f"no common sort for {[print_term(t) for t in terms]}")


def nary_terms(terms, mode, namer):
    if all(t == terms[0] for t in terms[1:]):
        return terms[0]
    if all(isinstance(t, Application) for t in terms):
        arity = len(terms[0].args)
        if all(len(t.args) == arity for t in terms[1:]):
            syms = tuple(t.symbol for t in terms)
            same_symbol = all(s == syms[0] for s in syms[1:])
            if same_symbol:
                args = tuple(nary_terms(tuple(t.args[i] for t in terms), mode, namer)
                             for i in range(arity))
                return Application(syms[0], args)
            if mode == HIGHER_ORDER and all(isinstance(s, FunctionSymbol) for s in syms) \
                    and all(s.arg_sorts == syms[0].arg_sorts
                            and s.result_sort == syms[0].result_sort for s in syms[1:]):
                sv = namer.symbol(syms)
                args = tuple(nary_terms(tuple(t.args[i] for t in terms), mode, namer)
                             for i in range(arity))
                return Application(sv, args)
    return namer.variable(terms, nary_common_sort(terms))


def nary_formulas(fs, mode, namer):
    first = fs[0]
    if isinstance(first, TERMS):
        return nary_terms(fs, mode, namer)
    if all(f == first for f in fs[1:]):
        return first
    kinds = {type(f) for f in fs}
    if len(kinds) != 1:
        raise Incompatible("formulas with different root connectives")
    if isinstance(first, Atom):
        pred = nary_terms(tuple(f.pred for f in fs), mode, namer)
        if not isinstance(pred, Application):
            raise Incompatible("atoms cannot generalize to a bare variable")
        return Atom(pred)
    if isinstance(first, (And, Or)) and any(len(f.parts) != len(first.parts) for f in fs[1:]):
        raise Incompatible("connectives of different arity")
    if isinstance(first, (ForAll, Exists)):
        n = len(first.vars)
        if any(len(f.vars) != n for f in fs[1:]) or \
                any(f.vars[i].sort != first.vars[i].sort for f in fs[1:] for i in range(n)):
            raise Incompatible("binders disagree")
        bodies = [fs[0].body]
        for f in fs[1:]:
            ren = {fv: pv for fv, pv in zip(f.vars, first.vars)}
            bodies.append(apply_substitution(ren, f.body))
        return type(first)(first.vars, nary_formulas(tuple(bodies), mode, namer))
    if isinstance(first, Modal) and \
            any(f.op is not first.op or len(f.agents) != len(first.agents) for f in fs[1:]):
        raise Incompatible("modal operators disagree")
    return rebuild(first, [nary_formulas(col, mode, namer)
                           for col in zip(*(children(f) for f in fs))])


def namer_keys(tup, mode):
    """The memo keys anti-unifying one aligned tuple introduces, or None
    when the tuple is incompatible."""
    namer = VarNamer(tup)
    try:
        nary_formulas(tup, mode, namer)
    except Incompatible:
        return None
    return {("v", w) for w in namer.vars} | {("s", w) for w in namer.syms}


# A vocabulary with same-signature symbol pairs (likes/loves, g/h), a
# symbol of the same arity and result sort as f but other argument sorts
# (mix), and action and event terms whose common sort is event.
H1 = FunctionSymbol("h", (Sort.FLUENT,), Sort.FLUENT)
MIX = FunctionSymbol("mix", (Sort.AGENT, Sort.FLUENT), Sort.FLUENT)
UTTER = FunctionSymbol("utter", (Sort.FLUENT,), Sort.ACTION_TYPE)
DEFER = FunctionSymbol("defer", (Sort.FLUENT,), Sort.ACTION_TYPE)
SHOUT = Constant("shout", Sort.ACTION)
STORM = Constant("storm", Sort.EVENT)
TIME = Variable("t", Sort.MOMENT)
SAME_SIGNATURE = {LIKES: LOVES, LOVES: LIKES, G1: H1, H1: G1, UTTER: DEFER, DEFER: UTTER}


def random_fluent(rng, depth):
    if depth == 0 or rng.random() < 0.4:
        return rng.choice([A, B])
    r = rng.random()
    if r < 0.4:
        return rng.choice([G1, H1])(random_fluent(rng, depth - 1))
    if r < 0.6:
        return MIX(rng.choice([JACK, JILL]), random_fluent(rng, depth - 1))
    return F2(random_fluent(rng, depth - 1), random_fluent(rng, depth - 1))


def random_event(rng):
    r = rng.random()
    if r < 0.15:
        return SHOUT
    if r < 0.3:
        return STORM
    return ACTION(rng.choice([JACK, JILL]), rng.choice([UTTER, DEFER])(random_fluent(rng, 1)))


def random_moment(rng):
    return rng.choice([moment(0), moment(1), TIME])


def random_au_formula(rng, depth, agents=(JACK, JILL, JIM)):
    agent = lambda: rng.choice(agents)
    r = rng.random()
    if depth == 0 or r < 0.35:
        return rng.choice([
            lambda: Atom(rng.choice([LIKES, LOVES])(agent(), agent())),
            lambda: Atom(HUNGRY(agent())),
            lambda: Atom(HOLDS(random_fluent(rng, 2), random_moment(rng))),
            lambda: Atom(HAPPENS(random_event(rng), random_moment(rng))),
        ])()
    sub = lambda: random_au_formula(rng, depth - 1, agents)
    if r < 0.45:
        return Not(sub())
    if r < 0.55:
        return rng.choice([And, Or])(tuple(sub() for _ in range(rng.randint(1, 3))))
    if r < 0.65:
        return Implies(sub(), sub())
    if r < 0.8:
        x = Variable(rng.choice(["x", "y"]), Sort.AGENT)
        return rng.choice([ForAll, Exists])((x,), random_au_formula(rng, depth - 1, agents + (x,)))
    if r < 0.9:
        return Modal(rng.choice([ModalOp.KNOWS, ModalOp.BELIEVES]), (agent(),),
                     random_moment(rng), sub())
    return Modal(ModalOp.SAYS_TO, (agent(), agent()), random_moment(rng), sub())


def mutate(rng, node, rate=0.25):
    """A variant of a term or formula: leaves and symbols replaced, now
    and then a binder renamed, and rarely a change no generalization
    survives (a binder's sort, a modal operator, a connective's arity)."""
    if isinstance(node, Constant) and rng.random() < rate:
        if node.sort is Sort.AGENT:
            return rng.choice([JACK, JILL, JIM])
        if node.sort is Sort.FLUENT:
            return random_fluent(rng, 1)
        if node.sort is Sort.MOMENT:
            return random_moment(rng)
        if node.sort in (Sort.ACTION, Sort.EVENT):
            return random_event(rng)
    if isinstance(node, Variable):
        return random_moment(rng) if node.sort is Sort.MOMENT and rng.random() < rate else node
    if isinstance(node, Application):
        r = rng.random()
        if node.symbol is ACTION and r < rate / 2:
            return rng.choice([SHOUT, STORM])
        if node.symbol in (F2, G1, H1, MIX) and r < rate / 2:
            return random_fluent(rng, 2)
        sym = node.symbol
        if sym in SAME_SIGNATURE and rng.random() < rate:
            sym = SAME_SIGNATURE[sym]
        return Application(sym, tuple(mutate(rng, a, rate) for a in node.args))
    if isinstance(node, (ForAll, Exists)):
        body = mutate(rng, node.body, rate)
        if rng.random() < 0.03:
            return type(node)((Variable(node.vars[0].name, Sort.FLUENT),), node.body)
        if rng.random() < rate:
            y = Variable("z", node.vars[0].sort)
            return type(node)((y,), apply_substitution({node.vars[0]: y}, body))
        return type(node)(node.vars, body)
    if isinstance(node, Modal) and node.op is not ModalOp.SAYS_TO and rng.random() < 0.03:
        return Modal(ModalOp.INTENDS, node.agents, node.time, node.body)
    if isinstance(node, (And, Or)) and rng.random() < 0.03:
        return type(node)(node.parts + node.parts[:1])
    if isinstance(node, Atom) and node.pred.symbol is HUNGRY and rng.random() < 0.03:
        return Atom(LIKES(JACK, JILL))
    return rebuild(node, [mutate(rng, sub, rate) for sub in children(node)])


def random_inputs(rng, n):
    """n variants of one random formula, or now and then of one term."""
    if rng.random() < 0.15:
        base = random_fluent(rng, 3)
    else:
        base = random_au_formula(rng, 3)
    return tuple(mutate(rng, base) for _ in range(n))


def nary_outcome(inputs, mode, namer):
    try:
        return nary_formulas(inputs, mode, namer)
    except Incompatible:
        return Incompatible


@pytest.mark.parametrize("mode", [FIRST_ORDER, HIGHER_ORDER])
def test_fold_matches_nary_anti_unification(rng, mode):
    """anti_unify folds pairwise steps; its patterns, its namer's keys and
    their order, and its substitutions are those of the n-ary walk, also
    across two calls that share a namer as learn_trait shares it. The
    inputs' free ?t is now and then named as an introduced variable, and
    no introduced variable takes a name free in the inputs."""
    failed = generalized = renamed = 0
    for _ in range(1500):
        n = rng.randint(1, 7)
        calls = (random_inputs(rng, n), random_inputs(rng, n))
        ren = {TIME: Variable(rng.choice(["t", "X0", "X1", "P0"]), Sort.MOMENT)}
        calls = tuple(tuple(apply_substitution(ren, f) for f in inputs) for inputs in calls)
        free = {v.name for inputs in calls for f in inputs for v in free_variables(f)}
        got_namer = VarNamer(itertools.chain(*calls))
        want_namer = VarNamer(itertools.chain(*calls))
        for inputs in calls:
            want = nary_outcome(inputs, mode, want_namer)
            if want is Incompatible:
                with pytest.raises(Incompatible):
                    anti_unify(inputs, mode, got_namer)
                failed += 1
                break
            got = anti_unify(inputs, mode, got_namer)
            assert got.pattern == want, [print_term(f) for f in inputs]
            assert list(got_namer.vars.items()) == list(want_namer.vars.items())
            assert list(got_namer.syms.items()) == list(want_namer.syms.items())
            assert got.substitutions == tuple(want_namer.substitutions(n))
            introduced = {v.name for v in [*got_namer.vars.values(), *got_namer.syms.values()]}
            assert not introduced & free
            renamed += bool(free & {"X0", "X1", "P0"}) and bool(introduced)
            generalized += 1
    assert failed > 100 and generalized > 1000 and renamed > 300


def fold_row(fold, row):
    """The fold's pattern of a row, extended one input at a time as
    generalize_sets extends it; the Incompatible once incompatible."""
    pattern = row[0]
    for g in row[1:]:
        step = fold.extend(pattern, g)
        pattern = step if isinstance(step, Incompatible) else step[0]
    return pattern


def anti_unify_message(row, mode):
    """The message of the Incompatible that anti-unifying row raises."""
    with pytest.raises(Incompatible) as exc:
        anti_unify(row, mode)
    return str(exc.value)


@pytest.mark.parametrize("mode", [FIRST_ORDER, HIGHER_ORDER])
def test_row_pattern_scoring_matches_namer_keys(rng, mode):
    """Extending a row's pattern by a candidate holds as many holes as
    anti-unifying the whole extended row introduces keys, it fails exactly
    when that does, and rows sharing one table count shared witness
    tuples once. A failed extension is the Incompatible that anti-unifying
    the extended row raises."""
    compared = incompatible = 0
    for _ in range(400):
        width = rng.randint(1, 7)
        base = random_au_formula(rng, 3) if rng.random() < 0.85 else random_fluent(rng, 3)
        rows = [tuple(mutate(rng, base) for _ in range(width)) for _ in range(rng.randint(1, 4))]
        candidates = [mutate(rng, base) for _ in range(rng.randint(1, 5))]
        fold = _Fold(mode)
        patterns = [fold_row(fold, row) for row in rows]
        # ext[i][k] / want[i][k]: row i extended by candidate k
        ext = [[fold.extend(p, g) for g in candidates] for p in patterns]
        want = [[namer_keys(row + (g,), mode) for g in candidates] for row in rows]
        for got_row, want_row, row in zip(ext, want, rows):
            for got, keys, g in zip(got_row, want_row, candidates):
                assert isinstance(got, Incompatible) == (keys is None)
                if keys is None:
                    assert str(got) == anti_unify_message(row + (g,), mode)
                    incompatible += 1
                else:
                    assert len(got[1]) == len(keys)
                    compared += 1
        for _ in range(5):
            picks = [rng.randrange(len(candidates)) for _ in rows]
            got = [ext[i][k] for i, k in enumerate(picks)]
            keys = [want[i][k] for i, k in enumerate(picks)]
            if None not in keys:
                assert len(set().union(*(h for _, h in got))) == len(set().union(*keys))
    assert compared > 1000 and incompatible > 100


# ---------------------------------------------------------------------------
# generalize_sets against an alignment that re-anti-unifies every whole row
# of every candidate permutation under a fresh namer.


def reference_generalize_sets(gammas, mode):
    """generalize_sets as first written; returns the result (or the
    exception type) and whether some permutation beat the input order."""
    def count_new_vars(rows):
        namer = VarNamer()
        try:
            for row in rows:
                nary_formulas(row, mode, namer)
        except Incompatible:
            return 10 ** 9
        return len(namer.vars) + len(namer.syms)

    gammas = [tuple(g) for g in gammas]
    keyed = []
    for g in gammas:
        d = {}
        for f in g:
            d.setdefault(_structure_key(f, mode), []).append(f)
        for fs in d.values():
            fs.sort(key=print_formula)
        keyed.append(d)
    common = sorted(set(keyed[0]).intersection(*[set(k) for k in keyed[1:]]))
    aligned, used, reordered = [], [set() for _ in gammas], False
    for key in common:
        lists = [k[key] for k in keyed]
        width = min(len(l) for l in lists)
        chosen = [lists[0][:width]]
        for lst in lists[1:]:
            if len(lst) <= 5 and width > 1:
                best, best_cost = None, None
                for perm in itertools.permutations(lst, width):
                    cost = count_new_vars(
                        [tuple(row) + (perm[i],) for i, row in enumerate(zip(*chosen))])
                    if best_cost is None or cost < best_cost:
                        best, best_cost = perm, cost
                reordered |= list(best) != lst[:width]
                chosen.append(list(best))
            else:
                chosen.append(lst[:width])
        for i in range(width):
            tup = tuple(c[i] for c in chosen)
            aligned.append(tup)
            for j, f in enumerate(tup):
                used[j].add(print_formula(f))
    if not aligned:
        return NoAlignment, reordered
    namer = VarNamer(itertools.chain(*gammas))
    try:
        patterns = tuple(nary_formulas(tup, mode, namer) for tup in aligned)
    except Incompatible:
        return Incompatible, reordered
    total = all(len(used[j]) == len({print_formula(f) for f in g})
                for j, g in enumerate(gammas))
    if total:
        total = all(any(match(p, f) is not None for p in patterns)
                    for g in gammas for f in g)
    return SetGeneralization(patterns, tuple(namer.substitutions(len(gammas))),
                             total, tuple(namer.vars.values())), reordered


# "hungry" over fluents: aligns with hungry/1 in first-order mode, where
# anti-unifying the two cannot succeed
HUNGRY_FL = FunctionSymbol("hungry", (Sort.FLUENT,), Sort.BOOLEAN)
GOOD = FunctionSymbol("good", (Sort.FLUENT, Sort.AGENT), Sort.BOOLEAN)


def random_formula_maker(rng):
    agent = lambda: rng.choice([JACK, JILL, JIM])
    return rng.choice([
        lambda: Atom(HUNGRY(agent())),
        lambda: Atom(rng.choice([LIKES, LOVES])(agent(), agent())),
        lambda: Atom(GOOD(random_term(rng, 2), agent())),
        lambda: Not(Atom(HUNGRY(agent()))),
        lambda: imp(agent()),
        lambda: Atom(HUNGRY_FL(rng.choice([A, B]))),
        # binders of either sort share one alignment key but do not generalize
        lambda: ForAll((Variable("x", rng.choice([Sort.AGENT, Sort.FLUENT])),),
                       Atom(HUNGRY(agent()))),
    ])


@pytest.mark.parametrize("mode", [FIRST_ORDER, HIGHER_ORDER])
def test_generalize_sets_matches_whole_row_alignment(rng, mode):
    reordered = outcomes = 0
    for _ in range(700):
        # few formula kinds, so that one alignment key offers several candidates
        makers = [random_formula_maker(rng) for _ in range(2)]
        gammas = [[rng.choice(makers)() for _ in range(rng.randint(1, 6))]
                  for _ in range(rng.randint(2, 9))]
        want, moved = reference_generalize_sets(gammas, mode)
        if isinstance(want, type):
            with pytest.raises(want):
                generalize_sets(gammas, mode)
            continue
        assert generalize_sets(gammas, mode) == want, [
            [print_formula(f) for f in g] for g in gammas]
        outcomes += 1
        reordered += moved
    # the permutation search decides the alignment in a good share of cases
    assert outcomes > 100 and reordered > 30


@pytest.mark.parametrize("mode", [FIRST_ORDER, HIGHER_ORDER])
def test_failed_row_raises_anti_unify_message(mode):
    # one alignment key with two rows; the second and third sets offer 3
    # and 2 candidates, so the permutation search picks each row's formula.
    # Every permutation of the second set gives some row a binder of sort
    # fluent, so the first permutation wins: the agent binder over jim goes
    # to row 0, the fluent binder over jack to row 1, and row 1 fails. Its
    # error is the one anti-unifying that row alone raises.
    def binder(sort, who):
        return ForAll((Variable("x", sort),), Atom(HUNGRY(who)))
    gammas = [[binder(Sort.AGENT, JACK), binder(Sort.AGENT, JILL)],
              [binder(Sort.FLUENT, JILL), binder(Sort.AGENT, JIM), binder(Sort.FLUENT, JACK)],
              [binder(Sort.AGENT, JILL), binder(Sort.AGENT, JACK)]]
    assert len({_structure_key(f, mode) for g in gammas for f in g}) == 1
    with pytest.raises(Incompatible) as exc:
        generalize_sets(gammas, mode)
    row = (binder(Sort.AGENT, JILL), binder(Sort.FLUENT, JACK), binder(Sort.AGENT, JILL))
    assert str(exc.value) == anti_unify_message(row, mode) == "binders disagree"


@pytest.mark.parametrize("mode", [FIRST_ORDER, HIGHER_ORDER])
@pytest.mark.parametrize("seed", range(3))
def test_generalize_sets_matches_whole_row_alignment_on_learn_traits(mode, seed):
    # the exemplar situations of the benchmark's learner workload: 45 sets
    # whose alignment keys each offer 3 candidates
    text, _ = perfbench.generate("learn-traits", seed)
    gammas = [s.formulas for s in parse_scenario(text).observations]
    want, _ = reference_generalize_sets(gammas, mode)
    assert generalize_sets(gammas, mode) == want
